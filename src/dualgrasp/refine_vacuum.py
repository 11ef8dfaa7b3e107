"""Vacuum pose refinement: covariance normals complete the poses from geometry alone.

No trained parameters are involved; this stage only runs at inference time.
"""

import numpy as np

from .cloud import PointCloud, SpatialIndex, neighborhood_eigh, orient_normals
from .grasps import Grasps
from .sampling import SeedSet

DEFAULT_NORMAL_RADIUS = 0.01


def refine_vacuum_poses(cloud: PointCloud, seeds: SeedSet, r: float = DEFAULT_NORMAL_RADIUS):
    """One vacuum pose per seed: center at the seed, covariance normal, fused score.

    All seed normals come from one radius query and one batched covariance
    kernel, bit-identical to estimate_normal at each seed. Seeds with
    degenerate neighborhoods (fewer than 3 points, or collinear) are dropped
    rather than raised. Returns (grasps, dropped_count), the grasps in seed order.
    """
    evals, evecs = neighborhood_eigh(cloud.points, *SpatialIndex(cloud).radius_csr(r, seeds.indices))
    rows = np.flatnonzero(evals[:, 1] > 1e-12)
    centers = cloud.points[seeds.indices[rows]]
    normals = orient_normals(evecs[rows, :, 0], centers, cloud.viewpoint)
    grasps = Grasps.vacuum(centers, normals, seeds.fused_scores[rows], seed_index=seeds.indices[rows])
    return grasps, len(seeds) - len(grasps)
