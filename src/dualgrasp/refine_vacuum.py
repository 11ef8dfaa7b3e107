"""Vacuum pose refinement: covariance normals complete the poses from geometry alone.

No trained parameters are involved; this stage only runs at inference time.
"""

import numpy as np

from .cloud import PointCloud, SpatialIndex, neighborhood_eigh, orient_normal
from .grasps import VacuumGrasp
from .sampling import SeedSet

DEFAULT_NORMAL_RADIUS = 0.01


def refine_vacuum_poses(cloud: PointCloud, seeds: SeedSet, r: float = DEFAULT_NORMAL_RADIUS):
    """One vacuum pose per seed: center at the seed, covariance normal, fused score.

    All seed normals come from one radius query and one batched covariance
    kernel, bit-identical to estimate_normal at each seed. Seeds with
    degenerate neighborhoods (fewer than 3 points, or collinear) are dropped
    rather than raised. Returns (grasps, dropped_count).
    """
    if seeds.gripper != "vacuum":
        raise ValueError(f"expected vacuum seeds, got {seeds.gripper!r}")
    evals, evecs = neighborhood_eigh(cloud.points, *SpatialIndex(cloud).radius_csr(r, seeds.indices))
    grasps = []
    for i in np.flatnonzero(evals[:, 1] > 1e-12).tolist():
        seed = int(seeds.indices[i])
        normal = orient_normal(evecs[i, :, 0], cloud.points[seed], cloud.viewpoint)
        grasps.append(VacuumGrasp(center=cloud.points[seed], normal=normal,
                                  score=float(seeds.fused_scores[i]), seed_index=seed))
    return grasps, len(seeds) - len(grasps)


def rank_vacuum(grasps, k: int):
    """Top-k vacuum grasps by descending score, ties by ascending seed index."""
    order = sorted(range(len(grasps)), key=lambda i: (-grasps[i].score, grasps[i].seed_index))
    return [grasps[i] for i in order[: max(0, k)]]
