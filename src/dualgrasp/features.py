"""Per-point geometric descriptors feeding the map predictor.

Seven values per point: height above the table, estimated surface normal (3),
a curvature proxy (smallest/sum covariance eigenvalue ratio), the neighbor
count inside the feature radius, and the distance to the cloud centroid. This
stands in for a heavyweight learned backbone at desk scale.
"""

from dataclasses import dataclass

import numpy as np

from .cloud import PointCloud, SpatialIndex, neighborhood_eigh

FEATURE_DIM = 7


@dataclass
class FeatureConfig:
    radius: float = 0.015


def compute_point_features(cloud: PointCloud, table_height: float = 0.0,
                           config: FeatureConfig = None) -> np.ndarray:
    """(N, 7) finite feature matrix for every cloud point.

    Points with degenerate neighborhoods get the view direction as normal and
    zero curvature instead of being dropped; every point must stay addressable.
    """
    cfg = config or FeatureConfig()
    pts = cloud.points
    starts, members = SpatialIndex(cloud).radius_csr(cfg.radius)
    sizes = np.diff(starts)
    evals, evecs = neighborhood_eigh(pts, starts, members)

    normals = evecs[:, :, 0]
    degenerate = evals[:, 1] <= 1e-12  # includes every neighbourhood of fewer than 3 points
    if np.any(degenerate):
        toward = cloud.viewpoint - pts[degenerate]
        normals[degenerate] = toward / np.linalg.norm(toward, axis=1, keepdims=True)
    flip = np.sum(normals * (cloud.viewpoint - pts), axis=1) < 0
    normals[flip] *= -1.0
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)

    esum = evals.sum(axis=1)
    curvature = np.where(degenerate | (esum <= 0), 0.0, evals[:, 0] / np.maximum(esum, 1e-300))

    centroid = pts.mean(axis=0)
    feats = np.column_stack(
        [
            pts[:, 2] - table_height,
            normals,
            curvature,
            sizes,
            np.linalg.norm(pts - centroid, axis=1),
        ]
    )
    if not np.all(np.isfinite(feats)):
        raise ValueError("non-finite point features")
    return feats
