"""Per-point geometric descriptors feeding the map predictor.

Seven values per point: height above the table, estimated surface normal (3),
a curvature proxy (smallest/sum covariance eigenvalue ratio), the neighbor
count inside the feature radius, and the distance to the cloud centroid. This
stands in for a heavyweight learned backbone at desk scale.
"""

import numpy as np

from .cloud import PointCloud, SpatialIndex, neighborhood_eigh

FEATURE_DIM = 7
FEATURE_RADIUS = 0.015  # neighbourhood radius of the normal, curvature and count [m]


def compute_point_features(cloud: PointCloud, table_height: float = 0.0,
                           radius: float = FEATURE_RADIUS) -> np.ndarray:
    """(N, 7) finite feature matrix for every cloud point.

    Points with degenerate neighborhoods get the view direction as normal and
    zero curvature instead of being dropped; every point must stay addressable.
    """
    pts = cloud.points
    starts, members = SpatialIndex(cloud).radius_csr(radius)
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
