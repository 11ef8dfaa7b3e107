"""Per-point geometric descriptors feeding the map predictor.

Seven values per point: height above the table, estimated surface normal (3),
a curvature proxy (smallest/sum covariance eigenvalue ratio), the neighbor
count inside the feature radius, and the distance to the cloud centroid. This
stands in for a heavyweight learned backbone at desk scale.
"""

import numpy as np

from .cloud import PointCloud, SpatialIndex, neighborhood_eigh

FEATURE_RADIUS = 0.015  # neighbourhood radius of the normal, curvature and count [m]


class FeatureState:
    """The (N, 7) features of one cloud and the neighbourhood analysis behind them.

    Holds the radius CSR (starts, members), the covariance eigenvalues and the
    smallest-eigenvalue eigenvector of every neighbourhood. FeatureState.fresh
    is the full pass; remove derives the state of the cloud without some
    points and recomputes only the neighbourhoods that lost one. Both assemble
    the features with the same code, so they give the same bits.
    """

    def __init__(self, cloud: PointCloud, table_height: float, starts, members, evals, axes):
        self.cloud = cloud
        self.table_height = table_height
        self.starts = starts
        self.members = members
        self.evals = evals
        self.axes = axes
        self.features = _assemble(cloud, table_height, np.diff(starts), evals, axes)

    @classmethod
    def fresh(cls, cloud: PointCloud, table_height: float, radius: float = FEATURE_RADIUS):
        starts, members = SpatialIndex(cloud).radius_csr(radius)
        evals, evecs = neighborhood_eigh(cloud.points, starts, members)
        return cls(cloud, table_height, starts, members, evals, np.ascontiguousarray(evecs[:, :, 0]))

    def remove(self, cloud: PointCloud, keep) -> "FeatureState":
        """State of cloud, which must be this state's cloud restricted to the rows where keep is True.

        Points only leave, so every kept neighbourhood is its old member list
        without the removed points: the members are renumbered by their rank
        among the kept points, which keeps each list ascending. Neighbourhoods
        that lost no point keep their eigen results.
        """
        keep = np.asarray(keep, dtype=bool)
        old_sizes = np.diff(self.starts)
        row_of = np.repeat(np.arange(len(keep)), old_sizes)
        kept = keep[self.members]
        lost = np.bincount(row_of[~kept], minlength=len(keep))
        sizes = (old_sizes - lost)[keep]
        starts = np.concatenate([[0], np.cumsum(sizes)]).astype(np.intp)
        rank = np.cumsum(keep) - 1
        members = rank[self.members[kept & keep[row_of]]]
        evals, axes = self.evals[keep], self.axes[keep]
        rows = np.flatnonzero(lost[keep])
        if len(rows):
            sub_sizes = sizes[rows]
            sub_starts = np.concatenate([[0], np.cumsum(sub_sizes)]).astype(np.intp)
            gather = np.repeat(starts[rows] - sub_starts[:-1], sub_sizes) + np.arange(sub_starts[-1])
            sub_evals, sub_evecs = neighborhood_eigh(cloud.points, sub_starts, members[gather])
            evals[rows], axes[rows] = sub_evals, sub_evecs[:, :, 0]
        return FeatureState(cloud, self.table_height, starts, members, evals, axes)


def _assemble(cloud: PointCloud, table_height: float, sizes, evals, axes) -> np.ndarray:
    """Feature matrix from each point's neighbourhood size and covariance eigen results.

    Points with degenerate neighborhoods get the view direction as normal and
    zero curvature instead of being dropped; every point must stay addressable.
    """
    pts = cloud.points
    normals = axes.copy()
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


def compute_point_features(cloud: PointCloud, table_height: float = 0.0,
                           radius: float = FEATURE_RADIUS) -> np.ndarray:
    """(N, 7) finite feature matrix for every cloud point: a fresh FeatureState's features."""
    return FeatureState.fresh(cloud, table_height, radius).features
