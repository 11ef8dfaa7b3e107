"""Point-cloud containers and geometric primitives: spatial queries, FPS, covariance normals."""

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .geometry import as_point


class DegenerateNeighborhood(ValueError):
    """Raised when a normal cannot be estimated from a point's neighborhood."""


@dataclass
class PointCloud:
    """An ordered set of 3D points (meters) plus the sensor viewpoint.

    Point order is stable: indices are identities for the whole pipeline.
    """

    points: np.ndarray
    viewpoint: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64)
        if self.points.ndim != 2 or self.points.shape[1] != 3:
            raise ValueError(f"points must have shape (N, 3), got {self.points.shape}")
        if len(self.points) < 1:
            raise ValueError("point cloud must contain at least one point")
        if not np.all(np.isfinite(self.points)):
            raise ValueError("point cloud contains non-finite coordinates")
        self.viewpoint = as_point(self.viewpoint)

    def __len__(self) -> int:
        return len(self.points)


class SpatialIndex:
    """k-NN / radius acceleration structure over a PointCloud.

    Queries return exactly the same index sets as a brute-force scan, with
    deterministic ordering: k-NN sorts by (distance, index), radius queries by
    ascending index. The index is immutable after construction; concurrent
    reads are safe.
    """

    def __init__(self, cloud: PointCloud):
        if len(cloud) < 1:
            raise ValueError("cannot index an empty cloud")
        self.cloud = cloud
        self._tree = cKDTree(cloud.points)

    def knn(self, query, k: int) -> np.ndarray:
        """Indices of the k nearest points, ascending distance, ties by ascending index."""
        n = len(self.cloud)
        if not 1 <= k <= n:
            raise ValueError(f"k must be in [1, {n}], got {k}")
        q = as_point(query)
        d, _ = self._tree.query(q, k=k)
        dmax = float(np.max(d)) if k > 1 else float(d)
        # Re-collect every point within the k-th distance (plus a guard for
        # float disagreement between tree and numpy arithmetic), then order by
        # exact squared distance computed the same way the brute-force oracle does.
        cand = np.asarray(self._tree.query_ball_point(q, dmax * (1.0 + 1e-9) + 1e-12), dtype=np.intp)
        d2 = np.sum((self.cloud.points[cand] - q) ** 2, axis=1)
        order = np.lexsort((cand, d2))
        return cand[order][:k]

    def radius(self, query, r: float) -> np.ndarray:
        """Indices of all points with distance <= r, sorted by ascending index."""
        if r <= 0:
            raise ValueError(f"radius must be positive, got {r}")
        q = as_point(query)
        idx = np.asarray(self._tree.query_ball_point(q, r), dtype=np.intp)
        idx.sort()
        return idx

    def radius_csr(self, r: float):
        """Radius query around every cloud point at once, in CSR form.

        Returns (starts, members): members[starts[i]:starts[i + 1]] are the
        indices of all points with distance <= r of point i (itself included),
        sorted by ascending index, the same set radius(points[i], r) returns.
        """
        if r <= 0:
            raise ValueError(f"radius must be positive, got {r}")
        pairs = self._tree.sparse_distance_matrix(self._tree, r, output_type="ndarray")
        order = np.lexsort((pairs["j"], pairs["i"]))
        counts = np.bincount(pairs["i"], minlength=len(self.cloud))
        starts = np.concatenate([[0], np.cumsum(counts)]).astype(np.intp)
        return starts, pairs["j"][order].astype(np.intp)


def build_index(cloud: PointCloud) -> SpatialIndex:
    return SpatialIndex(cloud)


def knn(index: SpatialIndex, query, k: int) -> np.ndarray:
    return index.knn(query, k)


def radius_query(index: SpatialIndex, query, r: float) -> np.ndarray:
    return index.radius(query, r)


def farthest_point_sampling(cloud: PointCloud, subset, m: int) -> np.ndarray:
    """Deterministic greedy farthest point sampling over a subset of cloud indices.

    The first pick is the subset point closest to the subset centroid; each
    following pick maximizes the minimum distance to the points already
    selected. All ties break toward the lowest point index. m == len(subset)
    returns the subset unchanged.
    """
    subset = np.asarray(subset, dtype=np.intp)
    if m > len(subset):
        raise ValueError(f"cannot sample {m} points from a subset of {len(subset)}")
    if m == len(subset):
        return subset.copy()

    pts = cloud.points[subset]
    centroid = pts.mean(axis=0)
    d2c = np.sum((pts - centroid) ** 2, axis=1)
    first = _argmin_tiebreak(d2c, subset)

    chosen = [first]
    mind2 = np.sum((pts - pts[first]) ** 2, axis=1)
    for _ in range(1, m):
        nxt = _argmax_tiebreak(mind2, subset)
        chosen.append(nxt)
        d2 = np.sum((pts - pts[nxt]) ** 2, axis=1)
        np.minimum(mind2, d2, out=mind2)
    return subset[np.asarray(chosen, dtype=np.intp)]


def _argmin_tiebreak(values: np.ndarray, ids: np.ndarray) -> int:
    best = np.min(values)
    ties = np.flatnonzero(values == best)
    return int(ties[np.argmin(ids[ties])])


def _argmax_tiebreak(values: np.ndarray, ids: np.ndarray) -> int:
    best = np.max(values)
    ties = np.flatnonzero(values == best)
    return int(ties[np.argmin(ids[ties])])


def normal_from_neighborhood(neighbors: np.ndarray, seed_point, viewpoint) -> np.ndarray:
    """Surface normal from a neighborhood point set via covariance analysis.

    Returns the eigenvector of the covariance matrix with the smallest
    eigenvalue, flipped so it points toward the viewpoint. Raises
    DegenerateNeighborhood when fewer than 3 points are available or the
    covariance is rank-deficient (second eigenvalue <= 1e-12, i.e. the
    neighborhood is collinear).
    """
    neighbors = np.asarray(neighbors, dtype=np.float64)
    if len(neighbors) < 3:
        raise DegenerateNeighborhood(f"need >= 3 neighbors, got {len(neighbors)}")
    centered = neighbors - neighbors.mean(axis=0)
    cov = centered.T @ centered / len(neighbors)
    evals, evecs = np.linalg.eigh(cov)
    if evals[1] <= 1e-12:
        raise DegenerateNeighborhood("neighborhood covariance is rank-deficient")
    n = evecs[:, 0]
    toward = as_point(viewpoint) - as_point(seed_point)
    if np.dot(n, toward) < 0:
        n = -n
    return n / np.linalg.norm(n)


def estimate_normal(index: SpatialIndex, seed: int, r: float, viewpoint=None) -> np.ndarray:
    """Covariance surface normal at cloud point `seed` from its radius-r neighborhood.

    The neighborhood includes the seed itself. Sign is oriented toward the
    viewpoint (the cloud's own viewpoint unless overridden).
    """
    if viewpoint is None:
        viewpoint = index.cloud.viewpoint
    neigh = index.radius(index.cloud.points[seed], r)
    return normal_from_neighborhood(index.cloud.points[neigh], index.cloud.points[seed], viewpoint)
