"""Point-cloud containers and geometric primitives: spatial queries, FPS, covariance normals."""

import itertools
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .geometry import as_point, row_dots, unit_rows


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
        _check_radius(r)
        q = as_point(query)
        idx = np.asarray(self._tree.query_ball_point(q, r), dtype=np.intp)
        idx.sort()
        return idx

    def radius_csr(self, r: float, centers=None):
        """Radius queries around many cloud points at once, in CSR form.

        Returns (starts, members): members[starts[i]:starts[i + 1]] are the
        indices of all points with distance <= r of point i (itself included),
        sorted by ascending index, the same set radius(points[i], r) returns.
        With centers (cloud point indices), row i belongs to point centers[i];
        by default there is one row per cloud point.
        """
        _check_radius(r)
        if centers is not None:
            # few centers: one ball query each beats finding every pair of the cloud
            lists = self._tree.query_ball_point(self.cloud.points[np.asarray(centers, dtype=np.intp)], r,
                                                return_sorted=True)
            starts = np.concatenate([[0], np.cumsum([len(m) for m in lists])]).astype(np.intp)
            return starts, np.fromiter(itertools.chain.from_iterable(lists), dtype=np.intp, count=starts[-1])
        # each unordered pair once (i < j, distance-0 duplicates included), mirrored,
        # plus the self-pairs; one sort of the key i * n + j orders rows, then members
        n = len(self.cloud)
        pairs = self._tree.query_pairs(r, output_type="ndarray").astype(np.intp, copy=False)
        i, j = pairs[:, 0], pairs[:, 1]
        keys = np.concatenate([i * n + j, j * n + i, np.arange(n, dtype=np.intp) * (n + 1)])
        keys.sort()
        counts = np.bincount(pairs.ravel(), minlength=n) + 1
        starts = np.concatenate([[0], np.cumsum(counts)]).astype(np.intp)
        return starts, keys % n


def _check_radius(r: float):
    if not (np.isfinite(r) and r > 0):
        raise ValueError(f"radius must be positive and finite, got {r}")


def farthest_point_sampling(cloud: PointCloud, subset, m: int) -> np.ndarray:
    """Deterministic greedy farthest point sampling over a subset of cloud indices.

    The first pick is the subset point closest to the subset centroid; each
    following pick maximizes the minimum distance to the points already
    selected. All ties break toward the lowest point index. m == len(subset)
    returns the subset unchanged and m == 0 an empty selection; a negative m
    raises ValueError.
    """
    subset = np.asarray(subset, dtype=np.intp)
    if not 0 <= m <= len(subset):
        raise ValueError(f"cannot sample {m} points from a subset of {len(subset)}")
    if m == len(subset) or m == 0:
        return subset[:m].copy()

    centroid = cloud.points[subset].mean(axis=0)
    # in ascending index order the first of tied positions is the lowest index
    subset = np.sort(subset)
    pts = cloud.points[subset]
    d2c = np.sum((pts - centroid) ** 2, axis=1)
    chosen = [int(np.argmin(d2c))]
    # Squared distances to each pick run on (3, n) columns, summed in col_norms'
    # order: bitwise np.sum((pts - p) ** 2, axis=1) without a reduction over an
    # axis of length 3.
    cols = np.ascontiguousarray(pts.T)
    mind2 = np.full(len(pts), np.inf)
    for _ in range(1, m):
        d = cols - pts[chosen[-1], :, None]
        d2 = d[0] * d[0] + d[1] * d[1]
        d2 += d[2] * d[2]
        np.minimum(mind2, d2, out=mind2)
        chosen.append(int(np.argmax(mind2)))
    return subset[np.asarray(chosen, dtype=np.intp)]


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
    return orient_normals(evecs[:, 0], as_point(seed_point), viewpoint)[0]


def orient_normals(normals, points, viewpoint) -> np.ndarray:
    """Unit rows along normals, each signed to point from its row of points toward the viewpoint.

    Each row has the bits of a one-row call.
    """
    n = np.asarray(normals, dtype=np.float64).reshape(-1, 3)
    toward = as_point(viewpoint) - np.asarray(points, dtype=np.float64).reshape(-1, 3)
    return unit_rows(np.where((row_dots(n, toward) < 0)[:, None], -n, n))


def neighborhood_eigh(points: np.ndarray, starts: np.ndarray, members: np.ndarray):
    """Covariance eigen-decomposition of every neighbourhood of a CSR radius query.

    Neighbourhood i is points[members[starts[i]:starts[i + 1]]]. Returns
    (evals, evecs) shaped (n, 3) and (n, 3, 3), ascending as np.linalg.eigh
    gives them. A neighbourhood of fewer than 3 points gets zero eigenvalues
    and identity eigenvectors, so `evals[:, 1] <= 1e-12` flags every
    degenerate neighbourhood. The covariances are built in one batched product
    per neighbourhood size k: the same sums, in the same order, as
    normal_from_neighborhood's for a single (k, 3) neighbourhood, so the
    results are bit-identical to it.
    """
    sizes = np.diff(starts)
    n = len(sizes)
    covs = np.zeros((n, 3, 3))
    ok = sizes >= 3
    for k in np.unique(sizes[ok]).tolist():
        rows = np.flatnonzero(sizes == k)
        local = points[members[starts[rows, None] + np.arange(k)]]
        centered = local - local.sum(axis=1, keepdims=True) / k
        covs[rows] = np.matmul(centered.transpose(0, 2, 1), centered) / k
    evals = np.zeros((n, 3))
    evecs = np.tile(np.eye(3), (n, 1, 1))
    if np.any(ok):
        evals[ok], evecs[ok] = np.linalg.eigh(covs[ok])
    return evals, evecs


def estimate_normal(index: SpatialIndex, seed: int, r: float, viewpoint=None) -> np.ndarray:
    """Covariance surface normal at cloud point `seed` from its radius-r neighborhood.

    The neighborhood includes the seed itself. Sign is oriented toward the
    viewpoint (the cloud's own viewpoint unless overridden).
    """
    if viewpoint is None:
        viewpoint = index.cloud.viewpoint
    neigh = index.radius(index.cloud.points[seed], r)
    return normal_from_neighborhood(index.cloud.points[neigh], index.cloud.points[seed], viewpoint)
