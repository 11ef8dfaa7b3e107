"""Point-cloud containers and geometric primitives: spatial queries, FPS, covariance normals."""

from dataclasses import dataclass, field

import numpy as np

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
    """k-NN / radius queries over a PointCloud.

    Queries return exactly the index sets of a brute-force scan, with
    deterministic ordering: k-NN sorts by (distance, index), radius queries by
    ascending index. A point lies within r of a query when its squared
    distance, summed (d0*d0 + d1*d1) + d2*d2 as np.sum((p - q) ** 2) sums it,
    is <= r * r. Single queries scan every point; radius_csr buckets the points
    into a CellGrid of edge r. The index is immutable after construction;
    concurrent reads are safe.
    """

    def __init__(self, cloud: PointCloud):
        if len(cloud) < 1:
            raise ValueError("cannot index an empty cloud")
        self.cloud = cloud

    def knn(self, query, k: int) -> np.ndarray:
        """Indices of the k nearest points, ascending distance, ties by ascending index."""
        n = len(self.cloud)
        if not 1 <= k <= n:
            raise ValueError(f"k must be in [1, {n}], got {k}")
        return np.lexsort((np.arange(n), sq_dists(self.cloud.points.T, as_point(query)[:, None])))[:k]

    def radius(self, query, r: float) -> np.ndarray:
        """Indices of all points with distance <= r, sorted by ascending index."""
        _check_radius(r)
        return np.flatnonzero(sq_dists(self.cloud.points.T, as_point(query)[:, None]) <= r * r)

    def radius_csr(self, r: float, centers=None):
        """Radius queries around many cloud points at once, in CSR form.

        Returns (starts, members): members[starts[i]:starts[i + 1]] are the
        indices of all points with distance <= r of point i (itself included),
        sorted by ascending index, the same set radius(points[i], r) returns.
        With centers (cloud point indices), row i belongs to point centers[i];
        by default there is one row per cloud point.
        """
        _check_radius(r)
        grid = CellGrid(self.cloud.points, r)
        if centers is not None:
            return grid.near(self.cloud.points[np.asarray(centers, dtype=np.intp)], r)
        # each unordered pair once (distance-0 duplicates included), mirrored,
        # plus the self-pairs; one sort of the key i * n + j orders rows, then members
        n = len(self.cloud)
        i, j = grid.pairs()
        counts = np.bincount(i, minlength=n) + np.bincount(j, minlength=n) + 1
        starts = np.concatenate([[0], np.cumsum(counts)]).astype(np.intp)
        # below 46341 points the keys fit int32, which sorts in half the time
        i, j = (i, j) if n * n >= 2**31 else (i.astype(np.int32), j.astype(np.int32))
        keys = np.concatenate([i * n + j, j * n + i, np.arange(n, dtype=i.dtype) * (n + 1)])
        keys.sort()
        return starts, (keys % n).astype(np.intp, copy=False)


def _check_radius(r: float):
    if not (np.isfinite(r) and r > 0):
        raise ValueError(f"radius must be positive and finite, got {r}")


def sq_dists(a, b) -> np.ndarray:
    """Squared distances between coordinate columns a and b, broadcast after their leading axis of 3.

    Summed (d0*d0 + d1*d1) + d2*d2: bitwise np.sum((p - q) ** 2, axis=-1) of
    the points as rows, without a reduction over an axis of length 3.
    """
    d = a - b
    d2 = d[0] * d[0] + d[1] * d[1]
    d2 += d[2] * d[2]
    return d2


class CellGrid:
    """Points bucketed into cubic cells: fixed-radius neighbour search without a tree.

    The points are sorted once by the integer key (x * ny + y) * nz + z of
    their cell, ties by index, so a cell, and a run of cells along z, is a
    contiguous range of the sorted points. Cells are at least `edge` wide, so
    the points within edge of a point lie in its cell and the 26 around it.
    Two margins keep that exact:
    - the cells are 2e-6 wider than asked, far more than the rounding of a
      cell coordinate can move a point;
    - at most `side` cells per axis keep key * len(points) + index inside
      int64 however small edge is next to the points' extent: coarser cells
      only bring more candidates to the exact distance test.
    The grid holds the points by reference, their order and the occupied
    cells; the queries copy the coordinates they scan.
    """

    def __init__(self, points, edge: float):
        self.points = np.asarray(points, dtype=np.float64)
        cols = self.points.T
        n = len(self.points)
        self.radius = edge
        self.lo = cols.min(axis=1)
        side = max(1, int((2.0**62 / n) ** (1 / 3)) - 1)  # (side + 1)^3 * n <= 2^62
        self.edge = max(edge, float(np.max(cols.max(axis=1) - self.lo)) / side) * (1 + 2e-6)
        x, y, z = np.floor((cols - self.lo[:, None]) / self.edge).astype(np.intp)
        self.dims = np.array([x.max(), y.max(), z.max()]) + 1
        key = (x * self.dims[1] + y) * self.dims[2] + z
        keys, self.order = np.divmod(np.sort(key * n + np.arange(n)), n)
        first = np.flatnonzero(np.concatenate([[True], keys[1:] != keys[:-1]]))
        self.cells = keys[first]  # the occupied cells' keys, ascending
        self.cell_starts = np.append(first, n)  # cell c holds sorted points cell_starts[c]:cell_starts[c + 1]

    def _first_at(self, keys):
        """Sorted position of the first point whose cell key is >= each key."""
        return self.cell_starts[np.searchsorted(self.cells, keys)]

    def near(self, queries, r: float):
        """The points within r of each query, in CSR form, each row ascending by point index.

        Returns (starts, members): members[starts[i]:starts[i + 1]] are the
        indices of the points within r of queries[i], as SpatialIndex.radius
        finds them.
        """
        q = np.asarray(queries, dtype=np.float64).reshape(-1, 3)
        reach = int(np.ceil(r / self.edge + 1e-6))  # in cells; the margin covers rounding
        cells = np.floor(np.clip((q - self.lo) / self.edge, -reach - 1, self.dims + reach)).astype(np.intp)
        # each query scans (2 reach + 1)^2 columns of cells (fewer on a smaller
        # grid), shifted inside the grid, and in each the run of cells along z
        width = np.minimum(2 * reach + 1, self.dims[:2])
        x0, y0 = (np.clip(cells[:, a] - reach, 0, self.dims[a] - width[a]) for a in (0, 1))
        dx, dy = np.divmod(np.arange(width[0] * width[1]), width[1])
        base = ((x0[:, None] + dx) * self.dims[1] + y0[:, None] + dy) * self.dims[2]
        starts = self._first_at(base + np.maximum(cells[:, 2:] - reach, 0))
        lens = self._first_at(base + np.minimum(cells[:, 2:] + reach, self.dims[2] - 1) + 1) - starts
        reached = np.all((cells + reach >= 0) & (cells - reach < self.dims), axis=1)
        cols = self.points.T.take(self.order, axis=1)
        counts, pos = _scan(cols, starts, np.where(reached[:, None], lens, 0), q.T, r)
        n = len(self.order)
        keys = np.repeat(np.arange(len(q)) * n, counts)
        keys += self.order[pos]
        keys.sort()
        return np.concatenate([[0], np.cumsum(counts)]).astype(np.intp), keys % n

    def pairs(self):
        """Every unordered pair of points within the grid's radius of each other, once.

        Returns (i, j), point indices; distance-0 duplicates included, self-pairs not.
        """
        n = len(self.order)
        nx, ny, nz = self.dims
        cx, rest = np.divmod(self.cells, ny * nz)
        cy, cz = np.divmod(rest, nz)
        below, above = self.cells - (cz > 0), self.cells + (cz + 1 < nz)
        # the cells after a point's own in key order: the rest of its own cell
        # and the next along z, one range, then four columns of three cells
        starts, ends = [], [self._first_at(above + 1)]
        for dx, dy in ((0, 1), (1, -1), (1, 0), (1, 1)):
            shift = (dx * ny + dy) * nz
            lo = self._first_at(below + shift)
            starts.append(lo)
            ends.append(np.where((cx + dx < nx) & (cy + dy >= 0) & (cy + dy < ny),
                                 self._first_at(above + shift + 1), lo))
        cell_of = np.repeat(np.arange(len(self.cells)), np.diff(self.cell_starts))
        starts = np.column_stack([np.arange(1, n + 1)] + [s[cell_of] for s in starts])
        lens = np.column_stack(ends)[cell_of] - starts
        cols = self.points.T.take(self.order, axis=1)
        counts, j = _scan(cols, starts, lens, cols, self.radius)
        return self.order[np.repeat(np.arange(n), counts)], self.order[j]


_SCAN_CHUNK = 1 << 15  # candidate distances per step of _scan


def _scan(cols, starts, lens, qcols, r: float):
    """Exact distance test of K queries, each against its ranges of points.

    cols holds the points and qcols the queries, as (3, N) and (3, K)
    coordinate columns. starts and lens are (K, R): R ranges of point
    positions per query. Returns the number of hits per query and the
    positions hit, query by query, in range order. Queries go in chunks of
    about _SCAN_CHUNK candidates, so the temporaries stay small.
    """
    per_query = lens.sum(axis=1)
    ends = np.cumsum(per_query)
    bounds = np.searchsorted(ends, np.arange(_SCAN_CHUNK, ends[-1] if len(ends) else 0, _SCAN_CHUNK))
    hits, positions = [], []
    r2 = r * r
    for k0, k1 in zip([0, *bounds], [*bounds, len(lens)]):
        ln = lens[k0:k1].ravel()
        skip = np.cumsum(ln) - ln
        pos = np.repeat(starts[k0:k1].ravel() - skip, ln)
        pos += np.arange(len(pos))
        q = np.repeat(qcols[:, k0:k1], per_query[k0:k1], axis=1)
        d2 = None
        for a in range(3):  # (d0*d0 + d1*d1) + d2*d2, as sq_dists sums
            d = cols[a].take(pos)
            d -= q[a]
            d *= d
            d2 = d if d2 is None else np.add(d2, d, out=d2)
        hit = np.flatnonzero(d2 <= r2)
        positions.append(pos.take(hit))
        hits.append(hit + (ends[k0 - 1] if k0 else 0))
    counts = np.diff(np.searchsorted(np.concatenate(hits), ends), prepend=0)
    return counts, np.concatenate(positions)


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
    # squared distances to each pick run on (3, n) columns (sq_dists)
    cols = np.ascontiguousarray(pts.T)
    mind2 = np.full(len(pts), np.inf)
    for _ in range(1, m):
        np.minimum(mind2, sq_dists(cols, pts[chosen[-1], :, None]), out=mind2)
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


def estimate_normal(index: SpatialIndex, seed: int, r: float) -> np.ndarray:
    """Covariance surface normal at cloud point `seed` from its radius-r neighborhood.

    The neighborhood includes the seed itself. Sign is oriented toward the
    cloud's viewpoint.
    """
    neigh = index.radius(index.cloud.points[seed], r)
    return normal_from_neighborhood(index.cloud.points[neigh], index.cloud.points[seed], index.cloud.viewpoint)
