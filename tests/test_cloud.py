import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from dualgrasp.cloud import (
    CellGrid,
    DegenerateNeighborhood,
    PointCloud,
    SpatialIndex,
    estimate_normal,
    farthest_point_sampling,
)
from dualgrasp.features import FEATURE_RADIUS
from dualgrasp.geometry import fibonacci_hemisphere
from dualgrasp.scenes import SynthConfig, generate_scene

from conftest import random_cloud


# -- brute-force oracles -------------------------------------------------------


def brute_knn(points, query, k):
    d2 = np.sum((points - query) ** 2, axis=1)
    order = np.lexsort((np.arange(len(points)), d2))
    return order[:k]


def brute_radius(points, query, r):
    d2 = np.sum((points - query) ** 2, axis=1)
    return np.flatnonzero(d2 <= r * r)


def brute_fps(points, subset, m):
    subset = list(subset)
    pts = points[subset]
    centroid = pts.mean(axis=0)
    d2c = np.sum((pts - centroid) ** 2, axis=1)
    best = min(range(len(subset)), key=lambda i: (d2c[i], subset[i]))
    chosen = [best]
    mind = np.sum((pts - pts[best]) ** 2, axis=1)
    while len(chosen) < m:
        nxt = min(range(len(subset)), key=lambda i: (-mind[i], subset[i]))
        chosen.append(nxt)
        mind = np.minimum(mind, np.sum((pts - pts[nxt]) ** 2, axis=1))
    return [subset[i] for i in chosen]


def row_sum_fps(points, subset, m):
    """farthest_point_sampling as first written: each pick's squared distances are an (n, 3) np.sum over axis=1."""
    subset = np.asarray(subset, dtype=np.intp)
    pts = points[subset]

    def lowest_index(values, best):
        ties = np.flatnonzero(values == best)
        return int(ties[np.argmin(subset[ties])])

    d2c = np.sum((pts - pts.mean(axis=0)) ** 2, axis=1)
    chosen = [lowest_index(d2c, np.min(d2c))]
    mind2 = np.sum((pts - pts[chosen[0]]) ** 2, axis=1)
    for _ in range(1, m):
        chosen.append(lowest_index(mind2, np.max(mind2)))
        np.minimum(mind2, np.sum((pts - pts[chosen[-1]]) ** 2, axis=1), out=mind2)
    return subset[np.asarray(chosen, dtype=np.intp)]


# -- knn -----------------------------------------------------------------------


def test_single_point_cloud_knn():
    cloud = PointCloud([[0.3, 0.2, 0.1]])
    idx = SpatialIndex(cloud)
    assert list(idx.knn([5.0, -2.0, 0.0], 1)) == [0]


def test_knn_query_at_existing_point():
    cloud = PointCloud([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    idx = SpatialIndex(cloud)
    assert idx.knn([1, 0, 0], 1)[0] == 1


def test_knn_tiebreak_by_index():
    # unit square corners; (0.1, 0.1) is nearest to corner 0, then corners 1/2 tie
    cloud = PointCloud([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]])
    idx = SpatialIndex(cloud)
    assert list(idx.knn([0.1, 0.1, 0.0], 2)) == [0, 1]


def test_knn_duplicates_come_first():
    cloud = PointCloud([[0.5, 0.5, 0.5]] * 3 + [[2, 2, 2]])
    idx = SpatialIndex(cloud)
    assert list(idx.knn([0.5, 0.5, 0.5], 3)) == [0, 1, 2]


def test_knn_matches_bruteforce(rng):
    cloud = random_cloud(rng, 200)
    idx = SpatialIndex(cloud)
    for _ in range(20):
        q = rng.uniform(-1, 1, 3)
        assert list(idx.knn(q, 10)) == list(brute_knn(cloud.points, q, 10))


def test_knn_k_out_of_range(rng):
    cloud = random_cloud(rng, 5)
    idx = SpatialIndex(cloud)
    with pytest.raises(ValueError):
        idx.knn([0, 0, 0], 6)
    with pytest.raises(ValueError):
        idx.knn([0, 0, 0], 0)


# -- radius query ----------------------------------------------------------------


def test_radius_empty_result(rng):
    cloud = random_cloud(rng, 50)
    idx = SpatialIndex(cloud)
    assert len(idx.radius([10, 10, 10], 0.5)) == 0


def test_radius_grid_axis_neighbors():
    # interior node of a 5x5x5 grid, spacing 0.01; r = 0.012 reaches the 6 axis
    # neighbors but not the face diagonals at 0.01*sqrt(2)
    g = np.arange(5) * 0.01
    pts = np.array([[x, y, z] for x in g for y in g for z in g])
    cloud = PointCloud(pts)
    idx = SpatialIndex(cloud)
    center = np.array([0.02, 0.02, 0.02])
    got = idx.radius(center, 0.012)
    assert len(got) == 7
    d = np.linalg.norm(pts[got] - center, axis=1)
    assert np.all(np.sort(d)[1:] > 0.009)
    # at r = 0.015 the 12 face diagonals (0.01414) fall inside as well
    assert len(idx.radius(center, 0.015)) == 19


def test_radius_matches_bruteforce(rng):
    cloud = random_cloud(rng, 300)
    idx = SpatialIndex(cloud)
    for r in (0.05, 0.3, 1.0):
        q = rng.uniform(-1, 1, 3)
        got = idx.radius(q, r)
        assert list(got) == sorted(got)
        assert set(got) == set(brute_radius(cloud.points, q, r))


def test_radius_rejects_nonpositive(rng):
    idx = SpatialIndex(random_cloud(rng, 10))
    with pytest.raises(ValueError):
        idx.radius([0, 0, 0], 0.0)


@pytest.mark.parametrize("r", [np.nan, np.inf])
def test_radius_rejects_nonfinite(rng, r):
    idx = SpatialIndex(random_cloud(rng, 10))
    with pytest.raises(ValueError, match="finite"):
        idx.radius([0, 0, 0], r)


def assert_csr_matches_radius(cloud, r):
    idx = SpatialIndex(cloud)
    starts, members = idx.radius_csr(r)
    assert starts.shape == (len(cloud) + 1,) and starts[0] == 0 and starts[-1] == len(members)
    assert starts.dtype == members.dtype == np.intp
    for i, p in enumerate(cloud.points):
        assert np.array_equal(members[starts[i] : starts[i + 1]], idx.radius(p, r))
    return starts, members


def test_radius_csr_matches_radius(rng):
    cloud = random_cloud(rng, 400, scale=0.1)
    with_duplicates = PointCloud(np.vstack([cloud.points, cloud.points[::40]]))
    for r in (0.004, 0.02, 0.1, 1.0):
        assert_csr_matches_radius(with_duplicates, r)


def test_radius_csr_lattice_at_exact_radius():
    # spacing 0.25 is exact in binary: axis neighbours sit at distance exactly r
    g = np.arange(5) * 0.25
    cloud = PointCloud(np.array([[x, y, z] for x in g for y in g for z in g]))
    starts, _ = assert_csr_matches_radius(cloud, 0.25)
    interior = 62  # (2, 2, 2), the lattice centre
    assert starts[interior + 1] - starts[interior] == 7
    assert_csr_matches_radius(cloud, 0.5)


def test_radius_csr_rejects_nonpositive(rng):
    idx = SpatialIndex(random_cloud(rng, 10))
    with pytest.raises(ValueError):
        idx.radius_csr(0.0)


@pytest.mark.parametrize("r", [np.nan, np.inf])
def test_radius_csr_rejects_nonfinite(rng, r):
    idx = SpatialIndex(random_cloud(rng, 10))
    with pytest.raises(ValueError, match="finite"):
        idx.radius_csr(r)
    with pytest.raises(ValueError, match="finite"):
        idx.radius_csr(r, centers=[0, 3])


def all_pairs_radius_csr(cloud, r):
    """The all-pairs distance matrix ordered by lexsort, as radius_csr once built it: the reference for its CSR."""
    tree = cKDTree(cloud.points)
    pairs = tree.sparse_distance_matrix(tree, r, output_type="ndarray")
    order = np.lexsort((pairs["j"], pairs["i"]))
    counts = np.bincount(pairs["i"], minlength=len(cloud))
    starts = np.concatenate([[0], np.cumsum(counts)]).astype(np.intp)
    return starts, pairs["j"][order].astype(np.intp)


def lattice_cloud():
    g = np.arange(5) * 0.25
    return PointCloud(np.array([[x, y, z] for x in g for y in g for z in g]))


def cell_boundary_cloud():
    """A lattice spaced one CellGrid cell of edge 0.25 apart: every point on a cell boundary."""
    g = np.arange(5) * CellGrid(np.zeros((1, 3)), 0.25).edge
    return PointCloud(np.array([[x, y, z] for x in g for y in g for z in g]))


def near_duplicate_cloud():
    """300 points spread over a 1 m cube, a third of them with a twin closer than 1e-9."""
    pts = np.random.default_rng(5).uniform(0.0, 1.0, (200, 3))
    twins = pts[::2] + np.array([4e-10, -3e-10, 2e-10])
    return PointCloud(np.vstack([pts, twins]))


REFERENCE_CSR_CASES = [
    *[pytest.param(lambda s=s: generate_scene(s, 4, SynthConfig())[0], r, id=f"scene{s}-{r}")
      for s in (1, 2) for r in (FEATURE_RADIUS, 0.01)],
    pytest.param(lambda: PointCloud([[0.1, -0.2, 0.3]]), FEATURE_RADIUS, id="one-point"),
    # every pair at distance 0
    pytest.param(lambda: PointCloud(np.tile([[0.1, -0.2, 0.3]], (6, 1))), FEATURE_RADIUS, id="duplicates"),
    # axis neighbours at distance exactly r
    *[pytest.param(lattice_cloud, r, id=f"lattice-{r}") for r in (0.25, 0.5)],
    pytest.param(lambda: PointCloud(np.random.default_rng(3).uniform(-3.0, -2.0, (400, 3))), 0.2,
                 id="negative-coordinates"),
    # the axis neighbours sit one cell edge apart: just beyond r = 0.25, then within 0.2501
    *[pytest.param(cell_boundary_cloud, r, id=f"cell-boundaries-{r}") for r in (0.25, 0.2501)],
    # a billion cells per axis would overflow a linear int64 key
    pytest.param(near_duplicate_cloud, 1e-9, id="tiny-radius"),
    pytest.param(lambda: PointCloud(np.random.default_rng(4).uniform(0.0, 0.1, (50, 3))), 1.0,
                 id="radius-beyond-extent"),
]


@pytest.mark.parametrize("make_cloud, r", REFERENCE_CSR_CASES)
def test_radius_csr_matches_all_pairs_reference(make_cloud, r):
    cloud = make_cloud()
    starts, members = SpatialIndex(cloud).radius_csr(r)
    want_starts, want_members = all_pairs_radius_csr(cloud, r)
    assert starts.dtype == members.dtype == np.intp
    assert np.array_equal(starts, want_starts) and np.array_equal(members, want_members)


def test_radius_csr_centers_matches_radius(rng):
    cloud = PointCloud(np.vstack([rng.uniform(-0.1, 0.1, (300, 3)), [[5.0, 5.0, 5.0]]]))
    idx = SpatialIndex(cloud)
    starts, members = idx.radius_csr(0.03, np.zeros(0, dtype=np.intp))
    assert starts.tolist() == [0] and len(members) == 0
    assert starts.dtype == members.dtype == np.intp
    # repeated centers repeat their row; the far point's row holds itself alone
    centers = [7, 300, 7, 0, 299, 7]
    starts, members = idx.radius_csr(0.03, centers)
    assert starts.shape == (len(centers) + 1,) and starts[-1] == len(members)
    assert starts.dtype == members.dtype == np.intp
    for row, c in enumerate(centers):
        assert np.array_equal(members[starts[row]:starts[row + 1]], idx.radius(cloud.points[c], 0.03))
    assert members[starts[1]:starts[2]].tolist() == [300]


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 60), seed=st.integers(0, 10_000))
def test_queries_match_bruteforce_property(n, seed):
    r = np.random.default_rng(seed)
    cloud = PointCloud(r.uniform(-1, 1, size=(n, 3)))
    idx = SpatialIndex(cloud)
    q = r.uniform(-1, 1, 3)
    k = int(r.integers(1, n + 1))
    assert list(idx.knn(q, k)) == list(brute_knn(cloud.points, q, k))
    rad = float(r.uniform(0.05, 1.5))
    assert set(idx.radius(q, rad)) == set(brute_radius(cloud.points, q, rad))


# -- farthest point sampling -------------------------------------------------------


def test_fps_square_corners():
    cloud = PointCloud([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]])
    got = list(farthest_point_sampling(cloud, [0, 1, 2, 3], 2))
    assert got == [0, 3]  # centroid 4-way tie -> index 0, then its diagonal


def test_fps_whole_subset():
    cloud = PointCloud(np.random.default_rng(0).uniform(size=(10, 3)))
    subset = [7, 2, 5]
    assert set(farthest_point_sampling(cloud, subset, 3)) == set(subset)


def test_fps_matches_bruteforce(rng):
    cloud = random_cloud(rng, 64)
    subset = list(range(64))
    got = list(farthest_point_sampling(cloud, subset, 8))
    assert got == brute_fps(cloud.points, subset, 8)


def test_fps_over_subset_only(rng):
    cloud = random_cloud(rng, 50)
    subset = [3, 10, 17, 30, 44]
    got = farthest_point_sampling(cloud, subset, 3)
    assert set(got) <= set(subset)


def test_fps_m_too_large(rng):
    cloud = random_cloud(rng, 5)
    with pytest.raises(ValueError):
        farthest_point_sampling(cloud, [0, 1], 3)


def test_fps_m_zero_is_empty():
    cloud = PointCloud(np.random.default_rng(0).uniform(size=(10, 3)))
    got = farthest_point_sampling(cloud, np.arange(10), 0)
    assert got.dtype == np.intp and got.shape == (0,)


@pytest.mark.parametrize("m", [-1, -3])
def test_fps_negative_m_raises(m):
    cloud = PointCloud(np.random.default_rng(0).uniform(size=(10, 3)))
    with pytest.raises(ValueError):
        farthest_point_sampling(cloud, np.arange(10), m)


@pytest.mark.parametrize("seed", range(4))
def test_fps_matches_row_sum_reference_on_synth_scenes(seed):
    """Subsets of 1-3k points of benchmark-like scenes, 256 picks: the same points in the same order."""
    cloud, _ = generate_scene(1000 + seed, 4, SynthConfig(kind_sequence=("box", "sphere", "cylinder", "plane-slab")))
    r = np.random.default_rng(seed)
    subset = np.sort(r.choice(len(cloud), int(r.integers(1000, 3001)), replace=False))
    got = farthest_point_sampling(cloud, subset, 256)
    assert got.dtype == np.intp and np.array_equal(got, row_sum_fps(cloud.points, subset, 256))


def test_fps_matches_row_sum_reference_on_exact_ties():
    """An integer lattice, doubled: distances tie exactly and every point has a duplicate.

    The subset runs in shuffled order, so a tie must go to the lowest point
    index, not to the first position.
    """
    lattice = np.stack(np.meshgrid(*[np.arange(5.0)] * 3, indexing="ij"), axis=-1).reshape(-1, 3)
    cloud = PointCloud(np.vstack([lattice, lattice]))
    subset = np.random.default_rng(3).permutation(len(cloud.points))
    for m in (1, 2, 9, 40, len(lattice) + 1):
        assert np.array_equal(farthest_point_sampling(cloud, subset, m), row_sum_fps(cloud.points, subset, m))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(4, 40))
def test_fps_min_distance_nonincreasing(seed, n):
    r = np.random.default_rng(seed)
    cloud = PointCloud(r.uniform(-1, 1, size=(n, 3)))
    m = int(r.integers(2, n))
    picks = farthest_point_sampling(cloud, list(range(n)), m)
    pts = cloud.points[picks]
    gaps = []
    for i in range(1, len(picks)):
        d = np.linalg.norm(pts[:i] - pts[i], axis=1)
        gaps.append(d.min())
    assert all(gaps[i] >= gaps[i + 1] - 1e-12 for i in range(len(gaps) - 1))


# -- normal estimation ----------------------------------------------------------


def test_normal_on_plane(rng):
    xy = rng.uniform(-0.05, 0.05, size=(500, 2))
    pts = np.column_stack([xy, np.zeros(500)])
    cloud = PointCloud(pts, viewpoint=(0, 0, 1))
    idx = SpatialIndex(cloud)
    n = estimate_normal(idx, 0, 0.02)
    assert np.arccos(abs(np.clip(n @ [0, 0, 1], -1, 1))) < 1e-6
    assert n[2] > 0  # oriented toward the viewpoint


def test_normal_on_sphere(rng):
    dirs = fibonacci_hemisphere(4000)
    full = np.vstack([dirs, -dirs])
    pts = 0.1 * full
    cloud = PointCloud(pts, viewpoint=(0, 0, 1.0))
    idx = SpatialIndex(cloud)
    errs = []
    for seed in range(0, 800, 50):
        n = estimate_normal(idx, seed, 0.02)
        radial = full[seed]
        ang = np.arccos(np.clip(abs(n @ radial), -1, 1))
        errs.append(np.degrees(ang))
        assert n @ (cloud.viewpoint - pts[seed]) >= 0
    assert max(errs) < 2.0


def test_normal_degenerate_two_points():
    cloud = PointCloud([[0, 0, 0], [0.001, 0, 0], [1, 1, 1]])
    idx = SpatialIndex(cloud)
    with pytest.raises(DegenerateNeighborhood):
        estimate_normal(idx, 0, 0.005)


def test_normal_degenerate_collinear():
    pts = np.column_stack([np.linspace(0, 0.01, 10), np.zeros(10), np.zeros(10)])
    idx = SpatialIndex(PointCloud(pts))
    with pytest.raises(DegenerateNeighborhood):
        estimate_normal(idx, 5, 0.02)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 5000))
def test_normal_rotation_equivariance(seed):
    r = np.random.default_rng(seed)
    # anisotropic local patch so the smallest eigenvalue is well separated
    pts = r.normal(size=(60, 3)) * [0.05, 0.03, 0.004]
    cloud = PointCloud(pts, viewpoint=(0, 0, 1.0))
    n0 = estimate_normal(SpatialIndex(cloud), 0, 0.2)

    from scipy.spatial.transform import Rotation

    rot = Rotation.random(random_state=int(seed)).as_matrix()
    cloud_r = PointCloud(pts @ rot.T, viewpoint=rot @ np.array([0, 0, 1.0]))
    n1 = estimate_normal(SpatialIndex(cloud_r), 0, 0.2)
    assert np.linalg.norm(n1 - rot @ n0) < 1e-6


def test_normal_unit_and_oriented(small_scene):
    cloud, scene, _, _ = small_scene
    idx = SpatialIndex(cloud)
    r = np.random.default_rng(0)
    for seed in r.integers(0, len(cloud), size=30):
        try:
            n = estimate_normal(idx, int(seed), 0.01)
        except DegenerateNeighborhood:
            continue
        assert abs(np.linalg.norm(n) - 1.0) < 1e-9
        assert n @ (cloud.viewpoint - cloud.points[seed]) >= 0
