import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualgrasp.cloud import (
    DegenerateNeighborhood,
    PointCloud,
    build_index,
    estimate_normal,
    farthest_point_sampling,
    knn,
    radius_query,
)
from dualgrasp.geometry import fibonacci_hemisphere

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


# -- knn -----------------------------------------------------------------------


def test_single_point_cloud_knn():
    cloud = PointCloud([[0.3, 0.2, 0.1]])
    idx = build_index(cloud)
    assert list(knn(idx, [5.0, -2.0, 0.0], 1)) == [0]


def test_knn_query_at_existing_point():
    cloud = PointCloud([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    idx = build_index(cloud)
    assert knn(idx, [1, 0, 0], 1)[0] == 1


def test_knn_tiebreak_by_index():
    # unit square corners; (0.1, 0.1) is nearest to corner 0, then corners 1/2 tie
    cloud = PointCloud([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]])
    idx = build_index(cloud)
    assert list(knn(idx, [0.1, 0.1, 0.0], 2)) == [0, 1]


def test_knn_duplicates_come_first():
    cloud = PointCloud([[0.5, 0.5, 0.5]] * 3 + [[2, 2, 2]])
    idx = build_index(cloud)
    assert list(knn(idx, [0.5, 0.5, 0.5], 3)) == [0, 1, 2]


def test_knn_matches_bruteforce(rng):
    cloud = random_cloud(rng, 200)
    idx = build_index(cloud)
    for _ in range(20):
        q = rng.uniform(-1, 1, 3)
        assert list(knn(idx, q, 10)) == list(brute_knn(cloud.points, q, 10))


def test_knn_k_out_of_range(rng):
    cloud = random_cloud(rng, 5)
    idx = build_index(cloud)
    with pytest.raises(ValueError):
        knn(idx, [0, 0, 0], 6)
    with pytest.raises(ValueError):
        knn(idx, [0, 0, 0], 0)


# -- radius query ----------------------------------------------------------------


def test_radius_empty_result(rng):
    cloud = random_cloud(rng, 50)
    idx = build_index(cloud)
    assert len(radius_query(idx, [10, 10, 10], 0.5)) == 0


def test_radius_grid_axis_neighbors():
    # interior node of a 5x5x5 grid, spacing 0.01; r = 0.012 reaches the 6 axis
    # neighbors but not the face diagonals at 0.01*sqrt(2)
    g = np.arange(5) * 0.01
    pts = np.array([[x, y, z] for x in g for y in g for z in g])
    cloud = PointCloud(pts)
    idx = build_index(cloud)
    center = np.array([0.02, 0.02, 0.02])
    got = radius_query(idx, center, 0.012)
    assert len(got) == 7
    d = np.linalg.norm(pts[got] - center, axis=1)
    assert np.all(np.sort(d)[1:] > 0.009)
    # at r = 0.015 the 12 face diagonals (0.01414) fall inside as well
    assert len(radius_query(idx, center, 0.015)) == 19


def test_radius_matches_bruteforce(rng):
    cloud = random_cloud(rng, 300)
    idx = build_index(cloud)
    for r in (0.05, 0.3, 1.0):
        q = rng.uniform(-1, 1, 3)
        got = radius_query(idx, q, r)
        assert list(got) == sorted(got)
        assert set(got) == set(brute_radius(cloud.points, q, r))


def test_radius_rejects_nonpositive(rng):
    idx = build_index(random_cloud(rng, 10))
    with pytest.raises(ValueError):
        radius_query(idx, [0, 0, 0], 0.0)


def assert_csr_matches_radius(cloud, r):
    idx = build_index(cloud)
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
    idx = build_index(random_cloud(rng, 10))
    with pytest.raises(ValueError):
        idx.radius_csr(0.0)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 60), seed=st.integers(0, 10_000))
def test_queries_match_bruteforce_property(n, seed):
    r = np.random.default_rng(seed)
    cloud = PointCloud(r.uniform(-1, 1, size=(n, 3)))
    idx = build_index(cloud)
    q = r.uniform(-1, 1, 3)
    k = int(r.integers(1, n + 1))
    assert list(knn(idx, q, k)) == list(brute_knn(cloud.points, q, k))
    rad = float(r.uniform(0.05, 1.5))
    assert set(radius_query(idx, q, rad)) == set(brute_radius(cloud.points, q, rad))


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
    idx = build_index(cloud)
    n = estimate_normal(idx, 0, 0.02)
    assert np.arccos(abs(np.clip(n @ [0, 0, 1], -1, 1))) < 1e-6
    assert n[2] > 0  # oriented toward the viewpoint


def test_normal_on_sphere(rng):
    dirs = fibonacci_hemisphere(4000)
    full = np.vstack([dirs, -dirs])
    pts = 0.1 * full
    cloud = PointCloud(pts, viewpoint=(0, 0, 1.0))
    idx = build_index(cloud)
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
    idx = build_index(cloud)
    with pytest.raises(DegenerateNeighborhood):
        estimate_normal(idx, 0, 0.005)


def test_normal_degenerate_collinear():
    pts = np.column_stack([np.linspace(0, 0.01, 10), np.zeros(10), np.zeros(10)])
    idx = build_index(PointCloud(pts))
    with pytest.raises(DegenerateNeighborhood):
        estimate_normal(idx, 5, 0.02)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 5000))
def test_normal_rotation_equivariance(seed):
    r = np.random.default_rng(seed)
    # anisotropic local patch so the smallest eigenvalue is well separated
    pts = r.normal(size=(60, 3)) * [0.05, 0.03, 0.004]
    cloud = PointCloud(pts, viewpoint=(0, 0, 1.0))
    n0 = estimate_normal(build_index(cloud), 0, 0.2)

    from scipy.spatial.transform import Rotation

    rot = Rotation.random(random_state=int(seed)).as_matrix()
    cloud_r = PointCloud(pts @ rot.T, viewpoint=rot @ np.array([0, 0, 1.0]))
    n1 = estimate_normal(build_index(cloud_r), 0, 0.2)
    assert np.linalg.norm(n1 - rot @ n0) < 1e-6


def test_normal_unit_and_oriented(small_scene):
    cloud, scene, _, _ = small_scene
    idx = build_index(cloud)
    r = np.random.default_rng(0)
    for seed in r.integers(0, len(cloud), size=30):
        try:
            n = estimate_normal(idx, int(seed), 0.01)
        except DegenerateNeighborhood:
            continue
        assert abs(np.linalg.norm(n) - 1.0) < 1e-9
        assert n @ (cloud.viewpoint - cloud.points[seed]) >= 0
