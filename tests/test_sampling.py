import numpy as np
import pytest
from scipy.spatial import cKDTree

from dualgrasp.cloud import PointCloud
from dualgrasp.sampling import SamplingConfig, SeedSet, fuse_scores, select_seeds

from conftest import random_cloud


def min_pairwise(points):
    d, _ = cKDTree(points).query(points, k=2)
    return d[:, 1].min()


def test_fuse_elementwise():
    assert fuse_scores([0.8], [0.5])[0] == pytest.approx(0.4)


def test_fuse_zero_annihilates(rng):
    o = rng.uniform(size=50)
    o[::5] = 0.0
    g = rng.uniform(size=50)
    fused = fuse_scores(o, g)
    assert np.all(fused[::5] == 0.0)


def test_fuse_matches_scalar_loop(rng):
    o = rng.uniform(size=100)
    g = rng.uniform(size=100)
    fused = fuse_scores(o, g)
    for i in range(100):
        assert fused[i] == o[i] * g[i]


def test_fuse_length_mismatch():
    with pytest.raises(ValueError):
        fuse_scores([0.1, 0.2], [0.1])


def test_fuse_stays_in_unit_interval(rng):
    fused = fuse_scores(rng.uniform(size=200), rng.uniform(size=200))
    assert np.all((fused >= 0) & (fused <= 1))


def test_select_all_below_threshold(rng):
    cloud = random_cloud(rng, 40)
    seeds = select_seeds(cloud, np.full(40, 0.05), 0.1, 10)
    assert len(seeds) == 0


def test_select_few_candidates_returned_whole(rng):
    cloud = random_cloud(rng, 40)
    fused = np.zeros(40)
    fused[[3, 7, 11]] = 0.5
    seeds = select_seeds(cloud, fused, 0.1, 1024)
    assert list(seeds.indices) == [3, 7, 11]
    assert np.all(seeds.fused_scores == 0.5)


def test_select_threshold_strict(rng):
    cloud = random_cloud(rng, 10)
    fused = np.full(10, 0.1)
    fused[4] = 0.100001
    seeds = select_seeds(cloud, fused, 0.1, 10)
    assert list(seeds.indices) == [4]


def test_selected_scores_above_threshold(rng):
    cloud = random_cloud(rng, 500)
    fused = rng.uniform(size=500)
    seeds = select_seeds(cloud, fused, 0.3, 64)
    assert len(seeds) == 64
    assert np.all(seeds.fused_scores > 0.3)
    assert len(np.unique(seeds.indices)) == 64


def test_threshold_monotonicity(rng):
    cloud = random_cloud(rng, 300)
    fused = rng.uniform(size=300)
    low = set(np.flatnonzero(fused > 0.2))
    high = set(np.flatnonzero(fused > 0.5))
    assert high <= low


def test_candidate_set_scale_invariance(rng):
    o = rng.uniform(size=400)
    g = rng.uniform(size=400)
    t = 0.21
    base = np.flatnonzero(fuse_scores(o, g) > t)
    for c in (0.5, 2.0, 4.0):
        scaled = np.flatnonzero(fuse_scores(c * o, g) > c * t)
        assert np.array_equal(base, scaled)


def test_fps_coverage_beats_random(rng):
    # flat plane sheet: FPS spread should beat the median random subset spread
    pts = np.column_stack([rng.uniform(0, 1, (5000, 2)), np.zeros(5000)])
    cloud = PointCloud(pts)
    fused = np.full(5000, 0.9)
    seeds = select_seeds(cloud, fused, 0.1, 1024)
    assert len(seeds) == 1024
    fps_min = min_pairwise(pts[seeds.indices])
    random_mins = []
    for _ in range(20):
        pick = rng.choice(5000, size=1024, replace=False)
        random_mins.append(min_pairwise(pts[pick]))
    assert fps_min >= np.median(random_mins)


def test_seedset_validation():
    with pytest.raises(ValueError):
        SeedSet([1, 1], [0.5, 0.5])
    with pytest.raises(ValueError):
        SeedSet([1, 2], [0.5])


def test_sampling_config_validation():
    with pytest.raises(ValueError):
        SamplingConfig(t_parallel=1.5)
    with pytest.raises(ValueError):
        SamplingConfig(m_vacuum=0)
    cfg = SamplingConfig()
    assert cfg.t_parallel == 0.1 and cfg.m_parallel == 1024
