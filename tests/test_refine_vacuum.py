import numpy as np
import pytest

from dualgrasp.cloud import DegenerateNeighborhood, PointCloud, SpatialIndex, estimate_normal
from dualgrasp.grasps import Grasps
from dualgrasp.refine_vacuum import refine_vacuum_poses
from dualgrasp.sampling import SeedSet
from dualgrasp.scenes import SynthConfig, generate_scene


def test_plane_seed_normal_up(rng):
    xy = rng.uniform(-0.05, 0.05, size=(800, 2))
    cloud = PointCloud(np.column_stack([xy, np.zeros(800)]), viewpoint=(0, 0, 1))
    seeds = SeedSet([3, 77, 500], [0.3, 0.7, 0.9])
    grasps, dropped = refine_vacuum_poses(cloud, seeds, r=0.02)
    assert dropped == 0
    for g in grasps:
        assert np.allclose(g.axis, [0, 0, 1], atol=1e-6)


def test_score_passthrough(rng):
    xy = rng.uniform(-0.05, 0.05, size=(500, 2))
    cloud = PointCloud(np.column_stack([xy, np.zeros(500)]), viewpoint=(0, 0, 1))
    seeds = SeedSet([10], [0.73])
    grasps, _ = refine_vacuum_poses(cloud, seeds, r=0.02)
    assert grasps.score[0] == 0.73
    assert np.array_equal(grasps.center[0], cloud.points[10])


def test_sphere_seeds_angular_error(rng):
    v = rng.normal(size=(6000, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    pts = 0.05 * v + [0, 0, 0.1]
    cloud = PointCloud(pts, viewpoint=(0, 0, 1.0))
    seed_idx = rng.choice(6000, size=50, replace=False)
    seeds = SeedSet(seed_idx, np.full(50, 0.5))
    grasps, dropped = refine_vacuum_poses(cloud, seeds, r=0.012)
    assert dropped <= 2
    errs = []
    for g in grasps:
        radial = (g.center - [0, 0, 0.1]) / 0.05
        cos = abs(np.clip(g.axis @ radial, -1, 1))
        errs.append(np.degrees(np.arccos(cos)))
    assert np.mean(errs) < 2.0


def test_degenerate_seeds_dropped_not_raised():
    # two isolated points: radius neighborhood has < 3 members
    cloud = PointCloud([[0, 0, 0], [1, 1, 1], [2, 2, 2]], viewpoint=(0, 0, 5))
    seeds = SeedSet([0, 1], [0.5, 0.6])
    grasps, dropped = refine_vacuum_poses(cloud, seeds, r=0.01)
    assert len(grasps) == 0
    assert dropped == 2


def scalar_vacuum_poses(cloud, seeds, r):
    """Reference: estimate_normal at each seed, degenerate seeds dropped."""
    idx = SpatialIndex(cloud)
    out = []
    for seed, score in zip(seeds.indices, seeds.fused_scores):
        try:
            out.append((int(seed), estimate_normal(idx, int(seed), r), float(score)))
        except DegenerateNeighborhood:
            pass
    return out


def degenerate_cloud():
    # a line (collinear neighbourhoods), a plane patch, an isolated point, a duplicated point
    line = np.column_stack([np.arange(30) * 0.004, np.zeros(30), np.full(30, 0.05)])
    g = np.arange(6) * 0.005
    patch = np.array([[0.3 + x, y, 0.02] for x in g for y in g])
    return PointCloud(np.vstack([line, patch, [[-0.4, 0.4, 0.3]], patch[:1]]), viewpoint=(0.1, -0.2, 1.0))


@pytest.mark.parametrize("r", [0.01, 0.004])
def test_batched_normals_match_estimate_normal_bitwise(r):
    scene_cloud, _ = generate_scene(11, 4, SynthConfig(density=8000.0))
    flat = degenerate_cloud()
    rng = np.random.default_rng(7)
    clouds = [(scene_cloud, rng.choice(len(scene_cloud), size=200, replace=False)),
              (flat, np.arange(len(flat)))]
    for cloud, seed_idx in clouds:
        seeds = SeedSet(seed_idx, rng.uniform(size=len(seed_idx)))
        grasps, dropped = refine_vacuum_poses(cloud, seeds, r=r)
        expected = scalar_vacuum_poses(cloud, seeds, r)
        assert dropped == len(seeds) - len(expected) > 0
        assert len(grasps) == len(expected)
        for g, (seed, normal, score) in zip(grasps, expected):
            assert g.seed_index == seed and g.score == score
            assert g.center.tobytes() == cloud.points[seed].tobytes()
            # a grasp normalises the estimated normal once more
            assert g.axis.tobytes() == (normal / np.linalg.norm(normal)).tobytes()


def grasps(scores, seeds):
    return Grasps.vacuum(np.zeros((len(scores), 3)), np.tile([0.0, 0.0, 1.0], (len(scores), 1)), scores,
                         seed_index=seeds)


def top(gs, k):
    return gs.ranked().take(slice(0, k))


def test_rank_examples():
    gs = grasps([0.2, 0.9, 0.5], [0, 1, 2])
    assert top(gs, 2).score.tolist() == [0.9, 0.5]
    assert len(top(gs, 10)) == 3


def test_rank_ties_by_seed_index():
    gs = grasps([0.5, 0.5, 0.5], [9, 2, 5])
    assert top(gs, 3).seed_index.tolist() == [2, 5, 9]


def test_rank_matches_sort_oracle(rng):
    scores = rng.uniform(size=1000)
    ranked = top(grasps(scores, np.arange(1000)), 1000)
    expected = sorted(range(1000), key=lambda i: (-scores[i], i))
    assert ranked.seed_index.tolist() == expected


def test_rank_prefix_property(rng):
    gs = grasps(rng.uniform(size=50), np.arange(50))
    for k in range(1, 50):
        a = top(gs, k).seed_index.tolist()
        b = top(gs, k + 1).seed_index.tolist()
        assert b[:k] == a
