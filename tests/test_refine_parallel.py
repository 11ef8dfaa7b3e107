import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from dualgrasp.cloud import PointCloud
from dualgrasp.grasps import ParallelGrasp
from dualgrasp.primitives import Primitive
from dualgrasp.refine_parallel import (
    RefineParallelConfig,
    ViewGrid,
    cylinder_group,
    fallback_refine_batch,
    learned_refine_batch,
    oracle_search,
)
from dualgrasp.scenes import NoContact, friction_to_graspness, oracle_parallel_quality

from test_scenes import bare_scene


CFG = RefineParallelConfig()


def test_view_grid_upper_hemisphere():
    grid = ViewGrid.build(300)
    assert len(grid) == 300
    assert np.all(grid.views[:, 2] > 0)
    assert np.allclose(np.linalg.norm(grid.views, axis=1), 1.0)
    assert len(np.unique(np.round(grid.views, 9), axis=0)) == 300


def refiner_rows(view_scores, angle_logits=None, depth_logits=None, width=0.05, score_logits=None):
    """Refiner outputs for len(view_scores) seeds; unspecified heads pick bin 0."""
    view_scores = np.atleast_2d(view_scores)
    n = len(view_scores)

    def logits(row, dim):
        return np.tile(np.zeros(dim) if row is None else row, (n, 1))

    return {
        "view": view_scores,
        "angle_logits": logits(angle_logits, CFG.n_angle_bins),
        "depth_logits": logits(depth_logits, len(CFG.depth_bins)),
        "width": np.full(n, width),
        "score_logits": logits(score_logits, CFG.n_score_bins),
    }


def two_point_cloud():
    return PointCloud([[0, 0, 0], [0.01, 0, 0]])


def test_learned_view_ties_break_to_first():
    cfg = RefineParallelConfig(n_views=16)
    (grasp,) = learned_refine_batch(two_point_cloud(), [0], refiner_rows(np.ones(16)), cfg)
    assert np.allclose(grasp.approach, -ViewGrid.build(16).views[0])


def test_learned_view_one_hot():
    cfg = RefineParallelConfig(n_views=16)
    scores = np.zeros((2, 16))
    scores[0, 7] = 1.0
    scores[1, 3] = 1.0
    grasps = learned_refine_batch(two_point_cloud(), [0, 1], refiner_rows(scores), cfg)
    grid = ViewGrid.build(16)
    assert np.allclose(grasps[0].approach, -grid.views[7])
    assert np.allclose(grasps[1].approach, -grid.views[3])
    assert [g.seed_index for g in grasps] == [0, 1]


def test_oracle_search_box_top_is_near_vertical():
    box = Primitive("box", (0.05, 0.05, 0.04), translation=(0, 0, 0.02))
    scene = bare_scene(box)
    seed_point = np.array([0.0, 0.0, 0.04])  # center of the top face
    found = oracle_search(scene, seed_point[None, :], CFG)
    assert found.view_scores.shape == (1, CFG.n_views)
    assert found.view[0] == np.argmax(found.view_scores[0])
    approach = ViewGrid.build(CFG.n_views).approach(found.view[0])
    inward = np.array([0.0, 0.0, -1.0])
    ang = np.degrees(np.arccos(np.clip(approach @ inward, -1, 1)))
    assert ang < 15.0
    assert found.reachable[0]


def test_cylinder_group_membership_bounds():
    pts = np.array(
        [
            [0.0, 0.0, 0.0],
            [0.0, 0.0, 0.019],   # inside: |proj| < 0.02
            [0.0, 0.0, 0.021],   # outside: beyond half height
            [0.051, 0.0, 0.0],   # outside: perpendicular 0.051 > 0.05
            [0.049, 0.0, 0.01],  # inside
        ]
    )
    cloud = PointCloud(pts)
    group = cylinder_group(cloud, 0, (0, 0, 1), radius=0.05, height=0.04)
    assert list(group.member_indices) == [0, 1, 4]


def test_cylinder_group_matches_bruteforce(rng):
    cloud = PointCloud(rng.uniform(-0.1, 0.1, size=(400, 3)))
    view = rng.normal(size=3)
    view /= np.linalg.norm(view)
    group = cylinder_group(cloud, 17, view, 0.05, 0.04)
    seed = cloud.points[17]
    expected = []
    for i, p in enumerate(cloud.points):
        rel = p - seed
        proj = rel @ view
        perp = np.linalg.norm(rel - proj * view)
        if abs(proj) <= 0.02 and perp <= 0.05:
            expected.append(i)
    assert list(group.member_indices) == expected


def test_cylinder_group_rotation_equivariance(rng):
    pts = rng.uniform(-0.1, 0.1, size=(200, 3))
    view = np.array([0.0, 0.0, 1.0])
    g0 = cylinder_group(PointCloud(pts), 3, view, 0.05, 0.04)
    rot = Rotation.from_euler("xyz", [0.3, -1.0, 0.5]).as_matrix()
    g1 = cylinder_group(PointCloud(pts @ rot.T), 3, rot @ view, 0.05, 0.04)
    assert np.array_equal(g0.member_indices, g1.member_indices)


def sphere_cloud_and_scene(radius=0.02, center=(0.0, 0.0, 0.1)):
    sphere = Primitive("sphere", (radius,), translation=center)
    rng = np.random.default_rng(0)
    pts, _, _ = sphere.sample_surface(400, rng)
    return PointCloud(pts, viewpoint=(0, 0, 1)), bare_scene(sphere), sphere


def test_fallback_head_on_isolated_sphere():
    cloud, scene, sphere = sphere_cloud_and_scene()
    top_idx = int(np.argmax(cloud.points[:, 2]))
    grasps, dropped = fallback_refine_batch(cloud, scene, [top_idx], CFG)
    assert dropped == 0
    grasp = grasps[0]
    # width ~ sphere diameter + margin, with slack for the discrete view grid
    assert 0.04 <= grasp.width <= 0.04 * 1.1 + CFG.width_margin
    assert oracle_parallel_quality(scene, grasp) < 0.12


def assert_argmin_over_bins(cloud, scene, grasp):
    """Independent enumeration of every (angle, depth) candidate at the grasp's own approach."""
    seed_point = cloud.points[grasp.seed_index]
    best = np.inf
    for a in CFG.angle_values():
        for d in CFG.depth_bins:
            probe = ParallelGrasp(center=seed_point, approach=grasp.approach, angle_deg=a,
                                  width=CFG.max_width, depth=d)
            try:
                mu = oracle_parallel_quality(scene, probe)
            except NoContact:
                continue
            best = min(best, mu)
    achieved = oracle_parallel_quality(
        scene,
        ParallelGrasp(center=seed_point, approach=grasp.approach, angle_deg=grasp.angle_deg,
                      width=CFG.max_width, depth=grasp.depth),
    )
    assert achieved == pytest.approx(best, abs=1e-12)
    assert grasp.score == pytest.approx(friction_to_graspness(best))


def test_fallback_is_argmax_over_bins():
    cloud, scene, sphere = sphere_cloud_and_scene(radius=0.025)
    seed_idx = int(np.argmax(cloud.points[:, 2]))
    (grasp,), dropped = fallback_refine_batch(cloud, scene, [seed_idx], CFG)
    assert dropped == 0
    assert_argmin_over_bins(cloud, scene, grasp)


def test_decoded_angle_on_bin_lattice():
    cloud, scene, _ = sphere_cloud_and_scene()
    grasps, _ = fallback_refine_batch(cloud, scene, np.arange(0, 50, 7), CFG)
    lattice = set(np.round(CFG.angle_values(), 9))
    for g in grasps:
        assert round(g.angle_deg, 9) in lattice
        assert g.depth in CFG.depth_bins
        assert 0 < g.width <= CFG.max_width


def test_learned_head_bin_decoding():
    angle_logits = np.zeros(12)
    angle_logits[3] = 5.0
    depth_logits = np.array([0.0, 0.0, 3.0, 0.0])
    score_logits = np.zeros(10)
    score_logits[9] = 2.0
    out = refiner_rows(np.ones(CFG.n_views), angle_logits, depth_logits, 0.2, score_logits)
    (grasp,) = learned_refine_batch(two_point_cloud(), [0], out, CFG)
    assert grasp.angle_deg == pytest.approx(45.0)  # bin 3 of 12 -> 3 * 15 deg
    assert grasp.depth == pytest.approx(0.03)
    assert grasp.width == pytest.approx(0.1)  # 0.2 clamped to max width
    assert grasp.score == pytest.approx(0.95)  # top bin center
    (low,) = learned_refine_batch(two_point_cloud(), [0], refiner_rows(np.ones(CFG.n_views), width=-1.0), CFG)
    assert low.width == pytest.approx(1e-4)  # non-positive widths clamp to the floor


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_seed_in_own_group_and_every_reachable_seed_yields_a_grasp(seed):
    # A seed is at distance 0 from itself, so its cylinder group is never
    # empty: neither head groups points, and only unreachable seeds drop.
    r = np.random.default_rng(seed)
    sphere_cloud, scene, _ = sphere_cloud_and_scene()
    cloud = PointCloud(np.vstack([sphere_cloud.points, r.uniform(0.3, 0.6, size=(5, 3))]))
    seeds = r.choice(len(cloud), size=4, replace=False)
    for s in seeds:
        group = cylinder_group(cloud, s, r.normal(size=3), r.uniform(1e-4, 0.1), r.uniform(1e-4, 0.1))
        assert s in group.member_indices
    reachable = oracle_search(scene, cloud.points[seeds], CFG, CFG.probe_angle_stride,
                              CFG.probe_depth_stride).reachable
    grasps, dropped = fallback_refine_batch(cloud, scene, seeds, CFG)
    assert [g.seed_index for g in grasps] == seeds[reachable].tolist()
    assert dropped == len(seeds) - len(grasps)
    learned = learned_refine_batch(cloud, seeds, refiner_rows(r.normal(size=(4, CFG.n_views))), CFG)
    assert [g.seed_index for g in learned] == seeds.tolist()


def test_batch_refine_matches_head_at_chosen_view():
    cloud, scene, _ = sphere_cloud_and_scene(radius=0.03)
    seeds = [5, 40, 111]
    grasps, dropped = fallback_refine_batch(cloud, scene, seeds, CFG)
    assert dropped == 0 and [g.seed_index for g in grasps] == seeds
    for g in grasps:
        assert_argmin_over_bins(cloud, scene, g)


def test_unreachable_seed_is_dropped():
    cloud, scene, _ = sphere_cloud_and_scene()
    far = PointCloud(np.vstack([cloud.points, [[0.5, 0.5, 0.1]]]))
    top_idx = int(np.argmax(cloud.points[:, 2]))
    found = oracle_search(scene, far.points[[top_idx, len(cloud)]], CFG)
    assert found.reachable.tolist() == [True, False]
    grasps, dropped = fallback_refine_batch(far, scene, [top_idx, len(cloud)], CFG)
    assert dropped == 1 and [g.seed_index for g in grasps] == [top_idx]


def test_oracle_search_chunking_is_invisible():
    cloud, scene, _ = sphere_cloud_and_scene(radius=0.03)
    pts = cloud.points[[5, 40, 111, 200, 333]]
    whole = oracle_search(scene, pts, CFG, 2, 2)
    lines_per_seed = CFG.n_views * 6 * 2
    for chunk_lines in (1, 2 * lines_per_seed):  # one seed, then two seeds per chunk
        part = oracle_search(scene, pts, CFG, 2, 2, chunk_lines=chunk_lines)
        for a, b in zip(whole, part):
            assert np.array_equal(a, b)


def test_oracle_search_fallback_uses_probe_strides():
    cloud, scene, _ = sphere_cloud_and_scene(radius=0.03)
    seeds = [5, 40, 111]
    probe = oracle_search(scene, cloud.points[seeds], CFG, CFG.probe_angle_stride, CFG.probe_depth_stride)
    grasps, _ = fallback_refine_batch(cloud, scene, seeds, CFG)
    views = ViewGrid.build(CFG.n_views).views
    for row, g in enumerate(grasps):
        assert np.allclose(g.approach, -views[probe.view[row]])
        assert g.width == probe.width[row] and g.score == probe.score[row]


def test_oracle_search_no_seeds():
    _, scene, _ = sphere_cloud_and_scene()
    found = oracle_search(scene, np.zeros((0, 3)), CFG)
    assert found.view_scores.shape == (0, CFG.n_views)
    assert all(len(a) == 0 for a in found)
    assert fallback_refine_batch(PointCloud([[0, 0, 0]]), scene, [], CFG) == ([], 0)
