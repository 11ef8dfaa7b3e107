import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from dualgrasp.cloud import PointCloud, farthest_point_sampling
from dualgrasp import refine_parallel
from dualgrasp.geometry import closing_directions, fibonacci_hemisphere
from dualgrasp.grasps import MAX_WIDTH, WIDTH_MARGIN, Grasps
from dualgrasp.primitives import Primitive
from dualgrasp.refine_parallel import (
    RefineParallelConfig,
    cylinder_group,
    fallback_refine_batch,
    learned_refine_batch,
    oracle_search,
)
from dualgrasp.scenes import SynthConfig, friction_to_graspness, generate_scene, parallel_quality_batch

from test_scenes import bare_scene, jaw_contact


CFG = RefineParallelConfig()


def test_view_grid_upper_hemisphere():
    views = fibonacci_hemisphere(300)
    assert views.shape == (300, 3)
    assert np.all(views[:, 2] > 0)
    assert np.allclose(np.linalg.norm(views, axis=1), 1.0)
    assert len(np.unique(np.round(views, 9), axis=0)) == 300


def refiner_rows(view_scores, angle_logits=None, depth_logits=None, width=0.05, score_logits=None):
    """Refiner outputs for len(view_scores) seeds; unspecified heads pick bin 0."""
    view_scores = np.atleast_2d(view_scores)
    n = len(view_scores)

    def logits(row, dim):
        return np.tile(np.zeros(dim) if row is None else row, (n, 1))

    return {
        "view": view_scores,
        "angle": logits(angle_logits, CFG.n_angle_bins),
        "depth": logits(depth_logits, len(CFG.depth_bins)),
        "width": np.full((n, 1), width),
        "score": logits(score_logits, CFG.n_score_bins),
    }


def two_point_cloud():
    return PointCloud([[0, 0, 0], [0.01, 0, 0]])


def test_learned_view_ties_break_to_first():
    cfg = RefineParallelConfig(n_views=16)
    (grasp,) = learned_refine_batch(two_point_cloud(), [0], refiner_rows(np.ones(16)), cfg)
    assert np.allclose(grasp.axis, -fibonacci_hemisphere(16)[0])


def test_learned_view_one_hot():
    cfg = RefineParallelConfig(n_views=16)
    scores = np.zeros((2, 16))
    scores[0, 7] = 1.0
    scores[1, 3] = 1.0
    grasps = learned_refine_batch(two_point_cloud(), [0, 1], refiner_rows(scores), cfg)
    views = fibonacci_hemisphere(16)
    assert np.allclose(grasps.axis[0], -views[7])
    assert np.allclose(grasps.axis[1], -views[3])
    assert [g.seed_index for g in grasps] == [0, 1]


def test_oracle_search_box_top_is_near_vertical():
    box = Primitive("box", (0.05, 0.05, 0.04), translation=(0, 0, 0.02))
    scene = bare_scene(box)
    seed_point = np.array([0.0, 0.0, 0.04])  # center of the top face
    found = oracle_search(scene, seed_point[None, :], CFG)
    assert found.view_scores.shape == (1, CFG.n_views)
    assert found.view[0] == np.argmax(found.view_scores[0])
    approach = -fibonacci_hemisphere(CFG.n_views)[found.view[0]]
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
    # width ~ sphere diameter + margin, with slack for the discrete view grid
    assert 0.04 <= grasps.width[0] <= 0.04 * 1.1 + WIDTH_MARGIN
    assert jaw_contact(scene, grasps).mu[0] < 0.12


def assert_argmin_over_bins(cloud, scene, grasp):
    """Independent enumeration of every (angle, depth) candidate at the grasp's own approach."""
    seed_point = cloud.points[grasp.seed_index]
    best = np.inf
    for a in CFG.angle_values():
        for d in CFG.depth_bins:
            probe = Grasps.parallel([seed_point], [grasp.axis], a, MAX_WIDTH, d, score=0.0)
            res = jaw_contact(scene, probe)
            if res.hit[0]:
                best = min(best, res.mu[0])
    achieved = jaw_contact(
        scene,
        Grasps.parallel([seed_point], [grasp.axis], grasp.angle_deg, MAX_WIDTH, grasp.depth, score=0.0),
    ).mu[0]
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
        assert 0 < g.width <= MAX_WIDTH


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


def assert_same_search(got, want):
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_oracle_search_chunking_is_invisible(monkeypatch):
    cloud, scene, sphere = sphere_cloud_and_scene(radius=0.03)
    pts = cloud.points[[5, 40, 111, 200, 333]]
    whole = oracle_search(scene, pts, CFG, 2, 2)
    lines_per_view, full_lines = 6 * 2, CFG.n_angle_bins * len(CFG.depth_bins)
    lines_per_seed = CFG.n_views * lines_per_view
    for chunk_lines in (1, 2 * lines_per_seed):  # one view, then two seeds per chunk
        assert_same_search(oracle_search(scene, pts, CFG, 2, 2, chunk_lines=chunk_lines), whole)

    # known rows: the same seeds searched beside a second sphere, which is then removed
    near = Primitive("sphere", (0.02,), translation=(0.06, 0.0, 0.1), object_id=2)
    before = oracle_search(bare_scene(sphere, near), pts, CFG, 2, 2)
    # view_winners: the objects that won each view's probe lines, (seed, view, angle, depth) in order
    approach = np.tile(np.repeat(-fibonacci_hemisphere(CFG.n_views), lines_per_view, axis=0), (len(pts), 1))
    angle = np.tile(np.repeat(CFG.angle_values()[::2], 2), len(pts) * CFG.n_views)
    depth = np.tile(CFG.depth_bins[::2], len(pts) * CFG.n_views * 6)
    origins = np.repeat(pts, lines_per_seed, axis=0) + depth[:, None] * approach
    winner = parallel_quality_batch(bare_scene(sphere, near), origins, closing_directions(approach, angle), MAX_WIDTH)
    winner = winner.object_id.reshape(len(pts), CFG.n_views, lines_per_view, 1)
    assert np.array_equal(before.view_winners, np.any(winner == np.array([1, 2]), axis=2))
    touched = before.view_winners[:, :, 1]
    assert np.all(np.count_nonzero(touched, axis=1) > 7) and not np.all(touched)  # seven views split every seed
    assert np.any(before.view_scores[touched] != whole.view_scores[touched])  # the removal moves some of them
    known = (np.where(touched, np.nan, before.view_scores), before.view_winners[:, :, :1])
    calls = []
    real = refine_parallel.parallel_quality_batch

    def counted(scene, jaw_centers, closing_dirs, widths):
        calls.append(len(jaw_centers))
        return real(scene, jaw_centers, closing_dirs, widths)

    monkeypatch.setattr(refine_parallel, "parallel_quality_batch", counted)
    for chunk_lines in (1, 7 * lines_per_view, 2 * lines_per_seed):  # one view, seven views, all views per chunk
        calls.clear()
        assert_same_search(oracle_search(scene, pts, CFG, 2, 2, chunk_lines=chunk_lines, known=known), whole)
        assert sum(calls) == np.count_nonzero(touched) * lines_per_view + len(pts) * full_lines
    assert calls[0] == np.count_nonzero(touched) * lines_per_view

    # nothing touched: only the winning views' full grids reach the oracle
    calls.clear()
    assert_same_search(oracle_search(scene, pts, CFG, 2, 2, known=(whole.view_scores, whole.view_winners)), whole)
    assert calls == [len(pts) * full_lines]
    # every view touched: the known winners are overwritten, as in a fresh search
    every = (np.full_like(whole.view_scores, np.nan), np.ones_like(whole.view_winners))
    assert_same_search(oracle_search(scene, pts, CFG, 2, 2, known=every), whole)


def test_oracle_search_memory_is_bounded_by_the_chunk():
    """At the default chunk_lines a 256-seed probe search stays within 32 MiB of traced allocations.

    numpy reports its buffers to tracemalloc. The seeds lie on the objects
    (above the table top at z = 0) and send about 0.93M probe lines, so a
    search that held them all at once, or a default chunk of 1 << 18 lines
    (about 63 MiB here), would break the bound.
    """
    cloud, scene = generate_scene(11000, 4, SynthConfig(kind_sequence=("box", "sphere", "cylinder", "plane-slab")))
    seeds = cloud.points[farthest_point_sampling(cloud, np.flatnonzero(cloud.points[:, 2] > 0.005), 256)]
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        found = oracle_search(scene, seeds, CFG, CFG.probe_angle_stride, CFG.probe_depth_stride)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(found.reachable)
    assert peak <= 32 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"


def test_oracle_search_fallback_uses_probe_strides():
    cloud, scene, _ = sphere_cloud_and_scene(radius=0.03)
    seeds = [5, 40, 111]
    probe = oracle_search(scene, cloud.points[seeds], CFG, CFG.probe_angle_stride, CFG.probe_depth_stride)
    grasps, _ = fallback_refine_batch(cloud, scene, seeds, CFG)
    views = fibonacci_hemisphere(CFG.n_views)
    for row, g in enumerate(grasps):
        assert np.allclose(g.axis, -views[probe.view[row]])
        assert g.width == probe.width[row] and g.score == probe.score[row]


def test_oracle_search_no_seeds():
    _, scene, _ = sphere_cloud_and_scene()
    found = oracle_search(scene, np.zeros((0, 3)), CFG)
    assert found.view_scores.shape == (0, CFG.n_views)
    assert all(len(a) == 0 for a in found)
    grasps, dropped = fallback_refine_batch(PointCloud([[0, 0, 0]]), scene, [], CFG)
    assert len(grasps) == 0 and dropped == 0


def test_grid_closings_are_the_geometry_closing_directions(monkeypatch):
    """The search scores the jaw lines that Grasps.closings gives, bit for bit."""
    _, scene, _ = sphere_cloud_and_scene()
    seen = []
    real = refine_parallel.parallel_quality_batch

    def capture(scene, origins, dirs, widths):
        seen.append(dirs)
        return real(scene, origins, dirs, widths)

    monkeypatch.setattr(refine_parallel, "parallel_quality_batch", capture)
    angles, depths = CFG.angle_values(), np.asarray(CFG.depth_bins)
    seeds = np.array([[0.0, 0.0, 0.12], [0.01, 0.0, 0.1], [0.0, -0.02, 0.1]])
    per_seed = np.array([[0.0, 0.0, -1.0], [-1.0, 0.0, 0.0], [0.6, 0.0, -0.8]])  # vertical included
    for approaches in (-fibonacci_hemisphere(CFG.n_views), per_seed):
        offsets, dirs = refine_parallel._view_lines(approaches, angles, depths)
        pair_seed, pair_approach = np.divmod(np.arange(len(seeds) * len(approaches)), len(approaches))
        refine_parallel._grid_qualities(scene, seeds[pair_seed], offsets[:, pair_approach], dirs[:, pair_approach])
        flat = approaches[pair_approach]
        want = closing_directions(np.repeat(flat, len(angles), axis=0), np.tile(angles, len(flat)))
        # lines in (pair, depth, angle) order
        want = np.broadcast_to(want.reshape(len(flat), 1, len(angles), 3), (len(flat), len(depths), len(angles), 3))
        assert np.array_equal(seen[-1].reshape(want.shape), want)
