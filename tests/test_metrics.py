from dataclasses import replace

import numpy as np
import pytest

from dualgrasp.grasps import CUP_RADIUS, PARALLEL, VACUUM, Grasps
from dualgrasp.metrics import (
    EvalConfig,
    ap_mu,
    ap_overall,
    grasp_qualities,
    precision_at_k,
    roc_auc,
)
from dualgrasp.primitives import Primitive
from dualgrasp.refine_parallel import RefineParallelConfig, fallback_refine_batch, learned_refine_batch
from dualgrasp.scenes import (
    ON_SURFACE_TOL,
    SynthConfig,
    generate_scene,
    load_scene,
    sample_ground_truth_grasps,
    save_scene,
)

from test_scenes import bare_scene, down_grasp, jaw_contact, owning_object_reference, seal_reference

CFG = EvalConfig()
NO_GRASPS = Grasps.from_records([])


def first(gt, gripper, n=None):
    """The first n ground-truth grasps of one gripper, without their quality."""
    return replace(gt.take(np.flatnonzero(gt.gripper == gripper)[:n]), quality=None)


def one_by_one(grasps):
    return [grasps.take([i]) for i in range(len(grasps))]


def sphere_scene(radius=0.03, center=(0, 0, 0.1)):
    return bare_scene(Primitive("sphere", (radius,), translation=center)), np.asarray(center), radius


def good_grasp(center):
    return down_grasp(jaw_center=center, closing=(1, 0, 0), width=0.09)


def bad_grasp(center, radius):
    # far-offset chord: required friction above the whole mu grid
    h = radius * 0.98
    return down_grasp(jaw_center=(center[0], center[1] + h, center[2]), closing=(1, 0, 0), width=0.09)


def graded(grasps, scene, gripper=PARALLEL):
    return grasp_qualities(grasps, scene, gripper)[0]


def ranked_list(scene_center, radius, pattern):
    """Grasps with descending scores; pattern marks which ranks succeed."""
    out = []
    for i, ok in enumerate(pattern):
        g = good_grasp(scene_center) if ok else bad_grasp(scene_center, radius)
        g.score[0] = 1.0 - i * 0.01
        out.append(g)
    return Grasps.concat(out)


def test_precision_examples():
    scene, c, r = sphere_scene()
    grasps = ranked_list(c, r, [True, False, True, True, False])
    assert precision_at_k(graded(grasps, scene), 0.4, PARALLEL, 5) == pytest.approx(3 / 5)
    assert precision_at_k(graded(grasps.take(slice(0, 3)), scene), 0.4, PARALLEL, 2) == pytest.approx(0.5)
    assert precision_at_k(graded(NO_GRASPS, scene), 0.4, PARALLEL, 5) == 0.0


def test_precision_all_successful():
    scene, c, r = sphere_scene()
    grasps = ranked_list(c, r, [True] * 4)
    for k in (1, 2, 4, 50):
        assert precision_at_k(graded(grasps, scene), 0.2, PARALLEL, k) == 1.0


def test_precision_matches_per_grasp_oracle_loop(small_scene):
    cloud, scene, gt, cfg = small_scene
    grasps = first(gt, PARALLEL, 50)
    grasps.score[:] = 1.0
    mu = 0.6
    got = precision_at_k(graded(grasps, scene), mu, PARALLEL, 50)
    wins = 0
    for g in one_by_one(grasps):
        res = jaw_contact(scene, g)
        wins += bool(res.hit[0] and res.mu[0] <= mu)
    assert got == pytest.approx(wins / len(grasps))


@pytest.fixture(scope="module")
def four_kind_scene():
    """Every primitive kind: the curved normals are where row-dependent rounding showed."""
    cfg = SynthConfig(kind_sequence=("sphere", "cylinder", "plane-slab", "box"), density=25000.0)
    cloud, scene = generate_scene(1, 4, cfg)
    return cloud, scene, sample_ground_truth_grasps(scene, cfg, seed=1)


def test_parallel_qualities_match_per_grasp_oracle_bitwise(four_kind_scene, rng):
    cloud, scene, gt = four_kind_scene
    rcfg = RefineParallelConfig()
    seeds = np.flatnonzero(scene.per_point_object_id > 0)[::60]
    fallback, _ = fallback_refine_batch(cloud, scene, seeds, rcfg)
    refiner_out = {
        "view": rng.normal(size=(len(seeds), rcfg.n_views)),
        "angle": rng.normal(size=(len(seeds), rcfg.n_angle_bins)),
        "depth": rng.normal(size=(len(seeds), len(rcfg.depth_bins))),
        "width": rng.uniform(0.01, 0.1, (len(seeds), 1)),
        "score": rng.normal(size=(len(seeds), rcfg.n_score_bins)),
    }
    learned = learned_refine_batch(cloud, seeds, refiner_out, rcfg)
    ground = first(gt, PARALLEL)
    # jittered poses, some of which miss every object
    centers, angles = map(np.array, zip(*[(g.center + rng.normal(0.0, 0.02, 3), rng.uniform(0.0, 180.0))
                                          for g in ground]))
    jittered = Grasps.parallel(centers, ground.axis, angles, ground.width, ground.depth, ground.score)
    grasps = Grasps.concat([fallback, learned, ground, jittered])
    got, ids = grasp_qualities(grasps, scene, PARALLEL)
    rows = [jaw_contact(scene, g) for g in one_by_one(grasps)]
    assert np.array_equal(got, [res.mu[0] if res.hit[0] else np.inf for res in rows])
    assert np.array_equal(ids, [res.object_id[0] for res in rows])
    assert 0 < np.count_nonzero(np.isinf(got)) < len(got)
    assert 0 < np.count_nonzero(ids == -1) < len(ids)
    assert [a.shape for a in grasp_qualities(NO_GRASPS, scene, PARALLEL)] == [(0,), (0,)]


def test_vacuum_qualities_match_per_grasp_seal_bitwise(small_scene, rng):
    _, scene, gt, _ = small_scene
    vac = first(gt, VACUUM)
    # plus jittered cups, some off the surface (seal 0)
    centers = np.array([g.center + rng.normal(0.0, 0.002, 3) for g in vac])
    grasps = Grasps.concat([vac, Grasps.vacuum(centers, vac.axis, score=0.0)])
    got, ids = grasp_qualities(grasps, scene, VACUUM)
    assert np.array_equal(got, [seal_reference(scene, g.center, CUP_RADIUS) for g in grasps])
    assert np.array_equal(ids, [owning_object_reference(scene, g.center, ON_SURFACE_TOL) or -1 for g in grasps])
    assert 0 < np.count_nonzero(got) < len(got)
    assert 0 < np.count_nonzero(ids == -1) < len(ids)
    assert [a.shape for a in grasp_qualities(NO_GRASPS, scene, VACUUM)] == [(0,), (0,)]


def test_stored_vacuum_ground_truth_is_the_eval_grade_bitwise(four_kind_scene, tmp_path):
    """synth's stored seal and eval's grade of the same pose come from one oracle."""
    cloud, scene, gt = four_kind_scene
    save_scene(tmp_path / "scene", cloud, scene, gt)
    _, loaded, stored = load_scene(tmp_path / "scene")
    vac = stored.take(stored.gripper == VACUUM)
    got, ids = grasp_qualities(vac, loaded, VACUUM)
    assert np.array_equal(got, vac.quality)
    assert np.count_nonzero(got) > len(vac) // 2 and np.all(ids > 0)


def test_ap_mu_hand_example():
    scene, c, r = sphere_scene()
    grasps = ranked_list(c, r, [True, False, True, False, False])
    # successes at ranks 1 and 3 of a 5-long list, k clamped to len
    expected = 0.0
    succ = [1, 0, 1, 0, 0]
    for k in range(1, 51):
        kk = min(k, 5)
        expected += sum(succ[:kk]) / kk
    expected /= 50
    got = ap_mu(graded(grasps, scene), 0.4, PARALLEL)
    assert got == pytest.approx(expected)
    assert got == pytest.approx((1 + 0.5 + 2 / 3 + 0.5 + 0.4 + 45 * 0.4) / 50)


def test_ap_mu_single_grasp_clamps():
    scene, c, r = sphere_scene()
    grasps = ranked_list(c, r, [True])
    assert ap_mu(graded(grasps, scene), 0.2, PARALLEL) == 1.0


def test_ap_overall_friction_independent():
    scene, c, r = sphere_scene()
    grasps = ranked_list(c, r, [True, True])
    qualities = graded(grasps, scene)
    assert ap_overall(qualities, PARALLEL) == pytest.approx(ap_mu(qualities, 0.2, PARALLEL)) == 1.0


def test_ap_overall_vacuum_step_function():
    qualities = np.full(5, 0.5)  # positive exactly at mu_v in {0.2, 0.4}
    got = ap_overall(qualities, VACUUM)
    assert got == pytest.approx(np.mean([1.0, 1.0, 0.0, 0.0]))


def test_ap_overall_matches_nested_loop(small_scene):
    cloud, scene, gt, _ = small_scene
    grasps = first(gt, VACUUM, 30)
    qualities = graded(grasps, scene, VACUUM)
    got = ap_overall(qualities, VACUUM, CFG)
    ref = 0.0
    for mu in CFG.mu_vacuum_grid:
        ap = 0.0
        for k in range(1, CFG.k_max + 1):
            kk = min(k, len(grasps))
            ap += np.mean(qualities[:kk] >= mu) / CFG.k_max
        ref += ap / len(CFG.mu_vacuum_grid)
    assert got == pytest.approx(ref)


def test_ap_monotone_in_mu(small_scene):
    cloud, scene, gt, _ = small_scene
    par = first(gt, PARALLEL, 40)
    vac = first(gt, VACUUM, 40)
    q_par = graded(par, scene)
    q_vac = graded(vac, scene, VACUUM)
    ap_par = [ap_mu(q_par, mu, PARALLEL, CFG) for mu in CFG.mu_parallel_grid]
    ap_vac = [ap_mu(q_vac, mu, VACUUM, CFG) for mu in CFG.mu_vacuum_grid]
    # a larger friction budget admits more parallel positives; a larger seal
    # threshold is stricter for vacuum
    assert all(a <= b + 1e-12 for a, b in zip(ap_par, ap_par[1:]))
    assert all(a >= b - 1e-12 for a, b in zip(ap_vac, ap_vac[1:]))


def test_prepending_success_never_lowers_precision(small_scene):
    cloud, scene, gt, _ = small_scene
    scene_s, c, r = sphere_scene()
    grasps = ranked_list(c, r, [False, True, False])
    qual = graded(grasps, scene_s)
    qual_better = np.concatenate([[0.0], qual])  # a success prepended
    for k in (1, 2, 3, 4):
        p0 = precision_at_k(qual, 0.4, PARALLEL, k)
        p1 = precision_at_k(qual_better, 0.4, PARALLEL, k)
        assert p1 >= p0 - 1e-12


def test_grid_shapes():
    assert len(CFG.mu_grid(PARALLEL)) == 5
    assert len(CFG.mu_grid(VACUUM)) == 4
    with pytest.raises(ValueError):
        EvalConfig(mu_parallel_grid=(0.4, 0.2))


def test_roc_auc_basics():
    assert roc_auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0
    assert roc_auc([0.1, 0.2, 0.8, 0.9], [1, 1, 0, 0]) == 0.0
    assert roc_auc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5
    with pytest.raises(ValueError):
        roc_auc([0.1, 0.2], [1, 1])
    # tie-heavy draws: the AUC has the bits of the former hand-written tie-ranking loop
    rng = np.random.default_rng(7)
    for case in range(300):
        n = int(rng.integers(2, 400))
        scores = rng.integers(0, int(rng.integers(1, 12)), n) / 7.0 if case % 2 else rng.random(n).round(2)
        labels = rng.random(n) < rng.uniform(0.05, 0.95)
        labels[:2] = [True, False]
        assert np.float64(roc_auc(scores, labels)).tobytes() == np.float64(_tie_loop_auc(scores, labels)).tobytes()


def _tie_loop_auc(scores, labels) -> float:
    """roc_auc as it was written before it used scipy.stats.rankdata: average ranks of tied runs by hand."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels).astype(bool)
    n_pos = int(y.sum())
    n_neg = len(y) - n_pos
    order = np.argsort(s, kind="mergesort")
    ranks = np.empty(len(s))
    sorted_s = s[order]
    i = 0
    while i < len(s):
        j = i
        while j + 1 < len(s) and sorted_s[j + 1] == sorted_s[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return float((ranks[y].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))
