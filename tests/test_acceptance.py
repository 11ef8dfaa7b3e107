"""Acceptance criteria, one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s`. The learning and trend
criteria train real (small) models; the whole module takes several minutes,
so it is marked slow: `pytest -m "not slow"` runs the fast suite.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from dualgrasp.clearing import metrics_from_attempts
from dualgrasp.cli import main as cli
from dualgrasp.cloud import PointCloud, build_index, estimate_normal, farthest_point_sampling, knn, radius_query
from dualgrasp.experiments import complementarity_stats, make_scenes, seen_vs_novel_trend, train_and_score_heldout
from dualgrasp.geometry import fibonacci_hemisphere
from dualgrasp.grasps import PARALLEL, VACUUM
from dualgrasp.losses import (
    loss_objectness,
    loss_parallel_graspness,
    loss_refiner,
    loss_vacuum,
    smooth_l1,
    softmax_cross_entropy,
)
from dualgrasp.metrics import EvalConfig, ap_mu, ap_overall, grasp_qualities, precision_at_k
from dualgrasp.pcgrad import pcgrad, project_conflicts
from dualgrasp.refine_parallel import cylinder_group
from dualgrasp.scenes import SynthConfig, generate_scene, sample_ground_truth_grasps

pytestmark = pytest.mark.slow


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num} ({name}): {status}  {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


# -- 1: oracle equivalence ------------------------------------------------------------


def test_criterion_1_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(1)
    checks = 0
    for trial in range(200):
        n = int(rng.integers(5, 1001))
        pts = rng.uniform(-0.5, 0.5, size=(n, 3))
        cloud = PointCloud(pts)
        idx = build_index(cloud)
        q = rng.uniform(-0.5, 0.5, 3)

        k = int(rng.integers(1, min(n, 32) + 1))
        d2 = np.sum((pts - q) ** 2, axis=1)
        expect = np.lexsort((np.arange(n), d2))[:k]
        assert list(knn(idx, q, k)) == list(expect)

        r = float(rng.uniform(0.05, 0.6))
        expect_r = set(np.flatnonzero(d2 <= r * r))
        got_r = radius_query(idx, q, r)
        assert set(got_r) == expect_r and list(got_r) == sorted(got_r)

        sub = rng.choice(n, size=min(n, int(rng.integers(4, 129))), replace=False)
        sub.sort()
        m = int(rng.integers(2, min(len(sub), 32) + 1))
        got_fps = list(farthest_point_sampling(cloud, sub, m))
        if m == len(sub):  # whole-subset fast path: set equality, any order
            assert set(got_fps) == set(sub)
        else:
            assert got_fps == _brute_fps(pts, list(sub), m)

        seed = int(rng.integers(n))
        view = rng.normal(size=3)
        view /= np.linalg.norm(view)
        group = cylinder_group(cloud, seed, view, 0.08, 0.06)
        rel = pts - pts[seed]
        proj = rel @ view
        perp = np.linalg.norm(rel - proj[:, None] * view, axis=1)
        expect_c = np.flatnonzero((np.abs(proj) <= 0.03) & (perp <= 0.08))
        assert np.array_equal(group.member_indices, expect_c)
        checks += 4
    elapsed = time.time() - t0
    report(1, "oracle equivalence", elapsed < 60.0,
           f"{checks} brute-force comparisons in {elapsed:.1f}s (< 60s)")


def _brute_fps(points, subset, m):
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


# -- 2: normal accuracy -----------------------------------------------------------------


def test_criterion_2_normal_accuracy():
    dirs = fibonacci_hemisphere(10000)
    full = np.vstack([dirs, -dirs])  # 20k near-uniform sphere samples
    sphere_pts = 0.05 * full
    sphere = PointCloud(sphere_pts, viewpoint=(0.0, 0.0, 0.4))
    idx = build_index(sphere)
    errs = []
    oriented = 0
    for i in range(len(sphere)):
        n = estimate_normal(idx, i, 0.01)
        to_vp = sphere.viewpoint - sphere_pts[i]
        oriented += np.dot(n, to_vp) >= 0
        radial = full[i] if np.dot(full[i], to_vp) >= 0 else -full[i]
        errs.append(np.degrees(np.arccos(np.clip(abs(np.dot(n, radial)), -1, 1))))
    errs = np.array(errs)

    rngp = np.random.default_rng(2)
    xy = rngp.uniform(-0.1, 0.1, size=(20000, 2))
    plane = PointCloud(np.column_stack([xy, np.zeros(20000)]), viewpoint=(0, 0, 1))
    pidx = build_index(plane)
    perr = []
    for i in range(0, 20000, 10):
        n = estimate_normal(pidx, i, 0.01)
        perr.append(np.degrees(np.arccos(np.clip(abs(n[2]), -1, 1))))
        oriented += n[2] >= 0
    perr = np.array(perr)

    ok = errs.mean() < 2.0 and errs.max() < 5.0 and perr.mean() < 2.0 and perr.max() < 5.0
    ok = ok and oriented == len(sphere) + len(perr)
    report(2, "normal accuracy", ok,
           f"sphere mean {errs.mean():.3f} deg max {errs.max():.3f} deg; "
           f"plane mean {perr.mean():.4f} deg max {perr.max():.4f} deg; orientation 100%")


# -- 3: gradient checks --------------------------------------------------------------------


def _central_diff(f, x, eps=1e-5):
    g = np.zeros_like(x, dtype=float)
    flat, out = x.reshape(-1), g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = f(x)
        flat[i] = orig - eps
        lo = f(x)
        flat[i] = orig
        out[i] = (hi - lo) / (2 * eps)
    return g


def _max_rel_err(a, b):
    return float(np.max(np.abs(a - b) / np.maximum(1e-6, np.maximum(np.abs(a), np.abs(b)))))


def test_criterion_3_gradient_checks():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(100):
        n = 8
        z = rng.normal(scale=2.0, size=n)
        yb = (rng.uniform(size=n) > 0.6).astype(float)
        ys = rng.uniform(size=n)
        for f in (
            lambda q: loss_objectness(q, yb),
            lambda q: loss_vacuum(q, ys),
            lambda q: loss_parallel_graspness(q, yb),
        ):
            _, g = f(z)
            worst = max(worst, _max_rel_err(g, _central_diff(lambda q: f(q)[0], z.copy())))

        pred = rng.normal(size=5)
        tgt = rng.normal(size=5)
        pred[np.abs(np.abs(pred - tgt) - 1.0) < 1e-3] += 0.01  # step off the C1 kink
        _, g = smooth_l1(pred, tgt)
        worst = max(worst, _max_rel_err(g, _central_diff(lambda p: smooth_l1(p, tgt)[0], pred.copy())))

        logits = rng.normal(size=(4, 6))
        t = rng.integers(0, 6, size=4)
        _, g = softmax_cross_entropy(logits, t)
        worst = max(worst, _max_rel_err(
            g, _central_diff(lambda q: softmax_cross_entropy(q, t)[0], logits.copy())))

        targets = {
            "view_scores": rng.uniform(size=(3, 4)),
            "width": rng.uniform(0.02, 0.08, size=3),
            "angle_idx": rng.integers(0, 5, size=3),
            "depth_idx": rng.integers(0, 3, size=3),
            "score_idx": rng.integers(0, 4, size=3),
        }
        view = rng.normal(size=(3, 4))
        width = rng.normal(size=3)
        angle = rng.normal(size=(3, 5))
        depth = rng.normal(size=(3, 3))
        score = rng.normal(size=(3, 4))
        _, grads, _ = loss_refiner(view, width, angle, depth, score, targets)
        for name, arr in (("view", view), ("width", width), ("angle", angle),
                          ("depth", depth), ("score", score)):
            def totl(a, name=name, arrs={"view": view, "width": width, "angle": angle,
                                         "depth": depth, "score": score}):
                call = dict(arrs)
                call[name] = a
                return loss_refiner(call["view"], call["width"], call["angle"],
                                    call["depth"], call["score"], targets)[0]
            worst = max(worst, _max_rel_err(grads[name], _central_diff(totl, arr.copy())))
    report(3, "gradient checks", worst < 1e-4, f"max relative error {worst:.2e} (< 1e-4)")


# -- 4: PCGrad unit suite ----------------------------------------------------------------


def test_criterion_4_pcgrad():
    rng = np.random.default_rng(4)
    ok = True
    detail = []

    g1, g2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    proj = project_conflicts([g1, g2], np.random.default_rng(0))
    ok &= np.array_equal(proj[0], g1) and np.array_equal(proj[1], g2)
    detail.append("non-conflicting pass-through")

    out = pcgrad([np.array([1.0, 0.0]), np.array([-1.0, 1.0])], np.random.default_rng(0))
    ok &= np.allclose(out, [0.25, 0.75], atol=1e-15)
    detail.append(f"worked example -> ({out[0]:.2f}, {out[1]:.2f})")

    g = rng.normal(size=30)
    ok &= np.allclose(pcgrad([g, -g], np.random.default_rng(0)), 0.0, atol=1e-15)
    detail.append("antiparallel annihilation")

    base = [rng.normal(size=40) for _ in range(2)]
    for c in (0.5, 7.0):
        a = pcgrad([c * x for x in base], np.random.default_rng(5))
        b = c * pcgrad(base, np.random.default_rng(5))
        ok &= np.max(np.abs(a - b)) < 1e-12 * max(1.0, c)
    detail.append("positive homogeneity @1e-12")
    report(4, "PCGrad", bool(ok), "; ".join(detail))


# -- 5: label pipeline exactness --------------------------------------------------------------


def test_criterion_5_label_pipeline():
    import sys

    sys.path.insert(0, str(Path(__file__).parent))
    from test_labels import overhead_box_scene, vac

    from dualgrasp.labels import build_label_maps

    cloud, scene, _ = overhead_box_scene()
    top = scene.per_point_object_id == 1

    grasps = [vac((-0.02, 0, 0.04), 0.3), vac((0, 0, 0.04), 0.65), vac((0.02, 0, 0.04), 1.0)]
    maps = build_label_maps(cloud, scene, grasps)
    nz = maps.vacuum_graspness[maps.vacuum_graspness > 0]
    ok = np.all((nz >= 0.1) & (nz <= 1.0)) and len(nz) > 0

    lone = build_label_maps(cloud, scene, [vac((0, 0, 0.04), 0.003)])
    ok &= np.all(lone.vacuum_graspness == 0)

    pts = cloud.points.copy()
    pts[:4, 2] = -0.03
    sunk = PointCloud(pts, viewpoint=cloud.viewpoint)
    m2 = build_label_maps(sunk, scene, [vac((0, 0, 0.04), 0.9)])
    background = scene.per_point_object_id == 0
    ok &= np.all(m2.vacuum_graspness[background] == 0)
    ok &= np.all(m2.parallel_graspness[background] == 0)
    ok &= np.all(m2.vacuum_graspness[:4] == 0)
    report(5, "label pipeline", bool(ok),
           "post-rescale channel in {0} u [0.1, 1]; seal-0.003 grasp zeroed; "
           "background and below-table exactly 0")


# -- 6: learning signal -----------------------------------------------------------------------


def test_criterion_6_learning_signal():
    t0 = time.time()
    synth = SynthConfig(kinds=("box", "sphere", "plane-slab"))
    scenes = make_scenes(100, 8, 4, synth)
    learn = train_and_score_heldout(scenes[:6], scenes[6:])
    elapsed = time.time() - t0
    channel_aucs = {k: v for k, v in learn.aucs.items() if k[1] in (PARALLEL, VACUUM)}
    worst = min(channel_aucs.values())
    ok = worst >= 0.90 and elapsed < 600.0
    report(6, "learning signal", bool(ok),
           f"held-out graspness AUCs {', '.join(f'{k[1]}[{k[0]}]={v:.3f}' for k, v in sorted(channel_aucs.items()))}; "
           f"worst {worst:.3f} (>= 0.90); {elapsed:.0f}s (< 600s)")


# -- 7: complementarity -------------------------------------------------------------------------


def test_criterion_7_complementarity():
    flat, small = complementarity_stats(n_scenes=10, base_seed=0)
    mf, ms = float(np.mean(flat)), float(np.mean(small))
    ok = mf >= 0.80 and ms >= 0.60
    report(7, "complementarity", bool(ok),
           f"top-10 vacuum on flat {mf:.2f} (>= 0.80); top-10 parallel on small objects {ms:.2f} (>= 0.60)")


# -- 8: metric correctness --------------------------------------------------------------------


def test_criterion_8_metric_correctness():
    import sys

    sys.path.insert(0, str(Path(__file__).parent))
    from test_metrics import ranked_list, sphere_scene

    ecfg = EvalConfig()
    scene, c, r = sphere_scene()
    three_of_five = ranked_list(c, r, [True, False, True, True, False])
    q3 = grasp_qualities(three_of_five, scene, PARALLEL, ecfg)
    ok = precision_at_k(three_of_five, scene, 0.4, PARALLEL, 5, ecfg, q3) == pytest.approx(0.6)

    grasps = ranked_list(c, r, [True, False, True, False, False])
    qual = grasp_qualities(grasps, scene, PARALLEL, ecfg)
    expected = sum(sum([1, 0, 1, 0, 0][: min(k, 5)]) / min(k, 5) for k in range(1, 51)) / 50
    ok &= ap_mu(grasps, scene, 0.4, PARALLEL, ecfg, qual) == pytest.approx(expected)
    ref = np.mean([ap_mu(grasps, scene, mu, PARALLEL, ecfg, qual) for mu in ecfg.mu_parallel_grid])
    ok &= ap_overall(grasps, scene, PARALLEL, ecfg, qual) == pytest.approx(float(ref))

    # monotonicity across 50 randomized scenes
    mono = True
    cfg = SynthConfig(density=8000.0, vacuum_grasps_per_object=24, parallel_grasps_per_object=24)
    for s in range(50):
        _, scene_s = generate_scene(5000 + s, 2, cfg)
        gt = sample_ground_truth_grasps(scene_s, cfg, seed=s)
        par = [g.pose for g in gt if g.gripper == PARALLEL][:40]
        vacg = [g.pose for g in gt if g.gripper == VACUUM][:40]
        if par:
            qp = grasp_qualities(par, scene_s, PARALLEL, ecfg)
            aps = [ap_mu(par, scene_s, mu, PARALLEL, ecfg, qp) for mu in ecfg.mu_parallel_grid]
            mono &= all(a <= b + 1e-12 for a, b in zip(aps, aps[1:]))
        if vacg:
            qv = grasp_qualities(vacg, scene_s, VACUUM, ecfg)
            aps = [ap_mu(vacg, scene_s, mu, VACUUM, ecfg, qv) for mu in ecfg.mu_vacuum_grid]
            mono &= all(a >= b - 1e-12 for a, b in zip(aps, aps[1:]))
    ok &= mono

    # hand-computed clearing metrics on 5 scripted attempt traces
    traces = [
        ([(1, True), (2, True), (3, True), (4, True), (5, True), (6, True)], 6, range(1, 7),
         dict(r_object=1.0, r_grasp=1.0, r_mix=1.0)),
        ([(1, False), (1, True), (2, True), (3, False), (3, True), (4, True), (5, True), (6, True)],
         6, range(1, 7), dict(r_mix=8 / 6, r_grasp=6 / 8, r_object=1.0)),
        ([(1, True), (2, False), (2, False)], 3, {1, 2}, dict(r_object=1 / 3, r_mix=1.0, r_seen=2 / 3)),
        ([(-1, False), (-1, False), (-1, False)], 2, set(), dict(r_object=0.0, r_grasp=0.0, r_seen=0.0)),
        ([(1, False), (1, False), (1, True), (2, True)], 2, {1, 2},
         dict(r_object=1.0, r_grasp=0.5, r_mix=2.0)),
    ]
    for attempts, total, detected, expect in traces:
        m = metrics_from_attempts(attempts, total, detected)
        for key, val in expect.items():
            ok &= getattr(m, key) == pytest.approx(val)
    report(8, "metric correctness", bool(ok),
           "nested-loop equality exact; AP monotone over 50 scenes; 5 scripted traces incl. R_mix=8/6")


# -- 9: seen-vs-novel trend --------------------------------------------------------------------


def test_criterion_9_trend():
    results = seen_vs_novel_trend(replications=10, base_seed=0)
    wins = sum(s > n for s, n in results)
    detail = ", ".join(f"{s:.3f}>{n:.3f}" if s > n else f"{s:.3f}<={n:.3f}" for s, n in results)
    report(9, "seen-vs-novel trend", wins >= 8, f"seen beats novel in {wins}/10 replications [{detail}]")


# -- 10: reproducibility -----------------------------------------------------------------------


def test_criterion_10_reproducibility(tmp_path):
    def run_all(root: Path):
        scenes = root / "scenes"
        assert cli(["synth", "--out", str(scenes), "--scenes", "2", "--objects", "3", "--seed", "11"]) == 0
        assert cli(["train", "--scenes", str(scenes), "--out", str(root / "model"),
                    "--epochs", "2", "--seed", "5"]) == 0
        assert cli(["predict", "--scenes", str(scenes), "--out", str(root / "pred"),
                    "--checkpoint", str(root / "model" / "checkpoint.json"), "--max-refine", "12"]) == 0
        assert cli(["eval", "--scenes", str(scenes), "--grasps", str(root / "pred"),
                    "--out", str(root / "metrics")]) == 0

    a, b = tmp_path / "a", tmp_path / "b"
    run_all(a)
    run_all(b)
    compared = 0
    mismatched = []
    for pa in sorted(a.rglob("*")):
        if pa.is_file():
            pb = b / pa.relative_to(a)
            compared += 1
            if pa.read_bytes() != pb.read_bytes():
                mismatched.append(str(pa.relative_to(a)))
    report(10, "reproducibility", not mismatched and compared >= 10,
           f"{compared} files byte-identical across synth/train/predict/eval re-runs"
           + (f"; mismatches: {mismatched}" if mismatched else ""))
