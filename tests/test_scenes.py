import json
from dataclasses import fields, replace

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from dualgrasp import scenes
from dualgrasp.cloud import CellGrid
from dualgrasp.geometry import closing_angles_deg
from dualgrasp.grasps import CUP_RADIUS, MAX_WIDTH, WIDTH_MARGIN, Grasps
from dualgrasp.primitives import Primitive
from dualgrasp.scenes import (
    ON_SURFACE_TOL,
    SEAL_SAMPLE_DENSITY,
    SEAL_SAMPLE_LIMITS,
    SceneAnnotation,
    SynthConfig,
    generate_scene,
    load_scene,
    oracle_seal_quality,
    owning_objects,
    parallel_quality_batch,
    sample_ground_truth_grasps,
    save_scene,
    seal_quality_batch,
)


def bare_scene(*prims, table_height=-1.0):
    """Annotation wrapper for oracle tests that need no cloud."""
    return SceneAnnotation(
        primitives=list(prims),
        table_height=table_height,
        per_point_object_id=np.zeros(0, dtype=int),
        per_point_flat=np.zeros(0, dtype=bool),
    )


def down_grasp(jaw_center, closing, width=0.09, depth=0.02):
    """One parallel grasp whose jaw line passes through jaw_center along closing."""
    closing = np.asarray(closing, dtype=float)
    v = np.array([0.0, 0.0, -1.0])
    assert abs(closing @ v) < 1e-9, "closing must be horizontal for this helper"
    center = np.asarray(jaw_center, dtype=float) - depth * v
    return Grasps.parallel([center], [v], closing_angles_deg(v, closing), width, depth, score=0.0)


def jaw_contact(scene, g):
    """parallel_quality_batch on one grasp's jaw line; a miss is hit == False."""
    return parallel_quality_batch(scene, g.jaw_centers(), g.closings(), g.width)


# -- scene generation -----------------------------------------------------------


def test_generation_deterministic():
    cfg = SynthConfig()
    c1, s1 = generate_scene(11, 3, cfg)
    c2, s2 = generate_scene(11, 3, cfg)
    assert np.array_equal(c1.points, c2.points)
    assert np.array_equal(s1.per_point_object_id, s2.per_point_object_id)
    assert all(
        p.kind == q.kind and p.dimensions == q.dimensions and np.array_equal(p.translation, q.translation)
        for p, q in zip(s1.primitives, s2.primitives)
    )


def test_single_sphere_scene():
    cfg = SynthConfig(kinds=("sphere",))
    cloud, scene = generate_scene(5, 1, cfg)
    ids = np.unique(scene.per_point_object_id)
    assert set(ids) <= {0, 1}
    obj = scene.per_point_object_id == 1
    assert obj.any()
    assert np.all(cloud.points[obj, 2] >= cfg.table_height - 1e-9)
    assert scene.objects()[0].kind == "sphere"


def test_density_scaling():
    base = SynthConfig(density=20000.0)
    double = SynthConfig(density=40000.0)
    n1 = len(generate_scene(3, 2, base)[0])
    n2 = len(generate_scene(3, 2, double)[0])
    assert abs(n2 - 2 * n1) <= 0.1 * 2 * n1


def test_objects_do_not_interpenetrate():
    cfg = SynthConfig()
    _, scene = generate_scene(9, 5, cfg)
    objs = scene.objects()
    for i, a in enumerate(objs):
        for b in objs[i + 1 :]:
            gap = np.linalg.norm(a.translation[:2] - b.translation[:2])
            assert gap >= 1e-9  # centers distinct; xy circles checked at placement

    # hull check via samples: no object point lies strictly inside another object
    rng = np.random.default_rng(0)
    for a in objs:
        pts, _, _ = a.sample_surface(200, rng)
        for b in objs:
            if b is not a:
                assert not b.contains(pts.T, pad=-1e-9).any()


def test_cloud_points_face_camera():
    cfg = SynthConfig()
    cloud, scene = generate_scene(2, 3, cfg)
    # every kept point's primitive normal faces the viewpoint
    for prim in scene.primitives:
        mask = scene.per_point_object_id == prim.object_id
        if not mask.any():
            continue
        nrm = prim.surface_normal(cloud.points[mask].T).T
        dots = np.sum(nrm * (cloud.viewpoint - cloud.points[mask]), axis=1)
        assert np.all(dots > 0)


def test_generation_failure_when_table_too_small():
    cfg = SynthConfig(table_extent=0.06, kinds=("box",), box_edge=(0.05, 0.06))
    with pytest.raises(Exception):
        generate_scene(0, 3, cfg)


# -- parallel force-closure oracle -------------------------------------------------


def test_sphere_diametral_grasp_zero_friction():
    sphere = Primitive("sphere", (0.03,), translation=(0, 0, 0.1))
    scene = bare_scene(sphere)
    g = down_grasp(jaw_center=(0, 0, 0.1), closing=(1, 0, 0), width=0.08)
    assert jaw_contact(scene, g).mu[0] == pytest.approx(0.0, abs=1e-9)


def test_box_face_pair_zero_friction():
    box = Primitive("box", (0.04, 0.05, 0.03), translation=(0, 0, 0.2))
    scene = bare_scene(box)
    g = down_grasp(jaw_center=(0, 0, 0.2), closing=(1, 0, 0))
    assert jaw_contact(scene, g).mu[0] == pytest.approx(0.0, abs=1e-9)


def test_box_30_degrees_off_normal():
    box = Primitive("box", (0.04, 0.04, 0.04), translation=(0, 0, 0))
    scene = bare_scene(box)
    a = np.deg2rad(30.0)
    g = down_grasp(jaw_center=(0, 0, 0), closing=(np.cos(a), np.sin(a), 0.0))
    assert jaw_contact(scene, g).mu[0] == pytest.approx(np.tan(a), rel=1e-9)


def sampled_contact_mu(prim, jaw_center, closing, rng, n=200_000):
    """Independent oracle: contact normals from dense surface samples near the line."""
    pts, nrm, _ = prim.sample_surface(n, rng)
    closing = np.asarray(closing, dtype=float)
    rel = pts - jaw_center
    t = rel @ closing
    dist = np.linalg.norm(rel - np.outer(t, closing), axis=1)
    near = dist < 5e-4
    t_near = t[near]
    entry = near.nonzero()[0][np.argsort(t_near)[: max(1, near.sum() // 20)]]
    exit_ = near.nonzero()[0][np.argsort(-t_near)[: max(1, near.sum() // 20)]]
    mus = []
    for contact, sign in ((entry, -1.0), (exit_, +1.0)):
        n_avg = nrm[contact].mean(axis=0)
        n_avg /= np.linalg.norm(n_avg)
        cos = sign * closing @ n_avg
        mus.append(np.sqrt(max(0.0, 1 - cos**2)) / cos)
    return max(mus)


def test_sphere_offset_chord_matches_sampled_oracle(rng):
    R, h = 0.03, 0.015
    sphere = Primitive("sphere", (R,), translation=(0, 0, 0.1))
    scene = bare_scene(sphere)
    g = down_grasp(jaw_center=(0, h, 0.1), closing=(1, 0, 0), width=0.09)
    mu = jaw_contact(scene, g).mu[0]
    assert mu == pytest.approx(h / np.sqrt(R * R - h * h), rel=1e-9)
    assert mu == pytest.approx(sampled_contact_mu(sphere, np.array([0, h, 0.1]), [1, 0, 0], rng), rel=0.05)


def test_no_contact_is_a_miss():
    sphere = Primitive("sphere", (0.02,), translation=(0, 0, 0.1))
    scene = bare_scene(sphere)
    g = down_grasp(jaw_center=(0.5, 0.5, 0.5), closing=(1, 0, 0))
    res = jaw_contact(scene, g)
    assert not res.hit[0] and res.object_id[0] == -1 and res.mu[0] == np.inf


def test_object_wider_than_jaws_cannot_close():
    box = Primitive("box", (0.2, 0.05, 0.03), translation=(0, 0, 0))
    scene = bare_scene(box)
    g = down_grasp(jaw_center=(0, 0, 0), closing=(1, 0, 0), width=0.09)
    res = jaw_contact(scene, g)
    assert res.hit[0] and res.mu[0] == np.inf


def test_rigid_invariance_of_parallel_oracle():
    box = Primitive("box", (0.04, 0.05, 0.03), translation=(0.02, -0.01, 0.12), rotation=(1, 0, 0, 0))
    scene = bare_scene(box)
    a = np.deg2rad(20.0)
    g = down_grasp(jaw_center=(0.02, -0.01, 0.12), closing=(np.cos(a), np.sin(a), 0))
    mu0 = jaw_contact(scene, g).mu[0]

    rot = Rotation.from_euler("zyx", [0.7, 0.3, -0.2])
    quat_xyzw = rot.as_quat()
    quat = np.array([quat_xyzw[3], *quat_xyzw[:3]])
    shift = np.array([0.05, 0.02, 0.3])
    box_r = Primitive(
        "box", box.dimensions, rotation=quat, translation=rot.as_matrix() @ box.translation + shift
    )
    # the rotated jaw line: angle re-derived in the rotated approach frame
    u, v = rot.apply(g.closings()[0]), rot.apply(g.axis[0])
    g_r = Grasps.parallel([rot.apply(g.center[0]) + shift], [v], closing_angles_deg(v, u), g.width, g.depth, score=0.0)
    mu1 = jaw_contact(bare_scene(box_r), g_r).mu[0]
    assert mu1 == pytest.approx(mu0, rel=1e-9, abs=1e-12)


def parallel_quality_batch_reference(scene, jaw_centers, closing_dirs, widths):
    """parallel_quality_batch as written with axis=1 reductions and a boolean gather per use."""
    q = np.atleast_2d(np.asarray(jaw_centers, dtype=np.float64))
    u = np.atleast_2d(np.asarray(closing_dirs, dtype=np.float64))
    u = u / np.linalg.norm(u, axis=1, keepdims=True)
    w = np.broadcast_to(np.asarray(widths, dtype=np.float64), (len(q),))
    m = len(q)
    best_mid = np.full(m, np.inf)
    best_t0 = np.zeros(m)
    best_t1 = np.zeros(m)
    best_id = np.full(m, -1, dtype=np.intp)
    hit_any = np.zeros(m, dtype=bool)
    objs = scene.objects()
    for prim in objs:
        rel = prim.translation - q
        along = np.sum(rel * u, axis=1)
        d2 = np.sum(rel * rel, axis=1) - along * along
        cand = np.flatnonzero(d2 <= prim.bounding_radius() ** 2 + 1e-12)
        if len(cand) == 0:
            continue
        t0c, t1c, hitc = prim.line_intersections(q[cand].T, u[cand].T)
        with np.errstate(invalid="ignore"):
            midc = np.where(hitc, np.abs((t0c + t1c) / 2.0), np.inf)
        betterc = hitc & (midc < best_mid[cand])
        rows = cand[betterc]
        best_mid[rows] = midc[betterc]
        best_t0[rows] = t0c[betterc]
        best_t1[rows] = t1c[betterc]
        best_id[rows] = prim.object_id
        hit_any[cand] |= hitc
    mu = np.full(m, np.inf)
    for prim in objs:
        sel = hit_any & (best_id == prim.object_id)
        if not np.any(sel):
            continue
        n0 = prim.surface_normal((q[sel] + best_t0[sel, None] * u[sel]).T).T
        n1 = prim.surface_normal((q[sel] + best_t1[sel, None] * u[sel]).T).T
        cos0 = -np.sum(u[sel] * n0, axis=1)
        cos1 = np.sum(u[sel] * n1, axis=1)
        cmin = np.minimum(cos0, cos1)
        with np.errstate(divide="ignore", invalid="ignore"):
            tan0 = np.sqrt(np.maximum(0.0, 1.0 - cos0**2)) / cos0
            tan1 = np.sqrt(np.maximum(0.0, 1.0 - cos1**2)) / cos1
        mu_sel = np.where(cmin > 1e-9, np.maximum(tan0, tan1), np.inf)
        fits = (best_t0[sel] >= -w[sel] / 2.0 - 1e-9) & (best_t1[sel] <= w[sel] / 2.0 + 1e-9)
        mu[sel] = np.where(fits, mu_sel, np.inf)
    return scenes.ContactBatch(mu=mu, object_id=best_id, t0=best_t0, t1=best_t1, hit=hit_any)


def assert_same_contacts(got, want):
    for field in scenes.ContactBatch._fields:
        g, w = getattr(got, field), getattr(want, field)
        assert g.shape == w.shape and g.dtype == w.dtype, field
        assert np.array_equal(g, w), field
        assert np.array_equal(np.signbit(g), np.signbit(w)), f"{field}: sign of zero"


def test_parallel_batch_matches_row_reduction_oracle_bitwise(monkeypatch):
    from dualgrasp import refine_parallel

    real = scenes.parallel_quality_batch
    lines = []

    def checked(scene, jaw_centers, closing_dirs, widths):
        got = real(scene, jaw_centers, closing_dirs, widths)
        assert_same_contacts(got, parallel_quality_batch_reference(scene, jaw_centers, closing_dirs, widths))
        lines.append((len(got.mu), int(np.count_nonzero(got.hit)), int(np.count_nonzero(np.isfinite(got.mu)))))
        return got

    # the probe and full jaw-line grids of the pose search, as _grid_qualities builds them
    monkeypatch.setattr(refine_parallel, "parallel_quality_batch", checked)
    kinds = ("box", "sphere", "cylinder", "plane-slab")
    rng = np.random.default_rng(5)
    for seed in range(3):
        cfg = SynthConfig(kind_sequence=kinds[seed:] + kinds[:seed], density=5000.0)
        cloud, scene = generate_scene(seed, 4, cfg)
        seeds = cloud.points[rng.choice(len(cloud.points), 12, replace=False)]
        refine_parallel.oracle_search(scene, seeds, refine_parallel.RefineParallelConfig(), 2, 2)
        # lines far above the scene miss everything; an empty batch returns empty fields
        above = rng.uniform(-0.3, 0.3, (50, 3)) + [0.0, 0.0, 5.0]
        flat = np.column_stack([rng.normal(size=(50, 2)), np.zeros(50)])
        assert_same_contacts(real(scene, above, flat, 0.1), parallel_quality_batch_reference(scene, above, flat, 0.1))
        assert not real(scene, above, flat, 0.1).hit.any()
        empty = np.zeros((0, 3))
        assert_same_contacts(real(scene, empty, empty, np.zeros(0)),
                             parallel_quality_batch_reference(scene, empty, empty, np.zeros(0)))
    assert len(lines) == 6 and lines[0][0] == 12 * 300 * 6 * 2 and lines[1][0] == 12 * 12 * 4
    assert all(hit > 0 and finite > 0 for _, hit, finite in lines)


def test_per_line_widths_match_the_reference_bitwise():
    """Widths that cut some hits, chords exactly at the 1e-9 bound, and NaN widths (mu = inf)."""
    kinds = ("box", "sphere", "cylinder", "plane-slab")
    rng = np.random.default_rng(8)
    cloud, scene = generate_scene(4, 4, SynthConfig(kind_sequence=kinds, density=5000.0))
    jaw_centers = cloud.points[rng.integers(0, len(cloud.points), 4000)] + rng.normal(scale=0.005, size=(4000, 3))
    closing_dirs = rng.normal(size=(4000, 3))
    full = scenes.parallel_quality_batch(scene, jaw_centers, closing_dirs, np.inf)
    reach = 2.0 * np.maximum(-full.t0, full.t1)
    widths = rng.uniform(0.0, 0.12, 4000)
    widths[:1000] = reach[:1000]  # the chord ends exactly at a jaw
    widths[1000:2000] = np.where(full.t1[1000:2000] > -full.t0[1000:2000],
                                 (full.t1[1000:2000] - 1e-9) * 2.0, -(full.t0[1000:2000] + 1e-9) * 2.0)
    widths[2000:2100] = np.nan
    got = scenes.parallel_quality_batch(scene, jaw_centers, closing_dirs, widths)
    assert_same_contacts(got, parallel_quality_batch_reference(scene, jaw_centers, closing_dirs, widths))
    finite = np.isfinite(got.mu)
    assert np.all(np.isinf(got.mu[2000:2100])) and np.any(full.hit[2000:2100] & np.isfinite(full.mu[2000:2100]))
    assert np.any(finite[:2000]) and np.any(full.hit & np.isfinite(full.mu) & ~finite)  # some hits are cut


def test_normals_are_taken_only_for_hits_that_fit(monkeypatch):
    """The contact-normal pass sees two points per hit whose chord fits the jaw, and no other line."""
    from dualgrasp import refine_parallel

    real_normal, real_batch = Primitive.surface_normal, scenes.parallel_quality_batch
    columns, fitting = [0], [0]

    def counted_normal(prim, points):
        columns[0] += points.shape[1]
        return real_normal(prim, points)

    def counted_batch(scene, jaw_centers, closing_dirs, widths):
        got = real_batch(scene, jaw_centers, closing_dirs, widths)
        w = np.broadcast_to(widths, got.t0.shape)
        fitting[0] += int(np.count_nonzero(got.hit & (got.t0 >= -w / 2.0 - 1e-9) & (got.t1 <= w / 2.0 + 1e-9)))
        return got

    monkeypatch.setattr(Primitive, "surface_normal", counted_normal)
    monkeypatch.setattr(refine_parallel, "parallel_quality_batch", counted_batch)
    cloud, scene = generate_scene(2, 4, SynthConfig(kind_sequence=("box", "sphere", "cylinder", "plane-slab")))
    seeds = cloud.points[np.random.default_rng(2).choice(len(cloud.points), 24, replace=False)]
    refine_parallel.oracle_search(scene, seeds, refine_parallel.RefineParallelConfig(), 2, 2)
    assert fitting[0] > 0 and columns[0] == 2 * fitting[0]


# -- vacuum seal oracle ------------------------------------------------------------


def test_seal_on_large_flat_face():
    slab = Primitive("plane-slab", (0.2, 0.2, 0.01), translation=(0, 0, 0.005))
    scene = bare_scene(slab)
    assert oracle_seal_quality(scene, (0, 0, 0.01), 0.01) == pytest.approx(1.0, abs=1e-9)


def test_seal_porous_is_zero():
    slab = Primitive("plane-slab", (0.2, 0.2, 0.01), translation=(0, 0, 0.005), porosity_flag=True)
    assert oracle_seal_quality(bare_scene(slab), (0, 0, 0.01), 0.01) == 0.0


def test_seal_off_object_is_zero():
    slab = Primitive("plane-slab", (0.1, 0.1, 0.01), translation=(0, 0, 0.005))
    assert oracle_seal_quality(bare_scene(slab), (0.3, 0.3, 0.2), 0.01) == 0.0


def spherical_cap_rms(R, rc):
    """Closed form: RMS tangent-plane deviation over the cap within chord rc."""
    cos_max = 1.0 - 2.0 * (rc / (2.0 * R)) ** 2
    return R * (1.0 - cos_max) / np.sqrt(3.0)


def sampled_cap_rms(R, rc, center, rng, n=400_000):
    """Independent dense-sampling oracle for the same quantity."""
    v = rng.normal(size=(n, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    pts = center + R * v
    top = center + np.array([0, 0, R])
    in_cup = np.linalg.norm(pts - top, axis=1) <= rc
    dev = (pts[in_cup] - top) @ np.array([0, 0, 1.0])
    return float(np.sqrt(np.mean(dev**2)))


def test_owning_object_nearest_surface_and_tolerance():
    a = Primitive("sphere", (0.02,), translation=(-0.05, 0, 0.02), object_id=1)
    b = Primitive("sphere", (0.02,), translation=(0.05, 0, 0.02), object_id=2)
    twin = Primitive("sphere", (0.02,), translation=(0.05, 0, 0.02), object_id=3)
    scene = bare_scene(a, b, twin)
    probes = np.array([[0.02, 0.0, 0.02], [-0.05, 0.0, 0.04], [0.05, 0.0, 0.04]])
    # 1 cm from b's surface; on a's surface; an exact b/twin tie goes to the first in scene order
    assert list(owning_objects(scene, probes)) == [2, 1, 2]
    assert list(owning_objects(scene, probes, tol=0.005)) == [0, 1, 2]
    assert list(owning_objects(scene, probes, tol=1e-9)) == [0, 1, 2]
    assert list(owning_objects(scene, probes[0])) == [2]  # one point, one row
    assert list(owning_objects(bare_scene(), probes)) == [0, 0, 0]
    assert owning_objects(scene, np.zeros((0, 3))).shape == (0,)


def owning_object_reference(scene, point, tol=np.inf):
    """The per-point scan owning_objects replaced: object id, 0 beyond tol."""
    best, best_d = 0, np.inf
    for prim in scene.objects():
        d = float(prim.surface_distance(point[:, None])[0])
        if d < best_d:
            best, best_d = prim.object_id, d
    return 0 if best_d > tol else best


def test_owning_objects_matches_per_point_scan():
    rng = np.random.default_rng(7)
    for seed in range(3):
        cloud, scene = generate_scene(seed, 6, SynthConfig(density=5000.0))
        on_surface = cloud.points[rng.choice(len(cloud), 300)] + rng.normal(0.0, 0.002, (300, 3))
        centers = np.array([p.translation for p in scene.objects()])
        pairs = rng.integers(len(centers), size=(300, 2))
        between = centers[pairs[:, 0]] + rng.uniform(size=(300, 1)) * (centers[pairs[:, 1]] - centers[pairs[:, 0]])
        points = np.vstack([on_surface, between])
        for tol in (np.inf, 0.002, 0.01):
            want = [owning_object_reference(scene, p, tol) for p in points]
            assert owning_objects(scene, points, tol).tolist() == want


# -- batched seal oracle -------------------------------------------------------------


def seal_reference(scene, center, cup_radius=0.01):
    """The one-center seal oracle that seal_quality_batch replaced (a full scan of the samples)."""
    c = np.asarray(center, dtype=np.float64)
    oid = owning_object_reference(scene, c, ON_SURFACE_TOL)
    prim = next((p for p in scene.objects() if p.object_id == oid), None)
    if prim is None or prim.porosity_flag:
        return 0.0
    lo, hi = SEAL_SAMPLE_LIMITS
    count = int(np.clip(prim.surface_area() * SEAL_SAMPLE_DENSITY, lo, hi))
    pts = prim.to_world(scenes._seal_surface_samples(prim, count)[0].T).T
    in_cup = np.linalg.norm(pts - c, axis=1) <= cup_radius
    if not np.any(in_cup):
        return 0.0
    n = prim.surface_normal(c[:, None])[:, 0]
    dev = (pts[in_cup] - c) @ n
    rms = float(np.sqrt(np.mean(dev**2)))
    return max(0.0, 1.0 - rms / cup_radius)


def test_seal_batch_matches_per_center_oracle_bitwise():
    kinds = ("box", "sphere", "cylinder", "plane-slab")
    rng = np.random.default_rng(3)
    sealed = porous = 0
    for seed in range(13):
        cfg = SynthConfig(kind_sequence=kinds, density=5000.0, vacuum_grasps_per_object=24,
                          parallel_grasps_per_object=4, porous_prob=1.0 if seed == 12 else 0.25)
        _, scene = generate_scene(seed, 4, cfg)
        gt = sample_ground_truth_grasps(scene, cfg, seed=seed)
        vac = gt.take(gt.gripper == "vacuum")
        centers = vac.center
        want = np.array([seal_reference(scene, c, CUP_RADIUS) for c in centers])
        assert np.array_equal(vac.quality, want)
        if seed == 12:
            assert not np.any(want)  # every object porous
        sealed += np.count_nonzero(want)
        porous += sum(p.porosity_flag for p in scene.objects())
        # a mixed batch: the candidates plus centers pushed 3 to 6 mm off the surface (seal 0)
        normals = vac.axis
        off = centers + rng.uniform(0.003, 0.006, (len(vac), 1)) * normals
        mixed = np.vstack([off, centers])[rng.permutation(2 * len(vac))]
        batch = seal_quality_batch(scene, mixed, 0.01)
        assert sorted(batch.seal.tolist()) == sorted([0.0] * len(vac) + want.tolist())
        owners = [owning_object_reference(scene, c, ON_SURFACE_TOL) or -1 for c in mixed]
        assert np.array_equal(batch.object_id, owners)
        for r in (0.004, 0.02):
            assert np.array_equal(seal_quality_batch(scene, centers, r).seal,
                                  [seal_reference(scene, c, r) for c in centers])
    assert sealed > 500 and 4 < porous < 48


def test_seal_batch_empty_cup_and_no_centers():
    slab = Primitive("plane-slab", (0.1, 0.1, 0.01), translation=(0, 0, 0.005))
    scene = bare_scene(slab)
    center = np.array([0.0, 0.0, 0.01])
    # 1 um holds none of the few thousand samples: the flat face would otherwise seal at 1
    assert seal_reference(scene, center, 1e-6) == 0.0
    assert seal_quality_batch(scene, center, 1e-6).seal.tolist() == [0.0]
    assert seal_quality_batch(scene, center, 0.01).seal.tolist() == [1.0]
    empty = seal_quality_batch(scene, np.zeros((0, 3)))
    assert empty.seal.shape == empty.object_id.shape == (0,)


def test_seal_batch_keeps_samples_at_exactly_cup_radius(monkeypatch):
    # spacing 0.25 is exact in binary: the six axis neighbours of a node sit at exactly r
    g = np.arange(-4, 5) * 0.25
    lattice = np.array([[x, y, z] for x in g for y in g for z in (-0.25, 0.0, 0.25)])
    slab = Primitive("plane-slab", (4.0, 4.0, 1.0), translation=(0, 0, -0.5))  # top face z = 0
    local = lattice - slab.translation  # posed back onto the lattice exactly
    # cells one spacing wide put every sample within a hair of a cell boundary
    monkeypatch.setattr(scenes, "_seal_surface_samples", lambda prim, count: (local, CellGrid(local, 0.25)))
    scene = bare_scene(slab)
    nodes = np.array([[x, y, 0.0] for x in g[1:-1] for y in g[1:-1]])
    got = seal_quality_batch(scene, nodes, 0.25).seal
    assert np.array_equal(got, [seal_reference(scene, c, 0.25) for c in nodes])
    # the node, four in-plane neighbours and two at +-r along the normal: RMS = r * sqrt(2 / 7)
    assert got == pytest.approx(np.full(len(nodes), 1.0 - np.sqrt(2.0 / 7.0)), rel=1e-12)


def test_clearing_the_seal_cache_drops_the_grids(monkeypatch):
    """The benchmark's cold-cache reset empties _SEAL_SAMPLE_CACHE; the grids must go with it."""
    builds = []

    class CountingGrid(CellGrid):
        def __init__(self, points, edge):
            builds.append(len(points))
            super().__init__(points, edge)

    monkeypatch.setattr(scenes, "CellGrid", CountingGrid)
    sphere = Primitive("sphere", (0.03,), translation=(0.0, 0.0, 0.03))
    scene = bare_scene(sphere)
    centers = np.array([[0.0, 0.0, 0.06], [0.03, 0.0, 0.03]])
    scenes._SEAL_SAMPLE_CACHE.clear()
    first = seal_quality_batch(scene, centers).seal
    seal_quality_batch(scene, centers)
    assert len(builds) == 1  # one grid per shape, reused
    assert [type(grid) for _, grid in scenes._SEAL_SAMPLE_CACHE.values()] == [CountingGrid]
    scenes._SEAL_SAMPLE_CACHE.clear()
    assert np.array_equal(seal_quality_batch(scene, centers).seal, first)
    assert len(builds) == 2  # rebuilt after the reset


def test_seal_bits_do_not_depend_on_the_sample_grid():
    """The grid only prefilters the exact world-frame test: other cell widths give the same bits."""
    kinds = ("box", "sphere", "cylinder", "plane-slab")
    _, scene = generate_scene(7, len(kinds), SynthConfig(kind_sequence=kinds, density=5000.0))
    rng = np.random.default_rng(8)
    parts = []
    for prim in scene.objects():
        pts, nrm, _ = prim.sample_surface(200, rng)
        parts += [pts, pts + rng.uniform(-0.0015, 0.0015, (len(pts), 1)) * nrm]
    centers = np.vstack(parts)
    scenes._SEAL_SAMPLE_CACHE.clear()
    built = seal_quality_batch(scene, centers).seal
    assert sorted(p.kind for p in scene.objects()) == sorted(kinds) and np.count_nonzero(built) > 400
    cached = dict(scenes._SEAL_SAMPLE_CACHE)
    for edge in (CUP_RADIUS / 3, 4 * CUP_RADIUS):
        for key, (local, _) in cached.items():
            scenes._SEAL_SAMPLE_CACHE[key] = (local, CellGrid(local, edge))
        assert np.array_equal(seal_quality_batch(scene, centers).seal, built)
    scenes._SEAL_SAMPLE_CACHE.clear()


def test_seal_on_sphere_matches_cap_integral(rng):
    R, rc = 0.02, 0.01
    sphere = Primitive("sphere", (R,), translation=(0, 0, 0.1))
    scene = bare_scene(sphere)
    got = oracle_seal_quality(scene, (0, 0, 0.1 + R), rc)
    assert got == pytest.approx(1.0 - spherical_cap_rms(R, rc) / rc, abs=0.01)
    assert got == pytest.approx(1.0 - sampled_cap_rms(R, rc, np.array([0, 0, 0.1]), rng) / rc, abs=0.01)


def test_seal_monotone_in_sphere_radius():
    seals = []
    for R in (0.015, 0.025, 0.04, 0.08):
        sphere = Primitive("sphere", (R,), translation=(0, 0, 0.1))
        seals.append(oracle_seal_quality(bare_scene(sphere), (0, 0, 0.1 + R), 0.01))
    assert all(seals[i] < seals[i + 1] for i in range(len(seals) - 1))


# -- ground-truth grasps and persistence ----------------------------------------------


def test_gt_grasps_deterministic_and_scored(small_scene):
    _, scene, grasps, cfg = small_scene
    again = sample_ground_truth_grasps(scene, cfg, seed=42)
    assert len(grasps) == len(again)
    for a, b in zip(grasps, again):
        assert a.gripper == b.gripper
        assert a.quality_coeff == b.quality_coeff
        assert np.array_equal(a.center, b.center)
    for g in grasps:
        assert g.quality_coeff >= 0
        if g.gripper == "parallel":
            assert g.width <= MAX_WIDTH + 1e-12
            assert np.isfinite(g.quality_coeff)


def parallel_candidates_reference(scene, cfg, seed):
    """The per-candidate parallel loop of sample_ground_truth_grasps before it was vectorized."""
    rng = np.random.default_rng(seed)
    out = []
    for prim in scene.objects():
        prim.sample_surface(cfg.vacuum_grasps_per_object, rng)
        pts_p, nrm_p, _ = prim.sample_surface(cfg.parallel_grasps_per_object, rng)
        closing = -nrm_p
        t0, t1, hit = prim.line_intersections(pts_p.T, closing.T)
        mids = pts_p + ((t0 + t1) / 2.0)[:, None] * closing
        sep = t1 - t0
        mu = scenes.parallel_quality_batch(scene, mids, closing, np.full(len(mids), MAX_WIDTH)).mu
        for i in range(len(pts_p)):
            if not hit[i] or sep[i] + WIDTH_MARGIN > MAX_WIDTH:
                continue
            if not np.isfinite(mu[i]) or mu[i] > scenes.GT_MU_CAP:
                continue
            u = closing[i] / np.linalg.norm(closing[i])
            v = np.array([0.0, 0.0, -1.0]) - np.dot(np.array([0.0, 0.0, -1.0]), u) * u
            if np.linalg.norm(v) < 1e-6:
                v = np.array([1.0, 0.0, 0.0]) - u[0] * u
            v = v / np.linalg.norm(v)
            approach = v / np.linalg.norm(v)  # a grasp normalises its approach once more
            out.append([*(mids[i] - scenes.GT_DEPTH * v), *approach, closing_angles_deg(v, u)[0] % 180.0,
                        min(MAX_WIDTH, float(sep[i]) + WIDTH_MARGIN), scenes.friction_to_graspness(mu[i]),
                        float(mu[i])])
    return np.array(out)


def test_gt_parallel_candidates_match_per_candidate_loop():
    kinds = ("box", "sphere", "cylinder", "plane-slab")
    for seed in range(4):
        cfg = SynthConfig(kind_sequence=kinds[seed:] + kinds[:seed], density=5000.0)
        _, scene = generate_scene(seed, 5, cfg)
        gt = sample_ground_truth_grasps(scene, cfg, seed=seed)
        par = gt.take(gt.gripper == "parallel")
        got = np.column_stack([par.center, par.axis, par.angle_deg, par.width, par.score, par.quality])
        assert np.array_equal(got, parallel_candidates_reference(scene, cfg, seed))


def bits(value):
    a = np.asarray(value)
    return a.dtype, a.shape, a.tobytes()


def test_scene_roundtrip(tmp_path, small_scene):
    cloud, scene, grasps, cfg = small_scene
    stem = tmp_path / "scene_0000"
    save_scene(stem, cloud, scene, grasps)
    cloud2, scene2, grasps2 = load_scene(stem)
    assert np.allclose(cloud2.points, cloud.points, atol=1e-6)  # float32 storage
    assert np.array_equal(scene2.per_point_object_id, scene.per_point_object_id)
    assert np.array_equal(scene2.per_point_flat, scene.per_point_flat)
    assert len(grasps2) == len(grasps)
    assert all(p.kind == q.kind for p, q in zip(scene2.primitives, scene.primitives))
    assert grasps2.quality[0] == pytest.approx(grasps.quality[0])

    # every Primitive field and the viewpoint come back bitwise, on a scene of rotated porous objects
    cloud, scene = generate_scene(43, 3, replace(cfg, porous_prob=1.0, camera_viewpoint=(0.1, -0.3, 0.7)))
    assert all(p.porosity_flag and p.rotation[0] != 1.0 for p in scene.objects())
    save_scene(stem, cloud, scene)
    cloud2, scene2, _ = load_scene(stem)
    assert bits(cloud2.viewpoint) == bits(cloud.viewpoint)
    assert len(scene2.primitives) == len(scene.primitives) == 4
    for p, q in zip(scene2.primitives, scene.primitives):
        for f in fields(Primitive):
            assert bits(getattr(p, f.name)) == bits(getattr(q, f.name)), f.name


@pytest.mark.parametrize("name", [f.name for f in fields(Primitive)])
def test_load_scene_needs_every_primitive_field(tmp_path, small_scene, name):
    """A stored primitive lacking any field is refused, even one whose dataclass field has a default."""
    cloud, scene, _, _ = small_scene
    stem = tmp_path / "scene"
    save_scene(stem, cloud, scene)
    path = tmp_path / "scene.json"
    doc = json.loads(path.read_text())
    del doc["primitives"][1][name]
    path.write_text(json.dumps(doc))
    with pytest.raises(KeyError, match=name):
        load_scene(stem)


def test_save_scene_byte_identical(tmp_path, small_scene):
    cloud, scene, grasps, _ = small_scene
    save_scene(tmp_path / "a", cloud, scene, grasps)
    save_scene(tmp_path / "b", cloud, scene, grasps)
    assert (tmp_path / "a.ply").read_bytes() == (tmp_path / "b.ply").read_bytes()
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
