"""Synthetic tabletop scenes of geometric primitives with analytic grasp-quality oracles.

A scene is a table slab (object id 0) plus rigid primitives resting on it.
The cloud is a simulated single-view depth sample: area-uniform surface points
kept when their outward normal faces the camera viewpoint. Ground-truth grasp
candidates are sampled on the object models and scored by the two oracles:
minimum required friction for antipodal force closure (parallel) and a
planarity-based seal coefficient (vacuum).
"""

import json
import math
from collections import namedtuple
from dataclasses import dataclass, fields, replace

import numpy as np
from scipy.spatial import cKDTree

from .cloud import PointCloud
from .domains import COUNT, FINITE, ORDERED_RANGE, POINT, POSITIVE_FINITE, UNIT, check_fields, names, setting
from .geometry import closing_angles_deg, col_dots, col_norms, row_dots, row_norms, unit_rows, yaw_quat
from .grasps import CUP_RADIUS, MAX_WIDTH, WIDTH_MARGIN, Grasps
from .json_io import keys_of, write_json
from .ply_io import read_ply, write_ply
from .primitives import KINDS, Primitive

SCENE_SCHEMA_VERSION = 1
_SEAL_RNG_SEED = 715_225_739  # fixed: the seal oracle must be a pure function

# fixed scene layout and ground-truth rules
TABLE_THICKNESS = 0.02  # table slab [m]
SLAB_THICKNESS = (0.008, 0.015)  # plane-slab object thickness range [m]
FRICTION_RANGE = (0.4, 1.0)  # object surface friction range
PLACEMENT_GAP = 0.02  # least gap between two objects' xy bounding circles [m]
MAX_RETRIES = 400  # placement tries per object
GT_DEPTH = 0.02  # ground-truth parallel grasp depth [m]
GT_MU_CAP = 1.5  # a ground-truth parallel candidate needs at most this friction


class SceneGenerationError(RuntimeError):
    """Object placement failed after MAX_RETRIES tries."""


@dataclass
class SynthConfig:
    """Knobs for scene generation and ground-truth candidate sampling.

    The gripper geometry (grasps.MAX_WIDTH, CUP_RADIUS, ...) and the seal
    oracle's sampling (SEAL_SAMPLE_DENSITY, ...) are fixed, so the stored
    ground truth and the evaluation grade a pose alike. So are the table
    thickness, the slab thickness and friction ranges, the placement rule
    (PLACEMENT_GAP, MAX_RETRIES) and the ground-truth jaw depth and friction
    cap (GT_DEPTH, GT_MU_CAP).
    """

    kinds: tuple[str, ...] = setting(("box", "sphere", "cylinder", "plane-slab"), names(KINDS))
    # exact per-object kinds (cycled); overrides random choice
    kind_sequence: tuple[str, ...] = setting(None, names(KINDS, optional=True))
    table_extent: float = setting(0.5, POSITIVE_FINITE)
    table_height: float = setting(0.0, FINITE)
    camera_viewpoint: tuple[float, float, float] = setting((0.12, -0.08, 0.85), POINT)
    density: float = setting(40000.0, POSITIVE_FINITE)  # surface points per m^2
    box_edge: tuple[float, float] = setting((0.03, 0.08), ORDERED_RANGE)
    sphere_radius: tuple[float, float] = setting((0.015, 0.04), ORDERED_RANGE)
    cylinder_radius: tuple[float, float] = setting((0.015, 0.035), ORDERED_RANGE)
    cylinder_height: tuple[float, float] = setting((0.03, 0.08), ORDERED_RANGE)
    slab_extent: tuple[float, float] = setting((0.07, 0.12), ORDERED_RANGE)
    porous_prob: float = setting(0.0, UNIT)
    # ground-truth grasp candidate sampling
    vacuum_grasps_per_object: int = setting(96, COUNT)
    parallel_grasps_per_object: int = setting(96, COUNT)

    def __post_init__(self):
        check_fields(self)


@dataclass
class SceneAnnotation:
    """Ground truth for one scene: primitives and per-point provenance.

    per_point_object_id is aligned with the cloud (0 = table/background);
    per_point_flat marks points sampled from planar faces.
    """

    primitives: list
    table_height: float
    per_point_object_id: np.ndarray
    per_point_flat: np.ndarray
    split: str = "default"

    def __post_init__(self):
        self.per_point_object_id = np.asarray(self.per_point_object_id, dtype=np.intp)
        self.per_point_flat = np.asarray(self.per_point_flat, dtype=bool)
        ids = {p.object_id for p in self.primitives}
        for oid in np.unique(self.per_point_object_id):
            if oid != 0 and int(oid) not in ids:
                raise ValueError(f"per-point object id {oid} has no primitive")

    def objects(self) -> list:
        return [p for p in self.primitives if p.object_id != 0]


# -- scene generation ---------------------------------------------------------


def _xy_radius(prim: Primitive) -> float:
    if prim.kind in ("box", "plane-slab"):
        return float(np.hypot(prim.dimensions[0], prim.dimensions[1]) / 2.0)
    return prim.dimensions[0]


def _sample_object(kind: str, cfg: SynthConfig, rng: np.random.Generator, object_id: int) -> Primitive:
    if kind == "box":
        dims = tuple(rng.uniform(*cfg.box_edge, size=3))
        z = dims[2] / 2.0
    elif kind == "sphere":
        dims = (rng.uniform(*cfg.sphere_radius),)
        z = dims[0]
    elif kind == "cylinder":
        dims = (rng.uniform(*cfg.cylinder_radius), rng.uniform(*cfg.cylinder_height))
        z = dims[1] / 2.0
    elif kind == "plane-slab":
        dims = (rng.uniform(*cfg.slab_extent), rng.uniform(*cfg.slab_extent), rng.uniform(*SLAB_THICKNESS))
        z = dims[2] / 2.0
    else:
        raise ValueError(f"unknown kind {kind!r}")
    return Primitive(
        kind=kind,
        dimensions=dims,
        rotation=yaw_quat(rng.uniform(0.0, 2.0 * np.pi)),
        translation=np.array([0.0, 0.0, cfg.table_height + z]),
        object_id=object_id,
        friction_coeff=rng.uniform(*FRICTION_RANGE),
        porosity_flag=bool(rng.uniform() < cfg.porous_prob),
    )


def generate_scene(seed, n_objects: int, config: SynthConfig = None):
    """Deterministic synthetic scene: (PointCloud, SceneAnnotation).

    Objects rest on the table without interpenetration (rejection sampling on
    xy bounding circles). The cloud keeps only camera-facing surface points
    and drops points buried inside another primitive.
    """
    if n_objects < 1:
        raise ValueError("n_objects must be >= 1")
    cfg = config or SynthConfig()
    rng = np.random.default_rng(seed)
    viewpoint = np.asarray(cfg.camera_viewpoint, dtype=np.float64)

    table = Primitive(
        kind="plane-slab",
        dimensions=(cfg.table_extent, cfg.table_extent, TABLE_THICKNESS),
        translation=np.array([0.0, 0.0, cfg.table_height - TABLE_THICKNESS / 2.0]),
        object_id=0,
        friction_coeff=0.6,
        porosity_flag=True,
    )
    prims = [table]

    placed = []  # (xy, radius)
    for i in range(n_objects):
        if cfg.kind_sequence:
            kind = cfg.kind_sequence[i % len(cfg.kind_sequence)]
        else:
            kind = cfg.kinds[rng.integers(len(cfg.kinds))]
        prim = _sample_object(kind, cfg, rng, object_id=i + 1)
        r = _xy_radius(prim)
        limit = cfg.table_extent / 2.0 - r - 0.01
        if limit <= 0:
            raise SceneGenerationError(f"object {i + 1} ({kind}) too large for the table")
        for attempt in range(MAX_RETRIES + 1):
            if attempt == MAX_RETRIES:
                raise SceneGenerationError(f"could not place object {i + 1} after {MAX_RETRIES} tries")
            xy = rng.uniform(-limit, limit, size=2)
            if all(np.hypot(*(xy - q)) >= r + rq + PLACEMENT_GAP for q, rq in placed):
                break
        placed.append((xy, r))
        prim.translation[:2] = xy
        prims.append(prim)

    all_pts, all_ids, all_flat = [], [], []
    for prim in prims:
        count = max(64, int(round(prim.surface_area() * cfg.density)))
        pts, nrm, flat = prim.sample_surface(count, rng)
        facing = np.sum(nrm * (viewpoint - pts), axis=1) > 1e-9
        buried = np.zeros(len(pts), dtype=bool)
        for other in prims:
            if other is prim:
                continue
            buried |= other.contains(pts.T, pad=1e-7)
        keep = facing & ~buried
        all_pts.append(pts[keep])
        all_ids.append(np.full(int(keep.sum()), prim.object_id, dtype=np.intp))
        all_flat.append(flat[keep])

    points = np.concatenate(all_pts, axis=0)
    cloud = PointCloud(points, viewpoint=viewpoint)
    annotation = SceneAnnotation(
        primitives=prims,
        table_height=cfg.table_height,
        per_point_object_id=np.concatenate(all_ids),
        per_point_flat=np.concatenate(all_flat),
    )
    return cloud, annotation


def remove_object(cloud: PointCloud, scene: SceneAnnotation, object_id: int):
    """Scene state after clearing an object: its points and primitive removed."""
    keep = scene.per_point_object_id != object_id
    if not np.any(keep):
        raise ValueError("removing this object would empty the cloud")
    new_cloud = PointCloud(cloud.points[keep], viewpoint=cloud.viewpoint)
    new_scene = replace(
        scene,
        primitives=[p for p in scene.primitives if p.object_id != object_id],
        per_point_object_id=scene.per_point_object_id[keep],
        per_point_flat=scene.per_point_flat[keep],
    )
    return new_cloud, new_scene


def removal_mask(prev_cloud: PointCloud, prev_scene: SceneAnnotation, cloud: PointCloud, scene: SceneAnnotation):
    """Mask of the previous points that cloud keeps, if (cloud, scene) is the previous state minus whole objects.

    None when it is not: the table, the viewpoint, a kept point or a kept
    primitive (the same object, as remove_object keeps it) differs.
    """
    if scene.table_height != prev_scene.table_height or not np.array_equal(cloud.viewpoint, prev_cloud.viewpoint):
        return None
    alive = {p.object_id for p in scene.primitives}
    kept = [p for p in prev_scene.primitives if p.object_id in alive]
    if len(kept) != len(scene.primitives) or any(a is not b for a, b in zip(kept, scene.primitives)):
        return None
    gone = [p.object_id for p in prev_scene.primitives if p.object_id not in alive]
    keep = ~np.isin(prev_scene.per_point_object_id, gone)
    if np.count_nonzero(keep) != len(cloud) or not np.array_equal(cloud.points, prev_cloud.points[keep]):
        return None
    return keep


# -- parallel (force closure) oracle ------------------------------------------

ContactBatch = namedtuple("ContactBatch", ["mu", "object_id", "t0", "t1", "hit"])

_PREFILTER_BLOCK = 8192  # lines per block of the bounding-sphere prefilter


def _sphere_candidates(objs, q, u) -> list:
    """Per object, the lines of (3, M) columns q, u that pass within its bounding radius of its center.

    A line that stays farther from the center cannot touch the surface, so
    this is an exact superset of the lines that hit it. Both sums run
    coordinate by coordinate from +0.0 in col_dots' order, one offset
    coordinate at a time. The lines go through in blocks, so that every
    object's temporaries stay in cache.
    """
    radii2 = [prim.bounding_radius() ** 2 + 1e-12 for prim in objs]
    found = [[np.zeros(0, dtype=np.intp)] for _ in objs]
    for start in range(0, q.shape[1], _PREFILTER_BLOCK):
        qb, ub = q[:, start:start + _PREFILTER_BLOCK], u[:, start:start + _PREFILTER_BLOCK]
        for prim, r2, out in zip(objs, radii2, found):
            along, d2 = np.zeros(qb.shape[1]), np.zeros(qb.shape[1])
            for k in range(3):
                rel = prim.translation[k] - qb[k]
                along += rel * ub[k]
                d2 += rel * rel
            d2 -= along * along
            out.append(start + np.flatnonzero(d2 <= r2))
    return [np.concatenate(out) for out in found]


def parallel_quality_batch(scene: SceneAnnotation, jaw_centers, closing_dirs, widths) -> ContactBatch:
    """Vectorized required-friction evaluation for M candidate jaw lines.

    mu is the minimum friction coefficient for antipodal force closure at the
    two jaw-line/surface contacts (np.inf when the contacts cannot close:
    won't fit inside the jaw span, or a contact normal has no component
    opposing the closing force). hit marks lines that intersect at least one
    object; among several, the object whose chord is centered closest to the
    jaw center wins. t0/t1 are the chord parameters on the winning object.
    The winner is kept on the hit rows only, and only hits whose chord fits
    the jaw span go through the contact-normal pass; every other line keeps
    mu = inf without one. A line's result never depends on the batch it
    travels in or on its place there.
    The lines are held as (3, M) coordinate columns, as the Primitive queries
    take them, and per-line dot products and norms are summed coordinate by
    coordinate (col_dots, col_norms), with the bits of the axis=1 reductions
    they replace.
    """
    # (3, M) C-contiguous columns: the transpose of a Fortran-ordered copy of the
    # rows (no copy when the caller passes the transpose of columns already).
    q = np.asfortranarray(np.atleast_2d(np.asarray(jaw_centers, dtype=np.float64))).T
    u = np.asfortranarray(np.atleast_2d(np.asarray(closing_dirs, dtype=np.float64))).T
    u = u / col_norms(u)
    m = q.shape[1]
    w = np.broadcast_to(np.asarray(widths, dtype=np.float64), (m,))

    best_mid = np.full(m, np.inf)
    best_t0 = np.zeros(m)
    best_t1 = np.zeros(m)
    best_id = np.full(m, -1, dtype=np.intp)
    hit_any = np.zeros(m, dtype=bool)

    objs = scene.objects()
    for prim, cand in zip(objs, _sphere_candidates(objs, q, u)):
        if len(cand) == 0:
            continue
        t0c, t1c, hitc = prim.line_intersections(q.take(cand, axis=1), u.take(cand, axis=1))
        hits, t0h, t1h = cand[hitc], t0c[hitc], t1c[hitc]
        with np.errstate(invalid="ignore"):
            midh = np.abs((t0h + t1h) / 2.0)
        better = midh < best_mid[hits]
        rows = hits[better]
        best_mid[rows] = midh[better]
        best_t0[rows] = t0h[better]
        best_t1[rows] = t1h[better]
        best_id[rows] = prim.object_id
        hit_any[hits] = True

    # Only hits whose chord fits the jaw span can close: the rest keep mu = inf
    # and never reach the normal pass.
    fit = np.flatnonzero(hit_any & (best_t0 >= -w / 2.0 - 1e-9) & (best_t1 <= w / 2.0 + 1e-9))
    fit_id = best_id[fit]
    mu = np.full(m, np.inf)
    for prim in objs:
        sel = fit[fit_id == prim.object_id]
        if len(sel) == 0:
            continue
        qs, us = q.take(sel, axis=1), u.take(sel, axis=1)
        n0 = prim.surface_normal(qs + best_t0[sel] * us)
        n1 = prim.surface_normal(qs + best_t1[sel] * us)
        cos0 = -col_dots(us, n0)
        cos1 = col_dots(us, n1)
        cmin = np.minimum(cos0, cos1)
        with np.errstate(divide="ignore", invalid="ignore"):
            tan0 = np.sqrt(np.maximum(0.0, 1.0 - cos0**2)) / cos0
            tan1 = np.sqrt(np.maximum(0.0, 1.0 - cos1**2)) / cos1
        mu[sel] = np.where(cmin > 1e-9, np.maximum(tan0, tan1), np.inf)

    return ContactBatch(mu=mu, object_id=best_id, t0=best_t0, t1=best_t1, hit=hit_any)


def friction_to_graspness(mu):
    """Map required friction to a [0, 1] graspness score, 1 - mu (1 = frictionless closure)."""
    mu = np.asarray(mu, dtype=np.float64)
    with np.errstate(invalid="ignore"):
        g = np.where(np.isfinite(mu), np.clip(1.0 - mu, 0.0, 1.0), 0.0)
    return g if g.ndim else float(g)


# -- vacuum (seal) oracle ------------------------------------------------------


def owning_objects(scene: SceneAnnotation, points, tol: float = np.inf) -> np.ndarray:
    """Id of the object whose surface is nearest to each point; 0 beyond tol or without objects.

    One surface_distance pass per object over all points; ties keep the first
    object in scene order.
    """
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    ids = np.zeros(len(pts), dtype=np.intp)
    best = np.full(len(pts), np.inf)
    for prim in scene.objects():
        d = prim.surface_distance(pts.T)
        closer = d < best
        ids[closer] = prim.object_id
        best[closer] = d[closer]
    ids[best > tol] = 0
    return ids


# The seal oracle's sampling is fixed, like the cup: synth's stored ground truth
# and eval's grade of the same pose must agree.
SEAL_SAMPLE_DENSITY = 1.0e6  # surface samples per m^2
SEAL_SAMPLE_LIMITS = (2000, 60000)  # clip on the samples per object
ON_SURFACE_TOL = 0.002  # a cup center farther than this from every surface seals nothing [m]

_SEAL_SAMPLE_CACHE = {}


def _seal_surface_samples(prim: Primitive, count: int):
    """Local-frame surface samples for the seal oracle and a cKDTree over them, cached per shape.

    Samples are drawn once per (kind, dimensions, count) with a fixed seed, so
    the oracle stays a pure function. The tree only prefilters the cups, so it
    is built for speed (big leaves, midpoint splits): shapes rarely recur, so
    each tree serves only a few hundred cups. Clearing _SEAL_SAMPLE_CACHE
    drops the trees with the samples.
    """
    key = (prim.kind, prim.dimensions, count)
    entry = _SEAL_SAMPLE_CACHE.get(key)
    if entry is None:
        # A tree adds 60 to 70% to its samples' memory, and shapes do not recur
        # across scenes: hold a few scenes' worth, not 64 shapes.
        if len(_SEAL_SAMPLE_CACHE) > 16:
            _SEAL_SAMPLE_CACHE.clear()
        rng = np.random.default_rng(_SEAL_RNG_SEED)
        reference = Primitive(prim.kind, prim.dimensions, object_id=max(1, prim.object_id))
        local, _, _ = reference.sample_surface(count, rng)
        tree = cKDTree(local, leafsize=32, balanced_tree=False, compact_nodes=False)
        entry = _SEAL_SAMPLE_CACHE[key] = (local, tree)
    return entry


SealBatch = namedtuple("SealBatch", ["seal", "object_id"])


def seal_quality_batch(scene: SceneAnnotation, centers, cup_radius: float = CUP_RADIUS) -> SealBatch:
    """Seal coefficient in [0, 1] at each of K suction-cup centers, from surface planarity.

    seal = max(0, 1 - RMS / cup_radius) where RMS is the root-mean-square
    deviation of the owning object's surface samples within cup_radius of the
    center from the tangent plane there. 0 for porous objects, for centers that
    are not within ON_SURFACE_TOL of an object surface, and for cups that hold
    no sample. object_id is that owning object (owning_objects), -1 for none.
    The samples are gathered by one query of their cached local-frame tree per
    object, with a radius padded far beyond the rounding of a rigid transform;
    the exact world-frame distance test then keeps them in ascending sample
    order, and one line-exact surface_normal call per object gives the tangent
    planes, so every value has the bits of a one-center call.
    """
    c = np.asarray(centers, dtype=np.float64).reshape(-1, 3)
    seal = np.zeros(len(c))
    owners = owning_objects(scene, c, ON_SURFACE_TOL)
    lo, hi = SEAL_SAMPLE_LIMITS
    for prim in scene.objects():
        rows = np.flatnonzero(owners == prim.object_id)
        if len(rows) == 0 or prim.porosity_flag:
            continue
        count = int(np.clip(prim.surface_area() * SEAL_SAMPLE_DENSITY, lo, hi))
        local, tree = _seal_surface_samples(prim, count)
        pts = prim.to_world(local.T).T
        near = tree.query_ball_point(prim.to_local(c[rows].T).T, cup_radius * (1.0 + 1e-9) + 1e-12,
                                     return_sorted=True)
        normals = prim.surface_normal(c[rows].T).T.copy()
        for row, cand, n in zip(rows, near, normals):
            d = pts[cand] - c[row]
            d = d[np.sqrt(np.add.reduce(d * d, axis=1)) <= cup_radius]  # np.linalg.norm's bits
            if len(d) == 0:
                continue
            dev = d @ n
            rms = math.sqrt(np.add.reduce(dev * dev) / len(dev))  # np.mean's bits
            seal[row] = max(0.0, 1.0 - rms / cup_radius)
    return SealBatch(seal=seal, object_id=np.where(owners > 0, owners, -1))


def oracle_seal_quality(scene: SceneAnnotation, center, cup_radius: float = CUP_RADIUS) -> float:
    """seal_quality_batch at one suction-cup center."""
    return float(seal_quality_batch(scene, center, cup_radius).seal[0])


# -- ground-truth grasp candidates ---------------------------------------------


def _perpendicular_approaches(u: np.ndarray) -> np.ndarray:
    """Deterministic approach direction perpendicular to each unit closing direction (rows of u).

    Prefers the downward direction (top grasps); falls back to +x for
    near-vertical closing lines.
    """
    down = np.array([0.0, 0.0, -1.0])
    v = down - row_dots(down, u)[:, None] * u
    flat = row_norms(v) < 1e-6
    v[flat] = np.array([1.0, 0.0, 0.0]) - u[flat, :1] * u[flat]
    return unit_rows(v)


def sample_ground_truth_grasps(scene: SceneAnnotation, config: SynthConfig = None, seed=0):
    """Candidate grasps on the object models, scored by the analytic oracles.

    Vacuum candidates sit at surface samples with the analytic normal and the
    oracle seal as quality. Parallel candidates close along the inward surface
    normal at a sample; the jaw line's chord through the object gives contact
    separation (kept only if it fits the gripper) and the required-friction
    quality. Returns one Grasps set with quality, holding per object its
    vacuum candidates and then its parallel ones. Deterministic for a given
    (scene, config, seed).
    """
    cfg = config or SynthConfig()
    rng = np.random.default_rng(seed)
    parts = []
    for prim in scene.objects():
        pts_v, nrm_v, _ = prim.sample_surface(cfg.vacuum_grasps_per_object, rng)
        seals = seal_quality_batch(scene, pts_v).seal
        parts.append(Grasps.vacuum(pts_v, nrm_v, score=seals, quality=seals))

        pts_p, nrm_p, _ = prim.sample_surface(cfg.parallel_grasps_per_object, rng)
        closing = -nrm_p
        t0, t1, hit = prim.line_intersections(pts_p.T, closing.T)
        mids = pts_p + ((t0 + t1) / 2.0)[:, None] * closing
        sep = t1 - t0
        mu = parallel_quality_batch(scene, mids, closing, np.full(len(mids), MAX_WIDTH)).mu
        ok = hit & ~(sep + WIDTH_MARGIN > MAX_WIDTH) & np.isfinite(mu) & ~(mu > GT_MU_CAP)
        u = unit_rows(closing[ok])
        v = _perpendicular_approaches(u)
        centers = mids[ok] - GT_DEPTH * v
        angles = closing_angles_deg(v, u)
        widths = np.minimum(MAX_WIDTH, sep[ok] + WIDTH_MARGIN)
        parts.append(Grasps.parallel(centers, v, angles, widths, GT_DEPTH, score=friction_to_graspness(mu[ok]),
                                     quality=mu[ok]))
    return Grasps.concat(parts)


# -- persistence ---------------------------------------------------------------


def save_scene(path_stem, cloud: PointCloud, scene: SceneAnnotation, grasps: Grasps = None):
    """Write <stem>.ply (cloud + per-point channels) and <stem>.json (annotation + grasps).

    Each primitive is stored under its Primitive field names; the viewpoint is the cloud's.
    """
    stem = str(path_stem)
    write_ply(
        stem + ".ply",
        cloud.points,
        channels={
            "object_id": scene.per_point_object_id.astype(np.float32),
            "flat": scene.per_point_flat.astype(np.float32),
        },
    )
    write_json(stem + ".json", {
        "schema_version": SCENE_SCHEMA_VERSION,
        "table_height": float(scene.table_height),
        "camera_viewpoint": cloud.viewpoint.tolist(),
        "split": scene.split,
        "point_channels": ["object_id", "flat"],
        "primitives": [{f.name: np.asarray(getattr(p, f.name)).tolist() for f in fields(Primitive)}
                       for p in scene.primitives],
        "grasps": [] if grasps is None else grasps.records(),
    })


def load_scene(path_stem):
    """Inverse of save_scene: returns (cloud, annotation, ground-truth grasps).

    A missing key in the scene JSON raises a json_io.MissingKey naming the file and the key.
    """
    stem = str(path_stem)
    points, _, channels = read_ply(stem + ".ply")
    with open(stem + ".json") as f:
        doc = json.load(f)
    if doc.get("schema_version") != SCENE_SCHEMA_VERSION:
        raise ValueError(f"{stem}.json: unsupported schema_version {doc.get('schema_version')!r}")
    with keys_of(stem + ".json"):
        prims = [Primitive(**{f.name: d[f.name] for f in fields(Primitive)}) for d in doc["primitives"]]
        viewpoint, table_height = doc["camera_viewpoint"], doc["table_height"]
        grasps = Grasps.from_records(doc["grasps"], ground_truth=True)
    cloud = PointCloud(points.astype(np.float64), viewpoint=viewpoint)
    scene = SceneAnnotation(
        primitives=prims,
        table_height=table_height,
        per_point_object_id=channels["object_id"].astype(np.intp),
        per_point_flat=channels["flat"] > 0.5,
        split=doc.get("split", "default"),
    )
    return cloud, scene, grasps
