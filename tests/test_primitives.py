import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualgrasp import primitives as P
from dualgrasp.geometry import col_dots, col_norms, row_dots, yaw_quat
from dualgrasp.primitives import KINDS, Primitive


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


@pytest.fixture
def box():
    return Primitive("box", (0.04, 0.06, 0.02), translation=(0.1, -0.05, 0.01))


def test_dimension_validation():
    with pytest.raises(ValueError):
        Primitive("sphere", (0.0,))
    with pytest.raises(ValueError):
        Primitive("box", (0.1, 0.1))
    with pytest.raises(ValueError):
        Primitive("prism", (0.1,))
    with pytest.raises(ValueError):
        Primitive("sphere", (0.1,), friction_coeff=1.5)


def test_surface_area_values():
    assert Primitive("box", (1, 2, 3)).surface_area() == pytest.approx(22.0)
    assert Primitive("sphere", (0.5,)).surface_area() == pytest.approx(np.pi)
    r, h = 0.3, 1.1
    assert Primitive("cylinder", (r, h)).surface_area() == pytest.approx(
        2 * np.pi * r * h + 2 * np.pi * r * r
    )


def test_sample_surface_on_surface(rng):
    for prim in (
        Primitive("box", (0.05, 0.04, 0.03), rotation=yaw_quat(0.4), translation=(0.1, 0.2, 0.05)),
        Primitive("sphere", (0.03,), translation=(0, 0.1, 0.03)),
        Primitive("cylinder", (0.02, 0.07), rotation=yaw_quat(1.0), translation=(0.2, 0, 0.035)),
    ):
        pts, nrm, flat = prim.sample_surface(500, rng)
        assert np.all(prim.surface_distance(pts.T) < 1e-9)
        assert np.allclose(np.linalg.norm(nrm, axis=1), 1.0)
        if prim.kind == "sphere":
            assert not flat.any()
        if prim.kind == "box":
            assert flat.all()


def sample_box_reference(dims, count, rng):
    """_sample_box as one boolean-masked pass per face axis, the form it replaced."""
    sx, sy, sz = dims
    areas = np.array([sy * sz, sy * sz, sx * sz, sx * sz, sx * sy, sx * sy])
    face = rng.choice(6, size=count, p=areas / areas.sum())
    u = rng.uniform(-0.5, 0.5, size=(count, 2))
    pts = np.zeros((3, count))
    nrm = np.zeros((3, count))
    half = np.array([sx, sy, sz]) / 2.0
    axis = face // 2
    sign = np.where(face % 2 == 0, 1.0, -1.0)
    others = np.array([[1, 2], [0, 2], [0, 1]])
    for a in range(3):
        m = axis == a
        if not np.any(m):
            continue
        o1, o2 = others[a]
        pts[a, m] = sign[m] * half[a]
        pts[o1, m] = u[m, 0] * dims[o1]
        pts[o2, m] = u[m, 1] * dims[o2]
        nrm[a, m] = sign[m]
    return pts, nrm, np.ones(count, dtype=bool)


def test_sample_box_matches_per_axis_mask_loop():
    rng = np.random.default_rng(21)
    # random boxes, plus thin slabs whose edge faces mostly draw nothing
    shapes = [tuple(rng.uniform(0.005, 0.2, 3)) for _ in range(12)] + [(0.1, 0.1, 1e-7), (1e-7, 0.05, 0.08)]
    empty_axis = 0
    for i, dims in enumerate(shapes):
        for count in (1, 2, 7, 333, 60_000):
            got_rng, want_rng = np.random.default_rng(i), np.random.default_rng(i)
            got = P._sample_box(dims, count, got_rng)
            want = sample_box_reference(dims, count, want_rng)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()
            assert got_rng.random() == want_rng.random()  # same draws, in the same order
            empty_axis += np.count_nonzero(~np.any(want[1] != 0.0, axis=1))
    assert empty_axis > 60


def test_sample_surface_area_uniformity(rng):
    # thin slab: the two big faces carry almost all of the area
    prim = Primitive("plane-slab", (0.1, 0.1, 0.002))
    pts, nrm, _ = prim.sample_surface(4000, rng)
    frac_top_bottom = np.mean(np.abs(nrm[:, 2]) > 0.5)
    assert frac_top_bottom > 0.9


def test_box_line_intersection_axis(box):
    # line through the center along x in world coordinates
    o = np.array([[0.1 - 1.0], [-0.05], [0.01]])
    d = np.array([[1.0], [0.0], [0.0]])
    t0, t1, hit = box.line_intersections(o, d)
    assert hit[0]
    assert t1[0] - t0[0] == pytest.approx(0.04, abs=1e-12)


def test_box_line_miss(box):
    o = np.array([[0.0], [0.0], [1.0]])
    d = np.array([[1.0], [0.0], [0.0]])
    _, _, hit = box.line_intersections(o, d)
    assert not hit[0]


def test_sphere_chord_length():
    prim = Primitive("sphere", (0.05,))
    h = 0.03  # offset chord: length 2*sqrt(r^2 - h^2)
    o = np.array([[0.0], [h], [0.0]])
    d = np.array([[1.0], [0.0], [0.0]])
    t0, t1, hit = prim.line_intersections(o, d)
    assert hit[0]
    assert t1[0] - t0[0] == pytest.approx(2 * np.sqrt(0.05**2 - h**2))


def test_cylinder_side_and_caps():
    prim = Primitive("cylinder", (0.02, 0.1))
    # horizontal line through the axis at mid height: side-to-side chord
    t0, t1, hit = prim.line_intersections(np.array([[0, 0, 0.0]]).T, np.array([[1.0, 0, 0]]).T)
    assert hit[0] and (t1[0] - t0[0]) == pytest.approx(0.04)
    # vertical line down the axis: cap-to-cap chord
    t0, t1, hit = prim.line_intersections(np.array([[0, 0, 0.0]]).T, np.array([[0.0, 0, 1.0]]).T)
    assert hit[0] and (t1[0] - t0[0]) == pytest.approx(0.1)
    # vertical line outside the radius misses
    _, _, hit = prim.line_intersections(np.array([[0.03, 0, 0.0]]).T, np.array([[0.0, 0, 1.0]]).T)
    assert not hit[0]


def test_intersections_match_sampled_surface(rng):
    # line hits iff some surface sample lies close to the line (statistical check)
    prim = Primitive("cylinder", (0.03, 0.06), rotation=yaw_quat(0.7), translation=(0.05, 0.02, 0.03))
    pts, _, _ = prim.sample_surface(4000, rng)
    for _ in range(40):
        o = rng.uniform(-0.05, 0.15, 3)
        d = unit(rng.normal(size=3))
        t0, t1, hit = prim.line_intersections(o[:, None], d[:, None])
        rel = pts - o
        dist_to_line = np.linalg.norm(rel - np.outer(rel @ d, d), axis=1)
        near = (dist_to_line < 0.002).sum()
        if hit[0] and t1[0] - t0[0] > 0.01:
            assert near > 0
        if not hit[0]:
            assert (dist_to_line < 1e-4).sum() == 0


def test_surface_normal_box_faces(box):
    top = box.to_world(np.array([[0.0], [0.0], [0.01]]))
    n = box.surface_normal(top)
    assert np.allclose(n, [[0], [0], [1]], atol=1e-12)
    side = box.to_world(np.array([[0.02], [0.0], [0.0]]))
    assert np.allclose(box.surface_normal(side), [[1], [0], [0]], atol=1e-12)


def test_surface_normal_sphere_radial():
    prim = Primitive("sphere", (0.04,), translation=(0.1, 0.1, 0.04))
    p = prim.translation + 0.04 * unit([1, 2, 0.5])
    n = prim.surface_normal(p[:, None])
    assert np.allclose(n[:, 0], unit([1, 2, 0.5]), atol=1e-12)


def test_surface_distance_and_contains():
    prim = Primitive("sphere", (0.05,))
    pts = np.array([[0.0, 0, 0], [0.05, 0, 0], [0.1, 0, 0]])
    d = prim.surface_distance(pts.T)
    assert d == pytest.approx([0.05, 0.0, 0.05])
    inside = prim.contains(pts.T, pad=0.0)
    assert list(inside) == [True, False, False]


def test_contains_pad_grows_or_shrinks_the_surface():
    prim = Primitive("sphere", (0.05,), translation=(0.1, -0.2, 0.3))
    pts = prim.translation + np.array([[0.052, 0.0, 0.0], [0.0, 0.0, 0.048]])  # 2 mm outside, 2 mm inside
    for pad, want in ((-0.005, [False, False]), (0.0, [False, True]), (0.005, [True, True])):
        assert prim.contains(pts.T, pad=pad).tolist() == want, pad


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 9999))
def test_line_intersection_points_lie_on_surface(seed):
    r = np.random.default_rng(seed)
    kind = ["box", "sphere", "cylinder"][seed % 3]
    dims = {"box": (0.05, 0.03, 0.04), "sphere": (0.03,), "cylinder": (0.02, 0.05)}[kind]
    prim = Primitive(kind, dims, rotation=yaw_quat(r.uniform(0, 6.28)), translation=r.uniform(-0.05, 0.05, 3))
    o = prim.translation + r.normal(size=3) * 0.01  # near the center: usually hits
    d = unit(r.normal(size=3))
    t0, t1, hit = prim.line_intersections(o[:, None], d[:, None])
    if hit[0]:
        for t in (t0[0], t1[0]):
            p = o + t * d
            assert prim.surface_distance(p[:, None])[0] < 1e-9


@pytest.mark.parametrize("kind", KINDS)
def test_queries_give_a_row_the_same_bits_alone_or_stacked(kind):
    """Every transform-based query is line-exact at random poses, on and off the surface."""
    r = np.random.default_rng(KINDS.index(kind))
    dims = {"box": (0.05, 0.03, 0.04), "sphere": (0.03,), "cylinder": (0.02, 0.05),
            "plane-slab": (0.1, 0.08, 0.01)}[kind]
    for _ in range(20):
        prim = Primitive(kind, dims, rotation=unit(r.normal(size=4)), translation=r.uniform(-0.1, 0.1, 3))
        on_surface, _, _ = prim.sample_surface(32, r)
        pts = np.concatenate([on_surface, prim.translation + r.normal(scale=0.03, size=(32, 3))])
        dirs = r.normal(size=(64, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        queries = {  # rows in and out, through the (3, M) columns of the queries
            "to_local": lambda x, d: prim.to_local(x.T).T,
            "to_world": lambda x, d: prim.to_world(x.T).T,
            "dirs_to_local": lambda x, d: prim.dirs_to_local(d.T).T,
            "dirs_to_world": lambda x, d: prim.dirs_to_world(d.T).T,
            "surface_normal": lambda x, d: prim.surface_normal(x.T).T,
            "surface_distance": lambda x, d: prim.surface_distance(x.T),
            "line_intersections": lambda x, d: np.column_stack(prim.line_intersections(x.T, d.T)),
        }
        for name, query in queries.items():
            stacked = query(pts, dirs)
            alone = np.concatenate([query(pts[i : i + 1], dirs[i : i + 1]) for i in range(len(pts))])
            np.testing.assert_array_equal(stacked, alone, err_msg=name)


# -- column-wise kernels against the row reductions they replaced ---------------
# In-test copies of the local-frame kernels as they were written with axis=1
# reductions (np.sum, np.linalg.norm, max/min, argmin, nanmin/nanmax). The
# column forms must give the same bits, the sign of zero included.


def row_intersect_box(half, o, d):
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / d
        ta = (-half - o) * inv
        tb = (half - o) * inv
    lo = np.minimum(ta, tb)
    hi = np.maximum(ta, tb)
    par = np.abs(d) < 1e-12
    inside = np.abs(o) <= half
    lo = np.where(par, np.where(inside, -np.inf, np.inf), lo)
    hi = np.where(par, np.where(inside, np.inf, -np.inf), hi)
    t0 = lo.max(axis=1)
    t1 = hi.min(axis=1)
    return t0, t1, (t0 < t1) & np.isfinite(t0) & np.isfinite(t1)


def row_intersect_sphere(radius, o, d):
    b = np.sum(o * d, axis=1)
    c = np.sum(o * o, axis=1) - radius * radius
    disc = b * b - c
    s = np.sqrt(np.maximum(disc, 0.0))
    return -b - s, -b + s, disc > 0


def row_intersect_cylinder(radius, height, o, d):
    cand_t = np.full((len(o), 4), np.nan)
    a = d[:, 0] ** 2 + d[:, 1] ** 2
    b = o[:, 0] * d[:, 0] + o[:, 1] * d[:, 1]
    c = o[:, 0] ** 2 + o[:, 1] ** 2 - radius * radius
    with np.errstate(divide="ignore", invalid="ignore"):
        disc = b * b - a * c
        s = np.sqrt(np.maximum(disc, 0.0))
        q_ok = (a > 1e-14) & (disc > 0)
        for j, sgn in enumerate((-1.0, 1.0)):
            t = np.where(q_ok, (-b + sgn * s) / np.where(q_ok, a, 1.0), np.nan)
            z = o[:, 2] + t * d[:, 2]
            cand_t[:, j] = np.where(q_ok & (np.abs(z) <= height / 2.0), t, np.nan)
        dz_ok = np.abs(d[:, 2]) > 1e-12
        for j, zc in enumerate((height / 2.0, -height / 2.0)):
            t = np.where(dz_ok, (zc - o[:, 2]) / np.where(dz_ok, d[:, 2], 1.0), np.nan)
            x = o[:, 0] + t * d[:, 0]
            y = o[:, 1] + t * d[:, 1]
            cand_t[:, 2 + j] = np.where(dz_ok & (x * x + y * y <= radius * radius), t, np.nan)
    hit = np.sum(~np.isnan(cand_t), axis=1) >= 2
    t0 = np.nanmin(np.where(np.isnan(cand_t), np.inf, cand_t), axis=1)
    t1 = np.nanmax(np.where(np.isnan(cand_t), -np.inf, cand_t), axis=1)
    return np.where(hit, t0, 0.0), np.where(hit, t1, 0.0), hit


def row_box_normal(half, p):
    axis = np.argmin(half - np.abs(p), axis=1)
    n = np.zeros_like(p)
    rows = np.arange(len(p))
    n[rows, axis] = np.sign(p[rows, axis])
    n[rows, axis] = np.where(n[rows, axis] == 0.0, 1.0, n[rows, axis])
    return n


def row_cylinder_normal(radius, height, p):
    r = np.linalg.norm(p[:, :2], axis=1)
    side_gap = np.abs(radius - r)
    cap_gap = np.abs(height / 2.0 - np.abs(p[:, 2]))
    n = np.zeros_like(p)
    use_cap = cap_gap < side_gap
    safe_r = np.maximum(r, 1e-12)
    n[:, 0] = np.where(use_cap, 0.0, p[:, 0] / safe_r)
    n[:, 1] = np.where(use_cap, 0.0, p[:, 1] / safe_r)
    n[:, 2] = np.where(use_cap, np.sign(p[:, 2]), 0.0)
    n[:, 2] = np.where(use_cap & (n[:, 2] == 0.0), 1.0, n[:, 2])
    return n


def row_box_sdf(half, p):
    q = np.abs(p) - half
    return np.linalg.norm(np.maximum(q, 0.0), axis=1) + np.minimum(np.max(q, axis=1), 0.0)


def row_cylinder_sdf(radius, height, p):
    q = np.column_stack([np.linalg.norm(p[:, :2], axis=1) - radius, np.abs(p[:, 2]) - height / 2.0])
    return np.linalg.norm(np.maximum(q, 0.0), axis=1) + np.minimum(np.max(q, axis=1), 0.0)


def assert_same_bits(got, want, what):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape, what
    assert np.array_equal(got, want, equal_nan=True), what
    assert np.array_equal(np.signbit(got), np.signbit(want)), f"{what}: sign of zero"


# exact binary fractions, so grid points tie on face gaps and sit exactly on rims and faces
KERNEL_DIMS = {"box": (0.5, 0.5, 0.75), "sphere": (0.25,), "cylinder": (0.25, 0.5), "plane-slab": (1.0, 0.5, 0.125)}


def kernel_inputs(kind, r):
    """Local-frame (origins, dirs, points) for one kind: random poses plus exact constructions."""
    dims = KERNEL_DIMS[kind]
    o_parts, d_parts, p_parts = [], [], []
    for _ in range(6):  # random poses: queries arrive through to_local / dirs_to_local
        prim = Primitive(kind, dims, rotation=unit(r.normal(size=4)), translation=r.uniform(-0.5, 0.5, 3))
        surf, _, _ = prim.sample_surface(300, r)
        world = np.concatenate([surf, prim.translation + r.normal(scale=0.3, size=(300, 3))])
        dirs = r.normal(size=(600, 3))
        o_parts.append(prim.to_local(world.T).T)
        d_parts.append(prim.dirs_to_local((dirs / np.linalg.norm(dirs, axis=1, keepdims=True)).T).T)
        p_parts.append(prim.to_local(world.T).T)
    # identity pose: origins on a grid of sixteenths, axis-parallel and zero-component directions
    grid = np.arange(-6, 7) * 0.0625
    lattice = np.array([[x, y, z] for x in grid[::2] for y in grid[::3] for z in grid])
    axes = np.concatenate([np.eye(3), -np.eye(3)])
    flat = r.normal(size=(len(lattice), 3))
    flat[np.arange(len(flat)), r.integers(0, 3, len(flat))] = 0.0
    flat /= np.linalg.norm(flat, axis=1, keepdims=True)
    o_parts += [lattice, lattice, np.round(r.uniform(-0.4, 0.4, (2000, 3)), 2)]
    d_parts += [axes[r.integers(0, 6, len(lattice))], flat, axes[r.integers(0, 6, 2000)]]
    samples, _, _ = Primitive(kind, dims).sample_surface(1000, r)
    zeros = r.normal(scale=0.2, size=(1000, 3))
    zeros[r.random((1000, 3)) < 0.4] = 0.0
    zeros[r.random((1000, 3)) < 0.2] = -0.0
    zeros[:8] = [[0.0, 0.0, 0.0], [-0.0, -0.0, -0.0], [0.0, -0.0, 0.0], [-0.0, 0.0, -0.0],
                 [0.25, 0.0, 0.25], [-0.0, -0.25, -0.25], [0.25, 0.25, 0.375], [-0.25, -0.25, -0.375]]
    p_parts += [lattice, samples, zeros]
    if kind in ("box", "plane-slab"):  # equal gaps to two or three faces, on and inside the box
        gaps = r.integers(0, 4, (500, 1)) / 64.0 * np.where(r.random((500, 3)) < 0.3, 2.0, 1.0)
        p_parts.append(np.where(r.random((500, 3)) < 0.5, -1.0, 1.0) * (np.asarray(dims) / 2.0 - gaps))
    o_parts.append(zeros)
    d_parts.append(np.where(r.random((1000, 3)) < 0.5, -1.0, 1.0) * axes[r.integers(0, 3, 1000)])
    # origins on the cylinder's rim, lines through side and cap at t = 0 (+0.0 side, -0.0 cap)
    o_parts.append([[0.25, 0.0, 0.25], [0.0, -0.25, -0.25], [-0.25, 0.0, 0.25], [0.0, 0.25, -0.25]])
    d_parts.append([[-0.6, 0.0, -0.8], [0.0, 0.6, 0.8], [0.6, 0.0, -0.8], [0.0, -0.6, 0.8]])
    return np.concatenate(o_parts), np.concatenate(d_parts), np.concatenate(p_parts)


@pytest.mark.parametrize("kind", KINDS)
def test_column_kernels_match_row_reductions_bitwise(kind):
    r = np.random.default_rng(100 + KINDS.index(kind))
    o, d, p = kernel_inputs(kind, r)
    dims = KERNEL_DIMS[kind]

    def checks(p):
        """(column form, row form, name) of every kernel of this kind on points p, plus the row sdf."""
        oc, dc, pc = o.T, d.T, p.T  # the kernels take (3, M) columns
        if kind in ("box", "plane-slab"):
            half = np.asarray(dims) / 2.0
            sdf = row_box_sdf(half, p)
            return [(P._intersect_box(half, oc, dc), row_intersect_box(half, o, d), "intersect"),
                    (P._box_normal(half, pc).T, row_box_normal(half, p), "normal"),
                    (P._box_sdf(half, pc), sdf, "sdf")], sdf
        if kind == "sphere":
            return [(P._intersect_sphere(dims[0], oc, dc), row_intersect_sphere(dims[0], o, d), "intersect")], \
                np.linalg.norm(p, axis=1) - dims[0]
        sdf = row_cylinder_sdf(*dims, p)
        return [(P._intersect_cylinder(*dims, oc, dc), row_intersect_cylinder(*dims, o, d), "intersect"),
                (P._cylinder_normal(*dims, pc).T, row_cylinder_normal(*dims, p), "normal"),
                (P._cylinder_sdf(*dims, pc), sdf, "sdf")], sdf

    pairs, _ = checks(p)
    for got, want, what in pairs:
        for i, (g, w) in enumerate(zip(got, want) if isinstance(got, tuple) else [(got, want)]):
            assert_same_bits(g, w, f"{kind} {what} [{i}]")
    if kind in ("box", "plane-slab"):
        gap = np.asarray(dims) / 2.0 - np.abs(p)
        assert np.sum(gap == gap.min(axis=1, keepdims=True)) > len(p) + 100  # tied face gaps are covered
    if kind == "cylinder":
        t0, t1, hit = pairs[0][0]
        assert np.any(hit & ((t0 == 0.0) | (t1 == 0.0)))  # rim origins: +0.0 and -0.0 candidates tie
    # the public queries at a random pose, which reach the sphere's inline normal and distance too
    prim = Primitive(kind, dims, rotation=unit(r.normal(size=4)), translation=r.uniform(-0.5, 0.5, 3))
    world = prim.to_world(p.T)
    local = prim.to_local(world).T
    _, sdf = checks(local)
    assert_same_bits(prim.surface_distance(world), np.abs(sdf), f"{kind} distance")
    assert_same_bits(prim.contains(world, pad=0.01), sdf < 0.01, f"{kind} contains")
    if kind == "sphere":
        want = prim.dirs_to_world((local / np.maximum(np.linalg.norm(local, axis=1, keepdims=True), 1e-12)).T)
        assert_same_bits(prim.surface_normal(world), want, "sphere normal")


def test_column_helpers_match_row_reductions_and_not_the_blas_dot():
    r = np.random.default_rng(7)
    for kind in KINDS:
        o, d, p = kernel_inputs(kind, r)
        o[:3] = [[0.0, 0.0, 0.0], [-0.0, -0.0, -0.0], [0.0, 0.0, 0.0]]
        d[:3] = [[-1.0, -1.0, -1.0], [1.0, 1.0, 1.0], [-0.0, 1.0, -2.0]]  # rows of -0.0 products
        for a, b in ((o, d), (p, p), (d, o)):
            want = np.sum(a * b, axis=1)
            assert_same_bits(col_dots(a.T, b.T), want, "col_dots")
            assert not np.signbit(want[:3]).any()  # np.sum starts from +0.0
            # a BLAS dot fuses multiply-adds: it is not a shortcut for these helpers
            assert not np.array_equal(row_dots(a, b), want)
        for x in (o, d, p, p[:, :2], np.maximum(np.abs(p) - 0.25, 0.0)):
            assert_same_bits(col_norms(x.T), np.linalg.norm(x, axis=1), "col_norms")


# -- (3, M) column queries against the (M, 3) row form they replaced -------------


def row_form(prim, name, x, d):
    """A Primitive query as written on (M, 3) rows, before the column layout; rows out."""
    to_local = (x - prim.translation) @ prim._rot
    half = np.asarray(prim.dimensions) / 2.0
    if name == "to_local":
        return to_local
    if name == "to_world":
        return x @ prim._rot_t + prim.translation
    if name == "dirs_to_local":
        return d @ prim._rot
    if name == "dirs_to_world":
        return d @ prim._rot_t
    if name == "line_intersections":
        o, dl = to_local, d @ prim._rot
        if prim.kind in ("box", "plane-slab"):
            t0, t1, hit = row_intersect_box(half, o, dl)
        elif prim.kind == "sphere":
            t0, t1, hit = row_intersect_sphere(prim.dimensions[0], o, dl)
        else:
            t0, t1, hit = row_intersect_cylinder(*prim.dimensions, o, dl)
        return np.column_stack([t0, t1, hit & ((t1 - t0) > 1e-9)])
    if name == "surface_normal":
        if prim.kind in ("box", "plane-slab"):
            n = row_box_normal(half, to_local)
        elif prim.kind == "sphere":
            n = to_local / np.maximum(np.linalg.norm(to_local, axis=1, keepdims=True), 1e-12)
        else:
            n = row_cylinder_normal(*prim.dimensions, to_local)
        return n @ prim._rot_t
    if prim.kind in ("box", "plane-slab"):
        sdf = row_box_sdf(half, to_local)
    elif prim.kind == "sphere":
        sdf = np.linalg.norm(to_local, axis=1) - prim.dimensions[0]
    else:
        sdf = row_cylinder_sdf(*prim.dimensions, to_local)
    return np.abs(sdf) if name == "surface_distance" else sdf < 0.005


def column_form(prim, name, xc, dc):
    """The same query on (3, M) columns; rows out."""
    if name == "line_intersections":
        return np.column_stack(prim.line_intersections(xc, dc))
    if name in ("surface_distance", "contains"):
        return prim.surface_distance(xc) if name == "surface_distance" else prim.contains(xc, pad=0.005)
    if name in ("dirs_to_local", "dirs_to_world"):
        return getattr(prim, name)(dc).T
    return getattr(prim, name)(xc).T


QUERIES = ("to_local", "to_world", "dirs_to_local", "dirs_to_world", "line_intersections", "surface_normal",
           "surface_distance", "contains")


@pytest.mark.parametrize("kind", KINDS)
def test_column_queries_match_the_row_form_bitwise(kind):
    """Batches of 1, 2, 7 and 10,000 lines: every column query has the bits of the row form.

    A (3, 3) @ (3, 1) product takes a matrix-vector BLAS kernel whose bits
    differ from the row form's, so a one-line batch must not take it; it is
    checked on 40 single lines. Inputs hold -0.0 coordinates, and the columns
    arrive contiguous, as a Fortran-ordered transpose of rows and as a strided
    gather.
    """
    r = np.random.default_rng(200 + KINDS.index(kind))
    dims = KERNEL_DIMS[kind]
    naive_differs = 0
    for _ in range(4):
        prim = Primitive(kind, dims, rotation=unit(r.normal(size=4)), translation=r.uniform(-0.5, 0.5, 3))
        surf, _, _ = prim.sample_surface(5000, r)
        x = np.concatenate([surf, prim.translation + r.normal(scale=0.3, size=(5000, 3))])
        d = r.normal(size=(10000, 3))
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        x[r.random(x.shape) < 0.05] = -0.0
        d[r.random(d.shape) < 0.05] = -0.0
        x[:3], d[:3] = -0.0, [[-0.0, -0.0, 1.0], [1.0, -0.0, -0.0], [-0.0, 1.0, -0.0]]
        order = r.permutation(len(x))
        x, d = x[order], d[order]
        for name in QUERIES:
            for n in (2, 7, 10000):
                want = row_form(prim, name, x[:n], d[:n])
                assert_same_bits(column_form(prim, name, np.ascontiguousarray(x[:n].T),
                                             np.ascontiguousarray(d[:n].T)), want, f"{kind} {name} n={n}")
                assert_same_bits(column_form(prim, name, x[:n].T, d[:n].T), want, f"{kind} {name} n={n} F-order")
            for i in range(40):
                want = row_form(prim, name, x[i:i + 1], d[i:i + 1])
                assert_same_bits(column_form(prim, name, x[i:i + 1].T.copy(), d[i:i + 1].T.copy()), want,
                                 f"{kind} {name} one line")
            # a strided gather of every third line, as a (3, M) view with a column stride of 24 bytes
            block = np.ascontiguousarray(np.concatenate([x, d], axis=1).T)
            xs, ds = block[:3, ::3], block[3:, ::3]
            assert not xs.flags.c_contiguous
            assert_same_bits(column_form(prim, name, xs, ds), row_form(prim, name, x[::3], d[::3]),
                             f"{kind} {name} strided")
        for i in range(40):
            naive_differs += not np.array_equal(prim._rot_t @ (x[i:i + 1].T - prim.translation[:, None]),
                                                row_form(prim, "to_local", x[i:i + 1], d[i:i + 1]).T)
    # on this BLAS, the raw one-column product does give other bits for some lines
    assert naive_differs > 0


def test_queries_refuse_rows():
    prim = Primitive("box", (0.1, 0.2, 0.3))
    for bad in (np.zeros((5, 3)), np.zeros(3), np.zeros((3, 2, 2))):
        with pytest.raises(ValueError, match="coordinate columns"):
            prim.to_local(bad)
        with pytest.raises(ValueError, match="coordinate columns"):
            prim.line_intersections(bad, bad)
    assert prim.surface_distance(np.zeros((3, 0))).shape == (0,)


def scan_every_line_intersect_box(half, o, d):
    """_intersect_box with its slab override run on every batch, parallel lines or not."""
    half = np.reshape(half, (3, 1))
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / d
        ta = (-half - o) * inv
        tb = (half - o) * inv
    lo = np.minimum(ta, tb)
    hi = np.maximum(ta, tb)
    axis, line = np.nonzero(np.abs(d) < 1e-12)
    inside = np.abs(o[axis, line]) <= half[axis, 0]
    lo[axis, line] = np.where(inside, -np.inf, np.inf)
    hi[axis, line] = np.where(inside, np.inf, -np.inf)
    t0 = np.maximum(np.maximum(lo[0], lo[1]), lo[2])
    t1 = np.minimum(np.minimum(hi[0], hi[1]), hi[2])
    return t0, t1, (t0 < t1) & np.isfinite(t0) & np.isfinite(t1)


@pytest.mark.parametrize("kind", ["box", "plane-slab"])
def test_intersect_box_skips_the_slab_scan_with_the_same_bits(kind):
    """Edges, corners, tied face gaps and +-0.0 coordinates, in batches with and without parallel lines."""
    half = np.asarray(KERNEL_DIMS[kind]) / 2.0
    o, d, _ = kernel_inputs(kind, np.random.default_rng(31))
    corners = np.array([[x, y, z] for x in (-1, 0, 1) for y in (-1, 0, 1) for z in (-1, 0, 1)]) * half
    signed_zeros = np.array([[0.0, -0.0, 0.0], [-0.0, 0.0, -0.0]])
    o = np.concatenate([o, corners, corners * -0.0, signed_zeros])
    d = np.concatenate([d, np.tile([[1.0, -0.0, 0.0]], (len(corners), 1)), unit(np.ones((len(corners), 3))),
                        [[0.0, -0.0, 1.0], [-1.0, 0.0, -0.0]]])
    oblique = np.all(np.abs(d) >= 1e-12, axis=1)
    assert np.any(~oblique) and np.sum(oblique) > 1000
    for rows in (slice(None), oblique, ~oblique):
        oc, dc = np.ascontiguousarray(o[rows].T), np.ascontiguousarray(d[rows].T)
        got, want = P._intersect_box(half, oc, dc), scan_every_line_intersect_box(half, oc, dc)
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same_bits(g, w, f"{kind} intersect [{i}]")
