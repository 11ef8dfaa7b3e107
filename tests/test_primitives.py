import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualgrasp.geometry import yaw_quat
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
        assert np.all(prim.surface_distance(pts) < 1e-9)
        assert np.allclose(np.linalg.norm(nrm, axis=1), 1.0)
        if prim.kind == "sphere":
            assert not flat.any()
        if prim.kind == "box":
            assert flat.all()


def test_sample_surface_area_uniformity(rng):
    # thin slab: the two big faces carry almost all of the area
    prim = Primitive("plane-slab", (0.1, 0.1, 0.002))
    pts, nrm, _ = prim.sample_surface(4000, rng)
    frac_top_bottom = np.mean(np.abs(nrm[:, 2]) > 0.5)
    assert frac_top_bottom > 0.9


def test_box_line_intersection_axis(box):
    # line through the center along x in world coordinates
    o = np.array([[0.1 - 1.0, -0.05, 0.01]])
    d = np.array([[1.0, 0.0, 0.0]])
    t0, t1, hit = box.line_intersections(o, d)
    assert hit[0]
    assert t1[0] - t0[0] == pytest.approx(0.04, abs=1e-12)


def test_box_line_miss(box):
    o = np.array([[0.0, 0.0, 1.0]])
    d = np.array([[1.0, 0.0, 0.0]])
    _, _, hit = box.line_intersections(o, d)
    assert not hit[0]


def test_sphere_chord_length():
    prim = Primitive("sphere", (0.05,))
    h = 0.03  # offset chord: length 2*sqrt(r^2 - h^2)
    o = np.array([[0.0, h, 0.0]])
    d = np.array([[1.0, 0.0, 0.0]])
    t0, t1, hit = prim.line_intersections(o, d)
    assert hit[0]
    assert t1[0] - t0[0] == pytest.approx(2 * np.sqrt(0.05**2 - h**2))


def test_cylinder_side_and_caps():
    prim = Primitive("cylinder", (0.02, 0.1))
    # horizontal line through the axis at mid height: side-to-side chord
    t0, t1, hit = prim.line_intersections(np.array([[0, 0, 0.0]]), np.array([[1.0, 0, 0]]))
    assert hit[0] and (t1[0] - t0[0]) == pytest.approx(0.04)
    # vertical line down the axis: cap-to-cap chord
    t0, t1, hit = prim.line_intersections(np.array([[0, 0, 0.0]]), np.array([[0.0, 0, 1.0]]))
    assert hit[0] and (t1[0] - t0[0]) == pytest.approx(0.1)
    # vertical line outside the radius misses
    _, _, hit = prim.line_intersections(np.array([[0.03, 0, 0.0]]), np.array([[0.0, 0, 1.0]]))
    assert not hit[0]


def test_intersections_match_sampled_surface(rng):
    # line hits iff some surface sample lies close to the line (statistical check)
    prim = Primitive("cylinder", (0.03, 0.06), rotation=yaw_quat(0.7), translation=(0.05, 0.02, 0.03))
    pts, _, _ = prim.sample_surface(4000, rng)
    for _ in range(40):
        o = rng.uniform(-0.05, 0.15, 3)
        d = unit(rng.normal(size=3))
        t0, t1, hit = prim.line_intersections(o[None], d[None])
        rel = pts - o
        dist_to_line = np.linalg.norm(rel - np.outer(rel @ d, d), axis=1)
        near = (dist_to_line < 0.002).sum()
        if hit[0] and t1[0] - t0[0] > 0.01:
            assert near > 0
        if not hit[0]:
            assert (dist_to_line < 1e-4).sum() == 0


def test_surface_normal_box_faces(box):
    top = box.to_world(np.array([[0.0, 0.0, 0.01]]))
    n = box.surface_normal(top)
    assert np.allclose(n, [[0, 0, 1]], atol=1e-12)
    side = box.to_world(np.array([[0.02, 0.0, 0.0]]))
    assert np.allclose(box.surface_normal(side), [[1, 0, 0]], atol=1e-12)


def test_surface_normal_sphere_radial():
    prim = Primitive("sphere", (0.04,), translation=(0.1, 0.1, 0.04))
    p = prim.translation + 0.04 * unit([1, 2, 0.5])
    n = prim.surface_normal(p[None])
    assert np.allclose(n[0], unit([1, 2, 0.5]), atol=1e-12)


def test_surface_distance_and_contains():
    prim = Primitive("sphere", (0.05,))
    pts = np.array([[0.0, 0, 0], [0.05, 0, 0], [0.1, 0, 0]])
    d = prim.surface_distance(pts)
    assert d == pytest.approx([0.05, 0.0, 0.05])
    inside = prim.contains(pts, pad=0.0)
    assert list(inside) == [True, False, False]


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 9999))
def test_line_intersection_points_lie_on_surface(seed):
    r = np.random.default_rng(seed)
    kind = ["box", "sphere", "cylinder"][seed % 3]
    dims = {"box": (0.05, 0.03, 0.04), "sphere": (0.03,), "cylinder": (0.02, 0.05)}[kind]
    prim = Primitive(kind, dims, rotation=yaw_quat(r.uniform(0, 6.28)), translation=r.uniform(-0.05, 0.05, 3))
    o = prim.translation + r.normal(size=3) * 0.01  # near the center: usually hits
    d = unit(r.normal(size=3))
    t0, t1, hit = prim.line_intersections(o[None], d[None])
    if hit[0]:
        for t in (t0[0], t1[0]):
            p = o + t * d
            assert prim.surface_distance(p[None])[0] < 1e-9


@pytest.mark.parametrize("kind", KINDS)
def test_queries_give_a_row_the_same_bits_alone_or_stacked(kind):
    """Every transform-based query is row-exact at random poses, on and off the surface."""
    r = np.random.default_rng(KINDS.index(kind))
    dims = {"box": (0.05, 0.03, 0.04), "sphere": (0.03,), "cylinder": (0.02, 0.05),
            "plane-slab": (0.1, 0.08, 0.01)}[kind]
    for _ in range(20):
        prim = Primitive(kind, dims, rotation=unit(r.normal(size=4)), translation=r.uniform(-0.1, 0.1, 3))
        on_surface, _, _ = prim.sample_surface(32, r)
        pts = np.concatenate([on_surface, prim.translation + r.normal(scale=0.03, size=(32, 3))])
        dirs = r.normal(size=(64, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        queries = {
            "to_world": lambda x, d: prim.to_world(x),
            "dirs_to_world": lambda x, d: prim.dirs_to_world(d),
            "surface_normal": lambda x, d: prim.surface_normal(x),
            "surface_distance": lambda x, d: prim.surface_distance(x),
            "line_intersections": lambda x, d: np.column_stack(prim.line_intersections(x, d)),
        }
        for name, query in queries.items():
            stacked = query(pts, dirs)
            alone = np.concatenate([query(pts[i : i + 1], dirs[i : i + 1]) for i in range(len(pts))])
            np.testing.assert_array_equal(stacked, alone, err_msg=name)
