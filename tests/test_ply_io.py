import numpy as np
import pytest

from dualgrasp.ply_io import read_ply, write_ply


def write_ascii_ply(path, points, colors=None, channels=None):
    """write_ply's vertex layout in ASCII, as another program would write it."""
    channels = channels or {}
    props = ["float x", "float y", "float z"] + [f"float {name}" for name in channels]
    columns = [np.asarray(points, dtype=np.float64)] + [np.asarray(v, dtype=np.float64)[:, None]
                                                         for v in channels.values()]
    if colors is not None:
        props[3:3] = ["uchar red", "uchar green", "uchar blue"]
        columns.insert(1, colors)
    header = ["ply", "format ascii 1.0", f"element vertex {len(points)}"] + [f"property {p}" for p in props]
    rows = [" ".join(repr(v) for v in row) for row in np.hstack(columns, dtype=object).tolist()]
    path.write_text("\n".join(header + ["end_header"] + rows) + "\n")


def write(path, binary, points, **kwargs):
    (write_ply if binary else write_ascii_ply)(path, points, **kwargs)


@pytest.mark.parametrize("binary", [True, False])
def test_roundtrip_points_only(tmp_path, binary):
    pts = np.random.default_rng(0).uniform(-1, 1, size=(37, 3)).astype(np.float32)
    path = tmp_path / "pts.ply"
    write(path, binary, pts)
    got, colors, channels = read_ply(path)
    assert np.array_equal(got, pts)
    assert colors is None
    assert channels == {}


@pytest.mark.parametrize("binary", [True, False])
def test_roundtrip_colors_and_channels(tmp_path, binary):
    rng = np.random.default_rng(1)
    pts = rng.uniform(size=(20, 3)).astype(np.float32)
    colors = rng.integers(0, 256, size=(20, 3)).astype(np.uint8)
    channels = {
        "graspness_vacuum": rng.uniform(size=20).astype(np.float32),
        "object_id": rng.integers(0, 5, size=20).astype(np.float32),
    }
    path = tmp_path / "full.ply"
    write(path, binary, pts, colors=colors, channels=channels)
    got, got_colors, got_channels = read_ply(path)
    assert np.array_equal(got, pts)
    assert np.array_equal(got_colors, colors)
    assert set(got_channels) == set(channels)
    for name in channels:
        assert np.array_equal(got_channels[name], channels[name])


def test_header_is_ascii_and_counts_match(tmp_path):
    pts = np.zeros((3, 3), dtype=np.float32)
    path = tmp_path / "h.ply"
    write_ply(path, pts, channels={"objectness": np.ones(3)})
    head = path.read_bytes().split(b"end_header")[0].decode("ascii")
    assert "element vertex 3" in head
    assert "property float objectness" in head
    assert head.startswith("ply\nformat binary_little_endian 1.0")


def test_binary_output_is_deterministic(tmp_path):
    pts = np.random.default_rng(3).uniform(size=(10, 3))
    a, b = tmp_path / "a.ply", tmp_path / "b.ply"
    write_ply(a, pts, channels={"c": np.arange(10)})
    write_ply(b, pts, channels={"c": np.arange(10)})
    assert a.read_bytes() == b.read_bytes()


def test_shape_validation(tmp_path):
    with pytest.raises(ValueError):
        write_ply(tmp_path / "bad.ply", np.zeros((4, 2)))
    with pytest.raises(ValueError):
        write_ply(tmp_path / "bad.ply", np.zeros((4, 3)), channels={"x": np.zeros(5)})


def test_reject_non_ply(tmp_path):
    path = tmp_path / "no.ply"
    path.write_text("hello\n")
    with pytest.raises(ValueError):
        read_ply(path)
