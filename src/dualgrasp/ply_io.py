"""PLY point-cloud writer (binary little-endian) and reader (ASCII or binary little-endian).

Supported per-vertex layout: float32 x, y, z, optional uchar r, g, b color,
plus any number of named float32 scalar channels (graspness maps, object ids).
Faces and other elements are out of scope.
"""

import numpy as np

_FLOAT_NAMES = {"float", "float32"}
_UCHAR_NAMES = {"uchar", "uint8"}


def write_ply(path, points, colors=None, channels=None):
    """Write a point cloud to a binary little-endian PLY file.

    points: (N, 3) array, stored as float32.
    colors: optional (N, 3) uint8 array, stored as uchar r, g, b.
    channels: optional dict name -> (N,) array, each stored as a float32 property.
    """
    points = np.asarray(points, dtype=np.float32)
    if points.ndim != 2 or points.shape[1] != 3:
        raise ValueError(f"points must have shape (N, 3), got {points.shape}")
    n = len(points)
    channels = dict(channels or {})

    names = ["x", "y", "z"]
    header = ["ply", "format binary_little_endian 1.0", f"element vertex {n}"]
    header += ["property float x", "property float y", "property float z"]
    if colors is not None:
        colors = np.asarray(colors, dtype=np.uint8)
        if colors.shape != (n, 3):
            raise ValueError(f"colors must have shape ({n}, 3), got {colors.shape}")
        header += ["property uchar red", "property uchar green", "property uchar blue"]
        names += ["red", "green", "blue"]
    for name, values in channels.items():
        values = np.asarray(values, dtype=np.float32)
        if values.shape != (n,):
            raise ValueError(f"channel {name!r} must have shape ({n},), got {values.shape}")
        header.append(f"property float {name}")
        names.append(name)
    header.append("end_header")

    dtype = [(nm, "<u1" if nm in ("red", "green", "blue") else "<f4") for nm in names]
    rec = np.empty(n, dtype=dtype)
    rec["x"], rec["y"], rec["z"] = points[:, 0], points[:, 1], points[:, 2]
    if colors is not None:
        rec["red"], rec["green"], rec["blue"] = colors[:, 0], colors[:, 1], colors[:, 2]
    for name, values in channels.items():
        rec[name] = np.asarray(values, dtype=np.float32)

    with open(path, "wb") as f:
        f.write(("\n".join(header) + "\n").encode("ascii"))
        f.write(rec.tobytes())


def read_ply(path):
    """Read a PLY file written by write_ply, or any ASCII or binary little-endian file with its vertex layout.

    Returns (points, colors, channels): points is (N, 3) float32, colors is
    (N, 3) uint8 or None, channels is a dict of named float32 arrays.
    """
    with open(path, "rb") as f:
        line = f.readline().strip()
        if line != b"ply":
            raise ValueError(f"{path}: not a PLY file")
        binary = None
        n = None
        props = []  # (name, kind) with kind in {"f4", "u1"}
        while True:
            line = f.readline()
            if not line:
                raise ValueError(f"{path}: truncated PLY header")
            line = line.strip().decode("ascii")
            if line.startswith("comment"):
                continue
            if line.startswith("format"):
                if "ascii" in line:
                    binary = False
                elif "binary_little_endian" in line:
                    binary = True
                else:
                    raise ValueError(f"{path}: unsupported PLY format line {line!r}")
            elif line.startswith("element vertex"):
                n = int(line.split()[-1])
            elif line.startswith("element"):
                raise ValueError(f"{path}: unsupported element {line!r}")
            elif line.startswith("property"):
                _, type_name, name = line.split()
                if type_name in _FLOAT_NAMES:
                    props.append((name, "<f4"))
                elif type_name in _UCHAR_NAMES:
                    props.append((name, "<u1"))
                else:
                    raise ValueError(f"{path}: unsupported property type {type_name!r}")
            elif line == "end_header":
                break
        if binary is None or n is None:
            raise ValueError(f"{path}: incomplete PLY header")

        dtype = np.dtype(props)
        if binary:
            rec = np.frombuffer(f.read(dtype.itemsize * n), dtype=dtype, count=n)
        else:
            rec = np.empty(n, dtype=dtype)
            for i in range(n):
                parts = f.readline().split()
                if len(parts) != len(props):
                    raise ValueError(f"{path}: vertex row {i} has {len(parts)} fields, expected {len(props)}")
                for (name, kind), tok in zip(props, parts):
                    rec[name][i] = int(tok) if kind == "<u1" else float(tok)

    prop_names = [name for name, _ in props]
    for axis in ("x", "y", "z"):
        if axis not in prop_names:
            raise ValueError(f"{path}: missing vertex property {axis!r}")
    points = np.column_stack([rec["x"], rec["y"], rec["z"]]).astype(np.float32)
    colors = None
    if all(c in prop_names for c in ("red", "green", "blue")):
        colors = np.column_stack([rec["red"], rec["green"], rec["blue"]]).astype(np.uint8)
    skip = {"x", "y", "z", "red", "green", "blue"}
    channels = {name: np.array(rec[name]) for name in prop_names if name not in skip}
    return points, colors, channels
