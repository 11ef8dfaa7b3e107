"""Small geometric helpers shared across the pipeline (vectors, rotations, frames)."""

import numpy as np

GOLDEN_ANGLE = np.pi * (3.0 - np.sqrt(5.0))


def as_point(p) -> np.ndarray:
    """Coerce to a finite float64 3-vector."""
    a = np.asarray(p, dtype=np.float64).reshape(3)
    if not np.all(np.isfinite(a)):
        raise ValueError(f"point has non-finite components: {a}")
    return a


def quat_to_matrix(q) -> np.ndarray:
    """Rotation matrix from a unit quaternion (w, x, y, z)."""
    w, x, y, z = np.asarray(q, dtype=np.float64).reshape(4)
    n = np.sqrt(w * w + x * x + y * y + z * z)
    if abs(n - 1.0) > 1e-6:
        raise ValueError(f"quaternion is not unit norm: |q| = {n}")
    w, x, y, z = w / n, x / n, y / n, z / n
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
            [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
            [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
        ]
    )


def yaw_quat(theta: float) -> np.ndarray:
    """Unit quaternion for a rotation of theta radians about +z."""
    return np.array([np.cos(theta / 2.0), 0.0, 0.0, np.sin(theta / 2.0)])


def row_dots(a, b) -> np.ndarray:
    """Dot product of each row pair of (M, 3) arrays, bit-identical to np.dot of the rows alone.

    np.dot of two vectors takes the BLAS dot, which fuses multiply-adds on
    most builds, while a row sum of a * b rounds every product; the two differ
    in the last bit on about one row in ten. A stacked (1, 3) @ (3, 1) matmul
    takes the same BLAS dot for every row. A single row broadcasts.
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=np.float64).reshape(-1, 3),
                               np.asarray(b, dtype=np.float64).reshape(-1, 3))
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def row_norms(x) -> np.ndarray:
    """Euclidean norm of each row, bit-identical to np.linalg.norm of the row alone (see row_dots)."""
    return np.sqrt(row_dots(x, x))


def col_dots(a, b) -> np.ndarray:
    """Dot product of each line of two (3, M) coordinate-column arrays, bitwise equal to np.sum(a.T * b.T, axis=1).

    Summed coordinate by coordinate, in np.sum's order and from its +0.0 start
    (a line of -0.0 products sums to +0.0), without the cost of a reduction
    over an axis of length 3. Rows (M, 3) pass as their transpose. Not a
    shortcut for row_dots: the BLAS dot fuses multiply-adds and gives other
    bits than np.sum.
    """
    return 0.0 + a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def col_norms(x) -> np.ndarray:
    """Euclidean norm of each line of (2, M) or (3, M) coordinate columns, bitwise equal to np.linalg.norm(x.T, axis=1).

    Same rules as col_dots; squares carry no sign, so no +0.0 start is needed.
    """
    s = x[0] * x[0] + x[1] * x[1]
    if len(x) == 3:
        s += x[2] * x[2]
    return np.sqrt(s)


def unit_rows(x) -> np.ndarray:
    """Each row of an (M, 3) array scaled to unit length, bit-identical to row / np.linalg.norm(row) alone."""
    x = np.asarray(x, dtype=np.float64).reshape(-1, 3)
    n = row_norms(x)
    if np.any(n < 1e-12):
        raise ValueError("cannot normalize a zero vector")
    return x / n[:, None]


def approach_frames(approaches) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic orthonormal in-plane bases (e1, e2), one row per approach vector.

    e1 is the normalized cross product of the approach with +z (falls back to +x
    when the approach is nearly vertical); e2 completes the right-handed frame.
    The in-plane rotation angle a (degrees) maps to the jaw closing direction
    u = cos(a) * e1 + sin(a) * e2. Each row has the bits of a one-row call.
    """
    v = unit_rows(approaches)
    c = np.cross(v, np.array([0.0, 0.0, 1.0]))
    vertical = row_norms(c) < 1e-8
    if np.any(vertical):
        c[vertical] = np.cross(v[vertical], np.array([1.0, 0.0, 0.0]))
    e1 = unit_rows(c)
    return e1, np.cross(v, e1)


def closing_directions(approaches, angles_deg) -> np.ndarray:
    """Jaw closing direction per row of approaches and in-plane angles in degrees."""
    e1, e2 = approach_frames(approaches)
    a = np.deg2rad(np.asarray(angles_deg, dtype=np.float64).reshape(-1, 1))
    return np.cos(a) * e1 + np.sin(a) * e2


def closing_angles_deg(approaches, closings) -> np.ndarray:
    """In-plane angle in [0, 180) of each closing direction, inverse of closing_directions.

    The closing line is undirected, so u and -u map to the same angle.
    """
    e1, e2 = approach_frames(approaches)
    u = unit_rows(closings)
    return np.rad2deg(np.arctan2(row_dots(u, e2), row_dots(u, e1))) % 180.0


def fibonacci_hemisphere(count: int) -> np.ndarray:
    """count unit vectors spread over the upper hemisphere (z > 0) by a Fibonacci lattice."""
    if count < 1:
        raise ValueError("count must be >= 1")
    i = np.arange(count, dtype=np.float64)
    z = (i + 0.5) / count
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    phi = i * GOLDEN_ANGLE
    pts = np.column_stack([r * np.cos(phi), r * np.sin(phi), z])
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)
