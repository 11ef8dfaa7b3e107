"""Small geometric helpers shared across the pipeline (vectors, rotations, frames)."""

import numpy as np

GOLDEN_ANGLE = np.pi * (3.0 - np.sqrt(5.0))


def as_point(p) -> np.ndarray:
    """Coerce to a finite float64 3-vector."""
    a = np.asarray(p, dtype=np.float64).reshape(3)
    if not np.all(np.isfinite(a)):
        raise ValueError(f"point has non-finite components: {a}")
    return a


def normalize(v) -> np.ndarray:
    """Unit vector along v; raises on (near-)zero input."""
    a = np.asarray(v, dtype=np.float64).reshape(3)
    n = np.linalg.norm(a)
    if n < 1e-12:
        raise ValueError("cannot normalize a zero vector")
    return a / n


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


def approach_frame(approach) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic orthonormal in-plane basis (e1, e2) perpendicular to an approach vector.

    e1 is the normalized cross product of the approach with +z (falls back to +x
    when the approach is nearly vertical); e2 completes the right-handed frame.
    The in-plane rotation angle a (degrees) maps to the jaw closing direction
    u = cos(a) * e1 + sin(a) * e2.
    """
    v = normalize(approach)
    ref = np.array([0.0, 0.0, 1.0])
    c = np.cross(v, ref)
    if np.linalg.norm(c) < 1e-8:
        c = np.cross(v, np.array([1.0, 0.0, 0.0]))
    e1 = c / np.linalg.norm(c)
    e2 = np.cross(v, e1)
    return e1, e2


def closing_direction(approach, angle_deg: float) -> np.ndarray:
    """Jaw closing direction for an approach vector and in-plane angle in degrees."""
    e1, e2 = approach_frame(approach)
    a = np.deg2rad(angle_deg)
    return np.cos(a) * e1 + np.sin(a) * e2


def closing_angle_deg(approach, closing) -> float:
    """In-plane angle in [0, 180) of a closing direction, inverse of closing_direction.

    The closing line is undirected, so u and -u map to the same angle.
    """
    e1, e2 = approach_frame(approach)
    u = normalize(closing)
    a = np.rad2deg(np.arctan2(np.dot(u, e2), np.dot(u, e1)))
    return a % 180.0


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
