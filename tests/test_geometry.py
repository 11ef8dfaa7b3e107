import numpy as np
import pytest

from dualgrasp.geometry import (
    approach_frames,
    closing_angles_deg,
    closing_directions,
    row_dots,
    row_norms,
    unit_rows,
)


def approach_frame_reference(approach):
    """The one-vector frame that approach_frames generalised."""
    a = np.asarray(approach, dtype=np.float64).reshape(3)
    v = a / np.linalg.norm(a)
    c = np.cross(v, np.array([0.0, 0.0, 1.0]))
    if np.linalg.norm(c) < 1e-8:
        c = np.cross(v, np.array([1.0, 0.0, 0.0]))
    e1 = c / np.linalg.norm(c)
    return e1, np.cross(v, e1)


def normalize_reference(v):
    """The one-vector normalisation that unit_rows generalised."""
    a = np.asarray(v, dtype=np.float64).reshape(3)
    return a / np.linalg.norm(a)


def approaches(rng, n):
    a = rng.normal(size=(n, 3)) * rng.uniform(1e-3, 10.0, size=(n, 1))
    a[: n // 10, :2] *= 1e-9  # near-vertical: the +x fallback
    a[n // 10 : n // 10 + 3] = [[0.0, 0.0, 1.0], [0.0, 0.0, -2.0], [1e-12, 0.0, -1.0]]
    return a


def test_row_dots_and_norms_match_each_row_alone(rng):
    x = rng.normal(size=(20000, 3)) * rng.uniform(1e-3, 1.0, size=(20000, 1))
    y = rng.normal(size=(20000, 3))
    assert np.array_equal(row_dots(x, y), [np.dot(a, b) for a, b in zip(x, y)])
    assert np.array_equal(row_dots(y[0], x), [np.dot(y[0], b) for b in x])  # one row broadcasts
    assert np.array_equal(row_norms(x), [np.linalg.norm(r) for r in x])
    assert np.array_equal(unit_rows(x), [normalize_reference(r) for r in x])
    assert row_norms(np.zeros((0, 3))).shape == (0,)


def test_batched_frames_and_closing_directions_match_one_vector_reference(rng):
    a = approaches(rng, 5000)
    angles = rng.uniform(0.0, 180.0, len(a))
    e1, e2 = approach_frames(a)
    u = closing_directions(a, angles)
    for i in range(len(a)):
        r1, r2 = approach_frame_reference(a[i])
        assert np.array_equal(e1[i], r1) and np.array_equal(e2[i], r2)
        ref_u = np.cos(np.deg2rad(angles[i])) * r1 + np.sin(np.deg2rad(angles[i])) * r2
        assert np.array_equal(u[i], ref_u)
        assert np.array_equal(closing_directions(a[i], angles[i])[0], ref_u)
        assert all(np.array_equal(x[0], y) for x, y in zip(approach_frames(a[i]), (r1, r2)))


def closing_angle_reference(approach, closing):
    e1, e2 = approach_frame_reference(approach)
    u = np.asarray(closing, dtype=np.float64) / np.linalg.norm(closing)
    return np.rad2deg(np.arctan2(np.dot(u, e2), np.dot(u, e1))) % 180.0


def test_batched_closing_angles_match_one_vector_reference(rng):
    a = approaches(rng, 5000)
    closings = rng.normal(size=(len(a), 3))
    got = closing_angles_deg(a, closings)
    want = [closing_angle_reference(v, c) for v, c in zip(a, closings)]
    assert np.array_equal(got, want)
    assert all(closing_angles_deg(v, c)[0] == w for v, c, w in zip(a[:500], closings, want))


def test_frames_reject_zero_vectors():
    with pytest.raises(ValueError):
        unit_rows([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    with pytest.raises(ValueError):
        approach_frames(np.zeros(3))
    with pytest.raises(ValueError):
        approach_frames([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
    with pytest.raises(ValueError):
        closing_angles_deg([0.0, 0.0, 1.0], np.zeros(3))
