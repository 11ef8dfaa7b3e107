import numpy as np
import pytest

from dualgrasp.pcgrad import combine_without_surgery, pcgrad, project_conflicts


def rng():
    return np.random.default_rng(0)


def test_orthogonal_pass_through_unchanged():
    g1 = np.array([1.0, 0.0])
    g2 = np.array([0.0, 1.0])
    out = pcgrad([g1, g2], rng())
    assert np.allclose(out, [0.5, 0.5])
    proj = project_conflicts([g1, g2], rng())
    assert np.array_equal(proj[0], g1)
    assert np.array_equal(proj[1], g2)


def test_worked_conflict_example():
    g1 = np.array([1.0, 0.0])
    g2 = np.array([-1.0, 1.0])
    proj = project_conflicts([g1, g2], rng())
    assert np.allclose(proj[0], [0.5, 0.5])  # g1 projected off g2
    assert np.allclose(proj[1], [0.0, 1.0])  # g2 projected off the ORIGINAL g1
    assert np.allclose(pcgrad([g1, g2], rng()), [0.25, 0.75])


def test_antiparallel_annihilation():
    g1 = np.array([2.0, -1.0, 0.5])
    out = pcgrad([g1, -g1], rng())
    assert np.allclose(out, 0.0, atol=1e-15)


def test_positive_homogeneity():
    r = np.random.default_rng(7)
    g = [r.normal(size=50) for _ in range(3)]
    for c in (0.25, 3.0, 1e6):
        a = pcgrad([c * x for x in g], np.random.default_rng(11))
        b = c * pcgrad(g, np.random.default_rng(11))
        assert np.allclose(a, b, rtol=1e-12, atol=1e-12 * c)


def test_projection_uses_original_partners():
    # three tasks: each projection must reference the untouched originals
    g1 = np.array([1.0, 0.0, 0.0])
    g2 = np.array([-1.0, 1.0, 0.0])
    g3 = np.array([0.0, 0.0, 1.0])
    proj = project_conflicts([g1, g2, g3], np.random.default_rng(0))
    # g3 conflicts with nobody, so it passes through no matter the order
    assert np.array_equal(proj[2], g3)
    # g1 only conflicts with g2: result independent of visiting order
    assert np.allclose(proj[0], [0.5, 0.5, 0.0])


def test_non_negative_dot_after_projection():
    r = np.random.default_rng(3)
    for _ in range(50):
        g = [r.normal(size=20) for _ in range(2)]
        proj = project_conflicts(g, r)
        # with two tasks the only partner is the other original gradient
        assert proj[0] @ g[1] >= -1e-9
        assert proj[1] @ g[0] >= -1e-9


def test_zero_norm_partner_skipped():
    g1 = np.array([1.0, 1.0])
    g2 = np.zeros(2)
    out = pcgrad([g1, g2], rng())
    assert np.allclose(out, g1 / 2)


def test_combine_without_surgery_is_mean():
    g = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    assert np.allclose(combine_without_surgery(g), [0.5, 0.5])
    # equals pcgrad whenever nothing conflicts (identical-trajectory ablation)
    assert np.allclose(combine_without_surgery(g), pcgrad(g, rng()))


def test_single_task_rejected():
    with pytest.raises(ValueError):
        project_conflicts([np.array([1.0])], rng())
