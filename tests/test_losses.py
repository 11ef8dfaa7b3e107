import numpy as np
import pytest

from dualgrasp.losses import (
    bce_with_logits,
    loss_objectness,
    loss_parallel_graspness,
    loss_refiner,
    loss_vacuum,
    smooth_l1,
    softmax_cross_entropy,
)

LN2 = np.log(2.0)


def central_diff(f, x, eps=1e-5):
    g = np.zeros_like(x, dtype=float)
    flat = x.reshape(-1)
    out = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = f(x)
        flat[i] = orig - eps
        lo = f(x)
        flat[i] = orig
        out[i] = (hi - lo) / (2 * eps)
    return g


def assert_grad_close(analytic, numeric, tol=1e-4):
    denom = np.maximum(1e-6, np.maximum(np.abs(analytic), np.abs(numeric)))
    assert np.max(np.abs(analytic - numeric) / denom) < tol


# -- objectness / BCE -----------------------------------------------------------


def test_objectness_confident_correct_is_tiny():
    logits = np.array([10.0, -10.0, 10.0])
    labels = np.array([1.0, 0.0, 1.0])
    loss, _ = loss_objectness(logits, labels)
    assert loss < 1e-3


def test_objectness_zero_logits_ln2():
    logits = np.zeros(8)
    labels = (np.arange(8) % 2).astype(float)
    loss, _ = loss_objectness(logits, labels)
    assert loss == pytest.approx(LN2)


def test_vacuum_soft_label_half_ln2():
    loss, _ = loss_vacuum(np.zeros(1), np.array([0.5]))
    assert loss == pytest.approx(LN2)


def test_vacuum_stationary_at_matching_sigmoid(rng):
    logits = rng.normal(size=40)
    labels = 1.0 / (1.0 + np.exp(-logits))
    _, grad = loss_vacuum(logits, labels)
    assert np.max(np.abs(grad)) < 1e-12


def test_parallel_weighted_mean():
    logits = np.zeros(2)
    labels = np.array([1.0, 0.0])
    loss, _ = loss_parallel_graspness(logits, labels)
    assert loss == pytest.approx((10 * LN2 + LN2) / 2)


def test_parallel_weight_one_equals_vacuum(rng):
    logits = rng.normal(size=30)
    labels = (rng.uniform(size=30) > 0.5).astype(float)
    l1, g1 = loss_parallel_graspness(logits, labels, pos_weight=1.0)
    l2, g2 = loss_vacuum(logits, labels)
    assert l1 == pytest.approx(l2)
    assert np.allclose(g1, g2)


def test_parallel_binarizes_labels(rng):
    logits = rng.normal(size=10)
    soft = np.array([0.0, 0.3, 0.0, 0.9, 0.0, 0.1, 0.0, 0.5, 0.0, 1.0])
    l_soft, _ = loss_parallel_graspness(logits, soft)
    l_bin, _ = loss_parallel_graspness(logits, (soft > 0).astype(float))
    assert l_soft == pytest.approx(l_bin)


# -- smooth L1 / softmax CE ---------------------------------------------------------


def test_smooth_l1_quadratic_branch():
    loss, _ = smooth_l1(np.array([0.5]), np.array([0.0]))
    assert loss == pytest.approx(0.125)


def test_smooth_l1_linear_branch():
    loss, _ = smooth_l1(np.array([3.0]), np.array([0.0]))
    assert loss == pytest.approx(2.5)


def test_smooth_l1_zero_at_match(rng):
    t = rng.normal(size=12)
    loss, grad = smooth_l1(t.copy(), t)
    assert loss == 0.0
    assert np.all(grad == 0.0)


def test_softmax_ce_uniform():
    loss, _ = softmax_cross_entropy(np.zeros((4, 5)), np.array([0, 1, 2, 3]))
    assert loss == pytest.approx(np.log(5.0))


def test_softmax_ce_confident():
    z = np.full((1, 4), -20.0)
    z[0, 2] = 20.0
    loss, _ = softmax_cross_entropy(z, np.array([2]))
    assert loss < 1e-9


# -- refiner bundle -------------------------------------------------------------------


def refiner_targets(rng, n, v=6, a=4, d=3, s=5):
    return {
        "view_scores": rng.uniform(size=(n, v)),
        "width": rng.uniform(0.02, 0.08, size=n),
        "angle_idx": rng.integers(0, a, size=n),
        "depth_idx": rng.integers(0, d, size=n),
        "score_idx": rng.integers(0, s, size=n),
    }


def test_refiner_zero_when_predictions_match(rng):
    t = refiner_targets(rng, 5)
    # classification terms can't be exactly 0; drive them with huge logits
    angle = np.full((5, 4), -50.0)
    angle[np.arange(5), t["angle_idx"]] = 50.0
    depth = np.full((5, 3), -50.0)
    depth[np.arange(5), t["depth_idx"]] = 50.0
    score = np.full((5, 5), -50.0)
    score[np.arange(5), t["score_idx"]] = 50.0
    total, grads, terms = loss_refiner(t["view_scores"].copy(), t["width"].copy(),
                                       angle, depth, score, t)
    assert terms["view"] == 0.0 and terms["width"] == 0.0
    assert total < 1e-9


# -- finite-difference checks (the gradient contract) -----------------------------------


@pytest.mark.parametrize("case", range(4))
def test_bce_gradients_match_fd(case, rng):
    n = 25
    for _ in range(25):  # 4 cases x 25 = 100 random points
        logits = rng.normal(scale=2.0, size=n)
        if case == 0:
            labels = (rng.uniform(size=n) > 0.5).astype(float)
            f = lambda z: loss_objectness(z, labels)
        elif case == 1:
            labels = rng.uniform(size=n)
            f = lambda z: loss_vacuum(z, labels)
        elif case == 2:
            labels = (rng.uniform(size=n) > 0.8).astype(float)
            f = lambda z: loss_parallel_graspness(z, labels)
        else:
            labels = rng.uniform(size=n)
            f = lambda z: bce_with_logits(z, labels, pos_weight=3.5)
        _, grad = f(logits)
        fd = central_diff(lambda z: f(z)[0], logits)
        assert_grad_close(grad, fd)


def test_smooth_l1_gradient_fd(rng):
    for _ in range(100):
        pred = rng.normal(scale=1.5, size=10)
        target = rng.normal(scale=1.5, size=10)
        # keep points away from the C1 branch boundary for clean FD
        gap = np.abs(np.abs(pred - target) - 1.0)
        pred[gap < 1e-3] += 0.01
        _, grad = smooth_l1(pred, target)
        fd = central_diff(lambda p: smooth_l1(p, target)[0], pred)
        assert_grad_close(grad, fd)


def test_softmax_ce_gradient_fd(rng):
    for _ in range(100):
        z = rng.normal(size=(6, 5))
        t = rng.integers(0, 5, size=6)
        _, grad = softmax_cross_entropy(z, t)
        fd = central_diff(lambda zz: softmax_cross_entropy(zz, t)[0], z)
        assert_grad_close(grad, fd)


def test_refiner_gradient_fd(rng):
    for _ in range(20):
        t = refiner_targets(rng, 3)
        view = rng.normal(size=(3, 6))
        width = rng.normal(size=3)
        angle = rng.normal(size=(3, 4))
        depth = rng.normal(size=(3, 3))
        score = rng.normal(size=(3, 5))
        _, grads, _ = loss_refiner(view, width, angle, depth, score, t)

        def total(v=view, w=width, a=angle, d=depth, s=score):
            return loss_refiner(v, w, a, d, s, t)[0]

        assert_grad_close(grads["view"], central_diff(lambda v: total(v=v), view))
        assert_grad_close(grads["width"], central_diff(lambda w: total(w=w), width))
        assert_grad_close(grads["angle"], central_diff(lambda a: total(a=a), angle))
        assert_grad_close(grads["depth"], central_diff(lambda d: total(d=d), depth))
        assert_grad_close(grads["score"], central_diff(lambda s: total(s=s), score))
