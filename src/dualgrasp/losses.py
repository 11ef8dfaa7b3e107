"""Training losses with analytic gradients (validated against finite differences).

All losses return (scalar, gradient-wrt-inputs). Reductions are means so the
gradient scale is independent of batch size.
"""

import numpy as np

from .mlp import _sigmoid

POSITIVE_WEIGHT_PARALLEL = 10.0  # weight of a parallel graspness positive against a negative


def _softplus(z):
    return np.log1p(np.exp(-np.abs(z))) + np.maximum(z, 0.0)


def bce_with_logits(logits, targets, pos_weight: float = 1.0):
    """Mean binary cross-entropy from logits; targets may be soft in [0, 1].

    The positive term is scaled by pos_weight (class-imbalance reweighting).
    """
    z = np.asarray(logits, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    if z.shape != y.shape:
        raise ValueError(f"logits {z.shape} vs targets {y.shape}")
    n = z.size
    loss = float(np.sum(pos_weight * y * _softplus(-z) + (1.0 - y) * _softplus(z)) / n)
    s = _sigmoid(z)
    grad = (pos_weight * y * (s - 1.0) + (1.0 - y) * s) / n
    return loss, grad


def loss_objectness(logits, labels):
    """Cross-entropy for the binary objectness head."""
    return bce_with_logits(logits, labels)


def loss_vacuum(logits, soft_labels):
    """Binary cross-entropy for the vacuum graspness head (soft targets)."""
    return bce_with_logits(logits, soft_labels)


def loss_parallel_graspness(logits, labels, pos_weight: float = POSITIVE_WEIGHT_PARALLEL):
    """Weighted BCE for the parallel graspness head; labels binarize as label > 0."""
    y = (np.asarray(labels, dtype=np.float64) > 0).astype(np.float64)
    return bce_with_logits(logits, y, pos_weight=pos_weight)


def softmax_cross_entropy(logits, target_idx):
    """Mean softmax cross-entropy over rows; integer class targets."""
    z = np.atleast_2d(np.asarray(logits, dtype=np.float64))
    t = np.asarray(target_idx, dtype=np.intp).reshape(len(z))
    zmax = z.max(axis=1, keepdims=True)
    logsumexp = zmax[:, 0] + np.log(np.sum(np.exp(z - zmax), axis=1))
    loss = float(np.mean(logsumexp - z[np.arange(len(z)), t]))
    p = np.exp(z - zmax)
    p /= p.sum(axis=1, keepdims=True)
    p[np.arange(len(z)), t] -= 1.0
    return loss, p / len(z)


def smooth_l1(pred, target, beta: float = 1.0):
    """Mean smooth L1: 0.5 x^2 / beta inside |x| < beta, |x| - beta/2 outside."""
    x = np.asarray(pred, dtype=np.float64) - np.asarray(target, dtype=np.float64)
    small = np.abs(x) < beta
    vals = np.where(small, 0.5 * x * x / beta, np.abs(x) - 0.5 * beta)
    grad = np.where(small, x / beta, np.sign(x)) / x.size
    return float(np.mean(vals)), grad


def loss_refiner(view_logits, width_pred, angle_logits, depth_logits, score_logits, targets):
    """Combined pose-refiner loss: smooth L1 for view scores and width,
    cross-entropy for angle, depth, and score bins.

    targets: dict with view_scores (N, V), width (N,), angle_idx, depth_idx,
    score_idx (N,). Returns (total, per-output gradients dict, per-term dict).
    """
    l_view, g_view = smooth_l1(view_logits, targets["view_scores"])
    l_width, g_width = smooth_l1(width_pred, targets["width"])
    l_angle, g_angle = softmax_cross_entropy(angle_logits, targets["angle_idx"])
    l_depth, g_depth = softmax_cross_entropy(depth_logits, targets["depth_idx"])
    l_score, g_score = softmax_cross_entropy(score_logits, targets["score_idx"])
    total = l_view + l_width + l_angle + l_depth + l_score
    grads = {"view": g_view, "width": g_width, "angle": g_angle, "depth": g_depth, "score": g_score}
    terms = {"view": l_view, "width": l_width, "angle": l_angle, "depth": l_depth, "score": l_score}
    return float(total), grads, terms
