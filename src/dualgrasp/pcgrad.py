"""Gradient surgery for multitask training: project away conflicting components.

Each task gradient is projected off every *original* other-task gradient it
conflicts with (negative dot product), visiting the others in a seeded random
order; the combined update is the mean of the projected gradients.
"""

import numpy as np


def project_conflicts(grads, rng: np.random.Generator) -> list:
    """Projected per-task gradients (PCGrad), before combining.

    For each task gradient g_i, the other tasks' ORIGINAL gradients are
    visited in a random order; whenever g_i conflicts with g_j
    (g_i . g_j < 0), the component along g_j is removed:
    g_i <- g_i - (g_i . g_j / |g_j|^2) g_j. Zero-norm conflicting partners
    are skipped.
    """
    originals = [np.asarray(g, dtype=np.float64).ravel() for g in grads]
    if len(originals) < 2:
        raise ValueError("gradient surgery needs at least two tasks")
    projected = []
    for i, g in enumerate(originals):
        g = g.copy()
        others = [j for j in range(len(originals)) if j != i]
        for j in rng.permutation(others):
            gj = originals[j]
            dot = float(g @ gj)
            if dot < 0.0:
                nj2 = float(gj @ gj)
                if nj2 == 0.0:
                    continue
                g -= (dot / nj2) * gj
        projected.append(g)
    return projected


def pcgrad(grads, rng: np.random.Generator) -> np.ndarray:
    """Combined update: mean of the conflict-projected task gradients."""
    return np.mean(project_conflicts(grads, rng), axis=0)


def combine_without_surgery(grads) -> np.ndarray:
    """The no-PCGrad ablation: same mean combination, no projection.

    Kept as the mean (not the sum) so that runs with and without surgery
    follow identical trajectories whenever no task pair conflicts.
    """
    return np.mean([np.asarray(g, dtype=np.float64).ravel() for g in grads], axis=0)
