"""Precision@k and average-precision metrics over coefficient grids.

A parallel grasp counts positive at threshold mu when its oracle required
friction is <= mu (a larger mu admits more grasps); a vacuum grasp counts
positive at mu when its oracle seal coefficient is >= mu (a larger mu is
stricter). Precision@k is computed over min(k, len) so short high-precision
lists are not penalized; this differs from zero-filling conventions used by
some benchmarks, so compare AP numbers across tools with care (see README).

grasp_qualities is the one grader of proposed grasps: eval's AP and the
clearing loop's executed grasps both go through it, and the AP functions take
its graded list.
"""

from dataclasses import dataclass

import numpy as np

from .domains import COUNT, ascending_grid, check_fields, setting
from .grasps import PARALLEL, Grasps
from .scenes import SceneAnnotation, parallel_quality_batch, seal_quality_batch


@dataclass
class EvalConfig:
    k_max: int = setting(50, COUNT)
    mu_parallel_grid: tuple[float, ...] = setting((0.2, 0.4, 0.6, 0.8, 1.0), ascending_grid())
    # seal coefficients, at most 1
    mu_vacuum_grid: tuple[float, ...] = setting((0.2, 0.4, 0.6, 0.8), ascending_grid(1))

    def __post_init__(self):
        check_fields(self)

    def mu_grid(self, gripper: str) -> tuple:
        return self.mu_parallel_grid if gripper == PARALLEL else self.mu_vacuum_grid


def grasp_qualities(grasps: Grasps, scene: SceneAnnotation, gripper: str):
    """(quality, object id) per grasp, from one oracle pass over the whole list.

    The quality is the required friction (parallel, inf when the jaw line
    misses) or the seal (vacuum). The object id is the object the grasp acts
    on: the one the jaw line closes on, or the one owning the cup center; -1
    for none. Each value has the bits of a one-grasp call.
    """
    if gripper != PARALLEL:
        return tuple(seal_quality_batch(scene, grasps.center))
    if len(grasps) == 0:
        return np.empty(0), np.empty(0, dtype=np.intp)
    res = parallel_quality_batch(scene, grasps.jaw_centers(), grasps.closings(), grasps.width)
    return res.mu, res.object_id


def successes_at(qualities: np.ndarray, mu: float, gripper: str) -> np.ndarray:
    if gripper == PARALLEL:
        return qualities <= mu
    return qualities >= mu


def precision_at_k(qualities, mu: float, gripper: str, k: int) -> float:
    """Fraction of the top-min(k, len) of a score-ranked graded list accepted at mu."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if len(qualities) == 0:
        return 0.0
    top = min(k, len(qualities))
    return float(np.mean(successes_at(np.asarray(qualities)[:top], mu, gripper)))


def ap_mu(qualities, mu: float, gripper: str, config: EvalConfig = None) -> float:
    """Average of Precision@k for k = 1..k_max at one coefficient threshold."""
    cfg = config or EvalConfig()
    if len(qualities) == 0:
        return 0.0
    succ = successes_at(np.asarray(qualities), mu, gripper).astype(np.float64)
    cum = np.cumsum(succ)
    ks = np.minimum(np.arange(1, cfg.k_max + 1), len(qualities))
    return float(np.mean(cum[ks - 1] / ks))


def ap_overall(qualities, gripper: str, config: EvalConfig = None) -> float:
    """Mean of ap_mu over the gripper's coefficient grid."""
    cfg = config or EvalConfig()
    return float(np.mean([ap_mu(qualities, mu, gripper, cfg) for mu in cfg.mu_grid(gripper)]))


def roc_auc(scores, labels) -> float:
    """Area under the ROC curve via the rank statistic; ties get average ranks."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels).astype(bool)
    n_pos = int(y.sum())
    n_neg = len(y) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("roc_auc needs both positive and negative labels")
    from scipy.stats import rankdata  # not at module level: it adds ~0.3 s and ~35 MB to every CLI start

    return float((rankdata(s)[y].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))
