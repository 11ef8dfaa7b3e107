"""Simulated table-clearing loop and its R metrics.

Each round the pipeline proposes ranked grasps for the current scene state;
the top grasp executes against the oracle. Success removes the target
object's points and primitive; three consecutive failures end the run.
"""

from dataclasses import dataclass, field

import numpy as np

from .grasps import PARALLEL
from .metrics import EvalConfig, grasp_qualities, successes_at
from .scenes import SceneAnnotation, remove_object


@dataclass
class ClearingMetrics:
    objects_total: int
    objects_cleared: int
    grasps_total: int
    grasps_successful: int
    grasps_on_cleared: int
    objects_detected: int

    @property
    def r_object(self) -> float:
        return self.objects_cleared / self.objects_total if self.objects_total else 0.0

    @property
    def r_grasp(self) -> float:
        return self.grasps_successful / self.grasps_total if self.grasps_total else 0.0

    @property
    def r_mix(self) -> float:
        """Attempts on eventually-cleared objects per cleared object (>= 1)."""
        return self.grasps_on_cleared / self.objects_cleared if self.objects_cleared else 0.0

    @property
    def r_seen(self) -> float:
        return self.objects_detected / self.objects_total if self.objects_total else 0.0

    def validate(self):
        if not (0 <= self.grasps_successful <= self.grasps_total):
            raise ValueError("successful grasps exceed total grasps")
        if not (self.objects_cleared <= self.objects_detected <= self.objects_total):
            raise ValueError("cleared <= detected <= total violated")


@dataclass
class ClearingTrace:
    """Per-object bookkeeping of one clearing run, for post-hoc gripper combination."""

    gripper: str
    objects_total: int
    object_ids: tuple
    attempts_on: dict  # object id -> attempts targeting it (including the clearing one)
    cleared: dict  # object id -> bool
    detected_ids: frozenset
    attempts: list = field(default_factory=list)  # (object id or -1, success)


def metrics_from_attempts(attempts, objects_total: int, detected_ids) -> ClearingMetrics:
    """Aggregate a list of (target object id, success) attempts into R metrics.

    An object is cleared when any attempt on it succeeded; grasps_on_cleared
    counts every attempt (failed ones included) whose target ended up cleared.
    """
    cleared_ids = {oid for oid, ok in attempts if ok and oid > 0}
    m = ClearingMetrics(
        objects_total=objects_total,
        objects_cleared=len(cleared_ids),
        grasps_total=len(attempts),
        grasps_successful=sum(1 for _, ok in attempts if ok),
        grasps_on_cleared=sum(1 for oid, _ in attempts if oid in cleared_ids),
        objects_detected=len(set(detected_ids)),
    )
    m.validate()
    return m


def _judge_grasp(grasp, scene: SceneAnnotation, gripper: str, cfg: EvalConfig):
    """(target object id or -1, success) for an executed grasp, graded as eval grades it.

    A grasp without a target fails at any threshold.
    """
    quality, target = grasp_qualities([grasp], scene, gripper)
    mu = cfg.exec_mu_parallel if gripper == PARALLEL else cfg.exec_mu_vacuum
    return int(target[0]), bool(target[0] > 0 and successes_at(quality, mu, gripper)[0])


def run_clearing_loop(cloud, scene: SceneAnnotation, pipeline, gripper: str,
                      config: EvalConfig = None):
    """Simulate clearing a scene with one gripper.

    pipeline(cloud, scene, gripper) must return (ranked grasps, seed indices).
    Returns (ClearingMetrics, ClearingTrace). An object counts as detected if
    any of its points ever lands in a seed set, or if an executed grasp
    targets it (a grasp seeded on the table can still close on an object), so
    cleared <= detected always holds.
    """
    cfg = config or EvalConfig()
    object_ids = tuple(sorted(p.object_id for p in scene.objects()))
    attempts = []
    attempts_on = {oid: 0 for oid in object_ids}
    cleared = {oid: False for oid in object_ids}
    detected = set()
    consecutive = 0
    max_attempts = 3 * (len(object_ids) + 1)

    while any(not c for c in cleared.values()) and consecutive < cfg.max_consecutive_failures:
        if len(attempts) >= max_attempts:
            break
        grasps, seed_indices = pipeline(cloud, scene, gripper)
        seed_indices = np.asarray(seed_indices, dtype=np.intp)
        if len(seed_indices):
            detected |= {int(oid) for oid in scene.per_point_object_id[seed_indices] if oid > 0}
        if not grasps:
            consecutive += 1
            continue
        top = grasps[0]
        target, ok = _judge_grasp(top, scene, gripper, cfg)
        attempts.append((target, ok))
        if target > 0:
            detected.add(target)
        if target in attempts_on:
            attempts_on[target] += 1
        if ok:
            cleared[target] = True
            consecutive = 0
            remaining = [oid for oid, c in cleared.items() if not c]
            if not remaining:
                break
            cloud, scene = remove_object(cloud, scene, target)
        else:
            consecutive += 1

    metrics = metrics_from_attempts(attempts, len(object_ids), detected)
    trace = ClearingTrace(
        gripper=gripper,
        objects_total=len(object_ids),
        object_ids=object_ids,
        attempts_on=attempts_on,
        cleared=cleared,
        detected_ids=frozenset(detected),
        attempts=attempts,
    )
    return metrics, trace


def combine_grippers_posthoc(traces) -> ClearingMetrics:
    """Per-object best-gripper combination of clearing runs on the same scene.

    For each object the gripper that cleared it with the fewest attempts is
    selected (uncleared objects fall back to the fewest-attempt gripper).
    """
    if len(traces) < 2:
        raise ValueError("need at least two gripper traces to combine")
    ids = traces[0].object_ids
    for t in traces[1:]:
        if t.object_ids != ids:
            raise ValueError(f"traces cover different objects: {ids} vs {t.object_ids}")

    objects_cleared = 0
    grasps_total = 0
    grasps_on_cleared = 0
    for oid in ids:
        clearing = [t for t in traces if t.cleared[oid]]
        pool = clearing if clearing else list(traces)
        best = min(pool, key=lambda t: t.attempts_on[oid])
        grasps_total += best.attempts_on[oid]
        if clearing:
            objects_cleared += 1
            grasps_on_cleared += best.attempts_on[oid]
    detected = set()
    for t in traces:
        detected |= set(t.detected_ids)
    m = ClearingMetrics(
        objects_total=len(ids),
        objects_cleared=objects_cleared,
        grasps_total=grasps_total,
        grasps_successful=objects_cleared,
        grasps_on_cleared=grasps_on_cleared,
        objects_detected=len(detected),
    )
    m.validate()
    return m
