"""Simulated table-clearing loop and its R metrics.

Each round the pipeline proposes ranked grasps for the current scene state;
the top grasp executes against the oracle. Success removes the target
object's points and primitive; MAX_CONSECUTIVE_FAILURES failures in a row end
the run.
"""

from dataclasses import dataclass

import numpy as np

from .grasps import PARALLEL, Grasps
from .metrics import grasp_qualities, successes_at
from .scenes import SceneAnnotation, remove_object

MAX_CONSECUTIVE_FAILURES = 3
# an executed grasp succeeds at these oracle thresholds: required friction at
# most EXEC_MU_PARALLEL, seal at least EXEC_MU_VACUUM
EXEC_MU_PARALLEL = 0.8
EXEC_MU_VACUUM = 0.4
# the R metrics, the ratio properties of ClearingMetrics
RATIOS = ("r_object", "r_grasp", "r_mix", "r_seen")


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
    """The executed attempts of one clearing run."""

    gripper: str
    attempts: list  # (object id or -1, success)


def metrics_from_attempts(attempts, objects_total: int, detected) -> ClearingMetrics:
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
        objects_detected=len(set(detected)),
    )
    m.validate()
    return m


def _judge_grasp(grasp: Grasps, scene: SceneAnnotation, gripper: str):
    """(target object id or -1, success) for an executed grasp (a one-row set), graded as eval grades it.

    A grasp without a target fails at any threshold.
    """
    quality, target = grasp_qualities(grasp, scene, gripper)
    mu = EXEC_MU_PARALLEL if gripper == PARALLEL else EXEC_MU_VACUUM
    return int(target[0]), bool(target[0] > 0 and successes_at(quality, mu, gripper)[0])


def run_clearing_loop(cloud, scene: SceneAnnotation, pipeline, gripper: str):
    """Simulate clearing a scene with one gripper.

    pipeline(cloud, scene, gripper) must return (ranked Grasps, seed indices).
    Returns (ClearingMetrics, ClearingTrace). An object counts as detected if
    any of its points ever lands in a seed set, or if an executed grasp
    targets it (a grasp seeded on the table can still close on an object), so
    cleared <= detected always holds.
    """
    objects_total = remaining = len({p.object_id for p in scene.objects()})
    attempts = []
    detected = set()
    consecutive = 0
    max_attempts = 3 * (objects_total + 1)

    while remaining and consecutive < MAX_CONSECUTIVE_FAILURES and len(attempts) < max_attempts:
        grasps, seed_indices = pipeline(cloud, scene, gripper)
        seed_indices = np.asarray(seed_indices, dtype=np.intp)
        if len(seed_indices):
            detected |= {int(oid) for oid in scene.per_point_object_id[seed_indices] if oid > 0}
        if not len(grasps):
            consecutive += 1
            continue
        target, ok = _judge_grasp(grasps.take([0]), scene, gripper)
        attempts.append((target, ok))
        if target > 0:
            detected.add(target)
        if not ok:
            consecutive += 1
            continue
        consecutive = 0
        remaining -= 1
        if remaining:
            cloud, scene = remove_object(cloud, scene, target)

    return metrics_from_attempts(attempts, objects_total, detected), ClearingTrace(gripper, attempts)
