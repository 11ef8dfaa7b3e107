from dataclasses import replace

import numpy as np
import pytest

from dualgrasp.clearing import metrics_from_attempts, run_clearing_loop
from dualgrasp.cloud import PointCloud
from dualgrasp.grasps import PARALLEL, VACUUM, Grasps
from dualgrasp.primitives import Primitive
from dualgrasp.scenes import SceneAnnotation

from test_scenes import down_grasp


# -- metric aggregation on scripted attempt traces ------------------------------------


def test_perfect_run():
    attempts = [(i, True) for i in range(1, 7)]
    m = metrics_from_attempts(attempts, objects_total=6, detected=range(1, 7))
    assert m.r_object == 1.0 and m.r_grasp == 1.0 and m.r_mix == 1.0 and m.r_seen == 1.0


def test_r_mix_eight_over_six():
    # 8 attempts all targeting eventually-cleared objects, 6 objects cleared
    attempts = [(1, False), (1, True), (2, True), (3, False), (3, True),
                (4, True), (5, True), (6, True)]
    m = metrics_from_attempts(attempts, objects_total=6, detected=range(1, 7))
    assert m.grasps_on_cleared == 8 and m.objects_cleared == 6
    assert m.r_mix == pytest.approx(8 / 6)
    assert m.r_grasp == pytest.approx(6 / 8)


def test_attempts_on_never_cleared_objects_excluded_from_mix():
    attempts = [(1, True), (2, False), (2, False)]
    m = metrics_from_attempts(attempts, objects_total=3, detected={1, 2})
    assert m.r_mix == 1.0  # only the attempt on object 1 counts
    assert m.r_object == pytest.approx(1 / 3)
    assert m.r_seen == pytest.approx(2 / 3)


def test_counter_invariants_enforced():
    with pytest.raises(ValueError):
        # detected fewer than cleared is impossible
        metrics_from_attempts([(1, True)], objects_total=2, detected=set())


def test_scripted_trace_examples():
    cases = [
        ([(1, True), (2, True)], 2, {1, 2}, dict(r_object=1.0, r_grasp=1.0, r_mix=1.0)),
        ([(1, False), (1, False), (1, False)], 2, {1}, dict(r_object=0.0, r_grasp=0.0, r_mix=0.0)),
        ([(1, True), (2, False)], 2, {1, 2}, dict(r_object=0.5, r_grasp=0.5, r_mix=1.0)),
        ([(1, False), (1, True), (2, True), (3, True)], 3, {1, 2, 3},
         dict(r_object=1.0, r_grasp=0.75, r_mix=4 / 3)),
        ([(-1, False), (1, True)], 1, {1}, dict(r_object=1.0, r_grasp=0.5, r_mix=1.0)),
    ]
    for attempts, total, detected, expect in cases:
        m = metrics_from_attempts(attempts, total, detected)
        for key, val in expect.items():
            assert getattr(m, key) == pytest.approx(val), (attempts, key)


# -- simulated clearing loop ------------------------------------------------------------


def two_sphere_scene():
    s1 = Primitive("sphere", (0.02,), translation=(-0.06, 0, 0.02), object_id=1)
    s2 = Primitive("sphere", (0.02,), translation=(0.06, 0, 0.02), object_id=2)
    rng = np.random.default_rng(0)
    pts1, _, f1 = s1.sample_surface(150, rng)
    pts2, _, f2 = s2.sample_surface(150, rng)
    cloud = PointCloud(np.vstack([pts1, pts2]), viewpoint=(0, 0, 1))
    scene = SceneAnnotation(
        primitives=[s1, s2],
        table_height=-1.0,
        per_point_object_id=np.concatenate([np.ones(150, dtype=int), np.full(150, 2)]),
        per_point_flat=np.concatenate([f1, f2]),
    )
    return cloud, scene


def diametral(prim):
    return down_grasp(jaw_center=prim.translation, closing=(1, 0, 0), width=0.09)


def test_loop_clears_all_objects():
    cloud, scene = two_sphere_scene()

    def pipeline(cloud, scene, gripper):
        objs = scene.objects()
        g = diametral(objs[0])
        g.score[0] = 1.0
        seeds = np.flatnonzero(scene.per_point_object_id == objs[0].object_id)[:5]
        return g, seeds

    metrics, trace = run_clearing_loop(cloud, scene, pipeline, PARALLEL)
    assert metrics.objects_cleared == 2
    assert metrics.grasps_total == 2
    assert metrics.r_object == 1.0 and metrics.r_grasp == 1.0 and metrics.r_mix == 1.0
    assert metrics.objects_detected == 2
    assert trace.attempts == [(1, True), (2, True)]


def test_grasp_seeded_off_object_detects_its_target():
    # seeds only on table points, yet every executed grasp hits an object
    cloud, scene = two_sphere_scene()
    cloud = PointCloud(np.vstack([cloud.points, [[0.0, 0.1, 0.0], [0.0, -0.1, 0.0]]]),
                       viewpoint=(0, 0, 1))
    scene = replace(scene, per_point_object_id=np.concatenate([scene.per_point_object_id, [0, 0]]),
                    per_point_flat=np.concatenate([scene.per_point_flat, [True, True]]))

    def pipeline(cloud, scene, gripper):
        g = diametral(scene.objects()[0])
        g.score[0] = 1.0
        return g, np.flatnonzero(scene.per_point_object_id == 0)

    metrics, _ = run_clearing_loop(cloud, scene, pipeline, PARALLEL)
    assert metrics.objects_cleared == 2
    assert metrics.objects_detected == 2


def test_loop_stops_after_three_consecutive_failures():
    cloud, scene = two_sphere_scene()

    def pipeline(cloud, scene, gripper):
        g = down_grasp(jaw_center=(0.4, 0.4, 0.4), closing=(1, 0, 0))  # misses everything
        g.score[0] = 1.0
        return g, np.array([0], dtype=int)

    metrics, _ = run_clearing_loop(cloud, scene, pipeline, PARALLEL)
    assert metrics.grasps_total == 3
    assert metrics.grasps_successful == 0
    assert metrics.objects_cleared == 0


def test_loop_counts_empty_proposals_as_failures():
    cloud, scene = two_sphere_scene()

    def pipeline(cloud, scene, gripper):
        return Grasps.from_records([]), np.zeros(0, dtype=int)

    metrics, _ = run_clearing_loop(cloud, scene, pipeline, PARALLEL)
    assert metrics.grasps_total == 0
    assert metrics.objects_cleared == 0
    assert metrics.objects_detected == 0


def test_loop_mixed_success_failure():
    cloud, scene = two_sphere_scene()
    state = {"calls": 0}

    def pipeline(cloud, scene, gripper):
        state["calls"] += 1
        objs = scene.objects()
        if state["calls"] == 1:  # first: a miss
            g = down_grasp(jaw_center=(0.4, 0.4, 0.4), closing=(1, 0, 0))
        else:
            g = diametral(objs[0])
        g.score[0] = 0.9
        seeds = np.flatnonzero(scene.per_point_object_id == objs[0].object_id)[:3]
        return g, seeds

    metrics, _ = run_clearing_loop(cloud, scene, pipeline, PARALLEL)
    assert metrics.grasps_total == 3
    assert metrics.grasps_successful == 2
    assert metrics.objects_cleared == 2
    assert metrics.r_mix == 1.0  # the miss had no resolvable target object


def two_slab_scene():
    """A solid slab (object 1) and a porous one (object 2), tops at z = 0.01."""
    solid = Primitive("plane-slab", (0.08, 0.08, 0.01), translation=(-0.06, 0, 0.005), object_id=1)
    porous = Primitive("plane-slab", (0.08, 0.08, 0.01), translation=(0.06, 0, 0.005), object_id=2,
                       porosity_flag=True)
    rng = np.random.default_rng(0)
    pts1, _, f1 = solid.sample_surface(150, rng)
    pts2, _, f2 = porous.sample_surface(150, rng)
    cloud = PointCloud(np.vstack([pts1, pts2]), viewpoint=(0, 0, 1))
    scene = SceneAnnotation(
        primitives=[solid, porous],
        table_height=-1.0,
        per_point_object_id=np.concatenate([np.ones(150, dtype=int), np.full(150, 2)]),
        per_point_flat=np.concatenate([f1, f2]),
    )
    return cloud, scene


def test_vacuum_loop_judges_seal_and_cup_owner():
    cloud, scene = two_slab_scene()
    # off every surface (no target), on the porous top (fails), on the solid top (seals)
    script = iter([(0.3, 0.3, 0.3), (0.06, 0.0, 0.01), (-0.06, 0.0, 0.01)])

    def pipeline(cloud, scene, gripper):
        assert gripper == VACUUM
        center = next(script, (0.06, 0.0, 0.01))
        return Grasps.vacuum([center], [(0, 0, 1)], score=1.0), np.zeros(0, dtype=int)

    metrics, trace = run_clearing_loop(cloud, scene, pipeline, VACUUM)
    assert trace.attempts == [(-1, False), (2, False), (1, True), (2, False), (2, False), (2, False)]
    assert metrics.objects_cleared == 1 and metrics.grasps_successful == 1 and metrics.grasps_total == 6
    assert metrics.objects_detected == 2  # both were targeted
