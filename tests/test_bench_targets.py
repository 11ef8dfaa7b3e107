"""The benchmark's tracer must find every function it instruments.

dgbench/spans.py rebinds package functions by name for `--trace 1` runs; a
renamed or deleted function would crash those runs, so it fails here instead.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

SPANS = Path(__file__).resolve().parents[1] / "dgbench" / "spans.py"


def load_spans():
    """dgbench/spans.py, with every module it instruments imported."""
    spec = importlib.util.spec_from_file_location("dgbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    for target in module.TARGETS:
        importlib.import_module(f"dualgrasp.{target.module}")
    return module


@pytest.mark.parametrize("target", load_spans().TARGETS, ids=lambda t: f"{t.module}.{t.attr}")
def test_trace_target_resolves(target):
    obj = importlib.import_module(f"dualgrasp.{target.module}")
    for part in target.attr.split("."):
        assert hasattr(obj, part), f"dualgrasp.{target.module} has no {target.attr}"
        obj = getattr(obj, part)
    assert callable(obj)


def test_oracle_line_counter_counts_every_jaw_line(small_scene):
    """scenes.parallel_oracle.lines is the number of jaw lines a pose search sends, whatever their layout.

    With the default grid, each seed sends 12 probe lines per view (6 angles
    x 2 depths at stride 2) and 48 lines on its winning view's full grid
    (12 angles x 4 depths).
    """
    spans = load_spans()
    from dualgrasp.refine_parallel import RefineParallelConfig, oracle_search

    cloud, scene, _, _ = small_scene
    cfg = RefineParallelConfig()
    s, v = 3, cfg.n_views
    for chunk_lines, calls in ((1 << 18, 2), (4000, 4)):  # 900 probe pairs go 333 per chunk
        tracer = spans.Tracer()
        with spans.Instrumentation(tracer):
            oracle_search(scene, cloud.points[:s], cfg, cfg.probe_angle_stride, cfg.probe_depth_stride,
                          chunk_lines=chunk_lines)
        assert tracer.counters["scenes.parallel_oracle.lines"] == s * v * 12 + s * 48
        assert tracer.totals()["scenes.parallel_oracle"]["calls"] == calls


def test_clearing_hooks_count_a_real_loop():
    """The clearing hooks read the loop's trace (result[1].attempts) and wrap its pipeline (third argument).

    The scripted pipeline proposes nothing, then a grasp that misses, then a
    grasp that clears an object in each of two rounds: four rounds, three
    attempts.
    """
    spans = load_spans()
    from dualgrasp import clearing
    from dualgrasp.grasps import PARALLEL, Grasps

    from test_clearing import diametral, two_sphere_scene
    from test_scenes import down_grasp

    cloud, scene = two_sphere_scene()
    calls = []

    def pipeline(cloud, scene, gripper):
        calls.append(gripper)
        if len(calls) == 1:
            return Grasps.from_records([]), np.zeros(0, dtype=np.intp)
        grasp = down_grasp(jaw_center=(0.4, 0.4, 0.4), closing=(1, 0, 0)) if len(calls) == 2 \
            else diametral(scene.objects()[0])
        return grasp, np.flatnonzero(scene.per_point_object_id == scene.objects()[0].object_id)[:3]

    tracer = spans.Tracer()
    with spans.Instrumentation(tracer):
        _, trace = clearing.run_clearing_loop(cloud, scene, pipeline, PARALLEL)
    assert trace.attempts == [(-1, False), (1, True), (2, True)]
    assert tracer.counters["clearing.attempts"] == len(trace.attempts)
    totals = tracer.totals()
    assert totals["clearing.round"]["calls"] == len(calls) == 4
    assert totals["clearing.loop"]["calls"] == 1


def test_mlp_spans_count_every_training_step():
    """mlp.backward is one span per optimizer step, and mlp.rows counts every row each step forwards.

    Three prepared scenes of unequal size in batches of two make two steps
    per epoch; the refiner heads run on one scene's seed rows.
    """
    spans = load_spans()
    from dualgrasp.train import PreparedScene, TrainConfig

    training = importlib.import_module("dualgrasp.train")  # the tracer rebinds its train, not a name bound here

    rng = np.random.default_rng(0)
    scenes = []
    for n in (40, 25, 31):
        scenes.append(PreparedScene(features=rng.normal(size=(n, 7)), objectness=(rng.uniform(size=n) > 0.5) * 1.0,
                                    parallel_label=rng.uniform(size=n) * (rng.uniform(size=n) > 0.7),
                                    vacuum_label=rng.uniform(size=n)))
    k = 3
    scenes[0].seed_rows = np.array([4, 17, 30])
    scenes[0].refiner_targets = {"view_scores": rng.uniform(size=(k, 300)), "width": rng.uniform(0.01, 0.1, k),
                                 "angle_idx": rng.integers(0, 12, k), "depth_idx": rng.integers(0, 4, k),
                                 "score_idx": rng.integers(0, 10, k)}
    epochs, steps_per_epoch = 3, 2
    tracer = spans.Tracer()
    with spans.Instrumentation(tracer):
        training.train(scenes, TrainConfig(epochs=epochs, batch_size=2))
    totals = tracer.totals()
    assert totals["train.fit"]["calls"] == 1
    assert totals["mlp.backward"]["calls"] == totals["mlp.forward"]["calls"] == epochs * steps_per_epoch
    assert totals["pcgrad.pcgrad"]["calls"] == epochs * steps_per_epoch
    assert tracer.counters["mlp.rows"] == epochs * sum(len(s.features) for s in scenes)
    assert totals["mlp.backward"]["s"] > 0


def test_fallback_proposer_spans_count_one_map_build_per_state(small_scene):
    """A fallback SceneProposer builds each state's label maps once and proposes once per state and gripper.

    Two states (the full scene and the scene without one object), each asked
    twice for both grippers: the propose spans, which name themselves from
    GraspPipeline.propose's gripper argument, and labels.build count each
    state once. The seed and pose counters, whose hooks read the arguments
    and results of select_seeds, refine_vacuum_poses and
    fallback_refine_batch, add up to the proposals' own counts.
    """
    spans = load_spans()
    from dualgrasp.grasps import PARALLEL, VACUUM
    from dualgrasp.pipeline import GraspPipeline, SceneProposer
    from dualgrasp.sampling import SamplingConfig
    from dualgrasp.scenes import remove_object

    cloud, scene, gt, _ = small_scene
    states = [(cloud, scene), remove_object(cloud, scene, scene.objects()[0].object_id)]
    proposer = SceneProposer(GraspPipeline(sampling=SamplingConfig(m_parallel=16, m_vacuum=16)), scene, gt)
    tracer = spans.Tracer()
    results = {PARALLEL: [], VACUUM: []}
    with spans.Instrumentation(tracer):
        for c, s in states:
            for gripper in (PARALLEL, VACUUM, PARALLEL, VACUUM):
                proposer(c, s, gripper)
            for gripper in results:
                results[gripper].append(proposer.propose(c, s, gripper))
    totals = tracer.totals()
    assert totals["labels.build"]["calls"] == len(states)
    for gripper in (PARALLEL, VACUUM):
        assert totals[f"pipeline.propose.fallback.{gripper}"]["calls"] == len(states)

    def total(gripper, count):
        return sum(count(r) for r in results[gripper])

    counters = tracer.counters
    assert counters["sampling.select_seeds.seeds"] == sum(total(g, lambda r: len(r.seeds)) for g in results)
    assert counters["refine_vacuum.poses.seeds"] == total(VACUUM, lambda r: len(r.seeds)) > 0
    assert counters["refine_vacuum.poses.dropped"] == total(VACUUM, lambda r: r.dropped_seeds)
    assert counters["refine_parallel.fallback_batch.seeds"] == total(PARALLEL, lambda r: len(r.seeds)) > 0
    assert counters["refine_parallel.fallback_batch.grasps"] == total(PARALLEL, lambda r: len(r.grasps))
    assert counters["refine_parallel.fallback_batch.dropped"] == total(PARALLEL, lambda r: r.dropped_seeds)


CHECKS = SPANS.parent / "checks.py"


def test_benchmark_checks_read_synth_and_predict_outputs(tmp_path):
    """dgbench/checks.py reads scenes and grasp files through the package's readers and their row views.

    Its guard turns only parse errors into problems, so a reader it relies
    on (load_scene's grasps with .gripper and .quality_coeff, grasp_from_dict)
    that went missing would crash every benchmark run; here it fails instead.
    """
    spec = importlib.util.spec_from_file_location("dgbench_checks", CHECKS)
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    from dualgrasp.cli import main

    scenes, pred = tmp_path / "scenes", tmp_path / "pred"
    assert main(["synth", "--out", str(scenes), "--scenes", "1", "--objects", "2", "--seed", "3"]) == 0
    assert main(["predict", "--scenes", str(scenes), "--out", str(pred), "--fallback-head",
                 "--max-refine", "16"]) == 0
    stems = ["scene_0000"]
    assert checks.check_synth(scenes, stems) == {"scene_0000": []}
    assert checks.check_predict(pred, stems) == {"scene_0000": []}
