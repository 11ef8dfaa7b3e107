"""Tests of the benchmark itself, at a tiny size.

    python3 -m pytest dgbench -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.load_package(run.ROOT)

import report  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

TINY = ("synth.density = 3000", "sampling.m_parallel = 16", "sampling.m_vacuum = 16",
        "train.epochs = 2", "refine.n_views = 24")


def tiny(name: str) -> workloads.Size:
    return workloads.Size(1, workloads.WORKLOADS[name].size.objects, TINY)


def test_benchmark_json_lists_what_the_run_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "dgbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == report.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [(n, u) for n, u, _ in report.PER_LAYER]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_is_correct_and_reports_every_metric(name, trace, tmp_path):
    doc, lines = run.run_workload(name, 3, 1, trace, size=tiny(name), work_root=tmp_path)
    assert doc["correct"], lines
    assert doc["failed"] == 0 and doc["attempted"] > 0
    names = [n for n, _, _ in (report.PER_LAYER if trace else report.END_TO_END)]
    assert list(doc["metrics"]) == names
    assert all(math.isfinite(m["value"]) for m in doc["metrics"].values())
    assert list(tmp_path.iterdir()) == []  # the work directory is removed


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_repetition_writes_the_same_outputs(name, tmp_path):
    bench = workloads.Run(workloads.Workload(name, "", tiny(name), workloads.WORKLOADS[name].steps),
                          3, tmp_path / "work")
    bench.set_up()
    plain = bench.repeat()
    tracer = spans.Tracer()
    traced = bench.repeat(tracer)
    assert plain.failed == traced.failed == 0
    assert plain.digest == traced.digest
    assert tracer.spans


def test_each_batch_runs_on_its_own_scenes(tmp_path):
    name = "fallback-clearing"
    bench = workloads.Run(workloads.Workload(name, "", tiny(name), workloads.WORKLOADS[name].steps),
                          3, tmp_path / "work")
    bench.set_up()
    first, second, again = bench.repeat(batch=0), bench.repeat(batch=1), bench.repeat(batch=0)
    assert first.failed == second.failed == again.failed == 0
    assert first.digest == again.digest != second.digest
    assert second.attempted > first.attempted  # the batch's input scenes are checked too


def test_layers_that_do_not_run_read_zero(tmp_path):
    doc, _ = run.run_workload("fallback-clearing", 3, 1, True, size=tiny("fallback-clearing"), work_root=tmp_path)
    m = {k: v["value"] for k, v in doc["metrics"].items()}
    assert m["features.compute.self_s"] == 0 and m["mlp.forward_s"] == 0 and m["cli.train_s"] == 0
    assert m["scenes.parallel_oracle.self_s"] > 0 and m["refine_parallel.fallback_batch.seeds"] > 0


def test_instrumentation_is_undone():
    from dualgrasp import clearing, mlp, refine_parallel, scenes

    before = (scenes.parallel_quality_batch, refine_parallel.parallel_quality_batch,
              clearing.parallel_quality_batch, vars(mlp.MlpModel)["forward"])
    with spans.Instrumentation(spans.Tracer()):
        assert scenes.parallel_quality_batch is not before[0]
        assert refine_parallel.parallel_quality_batch is scenes.parallel_quality_batch
        assert clearing.parallel_quality_batch is scenes.parallel_quality_batch
    after = (scenes.parallel_quality_batch, refine_parallel.parallel_quality_batch,
             clearing.parallel_quality_batch, vars(mlp.MlpModel)["forward"])
    assert after == before


def test_self_time_excludes_children():
    t = spans.Tracer()
    t.spans = [spans.Span("outer", 0.0, 10.0, -1), spans.Span("a", 1.0, 4.0, 0),
               spans.Span("a", 3.0, 5.0, 0), spans.Span("b", 6.0, 7.0, 0), spans.Span("c", 6.2, 6.5, 3)]
    totals = t.totals()
    assert totals["outer"]["self_s"] == pytest.approx(10.0 - 4.0 - 1.0)  # a's overlap counts once
    assert totals["b"]["s"] == pytest.approx(1.0)
    assert totals["b"]["self_s"] == pytest.approx(0.7)
    assert totals["a"]["calls"] == 2


def test_without_the_package_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "dgbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "dgbench/run.py", "--workload", "dataset-build", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
