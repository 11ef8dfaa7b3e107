"""The benchmark's tracer must find every function it instruments.

dgbench/spans.py rebinds package functions by name for `--trace 1` runs; a
renamed or deleted function would crash those runs, so it fails here instead.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "dgbench" / "spans.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("dgbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("target", load_targets(), ids=lambda t: f"{t.module}.{t.attr}")
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
    spec = importlib.util.spec_from_file_location("dgbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for target in spans.TARGETS:
        importlib.import_module(f"dualgrasp.{target.module}")
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
