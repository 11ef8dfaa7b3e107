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
