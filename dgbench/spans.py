"""In-memory spans and counters around the public functions of dualgrasp.

A span records (name, start, end, parent). Spans are taken by rebinding each
instrumented function in every loaded ``dualgrasp`` module that holds it, and
on the class for methods, so a call is seen whichever import path the caller
used (``parallel_quality_batch`` is held by ``scenes``, ``refine_parallel``
and ``clearing``). Nothing in the package itself is edited; ``uninstall``
puts every original back.

A span's self time is its duration minus the part of it that its child spans
cover. Counters are added at the same call boundaries.
"""

import functools
import os
import sys
import time
from dataclasses import dataclass

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in Tracer.spans, -1 for a root


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = {}
        self._stack = []

    def count(self, name: str, n=1):
        self.counters[name] = self.counters.get(name, 0) + n

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called name."""
        index = len(self.spans)
        span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1)
        self.spans.append(span)
        self._stack.append(index)
        span.start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def totals(self) -> dict:
        """name -> {"s": seconds inside the spans, "self_s": self seconds, "calls": count}."""
        children = {}
        for i, span in enumerate(self.spans):
            if span.parent >= 0:
                children.setdefault(span.parent, []).append(i)
        out = {}
        for i, span in enumerate(self.spans):
            entry = out.setdefault(span.name, {"s": 0.0, "self_s": 0.0, "calls": 0})
            duration = span.end - span.start
            entry["s"] += duration
            entry["self_s"] += duration - _covered(span, [self.spans[c] for c in children.get(i, [])])
            entry["calls"] += 1
        return out


def _covered(span: Span, kids) -> float:
    """Length of the union of the child intervals, clipped to the span."""
    total, reach = 0.0, span.start
    for kid in sorted(kids, key=lambda k: k.start):
        lo, hi = max(kid.start, reach), min(kid.end, span.end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


# -- what is instrumented ---------------------------------------------------------


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_lines(t, args, kwargs, result):
    t.count("scenes.parallel_oracle.lines", len(np.atleast_2d(_arg(args, kwargs, 1, "jaw_centers"))))


def _count_bytes(t, args, kwargs, result):
    t.count("ply_io.bytes_written", os.path.getsize(_arg(args, kwargs, 0, "path")))


def _count_feature_points(t, args, kwargs, result):
    t.count("features.compute.points", len(_arg(args, kwargs, 0, "cloud")))


def _count_rows(t, args, kwargs, result):
    t.count("mlp.rows", len(_arg(args, kwargs, 1, "features")))


def _count_seeds(t, args, kwargs, result):
    fused = np.asarray(_arg(args, kwargs, 1, "fused"))
    threshold = _arg(args, kwargs, 2, "threshold")
    t.count("sampling.select_seeds.candidates", int(np.count_nonzero(fused > threshold)))
    t.count("sampling.select_seeds.seeds", len(result))


def _count_fallback(t, args, kwargs, result):
    grasps, dropped = result
    t.count("refine_parallel.fallback_batch.seeds", len(_arg(args, kwargs, 2, "seed_indices")))
    t.count("refine_parallel.fallback_batch.grasps", len(grasps))
    t.count("refine_parallel.fallback_batch.dropped", dropped)


def _count_vacuum(t, args, kwargs, result):
    t.count("refine_vacuum.poses.seeds", len(_arg(args, kwargs, 1, "seeds")))
    t.count("refine_vacuum.poses.dropped", result[1])


def _count_graded(t, args, kwargs, result):
    t.count("metrics.grasp_qualities.grasps", len(_arg(args, kwargs, 0, "grasps")))


def _count_attempts(t, args, kwargs, result):
    t.count("clearing.attempts", len(result[1].attempts))


def _propose_name(args, kwargs):
    pipe, gripper = args[0], _arg(args, kwargs, 3, "gripper")
    mode = "fallback" if pipe.model is None else "model"
    return f"pipeline.propose.{mode}.{gripper}"


@dataclass(frozen=True)
class Target:
    module: str
    attr: str  # "function" or "Class.method"
    name: object  # span name, or a callable of (args, kwargs) giving it
    hook: object = None  # counter hook (tracer, args, kwargs, result)
    prepare: object = None  # (tracer, args, kwargs) -> (args, kwargs) before the call


def _traced_rounds(tracer: Tracer, args, kwargs):
    """Hand run_clearing_loop(cloud, scene, pipeline, ...) a pipeline whose every call is a round span."""
    inner = args[2]
    return args[:2] + (lambda *a: tracer.call("clearing.round", inner, *a),) + args[3:], kwargs


TARGETS = [
    Target("scenes", "parallel_quality_batch", "scenes.parallel_oracle", _count_lines),
    Target("scenes", "generate_scene", "scenes.generate"),
    Target("scenes", "sample_ground_truth_grasps", "scenes.gt_grasps"),
    Target("scenes", "oracle_seal_quality", "scenes.seal_oracle"),
    Target("labels", "build_label_maps", "labels.build"),
    Target("ply_io", "write_ply", "ply_io.write", _count_bytes),
    Target("ply_io", "read_ply", "ply_io.read"),
    Target("features", "compute_point_features", "features.compute", _count_feature_points),
    Target("mlp", "MlpModel.forward", "mlp.forward", _count_rows),
    Target("mlp", "MlpModel.backward", "mlp.backward"),
    Target("pcgrad", "pcgrad", "pcgrad.pcgrad"),
    Target("train", "prepare_training_scene", "train.prepare_scene"),
    Target("train", "train", "train.fit"),
    Target("cloud", "SpatialIndex.__init__", "cloud.index_build"),
    Target("cloud", "estimate_normal", "cloud.estimate_normal"),
    Target("cloud", "farthest_point_sampling", "cloud.fps"),
    Target("sampling", "select_seeds", "sampling.select_seeds", _count_seeds),
    Target("refine_parallel", "fallback_refine_batch", "refine_parallel.fallback_batch", _count_fallback),
    Target("refine_parallel", "cylinder_group", "refine_parallel.cylinder_group"),
    Target("refine_vacuum", "refine_vacuum_poses", "refine_vacuum.poses", _count_vacuum),
    Target("pipeline", "GraspPipeline.propose", _propose_name),
    Target("metrics", "grasp_qualities", "metrics.grasp_qualities", _count_graded),
    Target("clearing", "run_clearing_loop", "clearing.loop", _count_attempts, _traced_rounds),
]


def _wrap(tracer: Tracer, fn, target: Target):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        name = target.name(args, kwargs) if callable(target.name) else target.name
        if target.prepare is not None:
            args, kwargs = target.prepare(tracer, args, kwargs)
        result = tracer.call(name, fn, *args, **kwargs)
        if target.hook is not None:
            target.hook(tracer, args, kwargs, result)
        return result

    return wrapper


class Instrumentation:
    """Rebinds every TARGETS entry to a span-recording wrapper while installed."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo = []

    def install(self):
        for target in TARGETS:
            module = sys.modules[f"dualgrasp.{target.module}"]
            if "." in target.attr:
                cls_name, method = target.attr.split(".")
                cls = getattr(module, cls_name)
                self._set(cls, method, _wrap(self.tracer, vars(cls)[method], target))
                continue
            original = getattr(module, target.attr)
            wrapper = _wrap(self.tracer, original, target)
            for holder in _package_modules():
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._set(holder, key, wrapper)
        return self

    def uninstall(self):
        while self._undo:
            holder, key, original = self._undo.pop()
            setattr(holder, key, original)

    def _set(self, holder, key, value):
        self._undo.append((holder, key, vars(holder)[key]))
        setattr(holder, key, value)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()


def _package_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "dualgrasp" or n.startswith("dualgrasp."))]
