"""Metric names, units and how each is read from a run.

END_TO_END and PER_LAYER are the names BENCHMARK.json lists; the benchmark's
tests hold the two in step.
"""

from dualgrasp.grasps import PARALLEL, VACUUM

# (name, unit, better)
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("total_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("ap_vacuum", "ratio", "higher"),
]


def _span(span: str, field: str):
    return lambda t: t["totals"].get(span, {}).get(field, 0)


def _count(name: str):
    return lambda t: t["counters"].get(name, 0)


def _ratio(num, den):
    return lambda t: num(t) / den(t) if den(t) else 0.0


def _get(group: str, key: str):
    return lambda t: t[group].get(key, 0.0)


def _timed(span: str):
    """<span>.self_s and <span>.calls."""
    return [(f"{span}.self_s", "s", _span(span, "self_s")), (f"{span}.calls", "count", _span(span, "calls"))]


# (name, unit, reader of {"totals", "counters", "quality", "cli", "trace"})
PER_LAYER = [
    *_timed("scenes.parallel_oracle"),
    ("scenes.parallel_oracle.lines", "count", _count("scenes.parallel_oracle.lines")),
    ("scenes.generate_s", "s", _span("scenes.generate", "s")),
    ("scenes.gt_grasps_s", "s", _span("scenes.gt_grasps", "s")),
    *_timed("scenes.seal_oracle"),
    *_timed("labels.build"),
    ("ply_io.write_s", "s", _span("ply_io.write", "s")),
    ("ply_io.bytes_written", "B", _count("ply_io.bytes_written")),
    ("ply_io.read_s", "s", _span("ply_io.read", "s")),
    ("features.compute.self_s", "s", _span("features.compute", "self_s")),
    ("features.compute.points", "count", _count("features.compute.points")),
    ("mlp.forward_s", "s", _span("mlp.forward", "s")),
    ("mlp.backward_s", "s", _span("mlp.backward", "s")),
    ("mlp.rows", "count", _count("mlp.rows")),
    ("pcgrad.s", "s", _span("pcgrad.pcgrad", "s")),
    ("train.prepare_scene_s", "s", _span("train.prepare_scene", "s")),
    ("train.fit_s", "s", _span("train.fit", "s")),
    ("cloud.index_builds", "count", _span("cloud.index_build", "calls")),
    ("cloud.estimate_normal_calls", "count", _span("cloud.estimate_normal", "calls")),
    ("cloud.fps_s", "s", _span("cloud.fps", "s")),
    ("sampling.select_seeds.self_s", "s", _span("sampling.select_seeds", "self_s")),
    ("sampling.select_seeds.candidates", "count", _count("sampling.select_seeds.candidates")),
    ("sampling.select_seeds.seeds", "count", _count("sampling.select_seeds.seeds")),
    ("refine_parallel.fallback_batch.self_s", "s", _span("refine_parallel.fallback_batch", "self_s")),
    *[(f"refine_parallel.fallback_batch.{k}", "count", _count(f"refine_parallel.fallback_batch.{k}"))
      for k in ("seeds", "grasps", "dropped")],
    ("refine_parallel.fallback_batch.grasps_per_seed", "ratio",
     _ratio(_count("refine_parallel.fallback_batch.grasps"), _count("refine_parallel.fallback_batch.seeds"))),
    *_timed("refine_parallel.cylinder_group"),
    ("refine_vacuum.poses.self_s", "s", _span("refine_vacuum.poses", "self_s")),
    ("refine_vacuum.poses.seeds", "count", _count("refine_vacuum.poses.seeds")),
    ("refine_vacuum.poses.dropped", "count", _count("refine_vacuum.poses.dropped")),
    *[(f"pipeline.propose.{mode}.{g}.{field}", unit, _span(f"pipeline.propose.{mode}.{g}", key))
      for mode in ("fallback", "model") for g in (PARALLEL, VACUUM)
      for field, unit, key in (("s", "s", "s"), ("calls", "count", "calls"))],
    ("pipeline.no_region_share", "ratio", _get("quality", "no_region_share")),
    ("metrics.grasp_qualities.self_s", "s", _span("metrics.grasp_qualities", "self_s")),
    ("metrics.grasp_qualities.grasps", "count", _count("metrics.grasp_qualities.grasps")),
    ("metrics.ap_parallel", "ratio", _get("quality", "ap_parallel")),
    ("metrics.ap_vacuum", "ratio", _get("quality", "ap_vacuum")),
    ("clearing.round_s", "s", _ratio(_span("clearing.round", "s"), _span("clearing.round", "calls"))),
    ("clearing.rounds", "count", _span("clearing.round", "calls")),
    ("clearing.attempts", "count", _count("clearing.attempts")),
    ("clearing.r_object_parallel", "ratio", _get("quality", "r_object_parallel")),
    ("clearing.r_object_vacuum", "ratio", _get("quality", "r_object_vacuum")),
    *[(f"cli.{step}_s", "s", _get("cli", step)) for step in ("synth", "labels", "train", "predict", "eval")],
    ("trace.overhead_s", "s", _get("trace", "overhead_s")),
]


def per_layer(totals: dict, counters: dict, quality: dict, cli_s: dict, overhead_s: float) -> dict:
    """{name: value} of every PER_LAYER metric for one traced repetition."""
    t = {"totals": totals, "counters": counters, "quality": quality, "cli": cli_s,
         "trace": {"overhead_s": overhead_s}}
    return {name: read(t) for name, _, read in PER_LAYER}
