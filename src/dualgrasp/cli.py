"""Command-line entry point: synth | labels | train | predict | eval | export-ply.

Config precedence is CLI flags > config file > built-in defaults. The config
file is a flat key-value text format with dotted section names::

    # comment
    synth.density = 40000
    sampling.t_parallel = 0.1
    train.epochs = 22

A config-backed flag (--epochs, --seeds, ...) sets the keys _FLAG_KEYS names;
build_configs checks and sets its value as it does a config-file value.

Exit codes: 0 success, 1 runtime failure, 2 usage error. Output files carry no
timestamps or hostnames so re-runs with identical seeds are byte-identical.
"""

import argparse
import csv
import json
import sys
from dataclasses import asdict, replace
from dataclasses import fields as dc_fields
from pathlib import Path

import numpy as np

from .clearing import RATIOS, ClearingMetrics, run_clearing_loop
from .domains import COUNT, FINITE, SEED, UsageError, check
from .grasps import GRASP_SCHEMA_VERSION, PARALLEL, VACUUM, Grasps
from .json_io import keys_of, write_json
from .labels import build_label_maps
from .metrics import EvalConfig, ap_mu, ap_overall, grasp_qualities
from .mlp import load_checkpoint, save_checkpoint
from .pipeline import GraspPipeline, SceneProposer
from .ply_io import read_ply, write_ply
from .refine_parallel import RefineParallelConfig
from .sampling import SamplingConfig
from .scenes import (
    SynthConfig,
    generate_scene,
    load_scene,
    sample_ground_truth_grasps,
    save_scene,
)
from .train import TrainConfig, prepare_training_scene, save_history_csv, train
from .visualize import colorize

METRICS_FIELDS = ["record", "scene", "split", "gripper", "mu", "value", *RATIOS,
                  *(f.name for f in dc_fields(ClearingMetrics))]

_SECTIONS = {
    "synth": SynthConfig,
    "sampling": SamplingConfig,
    "refine": RefineParallelConfig,
    "train": TrainConfig,
    "eval": EvalConfig,
}

# the argparse dest of each config-backed flag -> the config keys its value sets
_FLAG_KEYS = {
    "kinds": ("synth.kinds",), "k": ("eval.k_max",),
    "epochs": ("train.epochs",), "batch": ("train.batch_size",), "lr": ("train.lr0",),
    "rng_seed": ("train.rng_seed",), "pcgrad": ("train.pcgrad_enabled",),
    "t_parallel": ("sampling.t_parallel",), "t_vacuum": ("sampling.t_vacuum",),
    "seeds": ("sampling.m_parallel", "sampling.m_vacuum"),
}


def load_config_file(path) -> dict:
    """Parse `section.key = value` lines; values are JSON literals or bare strings."""
    overrides = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'section.key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key.count(".") != 1:
            raise UsageError(f"{path}:{lineno}: key must be 'section.name', got {key!r}")
        try:
            parsed = json.loads(value.strip())
        except json.JSONDecodeError:
            parsed = value.strip()
        overrides[key] = parsed
    return overrides


def build_configs(overrides: dict) -> dict:
    """Instantiate every config dataclass, applying dotted overrides; unknown keys and values
    outside a key's declared domain fail."""
    configs = {name: cls() for name, cls in _SECTIONS.items()}
    for key, value in overrides.items():
        section, _, name = key.partition(".")
        if section not in configs:
            raise UsageError(f"unknown config section {section!r} in key {key!r}")
        cfg = configs[section]
        field = {f.name: f for f in dc_fields(cfg)}.get(name)
        if field is None:
            raise UsageError(f"unknown config key {key!r}")
        check(f"config key {key!r}", field.metadata["domain"], value)
        if isinstance(value, list):
            value = tuple(value)
        configs[section] = replace(cfg, **{name: value})
    if "synth.kinds" in overrides and configs["synth"].kind_sequence:
        raise UsageError("synth.kinds has no effect next to a non-empty synth.kind_sequence; give only one")
    return configs


def _scene_stems(scenes_dir) -> list:
    stems = sorted(p.with_suffix("") for p in Path(scenes_dir).glob("*.ply") if not p.stem.endswith("_rgb"))
    stems = [s for s in stems if s.with_suffix(".json").exists()]
    if not stems:
        raise UsageError(f"no scene .ply/.json pairs found in {scenes_dir}")
    return stems


# -- subcommands -----------------------------------------------------------------


def cmd_synth(args) -> int:
    synth = _configs_from_args(args)["synth"]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for i in range(args.scenes):
        scene_seed = args.seed + i
        cloud, scene = generate_scene(scene_seed, args.objects, synth)
        scene.split = args.split
        grasps = sample_ground_truth_grasps(scene, synth, seed=scene_seed)
        stem = out / f"scene_{i:04d}"
        save_scene(stem, cloud, scene, grasps)
        n_par = int(np.count_nonzero(grasps.gripper == PARALLEL))
        print(f"{stem.name}: {len(cloud)} points, {args.objects} objects, "
              f"{n_par} parallel + {len(grasps) - n_par} vacuum grasp candidates")
    return 0


def cmd_labels(args) -> int:
    cfgs = _configs_from_args(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for stem in _scene_stems(args.scenes):
        cloud, scene, grasps = load_scene(stem)
        maps = build_label_maps(cloud, scene, grasps)
        channels = {name: ch.astype(np.float32) for name, ch in maps.channels().items()}
        write_ply(out / f"{stem.name}_labels.ply", cloud.points, channels=channels)
        for channel in ("graspness_parallel", "graspness_vacuum"):
            write_ply(
                out / f"{stem.name}_{channel}_rgb.ply",
                cloud.points,
                colors=colorize(channels[channel]),
            )
        pos = {name: int((ch > 0).sum()) for name, ch in channels.items()}
        print(f"{stem.name}: labeled {len(cloud)} points, positives {pos}")
    return 0


def cmd_train(args) -> int:
    cfgs = _configs_from_args(args)
    tcfg: TrainConfig = cfgs["train"]
    rcfg: RefineParallelConfig = cfgs["refine"]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    prepared = []
    for stem in _scene_stems(args.scenes):
        cloud, scene, grasps = load_scene(stem)
        prepared.append(prepare_training_scene(cloud, scene, grasps, rcfg))
    model, history = train(prepared, tcfg, rcfg)
    variant = model.meta["variant"]
    save_checkpoint(out / "checkpoint.json", model)
    save_history_csv(out / "train_log.csv", history, variant=variant)
    last = history[-1]
    print(f"variant: {variant}")
    print(f"trained {tcfg.epochs} epochs on {len(prepared)} scenes; "
          f"final losses obj={last['loss_obj']:.4f} vac={last['loss_vac']:.4f} "
          f"par={last['loss_par']:.4f} refiner={last['loss_refiner']:.4f}")
    return 0


def _make_pipeline(args, cfgs) -> GraspPipeline:
    if bool(args.checkpoint) == bool(args.fallback_head):
        raise UsageError("need exactly one of --checkpoint and --fallback-head")
    model = load_checkpoint(args.checkpoint) if args.checkpoint else None
    try:
        return GraspPipeline(
            model=model,
            sampling=cfgs["sampling"],
            refine=cfgs["refine"],
            max_parallel_refine=args.max_refine,
        )
    except ValueError as e:  # e.g. a checkpoint whose refiner heads do not fit the refine grid
        raise UsageError(str(e)) from e


def _predict_one(pipe: GraspPipeline, stem, grippers, out: Path):
    cloud, scene, gt = load_scene(stem)
    proposer = SceneProposer(pipe, scene, gt)
    written = []
    for channel, values in proposer.maps(cloud, scene).channels().items():
        path = out / f"{stem.name}_pred_{channel}_rgb.ply"
        write_ply(path, cloud.points, colors=colorize(values))
        written.append(path.name)
    for gripper in grippers:
        result = proposer.propose(cloud, scene, gripper)
        doc = {
            "schema_version": GRASP_SCHEMA_VERSION,
            "scene": stem.name,
            "split": scene.split,
            "gripper": gripper,
            "status": result.status,
            "dropped_seeds": result.dropped_seeds,
            "grasps": result.grasps.records(),
        }
        path = out / f"{stem.name}_grasps_{gripper}.json"
        write_json(path, doc)
        written.append(path.name)
        print(f"{stem.name} [{gripper}]: {result.status}, {len(result.grasps)} grasps")
    return written


def cmd_predict(args) -> int:
    cfgs = _configs_from_args(args)
    pipe = _make_pipeline(args, cfgs)
    grippers = [PARALLEL, VACUUM] if args.grippers == "both" else [args.grippers]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    stems = _scene_stems(args.scenes)
    jobs = min(args.jobs, len(stems))  # a worker beyond the scene count would sit idle
    if jobs > 1:
        from multiprocessing import Pool

        with Pool(jobs) as pool:
            pool.starmap(_predict_one, [(pipe, stem, grippers, out) for stem in stems])
    else:
        for stem in stems:
            _predict_one(pipe, stem, grippers, out)
    return 0


def cmd_eval(args) -> int:
    given = [a.option_strings[0] for a in args.pipeline_flags if getattr(args, a.dest) is not None]
    if given and not args.clearing:
        raise UsageError(f"{', '.join(given)} only act with --clearing")
    cfgs = _configs_from_args(args)
    ecfg: EvalConfig = cfgs["eval"]
    grasps_dir = Path(args.grasps)
    if not grasps_dir.is_dir():
        raise UsageError(f"--grasps {grasps_dir} is not a directory")
    stems = _scene_stems(args.scenes)
    if not any((grasps_dir / f"{stem.name}_grasps_{gripper}.json").exists()
               for stem in stems for gripper in (PARALLEL, VACUUM)):
        raise UsageError(f"--grasps {grasps_dir} holds no <scene>_grasps_<gripper>.json for any scene")
    pipe = _make_pipeline(args, cfgs) if args.clearing else None
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    rows = []
    summary = {}
    for stem in stems:
        cloud, scene, gt = load_scene(stem)
        for gripper in (PARALLEL, VACUUM):
            gfile = grasps_dir / f"{stem.name}_grasps_{gripper}.json"
            if not gfile.exists():
                continue
            doc = json.loads(gfile.read_text())
            if doc.get("schema_version") != GRASP_SCHEMA_VERSION:
                raise ValueError(f"{gfile}: unsupported grasp schema_version {doc.get('schema_version')!r}")
            with keys_of(gfile):
                grasps = Grasps.from_records(doc["grasps"])
            if np.any(grasps.gripper != gripper):
                raise ValueError(f"{gfile.name} holds a grasp of the other gripper")
            # lists arrive ranked; precision@k never looks past k_max
            qualities, _ = grasp_qualities(grasps.take(slice(0, ecfg.k_max)), scene, gripper)
            for mu in ecfg.mu_grid(gripper):
                rows.append(_ap_row(stem.name, scene.split, gripper, mu, ap_mu(qualities, mu, gripper, ecfg)))
            overall = ap_overall(qualities, gripper, ecfg)
            rows.append(_ap_row(stem.name, scene.split, gripper, None, overall, record="ap_overall"))
            bucket = summary.setdefault(scene.split, {}).setdefault(gripper, [])
            bucket.append(overall)
        if pipe is not None:
            # both grippers clear the same initial scene through one proposer, so the
            # vacuum loop's first round reuses the parallel loop's full-scene maps
            proposer = SceneProposer(pipe, scene, gt)
            for gripper in (PARALLEL, VACUUM):
                metrics, _ = run_clearing_loop(cloud, scene, proposer, gripper)
                rows.append(_clearing_row(stem.name, gripper, metrics))

    rows.sort(key=lambda r: (r["record"], r["scene"], r["gripper"], str(r.get("mu", ""))))
    with open(out / "metrics.csv", "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=METRICS_FIELDS, restval="")
        writer.writeheader()
        writer.writerows(rows)

    doc = {
        "schema_version": 1,
        "k_max": ecfg.k_max,
        "splits": {
            split: {
                gripper: {
                    "n_scenes": len(vals),
                    "ap_overall_mean": float(np.mean(vals)),
                }
                for gripper, vals in by_gripper.items()
            }
            for split, by_gripper in summary.items()
        },
    }
    write_json(out / "summary.json", doc)
    for split, by_gripper in sorted(summary.items()):
        for gripper, vals in sorted(by_gripper.items()):
            print(f"[{split}] {gripper}: AP={np.mean(vals):.4f} over {len(vals)} scenes")
    return 0


def _ap_row(scene, split, gripper, mu, value, record="ap"):
    """A metrics.csv row of AP at one coefficient mu, or over the grid when mu is None."""
    row = dict(record=record, scene=scene, split=split, gripper=gripper, value=repr(float(value)))
    return row if mu is None else {**row, "mu": mu}


def _clearing_row(scene, gripper, m: ClearingMetrics):
    ratios = {name: repr(getattr(m, name)) for name in RATIOS}
    return dict(record="clearing", scene=scene, gripper=gripper, **ratios, **asdict(m))


def cmd_export_ply(args) -> int:
    if args.vmax <= args.vmin:
        raise UsageError("--vmax must exceed --vmin")
    points, _, channels = read_ply(args.input)
    if args.channel not in channels:
        raise UsageError(f"channel {args.channel!r} not in {sorted(channels)}")
    write_ply(args.out, points, colors=colorize(channels[args.channel], args.vmin, args.vmax))
    print(f"wrote {args.out} ({len(points)} points, channel {args.channel})")
    return 0


# -- parser ------------------------------------------------------------------------


def _add_common(p):
    p.add_argument("--config", help="key-value config file (section.key = value)")


def _add_pipeline_args(p) -> list:
    """The grasp pipeline's flags, each None unless given; returns their argparse actions."""
    return [
        p.add_argument("--checkpoint", help="trained model checkpoint JSON"),
        p.add_argument("--fallback-head", action="store_true", default=None,
                       help="use oracle label maps and the geometric grasp head (no model)"),
        p.add_argument("--t-parallel", type=float, help="parallel fused-score threshold"),
        p.add_argument("--t-vacuum", type=float, help="vacuum fused-score threshold"),
        p.add_argument("--seeds", type=int, help="seed count per gripper"),
        p.add_argument("--max-refine", type=_flag(int, COUNT),
                       help="refine only this many best-fused parallel seeds"),
    ]


def _flag(parse, domain):
    """An argparse type for a flag that is not a config key: the parsed text, kept only inside domain."""
    def convert(text):
        value = parse(text)
        if not domain.test(value):
            raise argparse.ArgumentTypeError(f"takes {domain.text}, got {text}")
        return value

    convert.__name__ = parse.__name__  # argparse names it in "invalid int value: 'x'"
    return convert


def _parse_bool(v: str) -> bool:
    if v.lower() in ("1", "true", "yes", "on"):
        return True
    if v.lower() in ("0", "false", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"expected a boolean, got {v!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dualgrasp",
        description="Dual-gripper grasp synthesis, training, and evaluation on synthetic scenes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate synthetic scenes (PLY + JSON sidecar)")
    p.add_argument("--out", required=True)
    p.add_argument("--scenes", type=_flag(int, COUNT), default=1)
    p.add_argument("--objects", type=_flag(int, COUNT), default=5)
    p.add_argument("--seed", type=_flag(int, SEED), default=0)
    p.add_argument("--split", default="default", help="split label stored in the sidecar")
    p.add_argument("--kinds", type=lambda text: text.split(","),
                   help="comma-separated primitive kinds to sample from")
    _add_common(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("labels", help="build graspness label maps for scenes")
    p.add_argument("--scenes", required=True)
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_labels)

    p = sub.add_parser("train", help="train the multitask per-point predictor")
    p.add_argument("--scenes", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--seed", type=int, dest="rng_seed", metavar="SEED")
    p.add_argument("--pcgrad", type=_parse_bool, nargs="?", const=True,
                   help="enable gradient surgery (--pcgrad=false for the ablation)")
    _add_common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="run the grasp pipeline on scenes")
    p.add_argument("--scenes", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--grippers", choices=["both", PARALLEL, VACUUM], default="both")
    p.add_argument("--jobs", type=_flag(int, COUNT), default=1)
    _add_pipeline_args(p)
    _add_common(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("eval", help="AP metrics (and optional clearing loop) against the oracles")
    p.add_argument("--scenes", required=True)
    p.add_argument("--grasps", required=True, help="directory of predict outputs")
    p.add_argument("--out", required=True)
    p.add_argument("--k", type=int, help="k_max for Precision@k")
    p.add_argument("--clearing", action="store_true", help="also simulate clearing runs")
    pipeline_flags = _add_pipeline_args(p)
    _add_common(p)
    p.set_defaults(func=cmd_eval, pipeline_flags=pipeline_flags)

    p = sub.add_parser("export-ply", help="colorize a scalar channel of a PLY file")
    p.add_argument("--input", required=True)
    p.add_argument("--channel", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--vmin", type=_flag(float, FINITE), default=0.0)
    p.add_argument("--vmax", type=_flag(float, FINITE), default=1.0)
    _add_common(p)
    p.set_defaults(func=cmd_export_ply)
    return parser


def _configs_from_args(args) -> dict:
    """The configs of the config file's keys with every config-backed flag given laid over them."""
    overrides = load_config_file(args.config) if args.config else {}
    for dest, keys in _FLAG_KEYS.items():
        if (value := getattr(args, dest, None)) is not None:
            overrides.update(dict.fromkeys(keys, value))
    return build_configs(overrides)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # runtime failure -> exit 1 with a message
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
