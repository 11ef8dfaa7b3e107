"""Command-line entry point: synth | labels | train | predict | eval | export-ply.

Config precedence is CLI flags > config file > built-in defaults. The config
file is a flat key-value text format with dotted section names::

    # comment
    synth.density = 40000
    sampling.t_parallel = 0.1
    train.epochs = 22

Exit codes: 0 success, 1 runtime failure, 2 usage error. Output files carry no
timestamps or hostnames so re-runs with identical seeds are byte-identical.
"""

import argparse
import csv
import json
import sys
from dataclasses import fields as dc_fields
from dataclasses import replace
from pathlib import Path

import numpy as np

from .features import FeatureConfig
from .grasps import PARALLEL, VACUUM, grasp_to_dict
from .labels import LabelConfig, build_label_maps
from .metrics import EvalConfig, ap_mu, ap_overall, grasp_qualities
from .mlp import ModelConfig, load_checkpoint, save_checkpoint
from .pipeline import GraspPipeline, grasp_target_ids
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

GRASP_FILE_SCHEMA_VERSION = 1
METRICS_FIELDS = [
    "record", "scene", "split", "gripper", "mu", "value",
    "r_object", "r_grasp", "r_mix", "r_seen",
    "objects_total", "objects_cleared", "grasps_total", "grasps_successful",
    "grasps_on_cleared", "objects_detected",
]

_SECTIONS = {
    "synth": SynthConfig,
    "labels": LabelConfig,
    "sampling": SamplingConfig,
    "refine": RefineParallelConfig,
    "train": TrainConfig,
    "eval": EvalConfig,
    "features": FeatureConfig,
}


class UsageError(ValueError):
    pass


def _replace_config(cfg, **changes):
    """dataclasses.replace whose validation errors are usage errors (exit 2)."""
    try:
        return replace(cfg, **changes)
    except ValueError as e:
        raise UsageError(f"invalid {type(cfg).__name__}: {e}") from e


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
    """Instantiate every config dataclass, applying dotted overrides; unknown keys fail."""
    configs = {name: cls() for name, cls in _SECTIONS.items()}
    for key, value in overrides.items():
        section, _, name = key.partition(".")
        if section not in configs:
            raise UsageError(f"unknown config section {section!r} in key {key!r}")
        cfg = configs[section]
        field_types = {f.name: f for f in dc_fields(cfg)}
        if name not in field_types:
            raise UsageError(f"unknown config key {key!r}")
        current = getattr(cfg, name)
        if isinstance(current, tuple) and isinstance(value, list):
            value = tuple(tuple(v) if isinstance(v, list) else v for v in value)
        configs[section] = _replace_config(cfg, **{name: value})
    return configs


def _scene_stems(scenes_dir) -> list:
    stems = sorted(p.with_suffix("") for p in Path(scenes_dir).glob("*.ply") if not p.stem.endswith("_rgb"))
    stems = [s for s in stems if s.with_suffix(".json").exists()]
    if not stems:
        raise UsageError(f"no scene .ply/.json pairs found in {scenes_dir}")
    return stems


def _write_json(path, doc):
    with open(path, "w") as f:
        json.dump(doc, f, sort_keys=True, separators=(",", ":"))
        f.write("\n")


# -- subcommands -----------------------------------------------------------------


def cmd_synth(args) -> int:
    if args.objects < 1:
        raise UsageError("--objects must be >= 1")
    if args.scenes < 1:
        raise UsageError("--scenes must be >= 1")
    cfgs = _configs_from_args(args)
    synth = cfgs["synth"]
    if args.kinds:
        synth = _replace_config(synth, kinds=tuple(args.kinds.split(",")))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for i in range(args.scenes):
        scene_seed = args.seed + i
        cloud, scene = generate_scene(scene_seed, args.objects, synth)
        scene.split = args.split
        grasps = sample_ground_truth_grasps(scene, synth, seed=scene_seed)
        stem = out / f"scene_{i:04d}"
        save_scene(stem, cloud, scene, grasps)
        n_par = sum(1 for g in grasps if g.gripper == PARALLEL)
        print(f"{stem.name}: {len(cloud)} points, {args.objects} objects, "
              f"{n_par} parallel + {len(grasps) - n_par} vacuum grasp candidates")
    return 0


def cmd_labels(args) -> int:
    cfgs = _configs_from_args(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for stem in _scene_stems(args.scenes):
        cloud, scene, grasps = load_scene(stem)
        maps = build_label_maps(cloud, scene, grasps, cfgs["labels"])
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
    tcfg = _replace_config(
        tcfg,
        epochs=args.epochs if args.epochs is not None else tcfg.epochs,
        batch_size=args.batch if args.batch is not None else tcfg.batch_size,
        lr0=args.lr if args.lr is not None else tcfg.lr0,
        rng_seed=args.seed if args.seed is not None else tcfg.rng_seed,
        pcgrad_enabled=args.pcgrad if args.pcgrad is not None else tcfg.pcgrad_enabled,
    )
    rcfg: RefineParallelConfig = cfgs["refine"]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    prepared = []
    for stem in _scene_stems(args.scenes):
        cloud, scene, grasps = load_scene(stem)
        prepared.append(
            prepare_training_scene(cloud, scene, grasps, cfgs["labels"], rcfg, tcfg, cfgs["features"])
        )
    mcfg = ModelConfig(
        feature_dim=prepared[0].features.shape[1],
        n_views=rcfg.n_views,
        n_angle_bins=rcfg.n_angle_bins,
        n_depth_bins=len(rcfg.depth_bins),
        n_score_bins=rcfg.n_score_bins,
    )
    model, history = train(prepared, tcfg, mcfg)
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
    model = None
    if args.checkpoint:
        model = load_checkpoint(args.checkpoint)
    elif not args.fallback_head:
        raise UsageError("need --checkpoint or --fallback-head")
    if args.max_refine is not None and args.max_refine < 1:
        raise UsageError("--max-refine must be >= 1")
    sampling: SamplingConfig = cfgs["sampling"]
    if args.t_parallel is not None:
        sampling = _replace_config(sampling, t_parallel=args.t_parallel)
    if args.t_vacuum is not None:
        sampling = _replace_config(sampling, t_vacuum=args.t_vacuum)
    if args.seeds is not None:
        sampling = _replace_config(sampling, m_parallel=args.seeds, m_vacuum=args.seeds)
    try:
        return GraspPipeline(
            model=model,
            sampling=sampling,
            refine=cfgs["refine"],
            label_config=cfgs["labels"],
            feature_config=cfgs["features"],
            max_parallel_refine=args.max_refine,
        )
    except ValueError as e:  # e.g. a checkpoint whose view head does not fit refine.n_views
        raise UsageError(str(e)) from e


def _predict_one(pipe: GraspPipeline, stem, grippers, out: Path):
    cloud, scene, gt = load_scene(stem)
    maps, feats = pipe.predict_maps(cloud, scene, gt)
    written = []
    for channel, values in maps.channels().items():
        path = out / f"{stem.name}_pred_{channel}_rgb.ply"
        write_ply(path, cloud.points, colors=colorize(values))
        written.append(path.name)
    for gripper in grippers:
        result = pipe.propose(cloud, scene, gripper, gt_grasps=gt, maps=maps, feats=feats)
        doc = {
            "schema_version": GRASP_FILE_SCHEMA_VERSION,
            "scene": stem.name,
            "split": scene.split,
            "gripper": gripper,
            "status": result.status,
            "dropped_seeds": result.dropped_seeds,
            "grasps": [grasp_to_dict(g) for g in result.grasps],
        }
        path = out / f"{stem.name}_grasps_{gripper}.json"
        _write_json(path, doc)
        written.append(path.name)
        print(f"{stem.name} [{gripper}]: {result.status}, {len(result.grasps)} grasps")
    return written


def cmd_predict(args) -> int:
    if args.jobs < 1:
        raise UsageError("--jobs must be >= 1")
    cfgs = _configs_from_args(args)
    pipe = _make_pipeline(args, cfgs)
    grippers = [PARALLEL, VACUUM] if args.grippers == "both" else [args.grippers]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    stems = _scene_stems(args.scenes)
    if args.jobs > 1:
        from multiprocessing import Pool

        with Pool(args.jobs) as pool:
            pool.starmap(_predict_one, [(pipe, stem, grippers, out) for stem in stems])
    else:
        for stem in stems:
            _predict_one(pipe, stem, grippers, out)
    return 0


def cmd_eval(args) -> int:
    cfgs = _configs_from_args(args)
    ecfg: EvalConfig = cfgs["eval"]
    if args.k is not None:
        ecfg = _replace_config(ecfg, k_max=args.k)
    grasps_dir = Path(args.grasps)
    if not grasps_dir.is_dir():
        raise UsageError(f"--grasps {grasps_dir} is not a directory")
    pipe = _make_pipeline(args, cfgs) if args.clearing else None
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    rows = []
    summary = {}
    for stem in _scene_stems(args.scenes):
        cloud, scene, gt = load_scene(stem)
        for gripper in (PARALLEL, VACUUM):
            gfile = grasps_dir / f"{stem.name}_grasps_{gripper}.json"
            if not gfile.exists():
                continue
            doc = json.loads(gfile.read_text())
            from .grasps import grasp_from_dict

            # lists arrive ranked; precision@k never looks past k_max
            grasps = [grasp_from_dict(d) for d in doc["grasps"][: ecfg.k_max]]
            qualities = grasp_qualities(grasps, scene, gripper, ecfg)
            for mu in ecfg.mu_grid(gripper):
                rows.append(_ap_row(stem.name, scene.split, gripper, mu,
                                    ap_mu(grasps, scene, mu, gripper, ecfg, qualities)))
            overall = ap_overall(grasps, scene, gripper, ecfg, qualities)
            rows.append(_ap_row(stem.name, scene.split, gripper, None, overall, record="ap_overall"))
            bucket = summary.setdefault(scene.split, {}).setdefault(gripper, [])
            bucket.append(overall)

    if pipe is not None:
        for stem in _scene_stems(args.scenes):
            for gripper in (PARALLEL, VACUUM):
                metrics = _run_clearing(pipe, stem, gripper, ecfg)
                rows.append(_clearing_row(stem.name, gripper, metrics))

    rows.sort(key=lambda r: (r["record"], r["scene"], r["gripper"], str(r["mu"])))
    with open(out / "metrics.csv", "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=METRICS_FIELDS)
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
    _write_json(out / "summary.json", doc)
    for split, by_gripper in sorted(summary.items()):
        for gripper, vals in sorted(by_gripper.items()):
            print(f"[{split}] {gripper}: AP={np.mean(vals):.4f} over {len(vals)} scenes")
    return 0


def _run_clearing(pipe, stem, gripper, ecfg):
    from .clearing import run_clearing_loop

    cloud, scene, gt = load_scene(stem)
    adapter = pipe.clearing_adapter(gt_grasps=gt, object_of_grasp=grasp_target_ids(scene, gt))
    metrics, _ = run_clearing_loop(cloud, scene, adapter, gripper, ecfg)
    return metrics


def _ap_row(scene, split, gripper, mu, value, record="ap"):
    row = {k: "" for k in METRICS_FIELDS}
    row.update(record=record, scene=scene, split=split, gripper=gripper,
               mu="" if mu is None else mu, value=repr(float(value)))
    return row


def _clearing_row(scene, gripper, m):
    row = {k: "" for k in METRICS_FIELDS}
    row.update(
        record="clearing", scene=scene, gripper=gripper, mu="", value="",
        r_object=repr(m.r_object), r_grasp=repr(m.r_grasp), r_mix=repr(m.r_mix),
        r_seen=repr(m.r_seen), objects_total=m.objects_total,
        objects_cleared=m.objects_cleared, grasps_total=m.grasps_total,
        grasps_successful=m.grasps_successful, grasps_on_cleared=m.grasps_on_cleared,
        objects_detected=m.objects_detected,
    )
    return row


def cmd_export_ply(args) -> int:
    points, _, channels = read_ply(args.input)
    if args.channel not in channels:
        raise UsageError(f"channel {args.channel!r} not in {sorted(channels)}")
    write_ply(args.out, points, colors=colorize(channels[args.channel], args.vmin, args.vmax))
    print(f"wrote {args.out} ({len(points)} points, channel {args.channel})")
    return 0


# -- parser ------------------------------------------------------------------------


def _add_common(p):
    p.add_argument("--config", help="key-value config file (section.key = value)")


def _add_pipeline_args(p):
    p.add_argument("--checkpoint", help="trained model checkpoint JSON")
    p.add_argument("--fallback-head", action="store_true",
                   help="use oracle label maps and the geometric grasp head (no model)")
    p.add_argument("--t-parallel", type=float, default=None, help="parallel fused-score threshold")
    p.add_argument("--t-vacuum", type=float, default=None, help="vacuum fused-score threshold")
    p.add_argument("--seeds", type=int, default=None, help="seed count per gripper")
    p.add_argument("--max-refine", type=int, default=None,
                   help="refine only this many best-fused parallel seeds")


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
    p.add_argument("--scenes", type=int, default=1)
    p.add_argument("--objects", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--split", default="default", help="split label stored in the sidecar")
    p.add_argument("--kinds", help="comma-separated primitive kinds to sample from")
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
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--batch", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--pcgrad", type=_parse_bool, default=None, nargs="?", const=True,
                   help="enable gradient surgery (--pcgrad=false for the ablation)")
    _add_common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="run the grasp pipeline on scenes")
    p.add_argument("--scenes", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--grippers", choices=["both", PARALLEL, VACUUM], default="both")
    p.add_argument("--jobs", type=int, default=1)
    _add_pipeline_args(p)
    _add_common(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("eval", help="AP metrics (and optional clearing loop) against the oracles")
    p.add_argument("--scenes", required=True)
    p.add_argument("--grasps", required=True, help="directory of predict outputs")
    p.add_argument("--out", required=True)
    p.add_argument("--k", type=int, default=None, help="k_max for Precision@k")
    p.add_argument("--clearing", action="store_true", help="also simulate clearing runs")
    _add_pipeline_args(p)
    _add_common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("export-ply", help="colorize a scalar channel of a PLY file")
    p.add_argument("--input", required=True)
    p.add_argument("--channel", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--vmin", type=float, default=0.0)
    p.add_argument("--vmax", type=float, default=1.0)
    _add_common(p)
    p.set_defaults(func=cmd_export_ply)
    return parser


def _configs_from_args(args) -> dict:
    overrides = load_config_file(args.config) if getattr(args, "config", None) else {}
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
