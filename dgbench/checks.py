"""Output checks, quality figures and the output digest of one repetition.

Each check returns {scene stem: [problem, ...]} for the scenes it covers; an
empty list means the scene's output for that subcommand is valid. Files are
parsed with the package's own readers, so a file that does not load is a
problem too.
"""

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

from dualgrasp.grasps import PARALLEL, VACUUM, grasp_from_dict
from dualgrasp.mlp import load_checkpoint
from dualgrasp.ply_io import read_ply
from dualgrasp.scenes import load_scene

GRIPPERS = (PARALLEL, VACUUM)
STATUSES = ("ok", "no graspable region")
LABEL_CHANNELS = ("objectness", "graspness_parallel", "graspness_vacuum")


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def _guard(problems: list, fn, *args):
    """Run one check, turning a parse failure into a problem."""
    try:
        problems.extend(fn(*args))
    except (OSError, ValueError, KeyError, TypeError, IndexError) as e:
        problems.append(f"{type(e).__name__}: {e}")


def _scene_problems(stem: Path):
    cloud, scene, grasps = load_scene(stem)
    problems = []
    if len(cloud) == 0:
        problems.append("empty cloud")
    if {g.gripper for g in grasps} != set(GRIPPERS):
        problems.append("ground-truth grasps miss a gripper")
    if not all(_finite(float(g.quality_coeff)) for g in grasps):
        problems.append("non-finite ground-truth quality")
    return problems


def check_synth(scenes_dir: Path, stems) -> dict:
    out = {}
    for stem in stems:
        out[stem] = []
        _guard(out[stem], _scene_problems, scenes_dir / stem)
    return out


def _label_problems(labels_dir: Path, scenes_dir: Path, stem: str):
    points, _, channels = read_ply(labels_dir / f"{stem}_labels.ply")
    scene_points, _, _ = read_ply(scenes_dir / f"{stem}.ply")
    problems = []
    if len(points) != len(scene_points):
        problems.append("label map does not cover the scene cloud")
    for name in LABEL_CHANNELS:
        values = channels[name]
        if not (np.all(np.isfinite(values)) and values.min() >= 0.0 and values.max() <= 1.0):
            problems.append(f"channel {name} outside [0, 1]")
    for name in ("graspness_parallel", "graspness_vacuum"):
        _, colors, _ = read_ply(labels_dir / f"{stem}_{name}_rgb.ply")
        if colors is None or len(colors) != len(points):
            problems.append(f"{name} colour file does not match the cloud")
    return problems


def check_labels(labels_dir: Path, scenes_dir: Path, stems) -> dict:
    out = {}
    for stem in stems:
        out[stem] = []
        _guard(out[stem], _label_problems, labels_dir, scenes_dir, stem)
    return out


def _train_problems(model_dir: Path, epochs: int):
    load_checkpoint(model_dir / "checkpoint.json")
    with open(model_dir / "train_log.csv") as f:
        rows = list(csv.DictReader(line for line in f if not line.startswith("#")))
    problems = []
    if len(rows) != epochs:
        problems.append(f"train_log.csv has {len(rows)} epochs, expected {epochs}")
    for row in rows:
        losses = [float(row[k]) for k in ("loss_obj", "loss_vac", "loss_par", "loss_refiner")]
        if not all(map(math.isfinite, losses)):
            problems.append(f"non-finite loss in epoch {row['epoch']}")
    return problems


def check_train(model_dir: Path, epochs: int, stems) -> dict:
    """A training run covers every scene, so its problems belong to all of them."""
    problems = []
    _guard(problems, _train_problems, model_dir, epochs)
    return {stem: list(problems) for stem in stems}


def _grasp_file_problems(path: Path, stem: str, gripper: str):
    doc = json.loads(path.read_text())
    problems = []
    if doc["schema_version"] != 1 or doc["scene"] != stem or doc["gripper"] != gripper:
        problems.append(f"{path.name}: wrong header")
    if doc["status"] not in STATUSES:
        problems.append(f"{path.name}: status {doc['status']!r}")
    if not isinstance(doc["dropped_seeds"], int) or doc["dropped_seeds"] < 0:
        problems.append(f"{path.name}: bad dropped_seeds")
    grasps = [grasp_from_dict(d) for d in doc["grasps"]]
    if any(g.gripper != gripper for g in grasps):
        problems.append(f"{path.name}: grasp of the other gripper")
    if doc["status"] != "ok" and grasps:
        problems.append(f"{path.name}: grasps without a graspable region")
    scores = [d["score"] for d in doc["grasps"]]
    if not all(_finite(s) for s in scores):
        problems.append(f"{path.name}: non-finite score")
    elif any(a < b for a, b in zip(scores, scores[1:])):
        problems.append(f"{path.name}: scores not in descending order")
    return problems


def check_grasp_files(grasps_dir: Path, stems) -> dict:
    out = {}
    for stem in stems:
        out[stem] = []
        for gripper in GRIPPERS:
            _guard(out[stem], _grasp_file_problems, grasps_dir / f"{stem}_grasps_{gripper}.json",
                   stem, gripper)
    return out


def check_predict(pred_dir: Path, stems) -> dict:
    out = check_grasp_files(pred_dir, stems)
    for stem in stems:
        for channel in LABEL_CHANNELS:
            path = pred_dir / f"{stem}_pred_{channel}_rgb.ply"
            if not path.is_file():
                out[stem].append(f"missing {path.name}")
    return out


def _metrics_rows(eval_dir: Path):
    with open(eval_dir / "metrics.csv") as f:
        return list(csv.DictReader(f))


def _eval_problems(eval_dir: Path, stem: str, clearing: bool):
    rows = [r for r in _metrics_rows(eval_dir) if r["scene"] == stem]
    problems = []
    for gripper in GRIPPERS:
        ap = [float(r["value"]) for r in rows if r["record"] == "ap_overall" and r["gripper"] == gripper]
        if len(ap) != 1 or not 0.0 <= ap[0] <= 1.0:
            problems.append(f"ap_overall for {gripper}: {ap}")
        if clearing:
            clear = [r for r in rows if r["record"] == "clearing" and r["gripper"] == gripper]
            values = [float(clear[0][k]) for k in ("r_object", "r_grasp", "r_mix")] if len(clear) == 1 else []
            if not values or not all(map(math.isfinite, values)):
                problems.append(f"clearing metrics for {gripper}: {values}")
    summary = json.loads((eval_dir / "summary.json").read_text())
    for gripper in GRIPPERS:
        if not _finite(summary["splits"]["default"][gripper]["ap_overall_mean"]):
            problems.append(f"summary AP for {gripper} is not finite")
    return problems


def check_eval(eval_dir: Path, stems, clearing: bool) -> dict:
    out = {}
    for stem in stems:
        out[stem] = []
        _guard(out[stem], _eval_problems, eval_dir, stem, clearing)
    return out


def write_ground_truth_grasp_files(scenes_dir: Path, stems, out_dir: Path):
    """The ground-truth candidates synth wrote, as ranked grasp files for `eval`."""
    out_dir.mkdir(parents=True, exist_ok=True)
    for stem in stems:
        doc = json.loads((scenes_dir / f"{stem}.json").read_text())
        for gripper in GRIPPERS:
            grasps = [{k: v for k, v in g.items() if k != "quality"}
                      for g in doc["grasps"] if g["gripper"] == gripper]
            order = sorted(range(len(grasps)), key=lambda i: (-grasps[i]["score"], i))
            ranked = {
                "schema_version": 1, "scene": stem, "split": doc["split"], "gripper": gripper,
                "status": "ok" if grasps else "no graspable region", "dropped_seeds": 0,
                "grasps": [grasps[i] for i in order],
            }
            with open(out_dir / f"{stem}_grasps_{gripper}.json", "w") as f:
                json.dump(ranked, f, sort_keys=True, separators=(",", ":"))
                f.write("\n")


def quality(eval_dir: Path, pred_dir: Path = None) -> dict:
    """AP per gripper from summary.json, mean clearing R_object and the
    share of (scene, gripper) proposals without a graspable region."""
    summary = json.loads((eval_dir / "summary.json").read_text())["splits"]["default"]
    out = {f"ap_{g}": summary[g]["ap_overall_mean"] for g in GRIPPERS}
    rows = _metrics_rows(eval_dir)
    for g in GRIPPERS:
        r = [float(row["r_object"]) for row in rows if row["record"] == "clearing" and row["gripper"] == g]
        out[f"r_object_{g}"] = float(np.mean(r)) if r else 0.0
    statuses = []
    if pred_dir is not None:
        statuses = [json.loads(p.read_text())["status"] for p in sorted(pred_dir.glob("*_grasps_*.json"))]
    out["no_region_share"] = statuses.count("no graspable region") / len(statuses) if statuses else 0.0
    return out


def tree_digest(root: Path) -> str:
    """sha256 over every file under root: relative path and bytes, in path order."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()
