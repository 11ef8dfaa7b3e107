import csv
import itertools
import json
import math
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from dualgrasp.cli import _FLAG_KEYS, _SECTIONS, _configs_from_args, build_configs, build_parser, load_config_file, main
from dualgrasp.grasps import PARALLEL, VACUUM
from dualgrasp.mlp import MlpModel, ModelConfig, load_checkpoint, save_checkpoint
from dualgrasp.pipeline import GraspPipeline, SceneProposer
from dualgrasp.sampling import SamplingConfig
from dualgrasp.scenes import load_scene


def run(*args):
    return main([str(a) for a in args])


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Scenes, labels, fallback predictions, and a small checkpoint."""
    root = tmp_path_factory.mktemp("cli")
    scenes = root / "scenes"
    assert run("synth", "--out", scenes, "--scenes", "2", "--objects", "3", "--seed", "7") == 0
    assert run("labels", "--scenes", scenes, "--out", root / "labels") == 0
    assert run(
        "predict", "--scenes", scenes, "--out", root / "pred",
        "--fallback-head", "--max-refine", "32",
    ) == 0
    assert run(
        "train", "--scenes", scenes, "--out", root / "model", "--epochs", "3", "--seed", "1",
    ) == 0
    return root


def test_synth_outputs_and_determinism(workspace, tmp_path):
    scenes = workspace / "scenes"
    files = sorted(p.name for p in scenes.iterdir())
    assert files == ["scene_0000.json", "scene_0000.ply", "scene_0001.json", "scene_0001.ply"]
    again = tmp_path / "again"
    assert run("synth", "--out", again, "--scenes", "2", "--objects", "3", "--seed", "7") == 0
    for name in files:
        assert (again / name).read_bytes() == (scenes / name).read_bytes()


def test_synth_usage_errors(tmp_path):
    assert run("synth", "--out", tmp_path / "x", "--objects", "0") == 2
    assert run("nonsense-command") == 2


def test_labels_outputs(workspace):
    names = sorted(p.name for p in (workspace / "labels").iterdir())
    assert "scene_0000_labels.ply" in names
    assert "scene_0000_graspness_vacuum_rgb.ply" in names
    assert "scene_0000_graspness_parallel_rgb.ply" in names
    from dualgrasp.ply_io import read_ply

    _, _, channels = read_ply(workspace / "labels" / "scene_0000_labels.ply")
    assert set(channels) == {"objectness", "graspness_parallel", "graspness_vacuum"}


def test_predict_outputs(workspace):
    pred = workspace / "pred"
    doc = json.loads((pred / "scene_0000_grasps_parallel.json").read_text())
    assert doc["schema_version"] == 1
    assert doc["status"] == "ok"
    assert doc["gripper"] == "parallel"
    g = doc["grasps"][0]
    assert set(g) == {"gripper", "center", "approach", "angle_deg", "width_m", "depth_m", "score"}
    doc_v = json.loads((pred / "scene_0000_grasps_vacuum.json").read_text())
    assert set(doc_v["grasps"][0]) == {"gripper", "center", "normal", "score"}
    assert (pred / "scene_0000_pred_graspness_vacuum_rgb.ply").exists()


def test_predict_single_gripper(workspace, tmp_path):
    out = tmp_path / "vac_only"
    assert run("predict", "--scenes", workspace / "scenes", "--out", out,
               "--fallback-head", "--grippers", "vacuum") == 0
    names = [p.name for p in out.iterdir()]
    assert any("grasps_vacuum" in n for n in names)
    assert not any("grasps_parallel" in n for n in names)


def test_predict_requires_model_or_fallback(workspace, tmp_path):
    assert run("predict", "--scenes", workspace / "scenes", "--out", tmp_path / "x") == 2


def test_predict_with_checkpoint(workspace, tmp_path):
    out = tmp_path / "model_pred"
    code = run("predict", "--scenes", workspace / "scenes", "--out", out,
               "--checkpoint", workspace / "model" / "checkpoint.json")
    assert code == 0
    assert (out / "scene_0000_grasps_parallel.json").exists()


@pytest.mark.parametrize("mode", ["fallback", "model"])
def test_predict_writes_the_first_clearing_round(workspace, tmp_path, mode):
    """Each grasp file holds what a fresh SceneProposer proposes on the full scene, the first clearing round."""
    pred, checkpoint = workspace / "pred", workspace / "model" / "checkpoint.json"
    pipe = GraspPipeline(max_parallel_refine=32)  # the workspace's fallback predict
    if mode == "model":
        pred = tmp_path / "pred"
        # the 3-epoch model's maps stay below the default thresholds
        assert run("predict", "--scenes", workspace / "scenes", "--out", pred, "--checkpoint", checkpoint,
                   "--t-parallel", "0.01", "--t-vacuum", "0.001") == 0
        pipe = GraspPipeline(model=load_checkpoint(checkpoint),
                             sampling=SamplingConfig(t_parallel=0.01, t_vacuum=0.001))
    compared = {PARALLEL: 0, VACUUM: 0}
    for stem in ("scene_0000", "scene_0001"):
        cloud, scene, gt = load_scene(workspace / "scenes" / stem)
        proposer = SceneProposer(pipe, scene, gt)
        for gripper in (PARALLEL, VACUUM):
            doc = json.loads((pred / f"{stem}_grasps_{gripper}.json").read_text())
            result = proposer.propose(cloud, scene, gripper)
            assert (doc["status"], doc["dropped_seeds"]) == (result.status, result.dropped_seeds)
            assert doc["grasps"] == json.loads(json.dumps(result.grasps.records()))
            compared[gripper] += len(result.grasps)
    assert all(compared.values())


def test_train_outputs(workspace):
    model_dir = workspace / "model"
    assert (model_dir / "checkpoint.json").exists()
    log = (model_dir / "train_log.csv").read_text().splitlines()
    assert log[0] == "# variant: multitask+pcgrad"
    assert len(log) == 2 + 3  # header comment + column row + 3 epochs


def test_train_pcgrad_ablation_label(workspace, tmp_path):
    out = tmp_path / "ablation"
    assert run("train", "--scenes", workspace / "scenes", "--out", out,
               "--epochs", "1", "--pcgrad=false") == 0
    assert "# variant: w/o PCGrad" in (out / "train_log.csv").read_text()


def test_eval_outputs(workspace, tmp_path):
    out = tmp_path / "metrics"
    assert run("eval", "--scenes", workspace / "scenes", "--grasps", workspace / "pred",
               "--out", out, "--k", "50") == 0
    rows = (out / "metrics.csv").read_text().splitlines()
    header = rows[0].split(",")
    assert header == ["record", "scene", "split", "gripper", "mu", "value",
                      "r_object", "r_grasp", "r_mix", "r_seen",
                      "objects_total", "objects_cleared", "grasps_total", "grasps_successful",
                      "grasps_on_cleared", "objects_detected"]
    ap_rows = [r for r in rows[1:] if r.startswith("ap,")]
    # 2 scenes x (5 parallel + 4 vacuum) mu values
    assert len(ap_rows) == 2 * 9
    mus = {r.split(",")[4] for r in ap_rows if r.split(",")[3] == "parallel"}
    assert mus == {"0.2", "0.4", "0.6", "0.8", "1.0"}
    mus_v = {r.split(",")[4] for r in ap_rows if r.split(",")[3] == "vacuum"}
    assert mus_v == {"0.2", "0.4", "0.6", "0.8"}
    summary = json.loads((out / "summary.json").read_text())
    assert "default" in summary["splits"]
    assert set(summary["splits"]["default"]) == {"parallel", "vacuum"}


def test_eval_with_clearing(workspace, tmp_path):
    out = tmp_path / "metrics_clear"
    assert run("eval", "--scenes", workspace / "scenes", "--grasps", workspace / "pred",
               "--out", out, "--clearing", "--fallback-head", "--max-refine", "8") == 0
    rows = (out / "metrics.csv").read_text().splitlines()
    clearing_rows = [r for r in rows if r.startswith("clearing,")]
    assert len(clearing_rows) == 2 * 2  # scenes x grippers
    with open(out / "metrics.csv", newline="") as f:
        for row in csv.DictReader(f):
            if row["record"] == "clearing":
                assert float(row["r_object"]) == int(row["objects_cleared"]) / int(row["objects_total"])


def copied_predictions(workspace, root: Path) -> Path:
    pred = root / "pred"
    pred.mkdir()
    for path in (workspace / "pred").glob("*_grasps_*.json"):
        (pred / path.name).write_bytes(path.read_bytes())
    return pred


@pytest.mark.parametrize("gripper, key, value", [
    (PARALLEL, "width_m", 0), (PARALLEL, "width_m", math.nan), (PARALLEL, "width_m", 1e9),
    (PARALLEL, "center", [0.0, math.inf, 0.0]), (PARALLEL, "approach", [math.nan, 0.0, 1.0]),
    (PARALLEL, "angle_deg", math.inf), (PARALLEL, "depth_m", math.nan), (PARALLEL, "score", math.nan),
    (VACUUM, "normal", [0.0, 0.0, math.nan]), (VACUUM, "score", math.inf),
])
def test_eval_rejects_impossible_grasp_fields(workspace, tmp_path, gripper, key, value):
    """A grasp file with a non-finite field or a width outside (0, MAX_WIDTH] exits 1, as width 0 always did."""
    pred = copied_predictions(workspace, tmp_path)
    path = pred / f"scene_0001_grasps_{gripper}.json"
    doc = json.loads(path.read_text())
    doc["grasps"][-1][key] = value  # past --k: the reader checks every record
    assert len(doc["grasps"]) > 5
    path.write_text(json.dumps(doc))
    assert run("eval", "--scenes", workspace / "scenes", "--grasps", pred, "--out", tmp_path / "out", "--k", "5") == 1


def test_eval_rejects_a_grasp_of_the_other_gripper(workspace, tmp_path):
    pred = copied_predictions(workspace, tmp_path)
    parallel, vacuum = (pred / f"scene_0000_grasps_{g}.json" for g in (PARALLEL, VACUUM))
    doc = json.loads(vacuum.read_text())
    doc["grasps"] = json.loads(parallel.read_text())["grasps"]
    vacuum.write_text(json.dumps(doc))
    assert run("eval", "--scenes", workspace / "scenes", "--grasps", pred, "--out", tmp_path / "out") == 1


@pytest.mark.parametrize("version", [99, None])
def test_eval_rejects_an_unknown_grasp_schema_version(workspace, tmp_path, capsys, version):
    pred = copied_predictions(workspace, tmp_path)
    vacuum = pred / f"scene_0000_grasps_{VACUUM}.json"
    doc = json.loads(vacuum.read_text())
    doc["schema_version"] = version
    vacuum.write_text(json.dumps(doc))
    assert run("eval", "--scenes", workspace / "scenes", "--grasps", pred, "--out", tmp_path / "out") == 1
    assert vacuum.name in capsys.readouterr().err


@pytest.mark.parametrize("quality", [-0.1, math.nan, math.inf])
def test_scene_with_impossible_ground_truth_quality_exits_one(workspace, tmp_path, quality):
    scenes = tmp_path / "scenes"
    scenes.mkdir()
    for suffix in (".ply", ".json"):
        (scenes / f"scene_0000{suffix}").write_bytes((workspace / "scenes" / f"scene_0000{suffix}").read_bytes())
    doc = json.loads((scenes / "scene_0000.json").read_text())
    doc["grasps"][5]["quality"] = quality
    (scenes / "scene_0000.json").write_text(json.dumps(doc))
    assert run("labels", "--scenes", scenes, "--out", tmp_path / "labels") == 1


def _drop_primitive_key(doc):
    del doc["primitives"][1]["friction_coeff"]
    return "friction_coeff"


def _drop_scene_key(doc):
    del doc["table_height"]
    return "table_height"


def _drop_ground_truth_key(doc):
    del doc["grasps"][5]["quality"]
    return "quality"


def _drop_grasp_key(doc):
    del doc["grasps"][-1]["width_m"]
    return "width_m"


def _drop_config_key(doc):
    del doc["config"]["n_views"]
    return "n_views"


@pytest.mark.parametrize("stored, edit", [
    ("scene", _drop_primitive_key), ("scene", _drop_scene_key), ("scene", _drop_ground_truth_key),
    ("grasps", _drop_grasp_key), ("checkpoint", _drop_config_key),
])
def test_a_stored_record_without_a_key_exits_one_naming_the_file_and_the_key(workspace, tmp_path, capsys,
                                                                             stored, edit):
    scenes = tmp_path / "scenes"
    scenes.mkdir()
    for suffix in (".ply", ".json"):
        (scenes / f"scene_0000{suffix}").write_bytes((workspace / "scenes" / f"scene_0000{suffix}").read_bytes())
    pred = copied_predictions(workspace, tmp_path)
    checkpoint = tmp_path / "checkpoint.json"
    checkpoint.write_bytes((workspace / "model" / "checkpoint.json").read_bytes())
    path, argv = {
        "scene": (scenes / "scene_0000.json", ("labels", "--scenes", scenes, "--out", tmp_path / "labels")),
        "grasps": (pred / f"scene_0000_grasps_{PARALLEL}.json",
                   ("eval", "--scenes", scenes, "--grasps", pred, "--out", tmp_path / "out", "--k", "5")),
        "checkpoint": (checkpoint, ("predict", "--scenes", scenes, "--out", tmp_path / "x", "--checkpoint", checkpoint)),
    }[stored]
    doc = json.loads(path.read_text())
    key = edit(doc)
    path.write_text(json.dumps(doc))
    assert run(*argv) == 1
    assert capsys.readouterr().err.strip() == f"error: {path}: missing key {key!r}"


def test_export_ply(workspace, tmp_path):
    out = tmp_path / "colored.ply"
    assert run("export-ply", "--input", workspace / "labels" / "scene_0000_labels.ply",
               "--channel", "graspness_vacuum", "--out", out) == 0
    from dualgrasp.ply_io import read_ply

    _, colors, _ = read_ply(out)
    assert colors is not None
    assert run("export-ply", "--input", workspace / "labels" / "scene_0000_labels.ply",
               "--channel", "missing", "--out", out) == 2


def test_no_graspable_region_flow(tmp_path):
    # all-porous objects: every vacuum candidate seals at 0 and is filtered out
    cfg = tmp_path / "porous.cfg"
    cfg.write_text("synth.porous_prob = 1.0\nsynth.kinds = [\"box\"]\n")
    scenes = tmp_path / "scenes"
    assert run("synth", "--out", scenes, "--scenes", "1", "--objects", "2",
               "--seed", "3", "--config", cfg) == 0
    out = tmp_path / "pred"
    assert run("predict", "--scenes", scenes, "--out", out, "--fallback-head",
               "--grippers", "vacuum") == 0
    doc = json.loads((out / "scene_0000_grasps_vacuum.json").read_text())
    assert doc["status"] == "no graspable region"
    assert doc["grasps"] == []


def test_config_file_parsing(tmp_path):
    cfg = tmp_path / "a.cfg"
    cfg.write_text("# comment\nsampling.t_parallel = 0.25\ntrain.epochs = 5\n"
                   "synth.kinds = [\"box\", \"sphere\"]\nsynth.density = 40000\n"
                   "synth.kind_sequence = null\ntrain.pcgrad_enabled = false\n")
    overrides = load_config_file(cfg)
    configs = build_configs(overrides)
    assert configs["sampling"].t_parallel == 0.25
    assert configs["train"].epochs == 5
    assert configs["synth"].kinds == ("box", "sphere")
    assert configs["synth"].density == 40000 and configs["synth"].kind_sequence is None
    assert configs["train"].pcgrad_enabled is False
    assert build_configs({"synth.kind_sequence": ["box", "sphere"]})["synth"].kind_sequence == ("box", "sphere")
    # fixed-size keys take their arity; integers fit number lists; variable-length lists keep any length
    configs = build_configs({"synth.camera_viewpoint": [0, 0, 1], "synth.box_edge": [0.02, 0.05],
                             "refine.depth_bins": [0.01], "eval.mu_parallel_grid": [0.2, 0.4, 0.6, 0.8, 1, 1.2]})
    assert configs["synth"].camera_viewpoint == (0, 0, 1) and configs["synth"].box_edge == (0.02, 0.05)
    assert configs["refine"].depth_bins == (0.01,) and len(configs["eval"].mu_parallel_grid) == 6


def test_config_rejects_unknown_keys(tmp_path):
    from dualgrasp.cli import UsageError

    with pytest.raises(UsageError):
        build_configs({"sampling.bogus": 1})
    with pytest.raises(UsageError):
        build_configs({"nosection.t": 1})
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("sampling.bogus = 1\n")
    assert run("synth", "--out", tmp_path / "x", "--config", cfg) == 2
    # the gripper, label, feature, seal-oracle, scene-layout, ground-truth, training-target and
    # clearing parameters are constants, not config keys
    for key in ("labels.cup_radius", "labels.mu_max", "labels.collision_filter", "features.radius",
                "synth.max_width", "synth.cup_radius", "synth.width_margin",
                "refine.max_width", "refine.width_margin", "eval.cup_radius",
                "synth.seal_sample_density", "synth.seal_sample_limits", "synth.on_surface_tol",
                "synth.table_thickness", "synth.slab_thickness", "synth.friction_range", "synth.placement_gap",
                "synth.max_retries", "synth.gt_depth", "synth.gt_mu_cap", "refine.view_vertical_bias",
                "train.positive_weight_parallel", "train.refiner_seeds_per_scene", "train.seed_threshold",
                "eval.max_consecutive_failures", "eval.exec_mu_parallel", "eval.exec_mu_vacuum"):
        with pytest.raises(UsageError):
            build_configs({key: 0.01})
        cfg.write_text(f"{key} = 0.01\n")
        assert run("synth", "--out", tmp_path / "x", "--config", cfg) == 2
    assert not (tmp_path / "x").exists()


def test_config_field_names_are_unique_across_sections():
    """A quantity set in two sections could silently disagree; each name has one home."""
    owners = {}
    for section, cls in _SECTIONS.items():
        for f in fields(cls):
            owners.setdefault(f.name, []).append(section)
    assert {name: where for name, where in owners.items() if len(where) > 1} == {}


def test_readme_names_the_config_sections():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    line = re.search(r"^Sections: (.*)$", readme, re.M).group(1)
    assert re.findall(r"`([a-z_]+)`", line) == list(_SECTIONS)


def test_every_flag_key_names_a_config_field():
    """A misspelt key in the flag table fails here rather than every run of its subcommand."""
    known = {f"{section}.{f.name}" for section, cls in _SECTIONS.items() for f in fields(cls)}
    assert {key for keys in _FLAG_KEYS.values() for key in keys} - known == set()


@pytest.mark.parametrize("argv, keys", [
    (["synth", "--kinds", "box,sphere"], {"synth.kinds": ["box", "sphere"]}),
    (["train", "--scenes", "s", "--epochs", "3", "--batch", "2", "--lr", "0.01", "--seed", "4", "--pcgrad=false"],
     {"train.epochs": 3, "train.batch_size": 2, "train.lr0": 0.01, "train.rng_seed": 4,
      "train.pcgrad_enabled": False}),
    (["predict", "--scenes", "s", "--t-parallel", "0.3", "--t-vacuum", "0.4", "--seeds", "9"],
     {"sampling.t_parallel": 0.3, "sampling.t_vacuum": 0.4, "sampling.m_parallel": 9, "sampling.m_vacuum": 9}),
    (["eval", "--scenes", "s", "--grasps", "g", "--k", "6", "--clearing", "--seeds", "2"],
     {"eval.k_max": 6, "sampling.m_parallel": 2, "sampling.m_vacuum": 2}),
    (["synth", "--seed", "5"], {}),  # the scene seed is not a config key
], ids=["synth", "train", "predict", "eval", "synth-seed"])
def test_each_config_backed_flag_sets_its_keys(argv, keys):
    """The configs of a command line equal those of its flags' keys given as config-file keys."""
    args = build_parser().parse_args([*argv, "--out", "o"])
    assert _configs_from_args(args) == build_configs(keys)


def test_a_flag_wins_over_the_config_file_and_the_file_over_the_defaults(workspace, tmp_path):
    """Each value the file sets, and the flag's other value, is seen in the outputs of one run."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("train.epochs = 2\nsampling.m_parallel = 5\nsampling.m_vacuum = 5\neval.k_max = 7\n"
                   'synth.kinds = ["sphere"]\n')
    scenes, runs = workspace / "scenes", itertools.count()

    def outputs(*argv):
        out = tmp_path / f"run{next(runs)}"
        assert run(*argv, "--out", out, "--config", cfg) == 0
        return out

    def kinds(*flags):
        doc = json.loads((outputs("synth", "--objects", "4", *flags) / "scene_0000.json").read_text())
        return {p["kind"] for p in doc["primitives"] if p["object_id"] > 0}  # object 0 is the table

    def epochs(*flags):
        return len((outputs("train", "--scenes", scenes, *flags) / "train_log.csv").read_text().splitlines()) - 2

    def seeds(*flags):
        out = outputs("predict", "--scenes", scenes, "--fallback-head", "--grippers", VACUUM, *flags)
        doc = json.loads((out / "scene_0000_grasps_vacuum.json").read_text())
        return len(doc["grasps"]) + doc["dropped_seeds"]  # one vacuum pose per seed, or a dropped seed

    def k_max(*flags):
        out = outputs("eval", "--scenes", scenes, "--grasps", workspace / "pred", *flags)
        return json.loads((out / "summary.json").read_text())["k_max"]

    assert (kinds(), kinds("--kinds", "box")) == ({"sphere"}, {"box"})
    assert (epochs(), epochs("--epochs", "1")) == (2, 1)
    assert (seeds(), seeds("--seeds", "3")) == (5, 3)
    assert (k_max(), k_max("--k", "4")) == (7, 4)


def test_predict_rerun_byte_identical(workspace, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run("predict", "--scenes", workspace / "scenes", "--out", out,
                   "--fallback-head", "--max-refine", "16") == 0
    for p in sorted(a.iterdir()):
        assert p.read_bytes() == (b / p.name).read_bytes()


def test_predict_jobs_match_serial(workspace, tmp_path):
    a, b = tmp_path / "j1", tmp_path / "j2"
    assert run("predict", "--scenes", workspace / "scenes", "--out", a,
               "--fallback-head", "--max-refine", "8", "--jobs", "1") == 0
    assert run("predict", "--scenes", workspace / "scenes", "--out", b,
               "--fallback-head", "--max-refine", "8", "--jobs", "2") == 0
    for p in sorted(a.iterdir()):
        assert p.read_bytes() == (b / p.name).read_bytes()


class StandInPool:
    """multiprocessing.Pool's context and starmap, run in this process; records each pool's size."""

    sizes = []

    def __init__(self, processes):
        StandInPool.sizes.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def starmap(self, fn, iterable):
        return [fn(*args) for args in iterable]


@pytest.mark.parametrize("scenes, jobs, pools", [(2, 5, [2]), (2, 2, [2]), (1, 3, []), (2, 1, [])])
def test_predict_jobs_capped_at_scene_count(workspace, tmp_path, monkeypatch, scenes, jobs, pools):
    import multiprocessing

    src = tmp_path / "scenes"
    src.mkdir()
    for stem in ("scene_0000", "scene_0001")[:scenes]:
        for suffix in (".ply", ".json"):
            (src / f"{stem}{suffix}").write_bytes((workspace / "scenes" / f"{stem}{suffix}").read_bytes())
    monkeypatch.setattr(StandInPool, "sizes", [])
    monkeypatch.setattr(multiprocessing, "Pool", StandInPool)
    assert run("predict", "--scenes", src, "--out", tmp_path / "pred",
               "--fallback-head", "--max-refine", "8", "--jobs", jobs) == 0
    assert StandInPool.sizes == pools
    assert len(list((tmp_path / "pred").glob("*_grasps_parallel.json"))) == scenes


@pytest.mark.parametrize("argv", [
    ["predict", "--fallback-head", "--max-refine", "0"],
    ["predict", "--fallback-head", "--max-refine", "-3"],
    ["predict", "--fallback-head", "--jobs", "0"],
    ["predict", "--fallback-head", "--seeds", "0"],
    ["predict", "--fallback-head", "--t-parallel", "1.5"],
    ["predict", "--fallback-head", "--config", "{bad_config}"],
    ["train", "--epochs", "0"],
    ["train", "--batch", "0"],
    ["train", "--batch", "-1"],
    ["train", "--config", "{seed_threshold_config}"],
    ["train", "--config", "{refiner_seeds_config}"],
    ["eval", "--grasps", "{missing}"],
    ["eval", "--grasps", "{scenes}"],
    ["eval", "--grasps", "{pred}", "--clearing", "--fallback-head", "--max-refine", "0"],
    ["predict", "--checkpoint", "{checkpoint}", "--config", "{views_config}"],
    ["eval", "--grasps", "{pred}", "--clearing", "--checkpoint", "{checkpoint}", "--config", "{views_config}"],
    ["predict", "--checkpoint", "{angle6_checkpoint}"],
    ["eval", "--grasps", "{pred}", "--clearing", "--checkpoint", "{angle6_checkpoint}"],
    ["synth", "--kinds", "bogus"],
    ["synth", "--kinds", "box,,sphere"],
    ["synth", "--kinds", ""],
    ["synth", "--config", "{no_kinds_config}"],
    ["synth", "--config", "{bad_sequence_config}"],
    ["synth", "--config", "{density_zero_config}"],
    ["synth", "--config", "{density_negative_config}"],
    ["predict", "--fallback-head", "--config", "{views_zero_config}"],
    ["predict", "--fallback-head", "--config", "{angle_bins_zero_config}"],
    ["predict", "--fallback-head", "--config", "{score_bins_zero_config}"],
    ["predict", "--fallback-head", "--config", "{depth_bins_empty_config}"],
    ["predict", "--fallback-head", "--config", "{depth_bins_negative_config}"],
    ["predict", "--fallback-head", "--config", "{angle_stride_zero_config}"],
    ["predict", "--fallback-head", "--config", "{depth_stride_zero_config}"],
    ["eval", "--grasps", "{pred}", "--config", "{parallel_grid_empty_config}"],
    ["eval", "--grasps", "{pred}", "--config", "{vacuum_grid_empty_config}"],
    ["eval", "--grasps", "{pred}", "--clearing", "--fallback-head", "--config", "{failures_zero_config}"],
    ["eval", "--grasps", "{pred}", "--clearing", "--fallback-head", "--config", "{exec_mu_parallel_zero_config}"],
    ["eval", "--grasps", "{pred}", "--clearing", "--fallback-head", "--config", "{exec_mu_parallel_inf_config}"],
    ["eval", "--grasps", "{pred}", "--clearing", "--fallback-head", "--config", "{exec_mu_vacuum_zero_config}"],
    ["eval", "--grasps", "{pred}", "--clearing", "--fallback-head", "--config", "{exec_mu_vacuum_negative_config}"],
    ["eval", "--grasps", "{pred}", "--clearing", "--fallback-head", "--config", "{exec_mu_vacuum_above_one_config}"],
    ["synth", "--config", "{parallel_gt_zero_config}"],
    ["synth", "--config", "{vacuum_gt_zero_config}"],
    ["synth", "--config", "{gt_depth_zero_config}"],
    ["synth", "--config", "{gt_depth_negative_config}"],
    ["export-ply", "--input", "{labels_ply}", "--channel", "graspness_vacuum", "--vmin", "1", "--vmax", "0"],
    ["predict", "--fallback-head", "--config", "{bias_nan_config}"],
    ["predict", "--fallback-head", "--config", "{bias_negative_config}"],
    ["eval", "--grasps", "{pred}", "--config", "{parallel_grid_nan_config}"],
    ["eval", "--grasps", "{pred}", "--config", "{parallel_grid_negative_config}"],
    ["eval", "--grasps", "{pred}", "--config", "{vacuum_grid_above_one_config}"],
    ["train", "--lr", "nan"],
    ["train", "--lr", "inf"],
    ["train", "--config", "{lr_inf_config}"],
    ["export-ply", "--input", "{labels_ply}", "--channel", "graspness_vacuum", "--vmin", "nan"],
    ["export-ply", "--input", "{labels_ply}", "--channel", "graspness_vacuum", "--vmax", "inf"],
    ["train", "--config", "{pcgrad_string_config}"],
    ["train", "--config", "{pcgrad_bare_config}"],
    ["train", "--config", "{pcgrad_number_config}"],
    ["synth", "--config", "{density_string_config}"],
    ["synth", "--config", "{density_bool_config}"],
    ["predict", "--fallback-head", "--config", "{m_parallel_fraction_config}"],
    ["train", "--config", "{epochs_fraction_config}"],
    ["predict", "--fallback-head", "--config", "{views_bool_config}"],
    ["predict", "--fallback-head", "--config", "{depth_bins_number_config}"],
    ["synth", "--config", "{kinds_null_config}"],
    ["synth", "--config", "{kind_sequence_string_config}"],
    ["train", "--config", "{deleted_weight_config}"],
    ["train", "--config", "{deleted_adam_config}"],
    ["train", "--config", "{positive_weight_negative_config}"],
    ["train", "--config", "{positive_weight_zero_config}"],
    ["train", "--config", "{positive_weight_nan_config}"],
    ["synth", "--config", "{box_edge_short_config}"],
    ["synth", "--config", "{viewpoint_short_config}"],
    ["synth", "--config", "{friction_range_long_config}"],
    ["synth", "--config", "{kinds_number_config}"],
    ["predict", "--fallback-head", "--config", "{depth_bins_string_config}"],
    ["eval", "--grasps", "{pred}", "--config", "{parallel_grid_string_config}"],
    ["synth", "--config", "{box_edge_negative_config}"],
    ["synth", "--config", "{friction_range_negative_config}"],
    ["synth", "--config", "{friction_range_above_cap_config}"],
    ["synth", "--config", "{sphere_radius_reversed_config}"],
    ["synth", "--config", "{cylinder_height_reversed_config}"],
    ["synth", "--config", "{slab_extent_inf_config}"],
    ["synth", "--config", "{table_extent_negative_config}"],
    ["synth", "--config", "{table_thickness_zero_config}"],
    ["synth", "--config", "{placement_gap_negative_config}"],
    ["synth", "--config", "{max_retries_zero_config}"],
    ["synth", "--config", "{gt_mu_cap_negative_config}"],
    ["synth", "--config", "{porous_prob_two_config}"],
    ["predict", "--checkpoint", "{checkpoint}", "--fallback-head"],
    ["eval", "--grasps", "{pred}", "--clearing", "--checkpoint", "{checkpoint}", "--fallback-head"],
    ["synth", "--config", "{table_height_nan_config}"],
    ["synth", "--config", "{table_height_inf_config}"],
    ["synth", "--config", "{viewpoint_nan_config}"],
    ["synth", "--config", "{gt_depth_inf_config}"],
    ["synth", "--config", "{density_inf_config}"],
    ["synth", "--seed", "-1"],
    ["train", "--seed", "-1"],
    ["train", "--config", "{rng_seed_negative_config}"],
    ["eval", "--grasps", "{pred}", "--checkpoint", "{checkpoint}"],
    ["eval", "--grasps", "{pred}", "--fallback-head"],
    ["eval", "--grasps", "{pred}", "--t-parallel", "0.2"],
    ["eval", "--grasps", "{pred}", "--t-vacuum", "0.2"],
    ["eval", "--grasps", "{pred}", "--seeds", "8"],
    ["eval", "--grasps", "{pred}", "--max-refine", "4"],
    ["eval", "--grasps", "{pred}", "--seeds", "0"],
    ["synth", "--kinds", "box", "--config", "{kind_sequence_config}"],
    ["synth", "--config", "{kinds_and_kind_sequence_config}"],
], ids=["max-refine-0", "max-refine-negative", "jobs-0", "seeds-0", "t-parallel-1.5",
        "config-file-value", "epochs-0", "batch-0", "batch-negative", "seed-threshold-1.5",
        "refiner-seeds-0", "grasps-missing", "grasps-none", "clearing-max-refine-0",
        "checkpoint-views", "clearing-checkpoint-views",
        "checkpoint-angle-bins", "clearing-checkpoint-angle-bins",
        "kinds-unknown", "kinds-empty-name", "kinds-flag-empty", "kinds-empty", "kind-sequence-unknown",
        "density-0", "density-negative", "n-views-0", "n-angle-bins-0", "n-score-bins-0",
        "depth-bins-empty", "depth-bins-negative", "probe-angle-stride-0", "probe-depth-stride-0",
        "mu-parallel-grid-empty", "mu-vacuum-grid-empty", "max-consecutive-failures-0",
        "exec-mu-parallel-0", "exec-mu-parallel-inf", "exec-mu-vacuum-0", "exec-mu-vacuum-negative",
        "exec-mu-vacuum-1.5", "parallel-grasps-per-object-0", "vacuum-grasps-per-object-0",
        "gt-depth-0", "gt-depth-negative",
        "vmax-not-above-vmin", "view-vertical-bias-nan", "view-vertical-bias-negative",
        "mu-parallel-grid-nan", "mu-parallel-grid-negative", "mu-vacuum-grid-above-one",
        "lr-nan", "lr-inf", "lr0-inf", "vmin-nan", "vmax-inf",
        "pcgrad-string", "pcgrad-bare-word", "pcgrad-number", "density-string", "density-bool",
        "m-parallel-fraction", "epochs-fraction", "n-views-bool", "depth-bins-number", "kinds-null",
        "kind-sequence-string", "deleted-weight-key", "deleted-adam-key",
        "positive-weight-negative", "positive-weight-0", "positive-weight-nan",
        "box-edge-one-value", "camera-viewpoint-two-values", "friction-range-three-values",
        "kinds-number", "depth-bins-string", "mu-parallel-grid-string",
        "box-edge-negative", "friction-range-negative", "friction-range-above-1.2", "sphere-radius-reversed",
        "cylinder-height-reversed", "slab-extent-inf", "table-extent-negative", "table-thickness-0",
        "placement-gap-negative", "max-retries-0", "gt-mu-cap-negative", "porous-prob-2",
        "checkpoint-and-fallback-head", "clearing-checkpoint-and-fallback-head",
        "table-height-nan", "table-height-inf", "camera-viewpoint-nan", "gt-depth-inf", "density-inf",
        "synth-seed-negative", "train-seed-negative", "rng-seed-negative",
        "eval-checkpoint-without-clearing", "eval-fallback-head-without-clearing",
        "eval-t-parallel-without-clearing", "eval-t-vacuum-without-clearing", "eval-seeds-without-clearing",
        "eval-max-refine-without-clearing", "eval-seeds-0-without-clearing",
        "kinds-flag-next-to-kind-sequence", "kinds-next-to-kind-sequence"])
def test_usage_errors_exit_two(workspace, tmp_path, argv):
    configs = {
        "{bad_config}": "sampling.t_parallel = 1.5",
        "{views_config}": "refine.n_views = 100",  # the checkpoint's view head has 300
        "{seed_threshold_config}": "train.seed_threshold = 1.5",
        "{refiner_seeds_config}": "train.refiner_seeds_per_scene = 0",
        "{no_kinds_config}": "synth.kinds = []",
        "{bad_sequence_config}": 'synth.kind_sequence = ["box", "cone"]',
        "{density_zero_config}": "synth.density = 0",
        "{density_negative_config}": "synth.density = -5",
        "{views_zero_config}": "refine.n_views = 0",
        "{angle_bins_zero_config}": "refine.n_angle_bins = 0",
        "{score_bins_zero_config}": "refine.n_score_bins = 0",
        "{depth_bins_empty_config}": "refine.depth_bins = []",
        "{depth_bins_negative_config}": "refine.depth_bins = [-0.01]",
        "{angle_stride_zero_config}": "refine.probe_angle_stride = 0",
        "{depth_stride_zero_config}": "refine.probe_depth_stride = 0",
        "{parallel_grid_empty_config}": "eval.mu_parallel_grid = []",
        "{vacuum_grid_empty_config}": "eval.mu_vacuum_grid = []",
        "{failures_zero_config}": "eval.max_consecutive_failures = 0",
        "{exec_mu_parallel_zero_config}": "eval.exec_mu_parallel = 0",
        "{exec_mu_parallel_inf_config}": "eval.exec_mu_parallel = Infinity",
        "{exec_mu_vacuum_zero_config}": "eval.exec_mu_vacuum = 0",
        "{exec_mu_vacuum_negative_config}": "eval.exec_mu_vacuum = -1",
        "{exec_mu_vacuum_above_one_config}": "eval.exec_mu_vacuum = 1.5",
        "{parallel_gt_zero_config}": "synth.parallel_grasps_per_object = 0",
        "{vacuum_gt_zero_config}": "synth.vacuum_grasps_per_object = 0",
        "{gt_depth_zero_config}": "synth.gt_depth = 0",
        "{gt_depth_negative_config}": "synth.gt_depth = -0.05",
        "{bias_nan_config}": "refine.view_vertical_bias = NaN",
        "{bias_negative_config}": "refine.view_vertical_bias = -0.01",
        "{parallel_grid_nan_config}": "eval.mu_parallel_grid = [NaN]",
        "{parallel_grid_negative_config}": "eval.mu_parallel_grid = [-1.0, 0.4]",
        "{vacuum_grid_above_one_config}": "eval.mu_vacuum_grid = [0.2, 0.4, 1.5]",
        "{lr_inf_config}": "train.lr0 = Infinity",
        # a value whose JSON type does not fit the key's field
        "{pcgrad_string_config}": 'train.pcgrad_enabled = "no"',
        "{pcgrad_bare_config}": "train.pcgrad_enabled = off",
        "{pcgrad_number_config}": "train.pcgrad_enabled = 0",
        "{density_string_config}": 'synth.density = "abc"',
        "{density_bool_config}": "synth.density = true",
        "{m_parallel_fraction_config}": "sampling.m_parallel = 2.5",
        "{epochs_fraction_config}": "train.epochs = 1.5",
        "{views_bool_config}": "refine.n_views = true",
        "{depth_bins_number_config}": "refine.depth_bins = 0.02",
        "{kinds_null_config}": "synth.kinds = null",
        "{kind_sequence_string_config}": 'synth.kind_sequence = "box"',
        # keys that held a single value in use are constants now
        "{deleted_weight_config}": "train.w_refiner = 1.0",
        "{deleted_adam_config}": "train.adam_beta2 = 0.99",
        "{positive_weight_negative_config}": "train.positive_weight_parallel = -1",
        "{positive_weight_zero_config}": "train.positive_weight_parallel = 0",
        "{positive_weight_nan_config}": "train.positive_weight_parallel = NaN",
        # a list of the wrong element type, or of the wrong length for a fixed-size key
        "{box_edge_short_config}": "synth.box_edge = [1]",
        "{viewpoint_short_config}": "synth.camera_viewpoint = [1, 2]",
        "{friction_range_long_config}": "synth.friction_range = [0.4, 0.7, 1.0]",
        "{kinds_number_config}": "synth.kinds = [1]",
        "{depth_bins_string_config}": 'refine.depth_bins = ["a"]',
        "{parallel_grid_string_config}": 'eval.mu_parallel_grid = ["x"]',
        # a synth range or scalar out of its domain
        "{box_edge_negative_config}": "synth.box_edge = [-0.05, -0.01]",
        "{friction_range_negative_config}": "synth.friction_range = [-1, 0]",
        "{friction_range_above_cap_config}": "synth.friction_range = [0.4, 1.5]",
        "{sphere_radius_reversed_config}": "synth.sphere_radius = [0.04, 0.015]",
        "{cylinder_height_reversed_config}": "synth.cylinder_height = [0.08, 0.03]",
        "{slab_extent_inf_config}": "synth.slab_extent = [0.07, Infinity]",
        "{table_extent_negative_config}": "synth.table_extent = -1",
        "{table_thickness_zero_config}": "synth.table_thickness = 0",
        "{placement_gap_negative_config}": "synth.placement_gap = -1",
        "{max_retries_zero_config}": "synth.max_retries = 0",
        "{gt_mu_cap_negative_config}": "synth.gt_mu_cap = -1",
        "{porous_prob_two_config}": "synth.porous_prob = 2",
        # non-finite values that used to fail at run time (exit 1)
        "{table_height_nan_config}": "synth.table_height = NaN",
        "{table_height_inf_config}": "synth.table_height = Infinity",
        "{viewpoint_nan_config}": "synth.camera_viewpoint = [NaN, 0, 1]",
        "{gt_depth_inf_config}": "synth.gt_depth = Infinity",
        "{density_inf_config}": "synth.density = Infinity",
        "{rng_seed_negative_config}": "train.rng_seed = -1",
        # synth.kinds has no effect while a kind sequence is set
        "{kind_sequence_config}": 'synth.kind_sequence = ["sphere"]',
        "{kinds_and_kind_sequence_config}": 'synth.kinds = ["box"]\nsynth.kind_sequence = ["sphere"]',
    }
    fill = {"{missing}": tmp_path / "missing", "{pred}": workspace / "pred", "{scenes}": workspace / "scenes",
            "{checkpoint}": workspace / "model" / "checkpoint.json",
            "{labels_ply}": workspace / "labels" / "scene_0000_labels.ply",
            "{angle6_checkpoint}": tmp_path / "angle6.json"}
    # an untrained model whose angle head has 6 bins against the grid's 12
    save_checkpoint(fill["{angle6_checkpoint}"], MlpModel(ModelConfig(n_angle_bins=6), np.random.default_rng(0)))
    for i, (key, line) in enumerate(configs.items()):
        fill[key] = tmp_path / f"config{i}.cfg"
        fill[key].write_text(line + "\n")
    out = tmp_path / "out"
    scenes = [] if argv[0] in ("synth", "export-ply") else ["--scenes", workspace / "scenes"]
    argv = [argv[0], *scenes, "--out", out] + [fill.get(a, a) for a in argv[1:]]
    assert run(*argv) == 2
    assert not out.exists()  # usage errors are raised before any output is written


def _nonfinite_variants(default):
    """NaN and +-Infinity in each place a number goes."""
    if not isinstance(default, tuple):
        return [math.nan, math.inf, -math.inf]
    return [[*default[:i], x, *default[i + 1:]] for x in (math.nan, math.inf, -math.inf) for i in range(len(default))]


def test_every_config_key_declares_a_domain_that_its_checker_enforces():
    """Walks every field of every section: a declared domain holding the default, and a usage error
    naming the dotted key for each value outside it. A key added without a domain fails here."""
    from dualgrasp.cli import UsageError

    for section, cls in _SECTIONS.items():
        for f in fields(cls):
            key = f"{section}.{f.name}"
            domain = f.metadata.get("domain")
            assert domain is not None, f"{key} declares no domain"
            default = list(f.default) if isinstance(f.default, tuple) else f.default
            assert domain.test(default), f"{key}'s default {default!r} lies outside {domain.text}"
            assert getattr(build_configs({key: default})[section], f.name) == f.default
            outside = [v for v in (-1, 0, 0.5, 2, 2.5, True, "x", None, [], [1], [-1, -1]) if not domain.test(v)]
            for value in _nonfinite_variants(f.default):
                assert not domain.test(value), f"{key} takes {value!r}"
                outside.append(value)
            for value in outside:
                with pytest.raises(UsageError, match=re.escape(f"config key '{key}' takes {domain.text}, got ")):
                    build_configs({key: value})
                with pytest.raises(ValueError, match=f"{cls.__name__}.{f.name} takes"):
                    cls(**{f.name: value})


def test_runtime_failure_exits_one(workspace, tmp_path):
    code = run("predict", "--scenes", workspace / "scenes", "--out", tmp_path / "x",
               "--checkpoint", tmp_path / "missing.json")
    assert code == 1
