import json

import numpy as np
import pytest

from dualgrasp.cli import build_configs, load_config_file, main


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
                   "synth.kinds = [\"box\", \"sphere\"]\n")
    overrides = load_config_file(cfg)
    configs = build_configs(overrides)
    assert configs["sampling"].t_parallel == 0.25
    assert configs["train"].epochs == 5
    assert configs["synth"].kinds == ("box", "sphere")


def test_config_rejects_unknown_keys(tmp_path):
    from dualgrasp.cli import UsageError

    with pytest.raises(UsageError):
        build_configs({"sampling.bogus": 1})
    with pytest.raises(UsageError):
        build_configs({"nosection.t": 1})
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("sampling.bogus = 1\n")
    assert run("synth", "--out", tmp_path / "x", "--config", cfg) == 2


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


@pytest.mark.parametrize("argv", [
    ["predict", "--fallback-head", "--max-refine", "0"],
    ["predict", "--fallback-head", "--max-refine", "-3"],
    ["predict", "--fallback-head", "--jobs", "0"],
    ["predict", "--fallback-head", "--seeds", "0"],
    ["predict", "--fallback-head", "--t-parallel", "1.5"],
    ["predict", "--fallback-head", "--config", "{bad_config}"],
    ["train", "--epochs", "0"],
    ["eval", "--grasps", "{missing}"],
    ["eval", "--grasps", "{pred}", "--clearing", "--fallback-head", "--max-refine", "0"],
    ["predict", "--checkpoint", "{checkpoint}", "--config", "{views_config}"],
    ["eval", "--grasps", "{pred}", "--clearing", "--checkpoint", "{checkpoint}", "--config", "{views_config}"],
], ids=["max-refine-0", "max-refine-negative", "jobs-0", "seeds-0", "t-parallel-1.5",
        "config-file-value", "epochs-0", "grasps-missing", "clearing-max-refine-0",
        "checkpoint-views", "clearing-checkpoint-views"])
def test_usage_errors_exit_two(workspace, tmp_path, argv):
    bad_config = tmp_path / "bad.cfg"
    bad_config.write_text("sampling.t_parallel = 1.5\n")
    views_config = tmp_path / "views.cfg"
    views_config.write_text("refine.n_views = 100\n")  # the checkpoint's view head has 300
    fill = {"{bad_config}": bad_config, "{missing}": tmp_path / "missing", "{pred}": workspace / "pred",
            "{checkpoint}": workspace / "model" / "checkpoint.json", "{views_config}": views_config}
    out = tmp_path / "out"
    argv = [argv[0], "--scenes", workspace / "scenes", "--out", out] + [fill.get(a, a) for a in argv[1:]]
    assert run(*argv) == 2
    assert not out.exists()  # usage errors are raised before any output is written


def test_runtime_failure_exits_one(workspace, tmp_path):
    code = run("predict", "--scenes", workspace / "scenes", "--out", tmp_path / "x",
               "--checkpoint", tmp_path / "missing.json")
    assert code == 1
