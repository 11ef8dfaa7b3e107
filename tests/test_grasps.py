"""Grasps as columns: records equal the per-row writer's, and reading records back keeps the per-row reader's bits."""

import json

import numpy as np
import pytest

from dualgrasp.features import compute_point_features
from dualgrasp.grasps import MAX_WIDTH, PARALLEL, VACUUM, Grasps, grasp_from_dict
from dualgrasp.json_io import write_json
from dualgrasp.labels import build_label_maps
from dualgrasp.mlp import MlpModel, ModelConfig
from dualgrasp.pipeline import GraspPipeline, SceneProposer
from dualgrasp.scenes import load_scene, save_scene


def grasp_to_dict_reference(g) -> dict:
    """The per-row record writer (grasp_to_dict) that Grasps.records replaced, on one row view."""
    if g.gripper == PARALLEL:
        return {
            "gripper": PARALLEL,
            "center": [float(x) for x in g.center],
            "approach": [float(x) for x in g.axis],
            "angle_deg": float(g.angle_deg),
            "width_m": float(g.width),
            "depth_m": float(g.depth),
            "score": float(g.score),
        }
    return {
        "gripper": VACUUM,
        "center": [float(x) for x in g.center],
        "normal": [float(x) for x in g.axis],
        "score": float(g.score),
    }


def read_reference(d: dict) -> dict:
    """The per-row reader (grasp_from_dict) that Grasps.from_records replaced: as_point, normalize, % 180."""
    axis = np.asarray(d["approach"] if d["gripper"] == PARALLEL else d["normal"], dtype=np.float64).reshape(3)
    row = {"center": np.asarray(d["center"], dtype=np.float64).reshape(3), "axis": axis / np.linalg.norm(axis),
           "score": float(d.get("score", 0.0))}
    if d["gripper"] == PARALLEL:
        row.update(angle_deg=float(d["angle_deg"]) % 180.0, width=float(d["width_m"]), depth=float(d["depth_m"]))
    if "quality" in d:
        row["quality"] = float(d["quality"])
    return row


def canonical(records) -> str:
    return json.dumps(records, sort_keys=True, separators=(",", ":"))


def assert_read_bits(grasps: Grasps, records):
    """Every column of grasps has the bits the per-row reader gives each record."""
    want = [read_reference(d) for d in records]
    assert len(grasps) == len(want) and grasps.gripper.tolist() == [d["gripper"] for d in records]
    par = grasps.gripper == PARALLEL
    for name, column in (("center", grasps.center), ("axis", grasps.axis), ("score", grasps.score),
                         ("angle_deg", grasps.angle_deg[par]), ("width", grasps.width[par]),
                         ("depth", grasps.depth[par]), ("quality", grasps.quality)):
        rows = [w[name] for w in want if name in w]
        if column is None:
            assert not rows, name
            continue
        assert np.array_equal(column.view(np.uint64), np.array(rows, dtype=np.float64).view(np.uint64)), name


@pytest.fixture(scope="module")
def proposals(small_scene):
    """(head, gripper) -> proposals on the shared scene, from the oracle head and from a random model's learned head."""
    cloud, scene, gt, _ = small_scene
    fallback = SceneProposer(GraspPipeline(max_parallel_refine=32), scene, gt)
    feats = compute_point_features(cloud, scene.table_height)
    model = MlpModel(ModelConfig(), np.random.default_rng(5))
    model.set_flat_params(np.random.default_rng(6).normal(0.0, 0.01, model.n_params()))
    model.set_feature_stats(feats.mean(axis=0), feats.std(axis=0))
    maps = build_label_maps(cloud, scene, gt)  # seeds from the label maps: the random maps pass no threshold
    learned = GraspPipeline(model=model)
    out = {}
    for gripper in (PARALLEL, VACUUM):
        out["oracle", gripper] = fallback.propose(cloud, scene, gripper).grasps
        out["learned", gripper] = learned.propose(cloud, scene, gripper, maps, feats).grasps
    assert all(len(g) for g in out.values())
    return out


def test_ground_truth_records_equal_the_per_row_writer(small_scene):
    gt = small_scene[2]
    want = [dict(grasp_to_dict_reference(g), quality=float(g.quality_coeff)) for g in gt]
    assert canonical(gt.records()) == canonical(want)
    assert {d["gripper"] for d in want} == {PARALLEL, VACUUM}


@pytest.mark.parametrize("head", ["oracle", "learned"])
@pytest.mark.parametrize("gripper", [PARALLEL, VACUUM])
def test_proposal_records_equal_the_per_row_writer(proposals, head, gripper):
    grasps = proposals[head, gripper]
    assert canonical(grasps.records()) == canonical([grasp_to_dict_reference(g) for g in grasps])
    assert set(grasps.gripper.tolist()) == {gripper}


def test_scene_json_reads_back_with_the_per_row_bits(small_scene, tmp_path):
    cloud, scene, gt, _ = small_scene
    save_scene(tmp_path / "scene", cloud, scene, gt)
    records = json.loads((tmp_path / "scene.json").read_text())["grasps"]
    _, _, stored = load_scene(tmp_path / "scene")
    assert_read_bits(stored, records)


@pytest.mark.parametrize("head", ["oracle", "learned"])
@pytest.mark.parametrize("gripper", [PARALLEL, VACUUM])
def test_grasp_file_reads_back_with_the_per_row_bits(proposals, tmp_path, head, gripper):
    write_json(tmp_path / "grasps.json", {"grasps": proposals[head, gripper].records()})
    records = json.loads((tmp_path / "grasps.json").read_text())["grasps"]
    assert_read_bits(Grasps.from_records(records), records)


def test_views_read_one_row(small_scene):
    gt = small_scene[2]
    views = list(gt)
    assert [v.gripper for v in views] == gt.gripper.tolist()
    assert [v.quality_coeff for v in views] == gt.quality.tolist()
    assert np.array_equal(views[3].center, gt.center[3])
    d = gt.records()[0]
    assert grasp_from_dict(d).gripper == d["gripper"]
    with pytest.raises(AttributeError):
        views[0].score = 1.0


@pytest.mark.parametrize("gripper", [PARALLEL, VACUUM])
def test_one_axis_spreads_over_every_row(gripper):
    """An axis given once is every row's axis, with the bits of the same axis given per row."""
    centers = np.arange(9.0).reshape(3, 3)
    axis = [0.3, -1.0, 2.0]
    if gripper == PARALLEL:
        one, each = (Grasps.parallel(centers, a, 30.0, 0.05, 0.02, 0.5) for a in (axis, [axis] * 3))
    else:
        one, each = (Grasps.vacuum(centers, a, 0.5) for a in (axis, [axis] * 3))
    assert one.axis.shape == (3, 3)
    assert one.axis.tobytes() == each.axis.tobytes()
    assert one.take([2]).axis.tobytes() == each.axis[2:].tobytes()
    assert one.records() == each.records() and len(one.records()) == 3


@pytest.mark.parametrize("edit, message", [
    ({"width_m": 0}, "width"), ({"width_m": -0.01}, "width"), ({"width_m": MAX_WIDTH * 1.001}, "width"),
    ({"width_m": float("nan")}, "width"), ({"center": [0.0, float("inf"), 0.0]}, "center"),
    ({"approach": [float("nan"), 0.0, 1.0]}, "axis"), ({"angle_deg": float("inf")}, "angle"),
    ({"depth_m": float("nan")}, "depth"), ({"score": float("nan")}, "score"), ({"center": [0.0, 0.0]}, "center"),
    ({"approach": [0.0, 0.0, 0.0]}, "zero vector"), ({"gripper": "claw"}, "gripper"),
])
def test_reader_rejects_impossible_fields(proposals, edit, message):
    good = proposals["oracle", PARALLEL].records()[:3]
    assert len(Grasps.from_records(good)) == 3
    with pytest.raises(ValueError, match=message):
        Grasps.from_records([good[0], dict(good[1], **edit), good[2]])


@pytest.mark.parametrize("quality", [-1e-9, float("nan"), float("inf")])
def test_ground_truth_reader_rejects_impossible_quality(small_scene, quality):
    records = small_scene[2].records()[:2]
    assert len(Grasps.from_records(records, ground_truth=True)) == 2
    with pytest.raises(ValueError, match="quality"):
        Grasps.from_records([records[0], dict(records[1], quality=quality)], ground_truth=True)
    with pytest.raises(KeyError):
        Grasps.from_records([{k: v for k, v in records[0].items() if k != "quality"}], ground_truth=True)
