"""Byte-level pins of the learned and oracle paths on one fixed scene.

The learned-grasp and discrete target digests were captured from the
per-seed implementation that preceded refine_parallel.oracle_search and
learned_refine_batch; the point-feature and map-score digests from the
per-point covariance loop that preceded the batched feature kernel. Any change
that moves a single bit of a fallback grasp, a learned-head grasp, a training
target, a point feature or a map score fails here.

Three digests were re-captured when every primitive transform became
row-exact and the pose search took its frames from geometry.approach_frames:
the fallback-grasp fields (one of 24 rows moved, by at most 1.9e-15
relative), the view-score targets (50 of 2100 entries moved, by at most
2.2e-16 absolute) and the trained parameters that follow from those targets.
Counts, seed indices and every discrete target stayed the same.

The vacuum-proposal digests were captured before GraspPipeline.propose
seeded both grippers through one step.

The ground-truth grasp and label-map digests were captured from the
per-candidate seal oracle, per-grasp ownership scans and one-grasp collision
filters that preceded seal_quality_batch, owning_objects and the batched
filters.

OpenBLAS sums depend on its thread count, so the trained-parameter run goes
through a fresh interpreter: once with BLAS threads pinned to 1 (the
benchmark's setting) and once with the thread variables unset, where importing
dualgrasp must pin them; its bits still depend on the BLAS build (OpenBLAS
0.3.31, x86-64).
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dualgrasp
from dualgrasp.features import compute_point_features
from dualgrasp.grasps import PARALLEL, VACUUM
from dualgrasp.labels import GraspnessMaps, build_label_maps
from dualgrasp.mlp import MAP_HEADS, MlpModel, ModelConfig
from dualgrasp.pipeline import GraspPipeline
from dualgrasp.refine_parallel import RefineParallelConfig, fallback_refine_batch
from dualgrasp.scenes import SynthConfig, generate_scene, sample_ground_truth_grasps
from dualgrasp.train import TrainConfig, prepare_training_scene, train


def _digest(arr) -> str:
    arr = np.ascontiguousarray(arr)
    head = f"{arr.dtype.str}{arr.shape}".encode()
    return hashlib.sha256(head + arr.tobytes()).hexdigest()[:24]


@pytest.fixture(scope="module")
def golden_scene():
    cfg = SynthConfig(kinds=("box", "sphere", "plane-slab"), density=25000.0)
    cloud, scene = generate_scene(42, 3, cfg)
    return cloud, scene, sample_ground_truth_grasps(scene, cfg, seed=42)


FALLBACK_GOLDEN = {
    "dropped": 8,
    "count": 24,
    "fields": "c853776ac74ea489401ae7b0",
    "seed_index": "79df23bd34e7c00a8df4ebe1",
}

LEARNED_GOLDEN = {
    "dropped": 0,
    "count": 568,
    "fields": "a8d5edf712b61197fce7e13a",
    "seed_index": "4a1d1e46ef29d2e47b0fdc52",
}

VACUUM_PROPOSALS_GOLDEN = {
    "label maps": {
        "dropped": 3,
        "count": 875,
        "fields": "7413db4c90e65b37acf31ecb",
        "seed_index": "a394139e2f666aa920377650",
    },
    "model maps": {
        "dropped": 16,
        "count": 1008,
        "fields": "2d1b287bb2eba52223c00258",
        "seed_index": "877286dc4771d44f6c4f9256",
    },
}

TARGETS_GOLDEN = {
    "seed_rows": "1bfa9888a2ddf47a6b031ddc",
    "view_scores": "43ec99d454bd7320639227be",
    "width": "2d8b3ef8470f2f36e965e83a",
    "angle_idx": "ce6322d5b3809c253eaaa539",
    "depth_idx": "7c044e86c87271a9b6067e7b",
    "score_idx": "12b960c1a5a10c9eb5bd7fdb",
}


FEATURES_GOLDEN = "81f1a3a74cd52f3fda9de8b4"

MAP_SCORES_GOLDEN = {
    "objectness": "a82e2dc75274d983516bc193",
    "parallel": "d7c07fabf4e9ebb139ec80cb",
    "vacuum": "128fb0f1d1e7b09ceb307d85",
}


TRAINED_PARAMS_GOLDEN = "fa23cf359da0ec681732d6cd"

GT_GRASPS_GOLDEN = {
    "order": "c4d9d7e395d87fd4db704252",
    "parallel": "1b8fedab1f22aeb5407af384",
    "vacuum": "d724b707c1d77cf6f2d9da2e",
}

LABEL_MAPS_GOLDEN = {
    "objectness": "03f6021669c38feabd2496ae",
    "graspness_parallel": "ca7cc30eaeccd1d3c5a2c82b",
    "graspness_vacuum": "11eef3057377becbb52639c8",
}

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def grasp_digests(grasps, dropped):
    fields = np.column_stack([grasps.center, grasps.axis, grasps.angle_deg, grasps.width, grasps.depth,
                              grasps.score])
    return {
        "dropped": dropped,
        "count": len(grasps),
        "fields": _digest(fields),
        "seed_index": _digest(grasps.seed_index.astype(np.int64)),
    }


def fallback_digests(cloud, scene):
    on_object = np.flatnonzero(scene.per_point_object_id > 0)
    on_table = np.flatnonzero(scene.per_point_object_id == 0)
    seeds = np.concatenate([on_object[::40], on_table[::700]])
    return grasp_digests(*fallback_refine_batch(cloud, scene, seeds, RefineParallelConfig()))


def random_model(feats):
    model = MlpModel(ModelConfig(), np.random.default_rng(5))
    model.set_flat_params(np.random.default_rng(6).normal(0.0, 0.01, model.n_params()))
    model.set_feature_stats(feats.mean(axis=0), feats.std(axis=0))
    model.heads["width"][0] *= 0.1  # widths around 0.05, some past the clamp
    model.heads["width"][1][:] = 0.05
    return model


def learned_digests(cloud, scene, grasps):
    """Learned pose head of a randomly weighted model, seeded from the label maps."""
    feats = compute_point_features(cloud, scene.table_height)
    model = random_model(feats)
    maps = build_label_maps(cloud, scene, grasps)
    result = GraspPipeline(model=model).propose(cloud, scene, PARALLEL, maps=maps, feats=feats)
    return grasp_digests(result.grasps, result.dropped_seeds)


def vacuum_proposal_digests(cloud, scene, grasps):
    """Vacuum proposals of GraspPipeline.propose: untrained on the label maps, and on learned_digests' model's maps."""
    maps = build_label_maps(cloud, scene, grasps)
    fallback = GraspPipeline().propose(cloud, scene, VACUUM, maps)
    feats = compute_point_features(cloud, scene.table_height)
    model = random_model(feats)
    scores = model.predict_map_scores(feats)
    model_maps = GraspnessMaps(scores["objectness"], scores["parallel"], scores["vacuum"])
    learned = GraspPipeline(model=model).propose(cloud, scene, VACUUM, model_maps, feats)
    return {name: grasp_digests(r.grasps, r.dropped_seeds)
            for name, r in (("label maps", fallback), ("model maps", learned))}


def target_digests(cloud, scene, grasps):
    prepared = prepare_training_scene(cloud, scene, grasps)
    out = {"seed_rows": _digest(prepared.seed_rows.astype(np.int64))}
    for key, value in prepared.refiner_targets.items():
        out[key] = _digest(value.astype(np.int64) if value.dtype.kind == "i" else value)
    return out


def gt_grasp_digests(grasps):
    """Gripper order, and pose fields plus quality per gripper, of ground-truth grasps."""
    par = grasps.take(grasps.gripper == PARALLEL)
    vac = grasps.take(grasps.gripper == VACUUM)
    return {
        "order": _digest(grasps.gripper == PARALLEL),
        "parallel": _digest(np.column_stack([par.center, par.axis, par.angle_deg, par.width, par.depth,
                                             par.score, par.quality])),
        "vacuum": _digest(np.column_stack([vac.center, vac.axis, vac.score, vac.quality])),
    }


def trained_params_digest():
    """Flat parameters after a 2-epoch train on the golden scene."""
    cfg = SynthConfig(kinds=("box", "sphere", "plane-slab"), density=25000.0)
    cloud, scene = generate_scene(42, 3, cfg)
    prepared = prepare_training_scene(cloud, scene, sample_ground_truth_grasps(scene, cfg, seed=42))
    model, _ = train([prepared], TrainConfig(epochs=2))
    return _digest(model.get_flat_params())


def test_fallback_grasps_byte_identical(golden_scene):
    cloud, scene, _ = golden_scene
    assert fallback_digests(cloud, scene) == FALLBACK_GOLDEN


def test_learned_grasps_byte_identical(golden_scene):
    assert learned_digests(*golden_scene) == LEARNED_GOLDEN


def test_vacuum_proposals_byte_identical(golden_scene):
    assert vacuum_proposal_digests(*golden_scene) == VACUUM_PROPOSALS_GOLDEN


def test_training_targets_byte_identical(golden_scene):
    assert target_digests(*golden_scene) == TARGETS_GOLDEN


def test_point_features_byte_identical(golden_scene):
    cloud, scene, _ = golden_scene
    assert _digest(compute_point_features(cloud, scene.table_height)) == FEATURES_GOLDEN


def test_map_scores_byte_identical(golden_scene):
    cloud, scene, _ = golden_scene
    feats = compute_point_features(cloud, scene.table_height)
    scores = random_model(feats).predict_map_scores(feats)
    assert list(scores) == list(MAP_HEADS)
    assert {name: _digest(value) for name, value in scores.items()} == MAP_SCORES_GOLDEN


def test_gt_grasps_byte_identical(golden_scene):
    assert gt_grasp_digests(golden_scene[2]) == GT_GRASPS_GOLDEN


def test_label_maps_byte_identical(golden_scene):
    maps = build_label_maps(*golden_scene)
    assert {name: _digest(value) for name, value in maps.channels().items()} == LABEL_MAPS_GOLDEN


def trained_params_digest_in_subprocess(env) -> str:
    """trained_params_digest in a fresh interpreter that imports dualgrasp before numpy."""
    src = str(Path(dualgrasp.__file__).resolve().parents[1])
    tests = str(Path(__file__).resolve().parent)
    env = dict(env, PYTHONPATH=os.pathsep.join([src, tests]))
    code = "import dualgrasp, test_golden_refine as g; print(g.trained_params_digest())"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_trained_params_byte_identical():
    env = dict(os.environ, **{var: "1" for var in BLAS_THREAD_VARS})
    assert trained_params_digest_in_subprocess(env) == TRAINED_PARAMS_GOLDEN


def test_package_pins_blas_threads():
    env = {key: value for key, value in os.environ.items() if key not in BLAS_THREAD_VARS}
    assert trained_params_digest_in_subprocess(env) == TRAINED_PARAMS_GOLDEN
