"""Byte-level pins of the learned and oracle paths on one fixed scene.

The grasp and target digests were captured from the per-seed implementation
that preceded refine_parallel.oracle_search and learned_refine_batch; the
point-feature and map-score digests from the per-point covariance loop that
preceded the batched feature kernel. Any change that moves a single bit of a
fallback grasp, a learned-head grasp, a training target, a point feature or a
map score fails here.
"""

import hashlib

import numpy as np
import pytest

from dualgrasp.features import compute_point_features
from dualgrasp.grasps import PARALLEL
from dualgrasp.labels import build_label_maps
from dualgrasp.mlp import MAP_HEADS, MlpModel, ModelConfig
from dualgrasp.pipeline import GraspPipeline
from dualgrasp.refine_parallel import RefineParallelConfig, fallback_refine_batch
from dualgrasp.scenes import SynthConfig, generate_scene, sample_ground_truth_grasps
from dualgrasp.train import prepare_training_scene


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
    "fields": "099e59eea8369c2d68c01dbd",
    "seed_index": "79df23bd34e7c00a8df4ebe1",
}

LEARNED_GOLDEN = {
    "dropped": 0,
    "count": 568,
    "fields": "a8d5edf712b61197fce7e13a",
    "seed_index": "4a1d1e46ef29d2e47b0fdc52",
}

TARGETS_GOLDEN = {
    "seed_rows": "1bfa9888a2ddf47a6b031ddc",
    "view_scores": "a687ff020729c33c97a7d2db",
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


def grasp_digests(grasps, dropped):
    fields = np.array([
        [*g.center, *g.approach, g.angle_deg, g.width, g.depth, g.score] for g in grasps
    ])
    return {
        "dropped": dropped,
        "count": len(grasps),
        "fields": _digest(fields),
        "seed_index": _digest(np.array([g.seed_index for g in grasps], dtype=np.int64)),
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


def target_digests(cloud, scene, grasps):
    prepared = prepare_training_scene(cloud, scene, grasps)
    out = {"seed_rows": _digest(prepared.seed_rows.astype(np.int64))}
    for key, value in prepared.refiner_targets.items():
        out[key] = _digest(value.astype(np.int64) if value.dtype.kind == "i" else value)
    return out


def test_fallback_grasps_byte_identical(golden_scene):
    cloud, scene, _ = golden_scene
    assert fallback_digests(cloud, scene) == FALLBACK_GOLDEN


def test_learned_grasps_byte_identical(golden_scene):
    assert learned_digests(*golden_scene) == LEARNED_GOLDEN


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
