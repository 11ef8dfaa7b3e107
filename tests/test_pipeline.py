import numpy as np
import pytest

from dualgrasp.geometry import fibonacci_hemisphere
from dualgrasp.grasps import MAX_WIDTH, PARALLEL, VACUUM
from dualgrasp.mlp import MlpModel, ModelConfig
from dualgrasp.pipeline import GraspPipeline, grasp_target_ids
from dualgrasp.refine_parallel import RefineParallelConfig
from dualgrasp.sampling import SamplingConfig


@pytest.fixture(scope="module")
def fallback_pipe():
    return GraspPipeline()


def test_fallback_vacuum_scores_are_fused_scores(small_scene, fallback_pipe):
    cloud, scene, grasps, _ = small_scene
    result = fallback_pipe.propose(cloud, scene, VACUUM, gt_grasps=grasps)
    assert result.status == "ok"
    by_index = dict(zip(result.seeds.indices.tolist(), result.seeds.fused_scores.tolist()))
    for g in result.grasps:
        assert g.score == by_index[g.seed_index]
    scores = [g.score for g in result.grasps]
    assert scores == sorted(scores, reverse=True)


def test_fallback_parallel_ranked_and_on_seeds(small_scene, fallback_pipe):
    cloud, scene, grasps, _ = small_scene
    result = fallback_pipe.propose(cloud, scene, PARALLEL, gt_grasps=grasps)
    seed_set = set(result.seeds.indices.tolist())
    scores = [g.score for g in result.grasps]
    assert scores == sorted(scores, reverse=True)
    cfg = fallback_pipe.refine
    for g in result.grasps:
        assert g.seed_index in seed_set
        assert g.depth in cfg.depth_bins
        assert 0 < g.width <= MAX_WIDTH
        assert abs(np.linalg.norm(g.approach) - 1.0) < 1e-9


def test_no_graspable_region(small_scene, fallback_pipe):
    cloud, scene, grasps, _ = small_scene
    vacuum_only = [g for g in grasps if g.gripper == VACUUM]
    # threshold nothing can pass
    pipe = GraspPipeline(sampling=SamplingConfig(t_parallel=1.0, t_vacuum=1.0))
    result = pipe.propose(cloud, scene, VACUUM, gt_grasps=vacuum_only)
    assert result.status == "no graspable region"
    assert result.grasps == []


def test_max_parallel_refine_caps_work(small_scene):
    cloud, scene, grasps, _ = small_scene
    pipe = GraspPipeline(max_parallel_refine=5)
    result = pipe.propose(cloud, scene, PARALLEL, gt_grasps=grasps)
    assert len(result.grasps) <= 5
    assert len(result.seeds) > 5  # the seed set itself is not truncated


def test_model_mode_learned_head_wiring(small_scene):
    cloud, scene, grasps, _ = small_scene
    rcfg = RefineParallelConfig(n_views=24)
    model = MlpModel(
        ModelConfig(n_views=24), np.random.default_rng(0)
    )
    pipe = GraspPipeline(model=model, refine=rcfg)
    maps, feats = pipe.predict_maps(cloud, scene)
    assert np.allclose(maps.objectness, 0.5)  # zero-init heads
    result = pipe.propose(cloud, scene, PARALLEL, gt_grasps=None, maps=maps, feats=feats)
    views = fibonacci_hemisphere(24)
    fused_by_seed = dict(zip(result.seeds.indices.tolist(), result.seeds.fused_scores.tolist()))
    for g in result.grasps[:5]:
        # zero logits everywhere: argmax view/angle/depth/score land on index 0
        assert np.allclose(g.approach, -views[0])
        assert g.angle_deg == 0.0
        assert g.depth == rcfg.depth_bins[0]
        # decoded lowest-bin score (0.05) gated by the seed's fused map score
        assert g.score == pytest.approx(0.05 * fused_by_seed[g.seed_index])


@pytest.mark.parametrize("head, size", [("n_views", 16), ("n_angle_bins", 6), ("n_angle_bins", 24),
                                        ("n_depth_bins", 2), ("n_score_bins", 5)])
def test_model_view_count_mismatch_rejected(head, size):
    """Every refiner head must have the size of the refine grid it decodes against."""
    model = MlpModel(ModelConfig(**{head: size}), np.random.default_rng(0))
    with pytest.raises(ValueError, match=f"{head} {size} != "):
        GraspPipeline(model=model, refine=RefineParallelConfig())
    GraspPipeline(model=MlpModel(ModelConfig(), np.random.default_rng(0)), refine=RefineParallelConfig())


def test_fallback_needs_gt_grasps(small_scene, fallback_pipe):
    cloud, scene, _, _ = small_scene
    with pytest.raises(ValueError):
        fallback_pipe.predict_maps(cloud, scene, None)


def test_clearing_adapter_filters_removed_objects(small_scene, fallback_pipe):
    cloud, scene, grasps, _ = small_scene
    targets = grasp_target_ids(scene, grasps)
    assert set(targets) <= {p.object_id for p in scene.objects()}
    adapter = fallback_pipe.clearing_adapter(gt_grasps=grasps, object_of_grasp=targets)
    proposals, seed_idx = adapter(cloud, scene, VACUUM)
    assert len(proposals) > 0
    assert len(seed_idx) > 0

    from dualgrasp.scenes import remove_object

    gone = scene.objects()[0].object_id
    cloud2, scene2 = remove_object(cloud, scene, gone)
    proposals2, _ = adapter(cloud2, scene2, VACUUM)
    remaining = {p.object_id for p in scene2.objects()}
    for g in proposals2:
        assert scene2.per_point_object_id[g.seed_index] in remaining
