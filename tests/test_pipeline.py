import numpy as np
import pytest
from scipy.spatial import cKDTree

from dualgrasp.clearing import run_clearing_loop
from dualgrasp.cloud import PointCloud
from dualgrasp.features import FEATURE_RADIUS, FeatureState, compute_point_features
from dualgrasp.geometry import fibonacci_hemisphere
from dualgrasp.grasps import MAX_WIDTH, PARALLEL, VACUUM
from dualgrasp.mlp import MlpModel, ModelConfig
from dualgrasp.pipeline import GraspPipeline, grasp_target_ids
from dualgrasp.primitives import Primitive
from dualgrasp.refine_parallel import RefineParallelConfig
from dualgrasp.sampling import SamplingConfig
from dualgrasp.scenes import SceneAnnotation


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


# -- clearing rounds through one adapter --------------------------------------------------


def row_of_boxes():
    """Three boxes 1 cm apart in a row: a removed box's side face lies in its neighbour's neighbourhoods."""
    prims = [Primitive("box", (0.04, 0.04, 0.03), translation=(x, 0.0, 0.015), object_id=i + 1)
             for i, x in enumerate((-0.05, 0.0, 0.05))]
    rng = np.random.default_rng(5)
    pts, ids, flat = [], [], []
    for p in prims:
        q, _, f = p.sample_surface(600, rng)
        up = q[:, 2] > 1e-6  # the bottom faces rest on the table
        pts.append(q[up])
        flat.append(f[up])
        ids.append(np.full(np.count_nonzero(up), p.object_id))
    cloud = PointCloud(np.vstack(pts), viewpoint=(0.0, 0.0, 1.0))
    scene = SceneAnnotation(primitives=prims, table_height=0.0, camera_viewpoint=(0.0, 0.0, 1.0),
                            per_point_object_id=np.concatenate(ids), per_point_flat=np.concatenate(flat))
    return cloud, scene


def seeding_pipe():
    """A small model whose maps seed the box tops; its zero refiner heads give parallel grasps that miss."""
    model = MlpModel(ModelConfig(hidden=(8,), n_views=24), np.random.default_rng(0))
    bypass = model.config.hidden[-1]  # head rows past the trunk read the standardized features
    model.heads["objectness"][0][bypass + 0, 0] = 100.0 / model.config.bypass_gain  # height
    model.heads["objectness"][1][0] = -1.0
    model.heads["vacuum"][0][bypass + 3, 0] = 4.0 / model.config.bypass_gain  # normal z
    return GraspPipeline(model=model, refine=RefineParallelConfig(n_views=24),
                         sampling=SamplingConfig(m_parallel=64, m_vacuum=64))


def clear_both(cloud, scene, pipeline):
    """(metrics, attempts) of a parallel then a vacuum clearing run of the same scene."""
    runs = [run_clearing_loop(cloud, scene, pipeline, gripper) for gripper in (PARALLEL, VACUUM)]
    return [(m, t.attempts) for m, t in runs]


def test_clearing_features_equal_a_fresh_pass_every_round(monkeypatch):
    cloud, scene = row_of_boxes()
    ids = scene.per_point_object_id
    for a, b in ((1, 2), (2, 3)):
        gaps, _ = cKDTree(cloud.points[ids == b]).query(cloud.points[ids == a])
        assert gaps.min() < FEATURE_RADIUS
    fresh, propose = FeatureState.fresh.__func__, GraspPipeline.propose
    builds, seen = [], []

    def counted_fresh(cls, cloud, table_height):
        builds.append(len(cloud))
        return fresh(cls, cloud, table_height)

    def spy(self, cloud, scene, gripper, gt_grasps=None, maps=None, feats=None):
        seen.append((cloud, scene, feats))
        return propose(self, cloud, scene, gripper, gt_grasps, maps, feats)

    monkeypatch.setattr(FeatureState, "fresh", classmethod(counted_fresh))
    monkeypatch.setattr(GraspPipeline, "propose", spy)
    (_, parallel), (_, vacuum) = clear_both(cloud, scene, seeding_pipe().clearing_adapter())
    monkeypatch.undo()

    assert parallel == [(-1, False)] * 3 and vacuum == [(1, True), (2, True), (3, True)]
    assert builds == [len(cloud)]  # the vacuum loop starts from the parallel loop's full-scene state
    assert [len(c) for c, _, _ in seen] == [len(cloud), len(cloud), 958, 474]
    for c, s, feats in seen:
        assert feats.tobytes() == compute_point_features(c, s.table_height).tobytes()


def test_clearing_adapter_proposes_once_per_scene_state(monkeypatch):
    cloud, scene = row_of_boxes()
    pipe = seeding_pipe()

    def unmemoised(c, s, g):
        result = pipe.propose(c, s, g)
        return result.grasps, result.seeds.indices

    expected = clear_both(cloud, scene, unmemoised)

    propose, calls, rounds = GraspPipeline.propose, [], []

    def counted_propose(self, c, s, g, *args, **kwargs):
        calls.append((c, s, g))
        return propose(self, c, s, g, *args, **kwargs)

    monkeypatch.setattr(GraspPipeline, "propose", counted_propose)
    adapter = pipe.clearing_adapter()

    def counted_round(c, s, g):
        rounds.append((c, s, g))
        return adapter(c, s, g)

    assert clear_both(cloud, scene, counted_round) == expected
    assert len(rounds) == 6 and len(calls) == 4  # three parallel rounds on one unchanged scene
    # the lists keep every state alive, so no two of them share an id
    states = [{(id(c), id(s), g) for c, s, g in runs} for runs in (calls, rounds)]
    assert len(states[0]) == len(calls) and states[0] == states[1]
