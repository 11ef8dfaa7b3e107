from dataclasses import replace

import numpy as np
import pytest
from scipy.spatial import cKDTree

from dualgrasp.clearing import run_clearing_loop
from dualgrasp.cloud import PointCloud
from dualgrasp.features import FEATURE_RADIUS, FeatureState, compute_point_features
from dualgrasp.geometry import fibonacci_hemisphere
from dualgrasp.grasps import MAX_WIDTH, PARALLEL, VACUUM
from dualgrasp.mlp import MlpModel, ModelConfig
from dualgrasp.labels import GraspnessMaps, build_label_maps
from dualgrasp.pipeline import GraspPipeline, SceneProposer
from dualgrasp.primitives import Primitive
from dualgrasp import refine_parallel
from dualgrasp.refine_parallel import RefineParallelConfig
from dualgrasp.sampling import SamplingConfig
from dualgrasp.scenes import SceneAnnotation, SynthConfig, owning_objects, remove_object, sample_ground_truth_grasps


@pytest.fixture(scope="module")
def fallback_pipe():
    return GraspPipeline()


def test_fallback_vacuum_scores_are_fused_scores(small_scene, fallback_pipe):
    cloud, scene, grasps, _ = small_scene
    result = SceneProposer(fallback_pipe, scene, grasps).propose(cloud, scene, VACUUM)
    assert result.status == "ok"
    by_index = dict(zip(result.seeds.indices.tolist(), result.seeds.fused_scores.tolist()))
    for g in result.grasps:
        assert g.score == by_index[g.seed_index]
    scores = [g.score for g in result.grasps]
    assert scores == sorted(scores, reverse=True)


def test_fallback_parallel_ranked_and_on_seeds(small_scene, fallback_pipe):
    cloud, scene, grasps, _ = small_scene
    result = SceneProposer(fallback_pipe, scene, grasps).propose(cloud, scene, PARALLEL)
    seed_set = set(result.seeds.indices.tolist())
    scores = [g.score for g in result.grasps]
    assert scores == sorted(scores, reverse=True)
    cfg = fallback_pipe.refine
    for g in result.grasps:
        assert g.seed_index in seed_set
        assert g.depth in cfg.depth_bins
        assert 0 < g.width <= MAX_WIDTH
        assert abs(np.linalg.norm(g.axis) - 1.0) < 1e-9


def test_no_graspable_region(small_scene, fallback_pipe):
    cloud, scene, grasps, _ = small_scene
    vacuum_only = grasps.take(grasps.gripper == VACUUM)
    # threshold nothing can pass
    pipe = GraspPipeline(sampling=SamplingConfig(t_parallel=1.0, t_vacuum=1.0))
    result = SceneProposer(pipe, scene, vacuum_only).propose(cloud, scene, VACUUM)
    assert result.status == "no graspable region"
    assert len(result.grasps) == 0


def test_max_parallel_refine_caps_work(small_scene):
    cloud, scene, grasps, _ = small_scene
    pipe = GraspPipeline(max_parallel_refine=5)
    result = SceneProposer(pipe, scene, grasps).propose(cloud, scene, PARALLEL)
    assert len(result.grasps) <= 5
    assert len(result.seeds) > 5  # the seed set itself is not truncated


def test_model_mode_learned_head_wiring(small_scene):
    cloud, scene, grasps, _ = small_scene
    rcfg = RefineParallelConfig(n_views=24)
    model = MlpModel(
        ModelConfig(n_views=24), np.random.default_rng(0)
    )
    pipe = GraspPipeline(model=model, refine=rcfg)
    proposer = SceneProposer(pipe, scene)
    assert np.allclose(proposer.maps(cloud, scene).objectness, 0.5)  # zero-init heads
    result = proposer.propose(cloud, scene, PARALLEL)
    views = fibonacci_hemisphere(24)
    fused_by_seed = dict(zip(result.seeds.indices.tolist(), result.seeds.fused_scores.tolist()))
    for g in result.grasps.take(slice(0, 5)):
        # zero logits everywhere: argmax view/angle/depth/score land on index 0
        assert np.allclose(g.axis, -views[0])
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
    _, scene, _, _ = small_scene
    with pytest.raises(ValueError, match="ground-truth grasps"):
        SceneProposer(fallback_pipe, scene, None)


def test_clearing_adapter_filters_removed_objects(small_scene, fallback_pipe):
    cloud, scene, grasps, _ = small_scene
    proposer = SceneProposer(fallback_pipe, scene, grasps)
    assert set(proposer.owners.tolist()) <= {p.object_id for p in scene.objects()}
    proposals, seed_idx = proposer(cloud, scene, VACUUM)
    assert len(proposals) > 0
    assert len(seed_idx) > 0

    from dualgrasp.scenes import remove_object

    gone = scene.objects()[0].object_id
    cloud2, scene2 = remove_object(cloud, scene, gone)
    proposals2, _ = proposer(cloud2, scene2, VACUUM)
    remaining = {p.object_id for p in scene2.objects()}
    for g in proposals2:
        assert scene2.per_point_object_id[g.seed_index] in remaining


# -- clearing rounds through one proposer -------------------------------------------------


def resting_scene(prims, samples: int):
    """The cloud of the primitives' surfaces above the table (z = 0) and its annotation."""
    rng = np.random.default_rng(5)
    pts, ids, flat = [], [], []
    for p in prims:
        q, _, f = p.sample_surface(samples, rng)
        up = q[:, 2] > 1e-6  # the bottom faces rest on the table
        pts.append(q[up])
        flat.append(f[up])
        ids.append(np.full(np.count_nonzero(up), p.object_id))
    cloud = PointCloud(np.vstack(pts), viewpoint=(0.0, 0.0, 1.0))
    scene = SceneAnnotation(primitives=prims, table_height=0.0,
                            per_point_object_id=np.concatenate(ids), per_point_flat=np.concatenate(flat))
    return cloud, scene


def row_of_boxes():
    """Three boxes 1 cm apart in a row: a removed box's side face lies in its neighbour's neighbourhoods."""
    return resting_scene([Primitive("box", (0.04, 0.04, 0.03), translation=(x, 0.0, 0.015), object_id=i + 1)
                          for i, x in enumerate((-0.05, 0.0, 0.05))], 600)


def seeding_pipe():
    """A small model whose maps seed the box tops; its zero refiner heads give parallel grasps that miss."""
    model = MlpModel(ModelConfig(hidden=(8,), n_views=24), np.random.default_rng(0))
    bypass = model.config.hidden[-1]  # head rows past the trunk read the standardized features
    model.heads["objectness"][0][bypass + 0, 0] = 100.0 / model.config.bypass_gain  # height
    model.heads["objectness"][1][0] = -1.0
    model.heads["vacuum"][0][bypass + 3, 0] = 4.0 / model.config.bypass_gain  # normal z
    return GraspPipeline(model=model, refine=RefineParallelConfig(n_views=24),
                         sampling=SamplingConfig(m_parallel=64, m_vacuum=64))


def fresh_model_proposal(pipe, cloud, scene, gripper):
    """A proposal from features and maps computed afresh."""
    feats = compute_point_features(cloud, scene.table_height)
    scores = pipe.model.predict_map_scores(feats)
    maps = GraspnessMaps(scores["objectness"], scores["parallel"], scores["vacuum"])
    return pipe.propose(cloud, scene, gripper, maps, feats)


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

    def spy(self, cloud, scene, gripper, maps, feats=None, probes=None):
        seen.append((cloud, scene, feats))
        return propose(self, cloud, scene, gripper, maps, feats, probes)

    monkeypatch.setattr(FeatureState, "fresh", classmethod(counted_fresh))
    monkeypatch.setattr(GraspPipeline, "propose", spy)
    (_, parallel), (_, vacuum) = clear_both(cloud, scene, SceneProposer(seeding_pipe(), scene))
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
        result = fresh_model_proposal(pipe, c, s, g)
        return result.grasps, result.seeds.indices

    expected = clear_both(cloud, scene, unmemoised)

    propose, calls, rounds = GraspPipeline.propose, [], []

    def counted_propose(self, c, s, g, *args, **kwargs):
        calls.append((c, s, g))
        return propose(self, c, s, g, *args, **kwargs)

    monkeypatch.setattr(GraspPipeline, "propose", counted_propose)
    proposer = SceneProposer(pipe, scene)

    def counted_round(c, s, g):
        rounds.append((c, s, g))
        return proposer(c, s, g)

    assert clear_both(cloud, scene, counted_round) == expected
    assert len(rounds) == 6 and len(calls) == 4  # three parallel rounds on one unchanged scene
    # the lists keep every state alive, so no two of them share an id
    states = [{(id(c), id(s), g) for c, s, g in runs} for runs in (calls, rounds)]
    assert len(states[0]) == len(calls) and states[0] == states[1]


# -- fallback clearing rounds through the probe memory ------------------------------------


@pytest.fixture(scope="module")
def three_spheres():
    """Spheres 1 cm apart in a row: a removed sphere won jaw lines of its neighbours' seeds that close."""
    cloud, scene = resting_scene([Primitive("sphere", (r,), translation=(x, 0.0, r), object_id=i + 1)
                                  for i, (x, r) in enumerate(((0.0, 0.03), (0.06, 0.02), (-0.06, 0.02)))], 800)
    gt = sample_ground_truth_grasps(scene, SynthConfig(), seed=0)
    return cloud, scene, gt, owning_objects(scene, gt.center)


def probe_pipe():
    return GraspPipeline(sampling=SamplingConfig(m_parallel=128, m_vacuum=128))


def grasp_bytes(grasps) -> bytes:
    return np.column_stack([grasps.center, grasps.axis, grasps.angle_deg, grasps.width, grasps.depth, grasps.score,
                            grasps.seed_index]).tobytes()


def fresh_proposal(pipe, cloud, scene, gt, targets, gripper=PARALLEL):
    """A proposal from label maps built afresh on the ground truth of the objects the scene holds."""
    alive = {p.object_id for p in scene.objects()}
    maps = build_label_maps(cloud, scene, gt.take(np.isin(targets, list(alive))))
    return pipe.propose(cloud, scene, gripper, maps)


def probe_lines(proposer):
    return proposer.probes.lines_evaluated, proposer.probes.lines_reused


def test_fallback_clearing_searches_equal_a_fresh_search_every_round(three_spheres, monkeypatch):
    cloud, scene, gt, targets = three_spheres
    pipe = probe_pipe()
    rcfg = pipe.refine
    proposer = SceneProposer(pipe, scene, gt)
    real, searches, last_scores, changed = refine_parallel.oracle_search, [], {}, []

    def spy(scene, seed_points, config, *args, known=None, **kwargs):
        found = real(scene, seed_points, config, *args, known=known, **kwargs)
        if known is not None:  # a search through the proposer's probe memory
            searches.append((scene, seed_points, found))
            for point, stale, scores in zip(seed_points, np.isnan(known[0]), found.view_scores):
                old = last_scores.get(point.tobytes())
                if old is not None:  # a seed of an earlier round: its re-evaluated views
                    changed.append(np.any(old[stale] != scores[stale]))
                last_scores[point.tobytes()] = scores
        return found

    lines_per_seed = rcfg.n_views * 6 * 2
    counts = []

    def checked_round(c, s, g):
        before = probe_lines(proposer)
        grasps, seeds = proposer(c, s, g)
        fresh = fresh_proposal(pipe, c, s, gt, targets)
        assert seeds.tobytes() == fresh.seeds.indices.tobytes()
        assert grasp_bytes(grasps) == grasp_bytes(fresh.grasps)
        (evaluated, reused), n_seeds = np.subtract(probe_lines(proposer), before), len(seeds)
        assert evaluated + reused == n_seeds * lines_per_seed
        counts.append((evaluated, reused))
        return grasps, seeds

    monkeypatch.setattr(refine_parallel, "oracle_search", spy)
    _, trace = run_clearing_loop(cloud, scene, checked_round, PARALLEL)
    monkeypatch.undo()

    assert trace.attempts == [(3, True), (1, True), (2, True)]
    assert len(searches) == len(counts) == 3
    assert counts[0][1] == 0 and all(reused > 0 for _, reused in counts[1:])
    assert any(changed)  # a removal moved the score of some view that was searched again
    for s, points, found in searches:
        want = real(s, points, rcfg, rcfg.probe_angle_stride, rcfg.probe_depth_stride)
        for a, b in zip(found, want):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_fallback_loops_that_return_to_the_first_state_equal_fresh_proposals(three_spheres):
    """A parallel, a vacuum and a second parallel loop through one proposer, each round against a fresh propose."""
    cloud, scene, gt, targets = three_spheres
    pipe = probe_pipe()
    proposer = SceneProposer(pipe, scene, gt)
    counts = []

    def checked_round(c, s, g):
        before = probe_lines(proposer)
        grasps, seeds = proposer(c, s, g)
        fresh = fresh_proposal(pipe, c, s, gt, targets, g)
        assert seeds.tobytes() == fresh.seeds.indices.tobytes()
        assert grasp_bytes(grasps) == grasp_bytes(fresh.grasps)
        counts.append(tuple(np.subtract(probe_lines(proposer), before)))
        return grasps, seeds

    runs = [run_clearing_loop(cloud, scene, checked_round, g)[1].attempts for g in (PARALLEL, VACUUM, PARALLEL)]
    assert runs[0] == runs[2] == [(3, True), (1, True), (2, True)]
    assert runs[1] and all(ok for _, ok in runs[1])
    first, second = counts[:3], counts[-3:]
    assert first[0][1] == 0 and all(reused > 0 for _, reused in first[1:])
    # the first state's proposal is kept; the rows it left were forgotten, so the next round reuses none
    assert second[0] == (0, 0) and second[1][0] > 0 and second[1][1] == 0 and second[2][1] > 0


def test_probe_memory_is_dropped_when_a_state_is_not_a_removal(three_spheres):
    cloud, scene, gt, targets = three_spheres
    cloud2, scene2 = remove_object(cloud, scene, 2)
    moved = cloud2.points.copy()
    moved[0, 2] += 1e-6
    first, *rest = scene2.primitives
    shifted = replace(first, translation=first.translation + [1e-3, 0.0, 0.0])
    unrelated = [
        (PointCloud(cloud2.points, viewpoint=cloud2.viewpoint + [0.1, 0.0, 0.0]), scene2),  # another viewpoint
        (PointCloud(moved, viewpoint=cloud2.viewpoint), scene2),  # a moved point
        (cloud2, replace(scene2, primitives=[shifted, *rest])),  # a moved object
    ]
    pipe = probe_pipe()
    for c, s in unrelated:
        proposer = SceneProposer(pipe, scene, gt)
        proposer(cloud, scene, PARALLEL)
        evaluated, reused = probe_lines(proposer)
        assert reused == 0
        grasps, seeds = proposer(c, s, PARALLEL)
        fresh = fresh_proposal(pipe, c, s, gt, targets)
        assert seeds.tobytes() == fresh.seeds.indices.tobytes()
        assert grasp_bytes(grasps) == grasp_bytes(fresh.grasps)
        assert probe_lines(proposer) == (evaluated + len(seeds) * pipe.refine.n_views * 6 * 2, 0)
    # the same removal without the change reuses lines
    proposer = SceneProposer(pipe, scene, gt)
    proposer(cloud, scene, PARALLEL)
    proposer(cloud2, scene2, PARALLEL)
    assert probe_lines(proposer)[1] > 0
