"""End-to-end grasp proposal: maps -> fused scores -> seeds -> per-gripper refinement.

Two prediction modes share the downstream path: "model" runs the trained MLP
on point features; "fallback" uses oracle label maps built from a scene's
ground-truth grasps (no training required) together with the geometric grasp
head. Proposals come back ranked by score; an empty seed set is a valid
"no graspable region" outcome, not an error.
"""

from dataclasses import dataclass

import numpy as np

from .cloud import PointCloud
from .features import FeatureState, compute_point_features
from .grasps import PARALLEL, VACUUM
from .labels import GraspnessMaps, build_label_maps
from .mlp import MlpModel
from .refine_parallel import ProbeMemory, RefineParallelConfig, fallback_refine_batch, learned_refine_batch
from .refine_vacuum import refine_vacuum_poses, rank_vacuum
from .sampling import SamplingConfig, SeedSet, fuse_scores, select_seeds
from .scenes import SceneAnnotation, owning_objects, removal_mask


@dataclass
class PipelineResult:
    gripper: str
    grasps: list
    seeds: SeedSet
    dropped_seeds: int = 0

    @property
    def status(self) -> str:
        return "ok" if len(self.seeds) else "no graspable region"


class GraspPipeline:
    """Scene -> ranked grasp proposals for one or both grippers."""

    def __init__(self, model: MlpModel = None,
                 sampling: SamplingConfig = None,
                 refine: RefineParallelConfig = None,
                 max_parallel_refine: int = None,
                 pose_head: str = None):
        self.model = model
        self.sampling = sampling or SamplingConfig()
        self.refine = refine or RefineParallelConfig()
        # Refine only the max_parallel_refine best-fused seeds (None = all);
        # a throughput knob for the oracle-driven fallback in tight loops.
        self.max_parallel_refine = max_parallel_refine
        # parallel pose completion: "learned" decodes the model's refiner
        # heads; "oracle" runs the geometric searcher even when a model
        # provides the maps (ranking then stays purely prediction-driven)
        if pose_head is None:
            pose_head = "oracle" if model is None else "learned"
        if pose_head not in ("learned", "oracle"):
            raise ValueError(f"unknown pose_head {pose_head!r}")
        if pose_head == "learned" and model is None:
            raise ValueError("learned pose head needs a model")
        self.pose_head = pose_head
        if model is not None:
            misfit = [f"{name} {getattr(model.config, name)} != {size}"
                      for name, size in self.refine.head_sizes().items() if getattr(model.config, name) != size]
            if misfit:
                raise ValueError(f"model refiner heads do not fit the refine config: {', '.join(misfit)}")

    def predict_maps(self, cloud: PointCloud, scene: SceneAnnotation, gt_grasps=None):
        """Predicted maps from the model, or oracle label maps in fallback mode."""
        if self.model is not None:
            feats = compute_point_features(cloud, scene.table_height)
            return self._model_maps(feats), feats
        if gt_grasps is None:
            raise ValueError("fallback mode needs the scene's ground-truth grasps")
        maps = build_label_maps(cloud, scene, gt_grasps)
        return maps, None

    def _model_maps(self, feats) -> GraspnessMaps:
        scores = self.model.predict_map_scores(feats)
        return GraspnessMaps(scores["objectness"], scores["parallel"], scores["vacuum"])

    def propose(self, cloud: PointCloud, scene: SceneAnnotation, gripper: str,
                gt_grasps=None, maps=None, feats=None, probes: ProbeMemory = None) -> PipelineResult:
        """Ranked proposals of one gripper; probes lends the oracle pose head its known probe rows."""
        if maps is None:
            maps, feats = self.predict_maps(cloud, scene, gt_grasps)
        if gripper == VACUUM:
            fused = fuse_scores(maps.objectness, maps.vacuum_graspness)
            seeds = select_seeds(cloud, fused, self.sampling.t_vacuum, self.sampling.m_vacuum, VACUUM)
            if not len(seeds):
                return PipelineResult(VACUUM, [], seeds)
            grasps, dropped = refine_vacuum_poses(cloud, seeds)
            return PipelineResult(VACUUM, rank_vacuum(grasps, len(grasps)), seeds, dropped)

        fused = fuse_scores(maps.objectness, maps.parallel_graspness)
        seeds = select_seeds(cloud, fused, self.sampling.t_parallel, self.sampling.m_parallel, PARALLEL)
        if not len(seeds):
            return PipelineResult(PARALLEL, [], seeds)
        refine_seeds = seeds
        if self.max_parallel_refine is not None and len(seeds) > self.max_parallel_refine:
            order = np.lexsort((seeds.indices, -seeds.fused_scores))[: self.max_parallel_refine]
            refine_seeds = SeedSet(PARALLEL, seeds.indices[order], seeds.fused_scores[order])
        grasps, dropped = self._refine_parallel(cloud, scene, refine_seeds, feats, probes)
        if self.model is not None:
            # prediction-driven ranking: gate the decoded pose score by the map
            # confidence at its seed (with the oracle pose head the decoded
            # score is oracle knowledge, so the fused score replaces it fully)
            by_index = dict(zip(refine_seeds.indices.tolist(), refine_seeds.fused_scores.tolist()))
            for g in grasps:
                g.score = g.score * by_index[g.seed_index] if self.pose_head == "learned" \
                    else by_index[g.seed_index]
        grasps.sort(key=lambda g: (-g.score, g.seed_index))
        return PipelineResult(PARALLEL, grasps, seeds, dropped)

    def _refine_parallel(self, cloud, scene, seeds: SeedSet, feats, probes):
        if self.pose_head == "oracle":
            return fallback_refine_batch(cloud, scene, seeds.indices, self.refine, probes)
        if feats is None:
            feats = compute_point_features(cloud, scene.table_height)
        refiner_out = self.model.refiner_outputs(feats[seeds.indices])
        return learned_refine_batch(cloud, seeds.indices, refiner_out, self.refine), 0

    def clearing_adapter(self, gt_grasps=None, object_of_grasp=None):
        """Callable (cloud, scene, gripper) -> (grasps, seed indices) for the clearing loop.

        In fallback mode gt_grasps must cover the full scene; grasps whose
        target object is gone are filtered out each round via object_of_grasp
        (a list of object ids aligned with gt_grasps). One adapter may serve
        the loops of both grippers on the same scene.
        """
        return _ClearingAdapter(self, gt_grasps, object_of_grasp)


class _ClearingAdapter:
    """Proposals for the clearing loop that redo only the work a removal requires.

    A call with the cloud and scene of the same gripper's previous call, which
    the loop makes after a failed or empty round, returns that call's result.
    In model mode the features come from a FeatureState: the first scene's
    state and the latest one are kept, and a scene that is one of them minus
    whole objects updates it rather than recomputing every neighbourhood.
    The oracle pose head searches through one ProbeMemory (probes), so after
    a removal it re-scores only the probe views that a removed object won.
    """

    def __init__(self, pipe: GraspPipeline, gt_grasps, object_of_grasp):
        self.pipe = pipe
        self.gt_grasps = gt_grasps
        self.object_of_grasp = object_of_grasp
        self.last = {}  # gripper -> (cloud, scene, (grasps, seed indices)) of its previous call
        self.known = []  # (scene, FeatureState, maps) of the first scene and of the latest one
        self.probes = ProbeMemory(pipe.refine)

    def __call__(self, cloud, scene, gripper):
        last = self.last.get(gripper)
        if last is not None and last[0] is cloud and last[1] is scene:
            return last[2]
        grasps = self.gt_grasps
        if grasps is not None and self.object_of_grasp is not None:
            alive = {p.object_id for p in scene.objects()}
            grasps = [g for g, oid in zip(self.gt_grasps, self.object_of_grasp) if oid in alive]
        maps, feats = self._maps_and_features(cloud, scene) if self.pipe.model is not None else (None, None)
        result = self.pipe.propose(cloud, scene, gripper, gt_grasps=grasps, maps=maps, feats=feats,
                                   probes=self.probes)
        self.last[gripper] = (cloud, scene, (result.grasps, result.seeds.indices))
        return self.last[gripper][2]

    def _maps_and_features(self, cloud, scene):
        for known_scene, state, maps in self.known:
            if known_scene is scene and state.cloud is cloud:
                return maps, state.features
        state = None
        for known_scene, known, _ in reversed(self.known):
            keep = removal_mask(known.cloud, known_scene, cloud, scene)
            if keep is not None:
                state = known.remove(cloud, keep)
                break
        if state is None:
            state = FeatureState.fresh(cloud, scene.table_height)
        maps = self.pipe._model_maps(state.features)
        self.known = self.known[:1] + [(scene, state, maps)]
        return maps, state.features


def grasp_target_ids(scene: SceneAnnotation, gt_grasps) -> list:
    """Object id owning each ground-truth grasp (nearest primitive surface), -1 for none."""
    ids = owning_objects(scene, [g.pose.center for g in gt_grasps])
    return np.where(ids > 0, ids, -1).tolist()
