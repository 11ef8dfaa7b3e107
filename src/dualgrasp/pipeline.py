"""End-to-end grasp proposal: maps -> fused scores -> seeds -> per-gripper refinement.

Two prediction modes share the downstream path: "model" runs the trained MLP
on point features; "fallback" uses oracle label maps built from a scene's
ground-truth grasps (no training required) together with the geometric grasp
head. Proposals come back ranked by score; an empty seed set is a valid
"no graspable region" outcome, not an error.
"""

from dataclasses import dataclass, field

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


@dataclass(eq=False)
class _SceneState:
    """A scene state a ClearingAdapter keeps: its features and maps (model mode) and each gripper's proposal."""

    cloud: PointCloud
    scene: SceneAnnotation
    feature_state: FeatureState = None
    maps: GraspnessMaps = None
    proposals: dict = field(default_factory=dict)  # gripper -> (ranked grasps, seed indices)

    def holds(self, cloud, scene) -> bool:
        return self.cloud is cloud and self.scene is scene


class ClearingAdapter:
    """Callable (cloud, scene, gripper) -> (ranked grasps, seed indices) for clearing loops on scene.

    It redoes only the work a scene change requires. It keeps the first state
    it was called on and the latest one, and a call on either returns that
    state's proposal for the gripper if it has one. A state that is the
    latest minus whole objects (scenes.removal_mask) updates the latest's
    FeatureState, which recomputes only the neighbourhoods that lost a point,
    and keeps the probe rows of the surviving points, so the oracle pose head
    re-scores only the views a removed object won. Any other new state starts
    afresh; a return to the first state reuses its features and forgets the
    probe rows. In fallback mode gt_grasps must cover the full scene, and each
    state proposes from those whose owning object it still holds. One adapter
    may serve the loops of both grippers.
    """

    def __init__(self, pipe: GraspPipeline, scene: SceneAnnotation, gt_grasps=None):
        self.pipe = pipe
        self.gt_grasps = gt_grasps
        self.owners = None if gt_grasps is None else owning_objects(scene, [g.pose.center for g in gt_grasps])
        self.first = self.latest = None
        self.probes = ProbeMemory(pipe.refine)

    def __call__(self, cloud, scene, gripper):
        state = self._state(cloud, scene)
        if gripper not in state.proposals:
            grasps = self.gt_grasps
            if grasps is not None:
                alive = np.isin(self.owners, [p.object_id for p in scene.objects()])
                grasps = [g for g, kept in zip(grasps, alive) if kept]
            feats = None if state.feature_state is None else state.feature_state.features
            result = self.pipe.propose(cloud, scene, gripper, gt_grasps=grasps, maps=state.maps, feats=feats,
                                       probes=self.probes)
            state.proposals[gripper] = (result.grasps, result.seeds.indices)
        return state.proposals[gripper]

    def _state(self, cloud, scene) -> _SceneState:
        latest = self.latest
        if latest is not None and latest.holds(cloud, scene):
            return latest
        ids = [p.object_id for p in scene.objects()]
        if self.first is not None and self.first.holds(cloud, scene):
            self.probes.forget(len(cloud), ids)  # its rows were the latest state's
            self.latest = self.first
            return self.first
        keep = None if latest is None else removal_mask(latest.cloud, latest.scene, cloud, scene)
        if keep is None:
            self.probes.forget(len(cloud), ids)
        else:
            self.probes.remove(keep, ids)
        self.latest = state = _SceneState(cloud, scene)
        if self.pipe.model is not None:
            state.feature_state = FeatureState.fresh(cloud, scene.table_height) if keep is None \
                else latest.feature_state.remove(cloud, keep)
            state.maps = self.pipe._model_maps(state.feature_state.features)
        if self.first is None:
            self.first = state
        return state
