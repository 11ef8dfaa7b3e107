"""End-to-end grasp proposal: maps -> fused scores -> seeds -> per-gripper refinement.

Two prediction modes share the downstream path: "model" runs the trained MLP
on point features; "fallback" uses oracle label maps built from a scene's
ground-truth grasps (no training required) together with the geometric grasp
head. Proposals come back ranked by score; an empty seed set is a valid
"no graspable region" outcome, not an error. SceneProposer is the one way
from a scene state to its maps and proposals.
"""

from dataclasses import dataclass, field

import numpy as np

from .cloud import PointCloud
from .features import FeatureState
from .grasps import VACUUM, Grasps
from .labels import GraspnessMaps, build_label_maps
from .mlp import REFINER_HEADS, MlpModel
from .refine_parallel import ProbeMemory, RefineParallelConfig, fallback_refine_batch, learned_refine_batch
from .refine_vacuum import refine_vacuum_poses
from .sampling import SamplingConfig, SeedSet, fuse_scores, select_seeds
from .scenes import SceneAnnotation, owning_objects, removal_mask


@dataclass
class PipelineResult:
    grasps: Grasps
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

    def propose(self, cloud: PointCloud, scene: SceneAnnotation, gripper: str, maps: GraspnessMaps,
                feats=None, probes: ProbeMemory = None) -> PipelineResult:
        """Ranked proposals of one gripper from the scene's maps: by descending score, ties by seed index.

        The gripper picks its graspness channel, threshold and seed count;
        seeding is then one step for both, and only the pose head differs.
        feats (the point features) feed the learned pose head; probes lends
        the oracle pose head its known probe rows.
        """
        cfg = self.sampling
        graspness, threshold, m = (maps.vacuum_graspness, cfg.t_vacuum, cfg.m_vacuum) if gripper == VACUUM \
            else (maps.parallel_graspness, cfg.t_parallel, cfg.m_parallel)
        seeds = select_seeds(cloud, fuse_scores(maps.objectness, graspness), threshold, m)
        if not len(seeds):
            return PipelineResult(Grasps.from_records([]), seeds)
        if gripper == VACUUM:
            grasps, dropped = refine_vacuum_poses(cloud, seeds)
            return PipelineResult(grasps.ranked(), seeds, dropped)

        refine_seeds = seeds
        if self.max_parallel_refine is not None and len(seeds) > self.max_parallel_refine:
            order = np.lexsort((seeds.indices, -seeds.fused_scores))[: self.max_parallel_refine]
            refine_seeds = SeedSet(seeds.indices[order], seeds.fused_scores[order])
        if self.pose_head == "oracle":
            grasps, dropped = fallback_refine_batch(cloud, scene, refine_seeds.indices, self.refine, probes)
        else:
            refiner_out, _ = self.model.forward(feats[refine_seeds.indices], REFINER_HEADS)
            grasps, dropped = learned_refine_batch(cloud, refine_seeds.indices, refiner_out, self.refine), 0
        if self.model is not None:
            # prediction-driven ranking: gate the decoded pose score by the map
            # confidence at its seed (with the oracle pose head the decoded
            # score is oracle knowledge, so the fused score replaces it fully)
            fused_at = np.zeros(len(cloud))
            fused_at[refine_seeds.indices] = refine_seeds.fused_scores
            gate = fused_at[grasps.seed_index]
            grasps.score = grasps.score * gate if self.pose_head == "learned" else gate
        return PipelineResult(grasps.ranked(), seeds, dropped)


@dataclass(eq=False)
class _SceneState:
    """A scene state a SceneProposer keeps: its maps, its features (model mode) and each gripper's result."""

    cloud: PointCloud
    scene: SceneAnnotation
    maps: GraspnessMaps
    feature_state: FeatureState = None
    results: dict = field(default_factory=dict)  # gripper -> PipelineResult

    def holds(self, cloud, scene) -> bool:
        return self.cloud is cloud and self.scene is scene


class SceneProposer:
    """The way from a scene state to its maps and per-gripper proposals, for predict, sweeps and clearing.

    Called as (cloud, scene, gripper) -> (ranked grasps, seed indices), the
    contract of clearing loops; propose gives the full PipelineResult. Each
    state builds its maps once and proposes once per gripper. The proposer
    keeps the first state it was called on and the latest one, and a call on
    either reuses that state's work. A state that is the latest minus whole
    objects (scenes.removal_mask) updates the latest's FeatureState, which
    recomputes only the neighbourhoods that lost a point, and keeps the probe
    rows of the surviving points, so the oracle pose head re-scores only the
    views a removed object won. Any other new state starts afresh; a return
    to the first state reuses its maps and features and forgets the probe
    rows. In fallback mode gt_grasps must cover the full scene, and each state
    builds its label maps from those whose owning object it still holds.
    """

    def __init__(self, pipe: GraspPipeline, scene: SceneAnnotation, gt_grasps=None):
        self.pipe = pipe
        if pipe.model is None:
            if gt_grasps is None:
                raise ValueError("fallback mode needs the scene's ground-truth grasps")
            self.gt_grasps = gt_grasps
            self.owners = owning_objects(scene, gt_grasps.center)
        self.first = self.latest = None
        self.probes = ProbeMemory(pipe.refine)

    def __call__(self, cloud, scene, gripper):
        result = self.propose(cloud, scene, gripper)
        return result.grasps, result.seeds.indices

    def maps(self, cloud, scene) -> GraspnessMaps:
        return self._state(cloud, scene).maps

    def propose(self, cloud, scene, gripper) -> PipelineResult:
        state = self._state(cloud, scene)
        if gripper not in state.results:
            feats = None if state.feature_state is None else state.feature_state.features
            state.results[gripper] = self.pipe.propose(cloud, scene, gripper, state.maps, feats, self.probes)
        return state.results[gripper]

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
        feature_state = None
        if self.pipe.model is None:
            alive = np.isin(self.owners, ids)
            maps = build_label_maps(cloud, scene, self.gt_grasps.take(alive))
        else:
            feature_state = FeatureState.fresh(cloud, scene.table_height) if keep is None \
                else latest.feature_state.remove(cloud, keep)
            scores = self.pipe.model.predict_map_scores(feature_state.features)
            maps = GraspnessMaps(scores["objectness"], scores["parallel"], scores["vacuum"])
        self.latest = state = _SceneState(cloud, scene, maps, feature_state)
        if self.first is None:
            self.first = state
        return state
