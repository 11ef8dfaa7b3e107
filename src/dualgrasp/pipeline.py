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
from .features import FeatureConfig, compute_point_features
from .grasps import PARALLEL, VACUUM
from .labels import GraspnessMaps, LabelConfig, build_label_maps
from .mlp import MlpModel
from .refine_parallel import RefineParallelConfig, fallback_refine_batch, learned_refine_batch
from .refine_vacuum import refine_vacuum_poses, rank_vacuum
from .sampling import SamplingConfig, SeedSet, fuse_scores, select_seeds
from .scenes import SceneAnnotation, owning_object


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
                 label_config: LabelConfig = None,
                 feature_config: FeatureConfig = None,
                 normal_radius: float = 0.01,
                 max_parallel_refine: int = None,
                 pose_head: str = None):
        self.model = model
        self.sampling = sampling or SamplingConfig()
        self.refine = refine or RefineParallelConfig()
        self.label_config = label_config or LabelConfig()
        self.feature_config = feature_config or FeatureConfig()
        self.normal_radius = normal_radius
        # Refine only the max_parallel_refine best-fused seeds (None = all);
        # a throughput knob for the oracle-driven fallback in tight loops.
        self.max_parallel_refine = max_parallel_refine
        # parallel pose completion: "learned" decodes the model's refiner
        # heads; "oracle" runs the geometric searcher even when a model
        # provides the maps (ranking then stays purely prediction-driven)
        if pose_head is None:
            pose_head = "learned" if model is not None and model.config.refiner else "oracle"
        if pose_head not in ("learned", "oracle"):
            raise ValueError(f"unknown pose_head {pose_head!r}")
        if pose_head == "learned" and (model is None or not model.config.refiner):
            raise ValueError("learned pose head needs a model with refiner heads")
        self.pose_head = pose_head
        if model is not None and model.config.refiner:
            if model.config.n_views != self.refine.n_views:
                raise ValueError(
                    f"model view head ({model.config.n_views}) does not match refine config "
                    f"({self.refine.n_views})"
                )

    def predict_maps(self, cloud: PointCloud, scene: SceneAnnotation, gt_grasps=None):
        """Prediction-role maps from the model, or oracle label maps in fallback mode."""
        if self.model is not None:
            feats = compute_point_features(cloud, scene.table_height, self.feature_config)
            scores = self.model.predict_map_scores(feats)
            maps = GraspnessMaps(scores["objectness"], scores["parallel"], scores["vacuum"],
                                 role="prediction")
            return maps, feats
        if gt_grasps is None:
            raise ValueError("fallback mode needs the scene's ground-truth grasps")
        maps = build_label_maps(cloud, scene, gt_grasps, self.label_config)
        return maps, None

    def propose(self, cloud: PointCloud, scene: SceneAnnotation, gripper: str,
                gt_grasps=None, maps=None, feats=None) -> PipelineResult:
        if maps is None:
            maps, feats = self.predict_maps(cloud, scene, gt_grasps)
        if gripper == VACUUM:
            fused = fuse_scores(maps.objectness, maps.vacuum_graspness)
            seeds = select_seeds(cloud, fused, self.sampling.t_vacuum, self.sampling.m_vacuum, VACUUM)
            if not len(seeds):
                return PipelineResult(VACUUM, [], seeds)
            grasps, dropped = refine_vacuum_poses(cloud, seeds, self.normal_radius)
            return PipelineResult(VACUUM, rank_vacuum(grasps, len(grasps)), seeds, dropped)

        fused = fuse_scores(maps.objectness, maps.parallel_graspness)
        seeds = select_seeds(cloud, fused, self.sampling.t_parallel, self.sampling.m_parallel, PARALLEL)
        if not len(seeds):
            return PipelineResult(PARALLEL, [], seeds)
        refine_seeds = seeds
        if self.max_parallel_refine is not None and len(seeds) > self.max_parallel_refine:
            order = np.lexsort((seeds.indices, -seeds.fused_scores))[: self.max_parallel_refine]
            refine_seeds = SeedSet(PARALLEL, seeds.indices[order], seeds.fused_scores[order])
        grasps, dropped = self._refine_parallel(cloud, scene, refine_seeds, feats)
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

    def _refine_parallel(self, cloud, scene, seeds: SeedSet, feats):
        if self.pose_head == "oracle":
            return fallback_refine_batch(cloud, scene, seeds.indices, self.refine)
        if feats is None:
            feats = compute_point_features(cloud, scene.table_height, self.feature_config)
        refiner_out = self.model.refiner_outputs(feats[seeds.indices])
        return learned_refine_batch(cloud, seeds.indices, refiner_out, self.refine), 0

    def clearing_adapter(self, gt_grasps=None, object_of_grasp=None):
        """Callable (cloud, scene, gripper) -> (grasps, seed indices) for the clearing loop.

        In fallback mode gt_grasps must cover the full scene; grasps whose
        target object is gone are filtered out each round via object_of_grasp
        (a list of object ids aligned with gt_grasps).
        """

        def run(cloud, scene, gripper):
            grasps = gt_grasps
            if grasps is not None and object_of_grasp is not None:
                alive = {p.object_id for p in scene.objects()}
                grasps = [g for g, oid in zip(gt_grasps, object_of_grasp) if oid in alive]
            result = self.propose(cloud, scene, gripper, gt_grasps=grasps)
            return result.grasps, result.seeds.indices

        return run


def grasp_target_ids(scene: SceneAnnotation, gt_grasps) -> list:
    """Object id owning each ground-truth grasp (nearest primitive surface)."""
    ids = []
    for g in gt_grasps:
        prim = owning_object(scene, np.asarray(g.pose.center, dtype=np.float64))
        ids.append(prim.object_id if prim is not None else -1)
    return ids
