"""Multitask training: Adam with cosine decay, per-task gradients, gradient surgery.

The parallel task combines its graspness-map loss with the pose-refiner
losses; the vacuum task is its graspness-map loss alone. Those two gradients
go through PCGrad (or a plain mean for the ablation); the objectness gradient
is shared and added unprojected. Batches are whole scenes.
"""

import csv
from dataclasses import dataclass, field

import numpy as np

from .cloud import PointCloud
from .domains import COUNT, POSITIVE_FINITE, SEED, SWITCH, check_fields, setting
from .features import compute_point_features
from .labels import build_label_maps
from .losses import POSITIVE_WEIGHT_PARALLEL, loss_objectness, loss_parallel_graspness, loss_refiner, loss_vacuum
from .mlp import MAP_HEADS, MlpModel, ModelConfig
from .pcgrad import combine_without_surgery, pcgrad
from .refine_parallel import RefineParallelConfig, oracle_search
from .sampling import fuse_scores, select_seeds
from .scenes import SceneAnnotation

# refiner targets come from the best-fused seeds of each training scene
REFINER_SEEDS_PER_SCENE = 8
SEED_THRESHOLD = 0.1


@dataclass
class TrainConfig:
    lr0: float = setting(5e-4, POSITIVE_FINITE)
    epochs: int = setting(22, COUNT)
    batch_size: int = setting(12, COUNT)  # scenes per optimizer step
    pcgrad_enabled: bool = setting(True, SWITCH)
    rng_seed: int = setting(0, SEED)

    def __post_init__(self):
        check_fields(self)


def cosine_lr(lr0: float, epoch: int, total_epochs: int) -> float:
    """Cosine-decayed learning rate for a 0-based epoch index."""
    return float(lr0 * 0.5 * (1.0 + np.cos(np.pi * epoch / total_epochs)))


@dataclass
class PreparedScene:
    """A scene reduced to training arrays: features, map labels, refiner targets."""

    features: np.ndarray  # (N, F)
    objectness: np.ndarray  # (N,)
    parallel_label: np.ndarray  # (N,) graspness in [0, 1]
    vacuum_label: np.ndarray  # (N,) graspness in [0, 1]
    seed_rows: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.intp))
    refiner_targets: dict = None  # view_scores (K, V), width, angle_idx, depth_idx, score_idx


def prepare_training_scene(cloud: PointCloud, scene: SceneAnnotation, grasps,
                           refine_config: RefineParallelConfig = None) -> PreparedScene:
    """Label maps + features + oracle refiner targets for one scene."""
    rcfg = refine_config or RefineParallelConfig()
    maps = build_label_maps(cloud, scene, grasps)
    feats = compute_point_features(cloud, scene.table_height)

    fused = fuse_scores(maps.objectness, maps.parallel_graspness)
    seeds = select_seeds(cloud, fused, SEED_THRESHOLD, REFINER_SEEDS_PER_SCENE)

    found = oracle_search(scene, cloud.points[seeds.indices], rcfg)
    keep = found.reachable
    targets = None
    if np.any(keep):
        targets = {
            "view_scores": found.view_scores[keep],
            "width": found.width[keep],
            "angle_idx": found.angle_idx[keep],
            "depth_idx": found.depth_idx[keep],
            "score_idx": np.minimum(rcfg.n_score_bins - 1,
                                    (found.score[keep] * rcfg.n_score_bins).astype(np.intp)),
        }
    return PreparedScene(
        features=feats,
        objectness=maps.objectness.copy(),
        parallel_label=maps.parallel_graspness.copy(),
        vacuum_label=maps.vacuum_graspness.copy(),
        seed_rows=seeds.indices[keep],
        refiner_targets=targets,
    )


def _init_map_head_biases(model: MlpModel, scenes):
    """Start every head at its base-rate operating point.

    With map-head biases at logit(mean label) the positive and negative
    gradient masses balance from the first step, so the short training runs
    this package targets learn a discriminative direction instead of drifting
    toward "predict the majority". For the 10x-weighted parallel head the
    stationary sigmoid is 10p / (1 + 9p) for positive rate p. Refiner
    classification heads start at the log bin priors and the width regressor
    at the mean target width, for the same reason.
    """
    obj = np.concatenate([s.objectness for s in scenes])
    vac = np.concatenate([s.vacuum_label for s in scenes])
    par = (np.concatenate([s.parallel_label for s in scenes]) > 0).astype(np.float64)
    w = POSITIVE_WEIGHT_PARALLEL
    p_par = par.mean()
    rates = {
        "objectness": obj.mean(),
        "vacuum": vac.mean(),
        "parallel": w * p_par / (1.0 + (w - 1.0) * p_par),
    }
    for head, rate in rates.items():
        rate = float(np.clip(rate, 1e-4, 1.0 - 1e-4))
        model.heads[head][1][0] = np.log(rate / (1.0 - rate))

    targeted = [s.refiner_targets for s in scenes if s.refiner_targets is not None]
    if not targeted:
        return
    model.heads["width"][1][0] = float(np.mean(np.concatenate([t["width"] for t in targeted])))
    view_scores = np.concatenate([t["view_scores"] for t in targeted], axis=0)
    model.heads["view"][1][:] = view_scores.mean(axis=0)
    for head, key in (("angle", "angle_idx"), ("depth", "depth_idx"), ("score", "score_idx")):
        idx = np.concatenate([t[key] for t in targeted])
        dim = model.heads[head][1].shape[0]
        counts = np.bincount(idx, minlength=dim) + 1.0  # Laplace smoothing
        model.heads[head][1][:] = np.log(counts / counts.sum())


class Adam:
    beta1, beta2, eps = 0.9, 0.99, 1e-8

    def __init__(self, n_params: int):
        self.m = np.zeros(n_params)
        self.v = np.zeros(n_params)
        self.t = 0

    def step(self, params: np.ndarray, grad: np.ndarray, lr: float) -> np.ndarray:
        self.t += 1
        self.m = self.beta1 * self.m + (1 - self.beta1) * grad
        self.v = self.beta2 * self.v + (1 - self.beta2) * grad * grad
        m_hat = self.m / (1 - self.beta1**self.t)
        v_hat = self.v / (1 - self.beta2**self.t)
        return params - lr * m_hat / (np.sqrt(v_hat) + self.eps)


def _batch_losses_and_grads(model: MlpModel, batch: list):
    """Forward the concatenated batch, return per-task flat gradients and loss terms."""
    feats = np.concatenate([s.features for s in batch], axis=0)
    obj = np.concatenate([s.objectness for s in batch])
    par = np.concatenate([s.parallel_label for s in batch])
    vac = np.concatenate([s.vacuum_label for s in batch])

    rows, targets = _stack_refiner_targets(batch)
    # the refiner heads run on the seed rows only; with no seed, not at all
    outputs, cache = model.forward(feats, MAP_HEADS if rows is None else None, rows)
    n_total = len(feats)

    l_obj, g_obj = loss_objectness(outputs["objectness"][:, 0], obj)
    l_vac, g_vac = loss_vacuum(outputs["vacuum"][:, 0], vac)
    l_par, g_par = loss_parallel_graspness(outputs["parallel"][:, 0], par)

    parallel_head_grads = {"parallel": g_par[:, None]}
    l_ref = 0.0
    if rows is not None:
        l_ref, ref_grads, _ = loss_refiner(
            outputs["view"], outputs["width"][:, 0], outputs["angle"], outputs["depth"], outputs["score"], targets
        )
        for head in ("view", "angle", "depth", "width", "score"):
            parallel_head_grads[head] = ref_grads[head]

    grad_parallel_task, grad_vacuum_task, grad_objectness = model.backward(
        cache, [parallel_head_grads, {"vacuum": g_vac[:, None]}, {"objectness": g_obj[:, None]}]
    )

    losses = {"obj": l_obj, "vac": l_vac, "par": l_par, "refiner": l_ref}
    return grad_parallel_task, grad_vacuum_task, grad_objectness, losses, n_total


def _stack_refiner_targets(batch):
    rows, parts = [], []
    offset = 0
    for s in batch:
        if s.refiner_targets is not None and len(s.seed_rows):
            rows.append(s.seed_rows + offset)
            parts.append(s.refiner_targets)
        offset += len(s.features)
    if not rows:
        return None, None
    targets = {
        key: np.concatenate([p[key] for p in parts], axis=0)
        for key in ("view_scores", "width", "angle_idx", "depth_idx", "score_idx")
    }
    return np.concatenate(rows), targets


def train(scenes: list, config: TrainConfig = None, refine_config: RefineParallelConfig = None):
    """Train the per-point predictor on prepared scenes.

    The refiner head sizes come from refine_config (the grid the scenes'
    refiner targets were prepared on). Deterministic for a given (scenes,
    config, refine_config). Returns (model, history)
    where history holds one row per epoch: epoch, lr, loss_obj, loss_vac,
    loss_par, loss_refiner. Raises on non-finite losses.
    """
    if not scenes:
        raise ValueError("need at least one training scene")
    cfg = config or TrainConfig()
    rng = np.random.default_rng(cfg.rng_seed)
    rcfg = refine_config or RefineParallelConfig()
    model = MlpModel(ModelConfig(feature_dim=scenes[0].features.shape[1], **rcfg.head_sizes()), rng)

    all_feats = np.concatenate([s.features for s in scenes], axis=0)
    model.set_feature_stats(all_feats.mean(axis=0), all_feats.std(axis=0))
    _init_map_head_biases(model, scenes)
    model.meta = {"variant": "multitask+pcgrad" if cfg.pcgrad_enabled else "w/o PCGrad"}

    params = model.get_flat_params()
    adam = Adam(model.n_params())
    history = []

    for epoch in range(cfg.epochs):
        lr = cosine_lr(cfg.lr0, epoch, cfg.epochs)
        order = rng.permutation(len(scenes))
        sums = {"obj": 0.0, "vac": 0.0, "par": 0.0, "refiner": 0.0}
        weight = 0
        for start in range(0, len(scenes), cfg.batch_size):
            batch = [scenes[i] for i in order[start : start + cfg.batch_size]]
            g_par, g_vac, g_obj, losses, n_pts = _batch_losses_and_grads(model, batch)
            for key in sums:
                if not np.isfinite(losses[key]):
                    raise RuntimeError(f"non-finite {key} loss at epoch {epoch}: {losses[key]}")
                sums[key] += losses[key] * n_pts
            weight += n_pts
            task_grads = [g_par, g_vac]
            combined = pcgrad(task_grads, rng) if cfg.pcgrad_enabled else combine_without_surgery(task_grads)
            combined = combined + g_obj
            params = adam.step(params, combined, lr)
            model.set_flat_params(params)
        history.append({"epoch": epoch, "lr": lr, **{f"loss_{k}": total / weight for k, total in sums.items()}})
    return model, history


def save_history_csv(path, history, variant: str = None):
    """Training log: one row per epoch, in the columns of the rows. Deterministic, no timestamps."""
    with open(path, "w", newline="") as f:
        if variant:
            f.write(f"# variant: {variant}\n")
        writer = csv.DictWriter(f, fieldnames=list(history[0]))
        writer.writeheader()
        for row in history:
            writer.writerow({k: repr(v) if isinstance(v, float) else v for k, v in row.items()})
