"""Parallel pose refinement: approach-view selection, grasp heads, cylinder grouping.

Views are stored as upward (sky-pointing) unit vectors on a Fibonacci
hemisphere; the gripper approaches along the negated view. Two interchangeable
grasp heads complete the pose: a learned head decoding MLP refiner outputs
(learned_refine_batch, one pose per seed), and a geometric fallback
(fallback_refine_batch) that takes the best oracle pose from oracle_search and
drops seeds with no reachable candidate, which makes the full pipeline
runnable untrained. oracle_search also produces the refiner training targets.
Neither head groups points: a seed always lies in its own cylinder group
(cylinder_group), so a group is never empty.
"""

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .cloud import PointCloud
from .geometry import fibonacci_hemisphere
from .grasps import ParallelGrasp
from .scenes import SceneAnnotation, friction_to_graspness, parallel_quality_batch


@dataclass
class RefineParallelConfig:
    n_views: int = 300
    n_angle_bins: int = 12
    depth_bins: tuple = (0.01, 0.02, 0.03, 0.04)
    max_width: float = 0.1
    width_margin: float = 0.005
    n_score_bins: int = 10
    # strides thinning the (angle, depth) grid when the fallback ranks views;
    # the winning view is always refined on the full grid
    probe_angle_stride: int = 2
    probe_depth_stride: int = 2
    # small preference for near-vertical approaches when view scores tie;
    # tabletop objects admit many friction-equivalent tilts and the oracle
    # alone cannot rank reachability
    view_vertical_bias: float = 0.02

    def angle_values(self) -> np.ndarray:
        return 180.0 * np.arange(self.n_angle_bins) / self.n_angle_bins

    def score_bin_values(self) -> np.ndarray:
        """Representative score per classification bin (uniform bin centers)."""
        return (np.arange(self.n_score_bins) + 0.5) / self.n_score_bins


@dataclass
class ViewGrid:
    views: np.ndarray  # (V, 3) unit vectors, upper hemisphere

    def __post_init__(self):
        self.views = np.asarray(self.views, dtype=np.float64)
        norms = np.linalg.norm(self.views, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-9):
            raise ValueError("views must be unit vectors")

    @classmethod
    def build(cls, count: int) -> "ViewGrid":
        return cls(views=fibonacci_hemisphere(count))

    def __len__(self) -> int:
        return len(self.views)

    def approach(self, view_index: int) -> np.ndarray:
        """Approach direction for a view: the negated (downward) grid vector."""
        return -self.views[view_index]


@dataclass
class CylinderGroup:
    seed_index: int
    view: np.ndarray  # approach direction
    member_indices: np.ndarray
    radius: float
    height: float

    def __len__(self) -> int:
        return len(self.member_indices)


def cylinder_group(cloud: PointCloud, seed_index: int, view, radius: float, height: float) -> CylinderGroup:
    """Cloud points inside the directed cylinder centered on the seed along the view."""
    if radius <= 0 or height <= 0:
        raise ValueError("cylinder radius and height must be positive")
    v = np.asarray(view, dtype=np.float64)
    v = v / np.linalg.norm(v)
    rel = cloud.points - cloud.points[seed_index]
    proj = rel @ v
    perp = np.linalg.norm(rel - proj[:, None] * v, axis=1)
    members = np.flatnonzero((np.abs(proj) <= height / 2.0) & (perp <= radius))
    return CylinderGroup(seed_index=seed_index, view=v, member_indices=members, radius=radius, height=height)


def _approach_frames(approaches: np.ndarray):
    """Vectorized approach_frame over (M, 3) approach directions."""
    v = np.atleast_2d(approaches)
    ref = np.array([0.0, 0.0, 1.0])
    c = np.cross(v, np.broadcast_to(ref, v.shape))
    bad = np.linalg.norm(c, axis=1) < 1e-8
    if np.any(bad):
        c[bad] = np.cross(v[bad], np.broadcast_to(np.array([1.0, 0.0, 0.0]), v[bad].shape))
    e1 = c / np.linalg.norm(c, axis=1, keepdims=True)
    e2 = np.cross(v, e1)
    return e1, e2


PoseSearch = namedtuple(
    "PoseSearch", ["view_scores", "view", "angle_idx", "depth_idx", "width", "score", "reachable"]
)


def _grid_qualities(scene: SceneAnnotation, seeds, approaches, angles, depths, max_width):
    """Oracle (mu, t0, t1) of every (angle, depth) jaw line, each of shape (S, M, A, D).

    approaches is (K, M, 3) with K in {1, S}. The jaw line for candidate
    (s, m, a, d) runs through seed s + depth d * approach m along the angle-a
    closing direction of that approach's frame.
    """
    k_n, m_n = approaches.shape[:2]
    shape = (len(seeds), m_n, len(angles), len(depths))
    e1, e2 = _approach_frames(approaches.reshape(-1, 3))
    rad = np.deg2rad(angles)
    closings = np.cos(rad)[None, :, None] * e1[:, None, :] + np.sin(rad)[None, :, None] * e2[:, None, :]
    closings = closings.reshape(k_n, m_n, len(angles), 3)
    centers = seeds[:, None, None, :] + depths[None, None, :, None] * approaches[:, :, None, :]
    origins = np.broadcast_to(centers[:, :, None, :, :], shape + (3,)).reshape(-1, 3)
    dirs = np.broadcast_to(closings[:, :, :, None, :], shape + (3,)).reshape(-1, 3)
    res = parallel_quality_batch(scene, origins, dirs, np.full(len(origins), max_width))
    return res.mu.reshape(shape), res.t0.reshape(shape), res.t1.reshape(shape)


def oracle_search(scene: SceneAnnotation, seed_points, config: RefineParallelConfig,
                  angle_stride: int = 1, depth_stride: int = 1, chunk_lines: int = 1 << 18) -> PoseSearch:
    """Best oracle parallel pose at each of S seeds: the one pose search of the package.

    Views are ranked by mean candidate graspness over the (angle, depth) grid,
    thinned by the strides, minus view_vertical_bias * (1 - view z). Averaging
    (rather than taking the best candidate) ranks views by how many of their
    jaw-line bins actually reach the object, which concentrates the score
    around surface-normal approaches; the bias settles the remaining near-ties
    toward reachable top-down poses. The winning view (ties: lowest index) is
    then searched on the full grid for the lowest required friction (ties:
    lowest (angle, depth)). Seeds go to the oracle in chunks of at most
    chunk_lines ranking jaw lines (and at least one seed).

    Returns a PoseSearch of per-seed arrays: view_scores (S, V), view index,
    angle_idx, depth_idx, width (jaw span plus margin, capped at max_width),
    score (graspness of the best candidate) and reachable (some full-grid
    candidate can close). Only reachable rows carry a meaningful pose.
    """
    seeds = np.asarray(seed_points, dtype=np.float64).reshape(-1, 3)
    views = ViewGrid.build(config.n_views).views
    angles = config.angle_values()
    depths = np.asarray(config.depth_bins)
    probe_angles, probe_depths = angles[::angle_stride], depths[::depth_stride]
    s_n, v_n = len(seeds), len(views)
    per_chunk = max(1, chunk_lines // (v_n * len(probe_angles) * len(probe_depths)))

    view_scores = np.empty((s_n, v_n))
    mu = np.empty((s_n, len(angles) * len(depths)))
    t0, t1 = np.empty_like(mu), np.empty_like(mu)
    for start in range(0, s_n, per_chunk):
        rows = slice(start, start + per_chunk)
        probe_mu, _, _ = _grid_qualities(scene, seeds[rows], -views[None], probe_angles, probe_depths,
                                         config.max_width)
        quality = np.mean(friction_to_graspness(probe_mu.reshape(len(probe_mu), v_n, -1)), axis=2)
        view_scores[rows] = quality - config.view_vertical_bias * (1.0 - views[None, :, 2])
        approaches = -views[np.argmax(view_scores[rows], axis=1)]
        full = _grid_qualities(scene, seeds[rows], approaches[:, None, :], angles, depths, config.max_width)
        for out, part in zip((mu, t0, t1), full):
            out[rows] = part.reshape(len(approaches), -1)

    best = np.argmin(mu, axis=1)
    pick = np.arange(s_n), best
    reach = np.maximum(np.abs(t0[pick]), np.abs(t1[pick]))
    return PoseSearch(
        view_scores=view_scores,
        view=np.argmax(view_scores, axis=1),
        angle_idx=best // len(depths),
        depth_idx=best % len(depths),
        width=np.minimum(config.max_width, 2.0 * reach + config.width_margin),
        score=friction_to_graspness(mu[pick]),
        reachable=np.any(np.isfinite(mu), axis=1),
    )


def fallback_refine_batch(cloud: PointCloud, scene: SceneAnnotation, seed_indices,
                          config: RefineParallelConfig):
    """Oracle-driven parallel poses for many seeds: oracle_search on the probe grid.

    Seeds with no reachable candidate are dropped. Returns (grasps, dropped_count).
    """
    seed_indices = np.asarray(seed_indices, dtype=np.intp)
    found = oracle_search(scene, cloud.points[seed_indices], config,
                          config.probe_angle_stride, config.probe_depth_stride)
    approaches = -ViewGrid.build(config.n_views).views[found.view]
    angles = config.angle_values()
    grasps = [
        ParallelGrasp(
            center=cloud.points[seed_indices[row]],
            approach=approaches[row],
            angle_deg=float(angles[found.angle_idx[row]]),
            width=float(found.width[row]),
            depth=float(config.depth_bins[found.depth_idx[row]]),
            score=float(found.score[row]),
            seed_index=int(seed_indices[row]),
        )
        for row in np.flatnonzero(found.reachable)
    ]
    return grasps, len(seed_indices) - len(grasps)


def learned_refine_batch(cloud: PointCloud, seed_indices, refiner_out: dict, config: RefineParallelConfig):
    """Decode MLP refiner outputs (one row per seed) into one parallel pose per seed.

    Each row takes the argmax view, angle, depth and score bin (ties: lowest
    index) and its regressed width clamped to [1e-4, max_width]. The approach
    is the re-normalized grid approach of the view, which can differ from the
    fallback's raw grid vector in the last bit.
    """
    grid = ViewGrid.build(config.n_views)
    views = np.argmax(refiner_out["view"], axis=1)
    angles = config.angle_values()[np.argmax(refiner_out["angle_logits"], axis=1)]
    depths = np.asarray(config.depth_bins)[np.argmax(refiner_out["depth_logits"], axis=1)]
    scores = config.score_bin_values()[np.argmax(refiner_out["score_logits"], axis=1)]
    widths = np.clip(refiner_out["width"], 1e-4, config.max_width)
    grasps = []
    for row, seed in enumerate(np.asarray(seed_indices, dtype=np.intp).tolist()):
        v = grid.approach(views[row])
        grasps.append(
            ParallelGrasp(
                center=cloud.points[seed],
                approach=v / np.linalg.norm(v),
                angle_deg=float(angles[row]),
                width=float(widths[row]),
                depth=float(depths[row]),
                score=float(scores[row]),
                seed_index=seed,
            )
        )
    return grasps
