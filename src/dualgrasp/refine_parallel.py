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

oracle_search can take known probe rows and then scores only the views marked
unknown; a ProbeMemory keeps those rows across a clearing loop's removals.
"""

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .cloud import PointCloud
from .domains import COUNT, POSITIVE_FINITE_LIST, check_fields, setting
from .geometry import approach_frames, fibonacci_hemisphere, unit_rows
from .grasps import MAX_WIDTH, WIDTH_MARGIN, Grasps
from .scenes import ContactBatch, SceneAnnotation, friction_to_graspness, parallel_quality_batch

# small preference for near-vertical approaches when view scores tie;
# tabletop objects admit many friction-equivalent tilts and the oracle
# alone cannot rank reachability
VIEW_VERTICAL_BIAS = 0.02


@dataclass
class RefineParallelConfig:
    n_views: int = setting(300, COUNT)
    n_angle_bins: int = setting(12, COUNT)
    depth_bins: tuple[float, ...] = setting((0.01, 0.02, 0.03, 0.04), POSITIVE_FINITE_LIST)
    n_score_bins: int = setting(10, COUNT)
    # strides thinning the (angle, depth) grid when the fallback ranks views;
    # the winning view is always refined on the full grid
    probe_angle_stride: int = setting(2, COUNT)
    probe_depth_stride: int = setting(2, COUNT)

    def __post_init__(self):
        check_fields(self)

    def angle_values(self) -> np.ndarray:
        return 180.0 * np.arange(self.n_angle_bins) / self.n_angle_bins

    def score_bin_values(self) -> np.ndarray:
        """Representative score per classification bin (uniform bin centers)."""
        return (np.arange(self.n_score_bins) + 0.5) / self.n_score_bins

    def head_sizes(self) -> dict:
        """The ModelConfig refiner head sizes whose outputs decode against this grid."""
        return {
            "n_views": self.n_views,
            "n_angle_bins": self.n_angle_bins,
            "n_depth_bins": len(self.depth_bins),
            "n_score_bins": self.n_score_bins,
        }


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


PoseSearch = namedtuple(
    "PoseSearch", ["view_scores", "view_winners", "view", "angle_idx", "depth_idx", "width", "score", "reachable"]
)


def _view_lines(approaches, angles, depths):
    """Jaw-line offsets (3, M, D) and closing directions (3, M, D, A) of M approaches on a (depth, angle) grid.

    Both are coordinate columns: the jaw line for candidate (m, d, a) at a
    seed runs through seed + offsets[:, m, d], that is depth d * approach m,
    along dirs[:, m, d, a], the angle-a closing direction of that approach's
    frame. Each closing has the bits of geometry.closing_directions, which
    Grasps.closings also takes.
    """
    e1, e2 = approach_frames(approaches)
    rad = np.deg2rad(angles)
    closings = np.cos(rad) * e1.T[:, :, None] + np.sin(rad) * e2.T[:, :, None]
    dirs = np.broadcast_to(closings[:, :, None, :], (3, len(approaches), len(depths), len(angles)))
    return approaches.T[:, :, None] * depths, np.ascontiguousarray(dirs)


def _grid_qualities(scene: SceneAnnotation, seeds, offsets, dirs):
    """Oracle ContactBatch of the jaw lines of P (seed, approach) pairs, each field (P, D, A).

    seeds is (P, 3); offsets (3, P, D) and dirs (3, P, D, A) are C-contiguous
    gathers of _view_lines' columns. The lines go in (pair, depth, angle)
    order, so the A lines of a jaw center are adjacent and the origins are
    one repeat of the (pair, depth) centers. They reach parallel_quality_batch
    as the transposes of (3, P * D * A) columns, which it holds without a
    copy. Callers that reduce over a pair's grid transpose its fields to
    (P, A, D) first, the order of the reductions' elements.
    """
    centers = (seeds.T[:, :, None] + offsets).reshape(3, -1)
    origins = np.repeat(centers, dirs.shape[3], axis=1)
    res = parallel_quality_batch(scene, origins.T, dirs.reshape(3, -1).T, np.full(origins.shape[1], MAX_WIDTH))
    return ContactBatch(*(field.reshape(dirs.shape[1:]) for field in res))


def oracle_search(scene: SceneAnnotation, seed_points, config: RefineParallelConfig,
                  angle_stride: int = 1, depth_stride: int = 1, chunk_lines: int = 1 << 16,
                  known=None) -> PoseSearch:
    """Best oracle parallel pose at each of S seeds: the one pose search of the package.

    Views are ranked by mean candidate graspness over the (angle, depth) grid,
    thinned by the strides, minus VIEW_VERTICAL_BIAS * (1 - view z). Averaging
    (rather than taking the best candidate) ranks views by how many of their
    jaw-line bins actually reach the object, which concentrates the score
    around surface-normal approaches; the bias settles the remaining near-ties
    toward reachable top-down poses. The winning view (ties: lowest index) is
    then searched on the full grid for the lowest required friction (ties:
    lowest (angle, depth)). The (seed, view) probe rows go to the oracle in
    chunks of at most chunk_lines jaw lines (and at least one row), then the
    winning views' full grids in chunks of at most chunk_lines lines (and at
    least one seed).

    chunk_lines bounds the search's working set. The oracle's temporaries
    take 180-250 B per jaw line of a chunk, against about 7 kB per seed for
    the search's own rows, so the chunk sets the peak memory of every process
    that searches poses (each predict --jobs worker). The default is small
    for that reason: on a four-object scene, a probe search of 256 seeds on
    the objects peaks at 19 MiB of traced allocations at 1 << 16 and at
    63 MiB at 1 << 18. It is also the fastest size measured; below it the
    oracle's fixed cost per call starts to show. Chunking never changes a
    result: a jaw line's oracle result does not depend on the batch it
    travels in.

    known, if given, is a (view_scores, view_winners) pair shaped like this
    function's fields of those names, from an earlier search of the same seed
    points on a scene that held this one's objects (the same primitives) and
    possibly more. Only its NaN view scores are evaluated; the others are
    taken as they are. That is exact when no line of such a view was won by an
    object this scene lacks: a jaw line's oracle result depends only on its
    winning object (parallel_quality_batch), so removing any other object
    leaves it bit for bit the same. The full grid is always searched.

    Returns a PoseSearch of per-seed arrays: view_scores (S, V), view_winners
    (S, V, K), true where object k of scene.objects() won a probe line of the
    view, view index, angle_idx, depth_idx, width (jaw span plus
    WIDTH_MARGIN, capped at MAX_WIDTH), score (graspness of the best
    candidate) and reachable (some full-grid candidate can close). Only
    reachable rows carry a meaningful pose.
    """
    seeds = np.asarray(seed_points, dtype=np.float64).reshape(-1, 3)
    views = fibonacci_hemisphere(config.n_views)
    angles = config.angle_values()
    depths = np.asarray(config.depth_bins)
    probe_offsets, probe_dirs = _view_lines(-views, angles[::angle_stride], depths[::depth_stride])
    ids = np.array([p.object_id for p in scene.objects()], dtype=np.intp)
    s_n, v_n = len(seeds), len(views)

    if known is None:
        view_scores, view_winners = np.full((s_n, v_n), np.nan), np.zeros((s_n, v_n, len(ids)), dtype=bool)
    else:
        view_scores, view_winners = np.array(known[0], dtype=np.float64), np.array(known[1], dtype=bool)
    todo = np.flatnonzero(np.isnan(view_scores))
    per_chunk = max(1, chunk_lines // (probe_dirs.shape[2] * probe_dirs.shape[3]))  # pairs of a probe chunk
    for start in range(0, len(todo), per_chunk):
        pairs = todo[start:start + per_chunk]
        s_idx, v_idx = np.divmod(pairs, v_n)
        probe_mu, winner = _grid_qualities(scene, seeds[s_idx], probe_offsets.take(v_idx, axis=1),
                                           probe_dirs.take(v_idx, axis=1))[:2]
        graspness = friction_to_graspness(probe_mu).transpose(0, 2, 1).reshape(len(pairs), -1)
        quality = np.mean(graspness, axis=1)
        view_scores.flat[pairs] = quality - VIEW_VERTICAL_BIAS * (1.0 - views[v_idx, 2])
        # (lines, objects, pairs), reduced over its contiguous leading axis in any line order
        won = np.ascontiguousarray(winner.reshape(len(pairs), -1).T)[:, None, :] == ids[:, None]
        view_winners.reshape(s_n * v_n, len(ids))[pairs] = np.any(won, axis=0).T

    view = np.argmax(view_scores, axis=1)
    offsets, dirs = _view_lines(-views, angles, depths)
    n_grid = len(angles) * len(depths)
    mu = np.empty((s_n, len(angles), len(depths)))
    t0, t1 = np.empty_like(mu), np.empty_like(mu)
    per_chunk = max(1, chunk_lines // n_grid)
    for start in range(0, s_n, per_chunk):
        rows = slice(start, start + per_chunk)
        full = _grid_qualities(scene, seeds[rows], offsets.take(view[rows], axis=1), dirs.take(view[rows], axis=1))
        mu[rows], t0[rows], t1[rows] = (f.transpose(0, 2, 1) for f in (full.mu, full.t0, full.t1))

    mu, t0, t1 = (f.reshape(s_n, n_grid) for f in (mu, t0, t1))
    best = np.argmin(mu, axis=1)
    pick = np.arange(s_n), best
    reach = np.maximum(np.abs(t0[pick]), np.abs(t1[pick]))
    return PoseSearch(
        view_scores=view_scores,
        view_winners=view_winners,
        view=view,
        angle_idx=best // len(depths),
        depth_idx=best % len(depths),
        width=np.minimum(MAX_WIDTH, 2.0 * reach + WIDTH_MARGIN),
        score=friction_to_graspness(mu[pick]),
        reachable=np.any(np.isfinite(mu), axis=1),
    )


class ProbeMemory:
    """The probe rows (view scores and winners) of oracle_search for every point seeded so far.

    A row store over one scene state's points, whose owner moves it along a
    chain of states. remove(keep, object_ids) moves it to the state without
    some whole objects: the rows of the kept points carry over, and the views
    a removed object won are marked for re-evaluation (NaN score).
    forget(n_points, object_ids) empties it for an unrelated state.
    object_ids are the state's objects in scene.objects() order, which
    indexes the winners' last axis. lines_evaluated and lines_reused count the
    probe jaw lines that searches through it sent to the oracle and took from
    it.
    """

    def __init__(self, config: RefineParallelConfig):
        self.n_views = config.n_views
        self.lines_per_view = len(config.angle_values()[::config.probe_angle_stride]) \
            * len(config.depth_bins[::config.probe_depth_stride])
        self.lines_evaluated = self.lines_reused = 0
        self.forget(0, ())

    def forget(self, n_points: int, object_ids):
        self.row = np.full(n_points, -1, dtype=np.intp)
        self.scores = np.empty((0, self.n_views))
        self.winners = np.zeros((0, self.n_views, len(object_ids)), dtype=bool)
        self.ids = list(object_ids)

    def remove(self, keep, object_ids):
        gone = ~np.isin(self.ids, object_ids)
        self.scores[np.any(self.winners[:, :, gone], axis=2)] = np.nan
        self.winners = self.winners[:, :, ~gone]
        self.row = self.row[keep]
        self.ids = list(object_ids)

    def recall(self, seed_indices):
        """oracle_search's known rows for these seeds; unseen seeds get all-NaN rows."""
        fresh = np.unique(seed_indices[self.row[seed_indices] < 0])
        if len(fresh):
            self.row[fresh] = len(self.scores) + np.arange(len(fresh))
            self.scores = np.vstack([self.scores, np.full((len(fresh), self.n_views), np.nan)])
            self.winners = np.concatenate([self.winners, np.zeros((len(fresh),) + self.winners.shape[1:], bool)])
        rows = self.row[seed_indices]
        scores = self.scores[rows]
        evaluated = int(np.count_nonzero(np.isnan(scores)))
        self.lines_evaluated += evaluated * self.lines_per_view
        self.lines_reused += (scores.size - evaluated) * self.lines_per_view
        return scores, self.winners[rows]

    def store(self, seed_indices, found: PoseSearch):
        rows = self.row[seed_indices]
        self.scores[rows] = found.view_scores
        self.winners[rows] = found.view_winners


def fallback_refine_batch(cloud: PointCloud, scene: SceneAnnotation, seed_indices,
                          config: RefineParallelConfig, probes: ProbeMemory = None):
    """Oracle-driven parallel poses for many seeds: oracle_search on the probe grid.

    With probes, which must be on the state of (cloud, scene), the search
    takes the probe rows that memory holds for these seeds and leaves its own
    rows in it. Seeds with no reachable candidate are dropped. Returns
    (grasps, dropped_count), the grasps in seed order.
    """
    seed_indices = np.asarray(seed_indices, dtype=np.intp)
    known = None if probes is None else probes.recall(seed_indices)
    found = oracle_search(scene, cloud.points[seed_indices], config,
                          config.probe_angle_stride, config.probe_depth_stride, known=known)
    if probes is not None:
        probes.store(seed_indices, found)
    rows = np.flatnonzero(found.reachable)
    grasps = Grasps.parallel(
        center=cloud.points[seed_indices[rows]],
        approach=-fibonacci_hemisphere(config.n_views)[found.view[rows]],
        angle_deg=config.angle_values()[found.angle_idx[rows]],
        width=found.width[rows],
        depth=np.asarray(config.depth_bins, dtype=np.float64)[found.depth_idx[rows]],
        score=found.score[rows],
        seed_index=seed_indices[rows],
    )
    return grasps, len(seed_indices) - len(grasps)


def learned_refine_batch(cloud: PointCloud, seed_indices, refiner_out: dict, config: RefineParallelConfig):
    """Decode MLP refiner outputs (one row per seed) into one parallel pose per seed.

    refiner_out holds MlpModel.forward's outputs of the mlp.REFINER_HEADS, by
    those names: (S, dim) logits of view, angle, depth and score, and the
    (S, 1) width. Each row takes the argmax view, angle, depth and score bin
    (ties: lowest index) and its regressed width clamped to [1e-4, MAX_WIDTH].
    The approach is the grid approach of the view normalized twice (unit_rows
    here, and again by Grasps.parallel), which can differ from the fallback's
    approach, normalized once, in the last bit.
    """
    grid = fibonacci_hemisphere(config.n_views)
    views = np.argmax(refiner_out["view"], axis=1)
    angles = config.angle_values()[np.argmax(refiner_out["angle"], axis=1)]
    depths = np.asarray(config.depth_bins)[np.argmax(refiner_out["depth"], axis=1)]
    scores = config.score_bin_values()[np.argmax(refiner_out["score"], axis=1)]
    widths = np.clip(refiner_out["width"][:, 0], 1e-4, MAX_WIDTH)
    seed_indices = np.asarray(seed_indices, dtype=np.intp)
    return Grasps.parallel(cloud.points[seed_indices], unit_rows(-grid[views]), angles, widths, depths, scores,
                           seed_index=seed_indices)
