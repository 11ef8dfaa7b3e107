"""Grasps of both gripper families as one set of columns, and their JSON records.

A parallel grasp is [center, approach, angle, width, depth, score]: the jaw
closing line runs through center + depth * approach, along the in-plane
direction given by angle (see geometry.closing_directions). A vacuum grasp is
[center, normal, score]. A Grasps set holds M grasps as columns, the way the
GraspNet-1Billion and SuctionNet-1Billion APIs hold a scene's grasps as one
array; ground truth also carries each grasp's oracle quality.

Each gripper has one fixed geometry, shared by its oracle, the label-map
collision filters, the pose search and evaluation, as the GraspNet-1Billion
jaw and the SuctionNet-1Billion cup are shared by their labels and metrics.
"""

from dataclasses import dataclass, fields

import numpy as np

from .geometry import closing_directions, unit_rows

PARALLEL = "parallel"
VACUUM = "vacuum"

MAX_WIDTH = 0.1  # jaw opening [m]
WIDTH_MARGIN = 0.005  # clearance added to a contact span to set the opening [m]
FINGER_LENGTH = 0.04  # finger extent along the approach [m]
JAW_THICKNESS = 0.01  # finger thickness [m]
CUP_RADIUS = 0.01  # suction-cup radius [m]

GRASP_SCHEMA_VERSION = 1  # of a grasp file, whose "grasps" list holds Grasps.records()


def _column(values, m: int) -> np.ndarray:
    """A fresh float64 (m,) column from a scalar or m values."""
    return np.full(m, values, dtype=np.float64)


@dataclass(eq=False)
class Grasps:
    """M grasps as columns, in one order: row i of every column is grasp i.

    Columns that do not apply to a row's gripper (angle, width and depth of a
    vacuum grasp) hold NaN. seed_index is in-memory provenance (-1 for none)
    and is not serialized; quality is None except on ground truth.
    """

    gripper: np.ndarray  # (M,) PARALLEL or VACUUM
    center: np.ndarray  # (M, 3)
    axis: np.ndarray  # (M, 3) unit approach (parallel) or unit normal (vacuum)
    angle_deg: np.ndarray  # (M,) in [0, 180)
    width: np.ndarray  # (M,) jaw opening [m]
    depth: np.ndarray  # (M,) [m]
    score: np.ndarray  # (M,)
    seed_index: np.ndarray  # (M,) intp
    quality: np.ndarray = None  # (M,) required friction (parallel) or seal (vacuum)

    @classmethod
    def parallel(cls, center, approach, angle_deg, width, depth, score, seed_index=-1, quality=None):
        """Parallel grasps; every argument but center may be one value for all rows."""
        return cls._coerced(PARALLEL, center, approach, angle_deg, width, depth, score, seed_index, quality)

    @classmethod
    def vacuum(cls, center, normal, score, seed_index=-1, quality=None):
        """Vacuum grasps; every argument but center may be one value for all rows."""
        return cls._coerced(VACUUM, center, normal, np.nan, np.nan, np.nan, score, seed_index, quality)

    @classmethod
    def _coerced(cls, gripper, center, axis, angle_deg, width, depth, score, seed_index, quality):
        """Columns coerced as a single grasp always was: float64, unit axes (unit_rows, the
        bits of a per-row np.linalg.norm division) and angles modulo 180. One axis spreads over all rows."""
        center = np.array(center, dtype=np.float64).reshape(-1, 3)
        m = len(center)
        axis = np.broadcast_to(np.asarray(axis, dtype=np.float64).reshape(-1, 3), (m, 3))
        return cls(np.full(m, gripper), center, unit_rows(axis), _column(angle_deg, m) % 180.0, _column(width, m),
                   _column(depth, m), _column(score, m), np.full(m, seed_index, dtype=np.intp),
                   None if quality is None else _column(quality, m))

    @classmethod
    def concat(cls, parts):
        """The rows of every set in parts, in order; every set carries quality or none does."""
        columns = [[getattr(p, f.name) for p in parts] for f in fields(cls)]
        return cls(*(None if c[0] is None else np.concatenate(c) for c in columns)) if parts \
            else cls.from_records([])

    @classmethod
    def from_records(cls, records, ground_truth: bool = False):
        """The one reader of grasp records (Grasps.records), checked, then coerced as the constructors coerce.

        A missing field raises KeyError. An unknown gripper, a center or axis
        that is not a finite 3-vector, a non-finite angle, depth or score, a
        width outside (0, MAX_WIDTH] and, on ground truth, a non-finite or
        negative quality raise ValueError. A record without a score scores 0.
        """
        grippers = np.array([d["gripper"] for d in records], dtype=str)
        unknown = grippers[(grippers != PARALLEL) & (grippers != VACUUM)]
        if len(unknown):
            raise ValueError(f"unknown gripper {str(unknown[0])!r}")
        par, m = grippers == PARALLEL, len(records)

        def parallel_column(key):  # NaN on vacuum rows
            return _column([d[key] if p else np.nan for d, p in zip(records, par)], m)

        center = _finite_points([d["center"] for d in records], m, "center")
        axis = _finite_points([d["approach"] if p else d["normal"] for d, p in zip(records, par)], m, "axis")
        angle, width, depth = (parallel_column(k) for k in ("angle_deg", "width_m", "depth_m"))
        score = _column([d.get("score", 0.0) for d in records], m)
        for name, values in (("angle", angle[par]), ("depth", depth[par]), ("score", score)):
            if not np.all(np.isfinite(values)):
                raise ValueError(f"grasp {name} must be finite")
        bad = width[par][~((width[par] > 0) & (width[par] <= MAX_WIDTH))]
        if len(bad):
            raise ValueError(f"grasp width must lie in (0, {MAX_WIDTH}] m, got {bad[0]}")
        quality = _column([d["quality"] for d in records], m) if ground_truth else None
        if ground_truth and not np.all(np.isfinite(quality) & (quality >= 0)):
            raise ValueError("ground-truth quality must be finite and >= 0")
        return cls._coerced(grippers, center, axis, angle, width, depth, score, -1, quality)

    def __len__(self) -> int:
        return len(self.center)

    def __iter__(self):
        """Read-only per-row views, for callers that read one grasp at a time."""
        return (GraspView(self, i) for i in range(len(self)))

    def take(self, rows):
        """The grasps at rows (indices, a boolean mask or a slice, which gives views), in that order."""
        return Grasps(*(None if (c := getattr(self, f.name)) is None else c[rows] for f in fields(self)))

    def ranked(self):
        """The grasps by descending score, ties by ascending seed index."""
        return self.take(np.lexsort((self.seed_index, -self.score)))

    def jaw_centers(self) -> np.ndarray:
        """(M, 3) points center + depth * approach that the jaw closing lines run through."""
        return self.center + self.depth[:, None] * self.axis

    def closings(self) -> np.ndarray:
        """(M, 3) jaw closing directions."""
        return closing_directions(self.axis, self.angle_deg)

    def records(self) -> list:
        """One JSON record per row, as grasp files and scene files store grasps (with quality on ground truth)."""
        rows = zip(self.gripper.tolist(), self.center.tolist(), self.axis.tolist(), self.angle_deg.tolist(),
                   self.width.tolist(), self.depth.tolist(), self.score.tolist())
        out = [
            {"gripper": PARALLEL, "center": c, "approach": a, "angle_deg": angle, "width_m": w, "depth_m": d,
             "score": s} if g == PARALLEL else {"gripper": VACUUM, "center": c, "normal": a, "score": s}
            for g, c, a, angle, w, d, s in rows
        ]
        if self.quality is not None:
            for rec, q in zip(out, self.quality.tolist()):
                rec["quality"] = q
        return out


def _finite_points(values, m: int, name: str) -> np.ndarray:
    """(m, 3) float64 rows; ValueError unless every value is a finite 3-vector."""
    try:
        a = np.array(values, dtype=np.float64).reshape(m, 3)
    except (TypeError, ValueError):
        a = np.full((m, 3), np.nan)
    if not np.all(np.isfinite(a)):
        raise ValueError(f"grasp {name} must be a finite 3-vector")
    return a


class GraspView:
    """Read-only view of one row of a Grasps set: each column's entry as an attribute, quality also as quality_coeff."""

    __slots__ = ("_grasps", "_row")

    def __init__(self, grasps: Grasps, row: int):
        self._grasps, self._row = grasps, row

    def __getattr__(self, name):
        return getattr(self._grasps, "quality" if name == "quality_coeff" else name)[self._row]


def grasp_from_dict(d: dict) -> GraspView:
    """The checked grasp of one record, as a read-only view."""
    return GraspView(Grasps.from_records([d]), 0)
