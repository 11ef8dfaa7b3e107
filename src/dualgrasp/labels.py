"""Supervised multi-gripper graspness maps built from ground-truth grasps.

Pipeline: drop grasps colliding with other objects or the table, drop vacuum
grasps sealing below 0.004, prune below-table and background points, then give
every surviving point the quality of its nearest grasp per gripper. The vacuum
channel is min-max rescaled to [0, 1] and values under 0.1 are zeroed; the
parallel channel maps required friction mu to graspness 1 - mu. The filters
use the fixed gripper geometry of grasps (FINGER_LENGTH, JAW_THICKNESS,
CUP_RADIUS).
"""

from dataclasses import dataclass

import numpy as np

from .cloud import PointCloud, sq_dists
from .geometry import row_norms, unit_rows
from .grasps import CUP_RADIUS, FINGER_LENGTH, JAW_THICKNESS, VACUUM, Grasps
from .scenes import SceneAnnotation, friction_to_graspness, owning_objects

SEAL_FILTER_MIN = 0.004
VACUUM_CUTOFF = 0.1


@dataclass
class GraspnessMaps:
    """Per-point objectness / parallel / vacuum graspness channels, each in [0, 1].

    Labels have binary objectness and oracle graspness; predictions are
    sigmoid outputs.
    """

    objectness: np.ndarray
    parallel_graspness: np.ndarray
    vacuum_graspness: np.ndarray

    def __post_init__(self):
        self.objectness = np.asarray(self.objectness, dtype=np.float64)
        self.parallel_graspness = np.asarray(self.parallel_graspness, dtype=np.float64)
        self.vacuum_graspness = np.asarray(self.vacuum_graspness, dtype=np.float64)
        n = len(self.objectness)
        if len(self.parallel_graspness) != n or len(self.vacuum_graspness) != n:
            raise ValueError("graspness channels must have equal lengths")
        for name in ("objectness", "parallel_graspness", "vacuum_graspness"):
            ch = getattr(self, name)
            if np.any(ch < -1e-9) or np.any(ch > 1.0 + 1e-9):
                raise ValueError(f"{name} values must lie in [0, 1]")

    def __len__(self) -> int:
        return len(self.objectness)

    def channels(self) -> dict:
        return {
            "objectness": self.objectness,
            "graspness_parallel": self.parallel_graspness,
            "graspness_vacuum": self.vacuum_graspness,
        }


# -- collision filters ---------------------------------------------------------

_BOX_SIGNS = np.array([[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)], dtype=np.float64)


def _swept_jaw_corners(grasps: Grasps) -> np.ndarray:
    """(G, 8, 3) corners of the conservative boxes swept by the closing jaws."""
    v = grasps.axis
    u = grasps.closings()
    w = unit_rows(np.cross(v, u))
    center = grasps.jaw_centers() - (FINGER_LENGTH / 2.0) * v
    hu = grasps.width / 2.0 + JAW_THICKNESS
    hv = FINGER_LENGTH / 2.0
    hw = JAW_THICKNESS
    # one (8, 3) @ (3, 3) product per grasp: the BLAS call, and bits, of a one-grasp product
    return center[:, None, :] + np.matmul(_BOX_SIGNS, np.stack([hu[:, None] * u, hw * w, hv * v], axis=1))


def _hits_other_objects(scene: SceneAnnotation, centers, radii, owners) -> np.ndarray:
    """Spheres (centers, radii) overlapping the bounding sphere of an object other than their owner."""
    hit = np.zeros(len(centers), dtype=bool)
    for prim in scene.objects():
        near = row_norms(centers - prim.translation) < radii + prim.bounding_radius()
        hit |= near & (owners != prim.object_id)
    return hit


def parallel_collisions(scene: SceneAnnotation, grasps: Grasps, owners) -> np.ndarray:
    """Conservative per-grasp test: swept-jaw box vs table plane and other objects' bounding spheres.

    owners holds the object id owning each grasp's jaw center (owning_objects).
    """
    corners = _swept_jaw_corners(grasps)
    center = corners.mean(axis=1)
    radius = row_norms(corners[:, 0] - center)
    below = corners[:, :, 2].min(axis=1) < scene.table_height + 1e-6
    return below | _hits_other_objects(scene, center, radius, owners)


def vacuum_collisions(scene: SceneAnnotation, grasps: Grasps, owners) -> np.ndarray:
    """Conservative per-grasp test: suction-cup disc vs table plane and other objects' bounding spheres.

    owners holds the object id owning each grasp's center (owning_objects).
    """
    center = grasps.center
    nz = grasps.axis[:, 2]
    disc_drop = CUP_RADIUS * np.sqrt(np.maximum(0.0, 1.0 - nz**2))
    below = center[:, 2] - disc_drop < scene.table_height - 1e-9
    return below | _hits_other_objects(scene, center, CUP_RADIUS, owners)


# -- map construction ------------------------------------------------------------


def build_label_maps(cloud: PointCloud, scene: SceneAnnotation, grasps: Grasps) -> GraspnessMaps:
    """Label maps of a cloud from its scene's ground-truth grasps (a Grasps set with quality)."""
    if len(cloud) != len(scene.per_point_object_id):
        raise ValueError(
            f"cloud has {len(cloud)} points but annotation covers {len(scene.per_point_object_id)}"
        )
    if not len(grasps):
        raise ValueError("need ground-truth grasps for at least one gripper")

    is_vac = grasps.gripper == VACUUM
    par = grasps.take(~is_vac)
    centers, quality = grasps.center, grasps.quality
    # One ownership lookup for every grasp center and every parallel jaw center.
    owners = owning_objects(scene, np.vstack([centers, par.jaw_centers()]))
    center_owner, jaw_owner = owners[: len(grasps)], owners[len(grasps):]

    keep = ~(is_vac & (quality < SEAL_FILTER_MIN))
    keep[is_vac] &= ~vacuum_collisions(scene, grasps.take(is_vac), center_owner[is_vac])
    keep[~is_vac] &= ~parallel_collisions(scene, par, jaw_owner)

    n = len(cloud)
    objectness = (scene.per_point_object_id > 0).astype(np.float64)
    surviving = (cloud.points[:, 2] >= scene.table_height) & (scene.per_point_object_id > 0)

    # Maps are built per object model: a point inherits only from grasps that
    # target its own object, so sparse candidate sets cannot leak quality
    # across neighboring objects.
    use = keep & ~is_vac
    raw_par = _associate(cloud, scene, centers[use], quality[use], center_owner[use], surviving)
    parallel = np.zeros(n)
    has_par = raw_par >= 0
    parallel[has_par] = friction_to_graspness(raw_par[has_par])

    vacuum = np.zeros(n)
    use = keep & is_vac
    raw_vac = _associate(cloud, scene, centers[use], quality[use], center_owner[use], surviving)
    has_vac = raw_vac >= 0
    if np.any(has_vac):
        seals = raw_vac[has_vac]
        lo, hi = seals.min(), seals.max()
        rescaled = (seals - lo) / (hi - lo) if hi > lo else np.ones_like(seals)
        rescaled[rescaled < VACUUM_CUTOFF] = 0.0
        vacuum[has_vac] = rescaled

    return GraspnessMaps(objectness, parallel, vacuum)


def _associate(cloud: PointCloud, scene: SceneAnnotation, anchors, quality, targets, surviving) -> np.ndarray:
    """Per-point quality of the nearest same-object grasp; -1 where none applies.

    anchors, quality and targets give each grasp's center, quality and owning
    object id (0 = none). The nearest grasp comes from an exact scan of the
    object's grasps, in blocks of points; on exact ties the lowest anchor
    index wins.
    """
    out = np.full(len(cloud), -1.0)
    cols = np.ascontiguousarray(cloud.points.T)  # contiguous columns broadcast about twice as fast
    for oid in np.unique(targets):
        sel = np.flatnonzero(surviving & (scene.per_point_object_id == oid))
        own = np.flatnonzero(targets == oid)
        anchor_cols = np.ascontiguousarray(anchors[own].T)[:, None, :]
        step = max(1, (1 << 16) // len(own))  # about 2^16 distances per block
        for block in np.split(sel, np.arange(step, len(sel), step)):
            d2 = sq_dists(cols.take(block, axis=1)[:, :, None], anchor_cols)
            out[block] = quality[own[np.argmin(d2, axis=1)]]
    return out
