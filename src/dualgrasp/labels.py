"""Supervised multi-gripper graspness maps built from ground-truth grasps.

Pipeline: drop grasps colliding with other objects or the table, drop vacuum
grasps sealing below 0.004, prune below-table and background points, then give
every surviving point the quality of its nearest grasp per gripper. The vacuum
channel is min-max rescaled to [0, 1] and values under 0.1 are zeroed; the
parallel channel maps required friction mu to graspness 1 - mu / mu_max.
"""

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .cloud import PointCloud
from .geometry import normalize
from .grasps import PARALLEL, VACUUM
from .scenes import SceneAnnotation, friction_to_graspness, owning_object

SEAL_FILTER_MIN = 0.004
VACUUM_CUTOFF = 0.1


@dataclass
class LabelConfig:
    seal_min: float = SEAL_FILTER_MIN
    vacuum_cutoff: float = VACUUM_CUTOFF
    mu_max: float = 1.0
    finger_length: float = 0.04
    jaw_thickness: float = 0.01
    cup_radius: float = 0.01
    collision_filter: bool = True


@dataclass
class GraspnessMaps:
    """Per-point objectness / parallel / vacuum graspness channels.

    role is "label" (objectness binary, graspness from oracles) or
    "prediction" (all channels are sigmoid outputs in [0, 1]).
    """

    objectness: np.ndarray
    parallel_graspness: np.ndarray
    vacuum_graspness: np.ndarray
    role: str = "label"

    def __post_init__(self):
        self.objectness = np.asarray(self.objectness, dtype=np.float64)
        self.parallel_graspness = np.asarray(self.parallel_graspness, dtype=np.float64)
        self.vacuum_graspness = np.asarray(self.vacuum_graspness, dtype=np.float64)
        n = len(self.objectness)
        if len(self.parallel_graspness) != n or len(self.vacuum_graspness) != n:
            raise ValueError("graspness channels must have equal lengths")
        if self.role not in ("label", "prediction"):
            raise ValueError(f"unknown role {self.role!r}")
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


def _swept_jaw_corners(grasp, cfg: LabelConfig) -> np.ndarray:
    """Corners of the conservative box swept by the closing jaws."""
    v = grasp.approach
    u = grasp.closing_dir()
    w = normalize(np.cross(v, u))
    center = grasp.jaw_center() - (cfg.finger_length / 2.0) * v
    hu = grasp.width / 2.0 + cfg.jaw_thickness
    hv = cfg.finger_length / 2.0
    hw = cfg.jaw_thickness
    signs = np.array([[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)])
    return center + signs @ np.vstack([hu * u, hw * w, hv * v])


def parallel_grasp_collides(scene: SceneAnnotation, grasp, cfg: LabelConfig) -> bool:
    """Conservative: swept-jaw box vs table plane and other objects' bounding spheres."""
    corners = _swept_jaw_corners(grasp, cfg)
    if corners[:, 2].min() < scene.table_height + 1e-6:
        return True
    owner = owning_object(scene, grasp.jaw_center())
    center = corners.mean(axis=0)
    radius = float(np.linalg.norm(corners[0] - center))
    for prim in scene.objects():
        if prim is owner:
            continue
        if np.linalg.norm(center - prim.translation) < radius + prim.bounding_radius():
            return True
    return False


def vacuum_grasp_collides(scene: SceneAnnotation, grasp, cfg: LabelConfig) -> bool:
    """Conservative: suction-cup disc vs table plane and other objects' bounding spheres."""
    n = grasp.normal
    disc_drop = cfg.cup_radius * np.sqrt(max(0.0, 1.0 - n[2] ** 2))
    if grasp.center[2] - disc_drop < scene.table_height - 1e-9:
        return True
    owner = owning_object(scene, grasp.center)
    for prim in scene.objects():
        if prim is owner:
            continue
        if np.linalg.norm(grasp.center - prim.translation) < cfg.cup_radius + prim.bounding_radius():
            return True
    return False


# -- map construction ------------------------------------------------------------


def build_label_maps(cloud: PointCloud, scene: SceneAnnotation, grasps, config: LabelConfig = None) -> GraspnessMaps:
    if len(cloud) != len(scene.per_point_object_id):
        raise ValueError(
            f"cloud has {len(cloud)} points but annotation covers {len(scene.per_point_object_id)}"
        )
    if not grasps:
        raise ValueError("need ground-truth grasps for at least one gripper")
    cfg = config or LabelConfig()

    kept = {PARALLEL: [], VACUUM: []}
    for g in grasps:
        if g.gripper == VACUUM:
            if g.quality_coeff < cfg.seal_min:
                continue
            if cfg.collision_filter and vacuum_grasp_collides(scene, g.pose, cfg):
                continue
        else:
            if cfg.collision_filter and parallel_grasp_collides(scene, g.pose, cfg):
                continue
        kept[g.gripper].append(g)

    n = len(cloud)
    objectness = (scene.per_point_object_id > 0).astype(np.float64)
    surviving = (cloud.points[:, 2] >= scene.table_height) & (scene.per_point_object_id > 0)

    # Maps are built per object model: a point inherits only from grasps that
    # target its own object, so sparse candidate sets cannot leak quality
    # across neighboring objects.
    raw_par = _associate(cloud, scene, kept[PARALLEL], surviving)
    parallel = np.zeros(n)
    has_par = raw_par >= 0
    parallel[has_par] = friction_to_graspness(raw_par[has_par], cfg.mu_max)

    vacuum = np.zeros(n)
    raw_vac = _associate(cloud, scene, kept[VACUUM], surviving)
    has_vac = raw_vac >= 0
    if np.any(has_vac):
        seals = raw_vac[has_vac]
        lo, hi = seals.min(), seals.max()
        rescaled = (seals - lo) / (hi - lo) if hi > lo else np.ones_like(seals)
        rescaled[rescaled < cfg.vacuum_cutoff] = 0.0
        vacuum[has_vac] = rescaled

    return GraspnessMaps(objectness, parallel, vacuum, role="label")


def _associate(cloud: PointCloud, scene: SceneAnnotation, grasps, surviving) -> np.ndarray:
    """Per-point quality of the nearest same-object grasp; -1 where none applies."""
    out = np.full(len(cloud), -1.0)
    if not grasps:
        return out
    owners = [owning_object(scene, np.asarray(g.pose.center, dtype=np.float64)) for g in grasps]
    targets = np.array([0 if prim is None else prim.object_id for prim in owners])
    anchors = np.array([g.pose.center for g in grasps])
    quality = np.array([g.quality_coeff for g in grasps])
    for oid in np.unique(targets):
        sel = surviving & (scene.per_point_object_id == oid)
        if not np.any(sel):
            continue
        own = targets == oid
        _, nn = cKDTree(anchors[own]).query(cloud.points[sel], k=1)
        out[sel] = quality[own][nn]
    return out


def project_map_to_cloud(maps: GraspnessMaps, source_cloud: PointCloud, target_cloud: PointCloud) -> GraspnessMaps:
    """Each target point inherits the channel values of its nearest source point."""
    if len(maps) != len(source_cloud):
        raise ValueError("maps are not aligned with the source cloud")
    _, nn = cKDTree(source_cloud.points).query(target_cloud.points, k=1)
    return GraspnessMaps(
        objectness=maps.objectness[nn],
        parallel_graspness=maps.parallel_graspness[nn],
        vacuum_graspness=maps.vacuum_graspness[nn],
        role=maps.role,
    )
