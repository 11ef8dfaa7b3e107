"""Grasp pose types for the two gripper families, plus JSON (de)serialization.

A parallel grasp is [center, approach, angle, width, depth, score]: the jaw
closing line runs through center + depth * approach, along the in-plane
direction given by angle (see geometry.closing_direction). A vacuum grasp is
[center, normal, score].

Each gripper has one fixed geometry, shared by its oracle, the label-map
collision filters, the pose search and evaluation, as the GraspNet-1Billion
jaw and the SuctionNet-1Billion cup are shared by their labels and metrics.
"""

from dataclasses import dataclass

import numpy as np

from .geometry import as_point, closing_direction, normalize

PARALLEL = "parallel"
VACUUM = "vacuum"

MAX_WIDTH = 0.1  # jaw opening [m]
WIDTH_MARGIN = 0.005  # clearance added to a contact span to set the opening [m]
FINGER_LENGTH = 0.04  # finger extent along the approach [m]
JAW_THICKNESS = 0.01  # finger thickness [m]
CUP_RADIUS = 0.01  # suction-cup radius [m]


@dataclass
class ParallelGrasp:
    center: np.ndarray
    approach: np.ndarray
    angle_deg: float
    width: float
    depth: float
    score: float = 0.0
    seed_index: int = -1  # in-memory provenance, not serialized

    def __post_init__(self):
        self.center = as_point(self.center)
        self.approach = normalize(self.approach)
        self.angle_deg = float(self.angle_deg) % 180.0
        if self.width <= 0:
            raise ValueError(f"grasp width must be positive, got {self.width}")

    @property
    def gripper(self) -> str:
        return PARALLEL

    def closing_dir(self) -> np.ndarray:
        return closing_direction(self.approach, self.angle_deg)

    def jaw_center(self) -> np.ndarray:
        return self.center + self.depth * self.approach


@dataclass
class VacuumGrasp:
    center: np.ndarray
    normal: np.ndarray
    score: float = 0.0
    seed_index: int = -1

    def __post_init__(self):
        self.center = as_point(self.center)
        self.normal = normalize(self.normal)

    @property
    def gripper(self) -> str:
        return VACUUM


GRASP_SCHEMA_VERSION = 1  # of a grasp file, whose "grasps" list holds grasp_to_dict records


def grasp_to_dict(grasp) -> dict:
    if isinstance(grasp, ParallelGrasp):
        return {
            "gripper": PARALLEL,
            "center": [float(x) for x in grasp.center],
            "approach": [float(x) for x in grasp.approach],
            "angle_deg": float(grasp.angle_deg),
            "width_m": float(grasp.width),
            "depth_m": float(grasp.depth),
            "score": float(grasp.score),
        }
    if isinstance(grasp, VacuumGrasp):
        return {
            "gripper": VACUUM,
            "center": [float(x) for x in grasp.center],
            "normal": [float(x) for x in grasp.normal],
            "score": float(grasp.score),
        }
    raise TypeError(f"not a grasp: {type(grasp).__name__}")


def grasp_from_dict(d: dict):
    if d["gripper"] == PARALLEL:
        return ParallelGrasp(
            center=d["center"],
            approach=d["approach"],
            angle_deg=d["angle_deg"],
            width=d["width_m"],
            depth=d["depth_m"],
            score=d.get("score", 0.0),
        )
    if d["gripper"] == VACUUM:
        return VacuumGrasp(center=d["center"], normal=d["normal"], score=d.get("score", 0.0))
    raise ValueError(f"unknown gripper {d['gripper']!r}")
