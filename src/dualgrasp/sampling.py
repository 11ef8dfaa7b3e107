"""Seed selection: fuse objectness with graspness, threshold, and FPS-subselect."""

from dataclasses import dataclass

import numpy as np

from .cloud import PointCloud, farthest_point_sampling
from .domains import COUNT, UNIT, check_fields, setting


@dataclass
class SamplingConfig:
    t_parallel: float = setting(0.1, UNIT)
    t_vacuum: float = setting(0.1, UNIT)
    m_parallel: int = setting(1024, COUNT)
    m_vacuum: int = setting(1024, COUNT)

    def __post_init__(self):
        check_fields(self)


@dataclass
class SeedSet:
    gripper: str
    indices: np.ndarray
    fused_scores: np.ndarray

    def __post_init__(self):
        self.indices = np.asarray(self.indices, dtype=np.intp)
        self.fused_scores = np.asarray(self.fused_scores, dtype=np.float64)
        if len(self.indices) != len(self.fused_scores):
            raise ValueError("indices and fused_scores must align")
        if len(np.unique(self.indices)) != len(self.indices):
            raise ValueError("seed indices must be unique")

    def __len__(self) -> int:
        return len(self.indices)


def fuse_scores(objectness, graspness) -> np.ndarray:
    """Elementwise product of the objectness and graspness channels."""
    o = np.asarray(objectness, dtype=np.float64)
    g = np.asarray(graspness, dtype=np.float64)
    if o.shape != g.shape:
        raise ValueError(f"length mismatch: {o.shape} vs {g.shape}")
    return o * g


def select_seeds(cloud: PointCloud, fused, threshold: float, m: int, gripper: str = "parallel") -> SeedSet:
    """Points with fused score strictly above the threshold, FPS-reduced to at most m.

    An empty candidate set yields an empty SeedSet; the caller decides what a
    scene with no graspable region means.
    """
    fused = np.asarray(fused, dtype=np.float64)
    if len(fused) != len(cloud):
        raise ValueError(f"fused scores cover {len(fused)} points, cloud has {len(cloud)}")
    candidates = np.flatnonzero(fused > threshold)
    if len(candidates) > m:
        candidates = farthest_point_sampling(cloud, candidates, m)
    return SeedSet(gripper=gripper, indices=candidates, fused_scores=fused[candidates])
