"""Dual-gripper grasp synthesis, training, and evaluation on synthetic scenes."""

__version__ = "0.1.0"

import os

# BLAS sums depend on the thread count, so trained weights would depend on the
# core count. One thread unless the caller chose otherwise; this only takes
# effect when dualgrasp is imported before numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

from .cloud import (
    DegenerateNeighborhood,
    PointCloud,
    SpatialIndex,
    estimate_normal,
    farthest_point_sampling,
)
from .grasps import PARALLEL, VACUUM, Grasps
from .labels import GraspnessMaps, build_label_maps
from .metrics import EvalConfig, ap_mu, ap_overall, precision_at_k
from .pipeline import GraspPipeline
from .primitives import Primitive
from .sampling import SamplingConfig, SeedSet, fuse_scores, select_seeds
from .scenes import (
    SceneAnnotation,
    SynthConfig,
    generate_scene,
    oracle_seal_quality,
    sample_ground_truth_grasps,
)
from .train import TrainConfig, train
