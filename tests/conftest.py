import os

# BLAS sums depend on the thread count, so trained weights would depend on the
# core count. Pin one thread before numpy loads, as the package itself does.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

from dualgrasp.cloud import PointCloud
from dualgrasp.scenes import SynthConfig, generate_scene, sample_ground_truth_grasps


@pytest.fixture(scope="session")
def small_scene():
    """One deterministic 3-object scene shared by read-only tests."""
    cfg = SynthConfig(kinds=("box", "sphere", "plane-slab"), density=25000.0)
    cloud, scene = generate_scene(42, 3, cfg)
    grasps = sample_ground_truth_grasps(scene, cfg, seed=42)
    return cloud, scene, grasps, cfg


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


def random_cloud(rng, n, scale=1.0, viewpoint=(0.0, 0.0, 1.0)):
    return PointCloud(rng.uniform(-scale, scale, size=(n, 3)), viewpoint=viewpoint)
