import numpy as np
import pytest

from dualgrasp.cloud import PointCloud, SpatialIndex
from dualgrasp.features import FEATURE_RADIUS, FeatureState, compute_point_features
from dualgrasp.scenes import SynthConfig, generate_scene, remove_object


def reference_features(cloud, table_height, radius):
    """Per-point reference: one radius query, covariance and eigh per point."""
    idx = SpatialIndex(cloud)
    pts = cloud.points
    centroid = pts.mean(axis=0)
    rows = []
    for p in pts:
        neigh = idx.radius(p, radius)
        toward = cloud.viewpoint - p
        normal, curvature = toward / np.sqrt(np.sum(toward * toward)), 0.0
        if len(neigh) >= 3:
            local = pts[neigh]
            centered = local - local.mean(axis=0)
            evals, evecs = np.linalg.eigh(centered.T @ centered / len(local))
            if evals[1] > 1e-12:
                normal = evecs[:, 0]
                esum = evals.sum()
                curvature = evals[0] / esum if esum > 0 else 0.0
        if np.sum(normal * toward) < 0:
            normal = -normal
        normal = normal / np.sqrt(np.sum(normal * normal))
        offset = p - centroid
        rows.append([p[2] - table_height, *normal, curvature, float(len(neigh)),
                     np.sqrt(np.sum(offset * offset))])
    return np.array(rows)


def sparse_cloud():
    # points 1-2 cm apart: many neighbourhoods hold fewer than 3 points
    rng = np.random.default_rng(3)
    return PointCloud(rng.uniform(-0.06, 0.06, size=(150, 3)) + [0, 0, 0.1], viewpoint=(0, 0, 1))


def collinear_cloud():
    # a line (every neighbourhood collinear), a plane patch, and one isolated point
    line = np.column_stack([np.arange(40) * 0.004, np.zeros(40), np.full(40, 0.05)])
    g = np.arange(8) * 0.005
    patch = np.array([[0.3 + x, y, 0.02] for x in g for y in g])
    return PointCloud(np.vstack([line, patch, [[-0.4, 0.4, 0.3]]]), viewpoint=(0.1, -0.2, 1.0))


def scene_clouds():
    cfg = SynthConfig(density=8000.0)
    cloud, scene = generate_scene(9, 5, cfg)
    later, later_scene = remove_object(cloud, scene, scene.objects()[1].object_id)
    return [(cloud, scene.table_height), (later, later_scene.table_height)]


CLOUDS = {
    "sparse": lambda: [(sparse_cloud(), 0.0)],
    "collinear": lambda: [(collinear_cloud(), 0.01)],
    "scene": scene_clouds,
}


@pytest.mark.parametrize("radius", [0.015, 0.03])
@pytest.mark.parametrize("kind", sorted(CLOUDS))
def test_features_match_per_point_reference_bitwise(kind, radius):
    for cloud, table_height in CLOUDS[kind]():
        got = compute_point_features(cloud, table_height, radius)
        assert got.shape == (len(cloud), 7)
        np.testing.assert_array_equal(got, reference_features(cloud, table_height, radius))


def test_degenerate_neighbourhoods_fall_back_to_view_direction():
    cloud = collinear_cloud()
    feats = compute_point_features(cloud, 0.0, FEATURE_RADIUS)
    isolated = len(cloud) - 1
    assert feats[isolated, 5] == 1.0  # only itself in range
    toward = cloud.viewpoint - cloud.points[:40]
    assert np.allclose(feats[:40, 1:4], toward / np.linalg.norm(toward, axis=1, keepdims=True))
    assert np.all(feats[:40, 4] == 0.0) and np.all(feats[isolated, 4] == 0.0)


@pytest.mark.parametrize("kind", sorted(CLOUDS))
def test_removal_matches_a_fresh_pass_bitwise(kind):
    """Dropping points, whole neighbourhoods or single members, gives the fresh pass's CSR and features."""
    cloud, table_height = CLOUDS[kind]()[0]
    rng = np.random.default_rng(7)
    state = FeatureState.fresh(cloud, table_height)
    for share in (0.0, 0.1, 0.3):
        keep = rng.uniform(size=len(state.cloud)) >= share
        keep[0] = True
        later = PointCloud(state.cloud.points[keep], viewpoint=cloud.viewpoint)
        state = state.remove(later, keep)
        fresh = FeatureState.fresh(later, table_height)
        np.testing.assert_array_equal(state.starts, fresh.starts)
        np.testing.assert_array_equal(state.members, fresh.members)
        assert state.features.tobytes() == fresh.features.tobytes()
