import numpy as np
import pytest

from dualgrasp.cloud import PointCloud
from dualgrasp.grasps import (
    CUP_RADIUS,
    FINGER_LENGTH,
    JAW_THICKNESS,
    PARALLEL,
    VACUUM,
    Grasps,
)
from dualgrasp.geometry import closing_directions
from dualgrasp.labels import (
    _swept_jaw_corners,
    build_label_maps,
    parallel_collisions,
    vacuum_collisions,
)
from dualgrasp.primitives import Primitive
from dualgrasp.scenes import (
    SceneAnnotation,
    SynthConfig,
    generate_scene,
    owning_objects,
    sample_ground_truth_grasps,
)


def overhead_box_scene(box_size=(0.06, 0.06, 0.04), table_extent=0.3):
    """Hand-built scene: one box at the table center seen from straight above.

    Only the box top face and the table top are visible, matching a single
    overhead depth view.
    """
    sx, sy, sz = box_size
    table = Primitive("plane-slab", (table_extent, table_extent, 0.02),
                      translation=(0, 0, -0.01), object_id=0, porosity_flag=True)
    box = Primitive("box", box_size, translation=(0, 0, sz / 2), object_id=1)

    g = np.linspace(-table_extent / 2 + 0.01, table_extent / 2 - 0.01, 25)
    table_pts = np.array([[x, y, 0.0] for x in g for y in g])
    outside = np.max(np.abs(table_pts[:, :2]), axis=1) > max(sx, sy) / 2
    table_pts = table_pts[outside]

    gx = np.linspace(-sx / 2 + 0.004, sx / 2 - 0.004, 12)
    gy = np.linspace(-sy / 2 + 0.004, sy / 2 - 0.004, 12)
    top_pts = np.array([[x, y, sz] for x in gx for y in gy])

    points = np.vstack([table_pts, top_pts])
    ids = np.concatenate([np.zeros(len(table_pts), dtype=int), np.ones(len(top_pts), dtype=int)])
    flat = np.ones(len(points), dtype=bool)
    cloud = PointCloud(points, viewpoint=(0, 0, 0.9))
    scene = SceneAnnotation(
        primitives=[table, box],
        table_height=0.0,
        per_point_object_id=ids,
        per_point_flat=flat,
    )
    return cloud, scene, box


def vac(*grasps):
    """Ground-truth vacuum grasps with an upward normal, from (center, quality) pairs."""
    centers, qualities = zip(*grasps)
    return Grasps.vacuum(centers, np.tile([0.0, 0.0, 1.0], (len(grasps), 1)), qualities, quality=qualities)


def test_vacuum_only_labels_on_top_face():
    cloud, scene, box = overhead_box_scene()
    top = scene.per_point_object_id == 1
    # equal qualities: the min-max rescale maps the lowest value to 0, so a
    # single quality level keeps every associated point positive
    grasps = vac(((0.0, 0.0, 0.04), 0.9), ((0.01, 0.01, 0.04), 0.9))
    maps = build_label_maps(cloud, scene, grasps)
    assert np.all(maps.vacuum_graspness[top] > 0)
    assert np.all(maps.vacuum_graspness[~top] == 0)
    assert np.all(maps.parallel_graspness == 0)
    assert np.array_equal(maps.objectness, top.astype(float))


def test_seal_below_filter_yields_all_zero():
    cloud, scene, _ = overhead_box_scene()
    maps = build_label_maps(cloud, scene, vac(((0, 0, 0.04), 0.003)))
    assert np.all(maps.vacuum_graspness == 0)


def test_rescale_and_cutoff():
    cloud, scene, _ = overhead_box_scene()
    # three grasp anchors far apart on the top face
    grasps = vac(((-0.02, 0.0, 0.04), 0.2), ((0.0, 0.0, 0.04), 0.6), ((0.02, 0.0, 0.04), 1.0))
    maps = build_label_maps(cloud, scene, grasps)
    top = scene.per_point_object_id == 1
    vals = set(np.round(maps.vacuum_graspness[top], 12))
    assert vals == {0.0, 0.5, 1.0}
    # post-rescale channel is exactly {0} union [0.1, 1]
    nz = maps.vacuum_graspness[maps.vacuum_graspness > 0]
    assert np.all(nz >= 0.1) and np.all(nz <= 1.0)


def test_single_quality_rescales_to_one():
    cloud, scene, _ = overhead_box_scene()
    maps = build_label_maps(cloud, scene, vac(((0, 0, 0.04), 0.42)))
    top = scene.per_point_object_id == 1
    assert np.all(maps.vacuum_graspness[top] == 1.0)


def test_below_table_and_background_zero():
    cloud, scene, _ = overhead_box_scene()
    # sink a few table points below the table plane
    pts = cloud.points.copy()
    pts[:5, 2] = -0.05
    cloud2 = PointCloud(pts, viewpoint=cloud.viewpoint)
    maps = build_label_maps(cloud2, scene, vac(((0, 0, 0.04), 0.9)))
    background = scene.per_point_object_id == 0
    assert np.all(maps.vacuum_graspness[background] == 0)
    assert np.all(maps.parallel_graspness[background] == 0)
    assert np.all(maps.vacuum_graspness[:5] == 0)


def test_parallel_friction_mapping():
    cloud, scene, _ = overhead_box_scene()
    grasps = Grasps.parallel([(0, 0, 0.04)], [(0, 0, -1)], angle_deg=0.0, width=0.07, depth=0.02, score=0.0,
                             quality=0.3)
    maps = build_label_maps(cloud, scene, grasps)
    top = scene.per_point_object_id == 1
    assert np.allclose(maps.parallel_graspness[top], 0.7)
    assert np.all(maps.vacuum_graspness == 0)


def test_collision_filter_drops_table_pinch():
    # pinching a thin tile across its thickness sweeps a jaw through the table
    cloud, scene, _ = overhead_box_scene(box_size=(0.06, 0.06, 0.008))
    u = np.array([0.0, 0.0, 1.0])  # vertical closing
    grasps = Grasps.parallel([(0.02, 0.0, 0.004)], [(1, 0, 0)], angle_deg=90.0, width=0.02, depth=0.0001,
                             score=0.0, quality=0.0)
    assert abs(grasps.closings()[0] @ u) > 0.99
    maps = build_label_maps(cloud, scene, grasps)
    assert np.all(maps.parallel_graspness == 0)


# one-grasp references: the filters as they were before the batched form


def owner_reference(scene, point):
    best, best_d = None, np.inf
    for prim in scene.objects():
        d = float(prim.surface_distance(point[:, None])[0])
        if d < best_d:
            best, best_d = prim, d
    return best


def jaw_center_reference(grasp):
    return grasp.center + grasp.depth * grasp.axis


def corners_reference(grasp):
    v = grasp.axis
    u = closing_directions(v, grasp.angle_deg)[0]
    c = np.cross(v, u)
    w = c / np.linalg.norm(c)
    center = jaw_center_reference(grasp) - (FINGER_LENGTH / 2.0) * v
    hu = grasp.width / 2.0 + JAW_THICKNESS
    hv = FINGER_LENGTH / 2.0
    hw = JAW_THICKNESS
    signs = np.array([[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)])
    return center + signs @ np.vstack([hu * u, hw * w, hv * v])


def parallel_collides_reference(scene, grasp):
    corners = corners_reference(grasp)
    if corners[:, 2].min() < scene.table_height + 1e-6:
        return True
    owner = owner_reference(scene, jaw_center_reference(grasp))
    center = corners.mean(axis=0)
    radius = float(np.linalg.norm(corners[0] - center))
    for prim in scene.objects():
        if prim is owner:
            continue
        if np.linalg.norm(center - prim.translation) < radius + prim.bounding_radius():
            return True
    return False


def vacuum_collides_reference(scene, grasp):
    n = grasp.axis
    disc_drop = CUP_RADIUS * np.sqrt(max(0.0, 1.0 - n[2] ** 2))
    if grasp.center[2] - disc_drop < scene.table_height - 1e-9:
        return True
    owner = owner_reference(scene, grasp.center)
    for prim in scene.objects():
        if prim is owner:
            continue
        if np.linalg.norm(grasp.center - prim.translation) < CUP_RADIUS + prim.bounding_radius():
            return True
    return False


def test_batched_collision_filters_match_one_grasp_filters():
    rng = np.random.default_rng(11)
    tallies = np.zeros(2, dtype=int)
    for seed in range(4):
        synth = SynthConfig(density=5000.0)
        _, scene = generate_scene(seed, 6, synth)
        gt = sample_ground_truth_grasps(scene, synth, seed=seed)
        par = gt.take(gt.gripper == PARALLEL)
        vac = gt.take(gt.gripper == VACUUM)
        # plus jittered, tilted and widened poses, so the table and neighbour tests both fire
        jittered = [(g.center + rng.normal(0.0, 0.01, 3), g.axis + rng.normal(0.0, 0.5, 3), rng.uniform(0, 180),
                     rng.uniform(0.01, 0.1), g.depth) for g in par]
        par = Grasps.concat([par, Grasps.parallel(*map(np.array, zip(*jittered)), score=0.0, quality=0.0)])
        assert np.array_equal(_swept_jaw_corners(par), [corners_reference(g) for g in par])
        jaw_owner = owning_objects(scene, par.jaw_centers())
        got = parallel_collisions(scene, par, jaw_owner)
        assert got.tolist() == [parallel_collides_reference(scene, g) for g in par]
        got_v = vacuum_collisions(scene, vac, owning_objects(scene, vac.center))
        assert got_v.tolist() == [vacuum_collides_reference(scene, g) for g in vac]
        tallies += [got.sum(), got_v.sum()]
        assert 0 < got.sum() < len(par) and 0 < got_v.sum() < len(vac)
    assert tallies.min() > 40


def test_requires_some_grasps():
    cloud, scene, _ = overhead_box_scene()
    with pytest.raises(ValueError):
        build_label_maps(cloud, scene, Grasps.from_records([], ground_truth=True))


def test_permutation_equivariance():
    cloud, scene, _ = overhead_box_scene()
    grasps = vac(((-0.02, 0, 0.04), 0.3), ((0.02, 0, 0.04), 0.9))
    maps = build_label_maps(cloud, scene, grasps)

    rng = np.random.default_rng(0)
    perm = rng.permutation(len(cloud))
    cloud_p = PointCloud(cloud.points[perm], viewpoint=cloud.viewpoint)
    scene_p = SceneAnnotation(
        primitives=scene.primitives,
        table_height=scene.table_height,
        per_point_object_id=scene.per_point_object_id[perm],
        per_point_flat=scene.per_point_flat[perm],
    )
    maps_p = build_label_maps(cloud_p, scene_p, grasps)
    assert np.array_equal(maps_p.vacuum_graspness, maps.vacuum_graspness[perm])
    assert np.array_equal(maps_p.objectness, maps.objectness[perm])
