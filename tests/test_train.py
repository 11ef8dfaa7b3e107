import numpy as np
import pytest

from dualgrasp.losses import POSITIVE_WEIGHT_PARALLEL, loss_objectness, loss_parallel_graspness, loss_refiner
from dualgrasp.losses import loss_vacuum
from dualgrasp.mlp import MlpModel, ModelConfig
from dualgrasp.scenes import SynthConfig, generate_scene, sample_ground_truth_grasps
from dualgrasp.train import (
    Adam,
    PreparedScene,
    TrainConfig,
    _batch_losses_and_grads,
    _stack_refiner_targets,
    cosine_lr,
    prepare_training_scene,
    save_history_csv,
    train,
)


def test_cosine_schedule_endpoints():
    lr0, E = 5e-4, 22
    assert cosine_lr(lr0, 0, E) == pytest.approx(lr0)
    expected_last = lr0 * 0.5 * (1 + np.cos(np.pi * (E - 1) / E))
    assert cosine_lr(lr0, E - 1, E) == pytest.approx(expected_last)
    assert expected_last < 0.01 * lr0


def test_adam_moves_against_gradient():
    adam = Adam(3)
    params = np.zeros(3)
    grad = np.array([1.0, -2.0, 0.0])
    out = adam.step(params, grad, 0.1)
    assert out[0] < 0 and out[1] > 0 and out[2] == 0


@pytest.fixture(scope="module")
def two_prepared_scenes():
    cfg = SynthConfig(kinds=("box", "sphere"), density=20000.0)
    out = []
    for i in range(2):
        cloud, scene = generate_scene(300 + i, 3, cfg)
        grasps = sample_ground_truth_grasps(scene, cfg, seed=300 + i)
        out.append(prepare_training_scene(cloud, scene, grasps))
    return out


def test_prepared_scene_targets_well_formed(two_prepared_scenes):
    for s in two_prepared_scenes:
        assert s.features.shape[1] == 7
        assert np.all(np.isfinite(s.features))
        assert len(s.objectness) == len(s.features)
        if s.refiner_targets is not None:
            t = s.refiner_targets
            k = len(s.seed_rows)
            assert t["view_scores"].shape == (k, 300)
            assert np.all((t["angle_idx"] >= 0) & (t["angle_idx"] < 12))
            assert np.all((t["depth_idx"] >= 0) & (t["depth_idx"] < 4))
            assert np.all((t["score_idx"] >= 0) & (t["score_idx"] < 10))
            assert np.all((t["width"] > 0) & (t["width"] <= 0.1))


def dense_batch_grads(model, batch):
    """Reference step: every head on every row, zero-filled refiner gradients."""
    feats = np.concatenate([s.features for s in batch], axis=0)
    out, cache = model.forward(feats)
    _, g_obj = loss_objectness(out["objectness"][:, 0], np.concatenate([s.objectness for s in batch]))
    _, g_vac = loss_vacuum(out["vacuum"][:, 0], np.concatenate([s.vacuum_label for s in batch]))
    _, g_par = loss_parallel_graspness(out["parallel"][:, 0], np.concatenate([s.parallel_label for s in batch]),
                                       pos_weight=POSITIVE_WEIGHT_PARALLEL)
    rows, targets = _stack_refiner_targets(batch)
    l_ref, ref_grads, _ = loss_refiner(out["view"][rows], out["width"][rows, 0], out["angle"][rows],
                                       out["depth"][rows], out["score"][rows], targets)
    par_grads = {"parallel": g_par[:, None]}
    for head in ("view", "angle", "depth", "width", "score"):
        full = np.zeros_like(out[head])
        full[rows] = ref_grads[head].reshape(len(rows), -1)
        par_grads[head] = full
    return (*model.backward(cache, [par_grads, {"vacuum": g_vac[:, None]}, {"objectness": g_obj[:, None]}]),
            l_ref)


def test_seed_row_step_matches_dense_reference(two_prepared_scenes):
    model = MlpModel(ModelConfig(), np.random.default_rng(0))
    feats = np.concatenate([s.features for s in two_prepared_scenes])
    model.set_feature_stats(feats.mean(axis=0), feats.std(axis=0))
    model.set_flat_params(np.random.default_rng(1).normal(0.0, 0.05, model.n_params()))
    assert _stack_refiner_targets(two_prepared_scenes)[0] is not None
    *grads, losses, n_total = _batch_losses_and_grads(model, two_prepared_scenes)
    *expected, l_ref = dense_batch_grads(model, two_prepared_scenes)
    assert n_total == len(feats)
    assert losses["refiner"] == pytest.approx(l_ref, rel=1e-10)
    for got, want in zip(grads, expected):
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-14)


def test_training_loss_decreases(two_prepared_scenes):
    cfg = TrainConfig(rng_seed=0)
    _, history = train(two_prepared_scenes, cfg)
    assert len(history) == 22
    totals = [h["loss_obj"] + h["loss_vac"] + h["loss_par"] + h["loss_refiner"] for h in history]
    for i in range(5):
        assert totals[i + 1] < totals[i]


def test_training_deterministic(two_prepared_scenes):
    cfg = TrainConfig(rng_seed=3, epochs=4)
    m1, h1 = train(two_prepared_scenes, cfg)
    m2, h2 = train(two_prepared_scenes, cfg)
    assert np.array_equal(m1.get_flat_params(), m2.get_flat_params())
    assert h1 == h2


def test_pcgrad_identity_when_tasks_orthogonal(two_prepared_scenes):
    # at zero head init the task gradients live on disjoint head coordinates,
    # so the first step is conflict-free and on/off trajectories coincide
    m_on, _ = train(two_prepared_scenes, TrainConfig(rng_seed=1, epochs=1, pcgrad_enabled=True))
    m_off, _ = train(two_prepared_scenes, TrainConfig(rng_seed=1, epochs=1, pcgrad_enabled=False))
    assert np.array_equal(m_on.get_flat_params(), m_off.get_flat_params())


def test_variant_label(two_prepared_scenes):
    m_on, _ = train(two_prepared_scenes, TrainConfig(rng_seed=0, epochs=1))
    m_off, _ = train(two_prepared_scenes, TrainConfig(rng_seed=0, epochs=1, pcgrad_enabled=False))
    assert m_on.meta["variant"] == "multitask+pcgrad"
    assert m_off.meta["variant"] == "w/o PCGrad"


def test_nonfinite_loss_aborts():
    bad = PreparedScene(
        features=np.array([[np.nan] * 7, [0.0] * 7]),
        objectness=np.array([1.0, 0.0]),
        parallel_label=np.array([0.5, 0.0]),
        vacuum_label=np.array([0.5, 0.0]),
    )
    with pytest.raises(RuntimeError, match="non-finite"):
        train([bad], TrainConfig(epochs=1))


def test_requires_scenes():
    with pytest.raises(ValueError):
        train([], TrainConfig())


def test_history_csv(tmp_path, two_prepared_scenes):
    _, history = train(two_prepared_scenes, TrainConfig(rng_seed=0, epochs=3))
    path = tmp_path / "log.csv"
    save_history_csv(path, history, variant="w/o PCGrad")
    lines = path.read_text().splitlines()
    assert lines[0] == "# variant: w/o PCGrad"
    assert lines[1] == "epoch,lr,loss_obj,loss_vac,loss_par,loss_refiner"
    assert len(lines) == 2 + 3
    assert float(lines[2].split(",")[1]) == pytest.approx(5e-4)
