import json

import numpy as np
import pytest

from dualgrasp.losses import loss_objectness, loss_refiner, loss_vacuum
from dualgrasp.mlp import MAP_HEADS, MlpModel, ModelConfig, load_checkpoint, save_checkpoint


def small_model(refiner=False, seed=0):
    cfg = ModelConfig(feature_dim=4, hidden=(6, 5), bypass_gain=2.0, refiner=refiner,
                      n_views=3, n_angle_bins=4, n_depth_bins=2, n_score_bins=3)
    return MlpModel(cfg, np.random.default_rng(seed))


def test_zero_init_heads_give_half_sigmoid(rng):
    model = small_model()
    x = rng.normal(size=(10, 4))
    scores = model.predict_map_scores(x)
    for name in ("objectness", "parallel", "vacuum"):
        assert np.allclose(scores[name], 0.5)


def test_forward_matches_hand_computation():
    cfg = ModelConfig(feature_dim=2, hidden=(2,), bypass_gain=1.0, refiner=False)
    model = MlpModel(cfg, np.random.default_rng(0))
    model.trunk[0][0] = np.array([[1.0, -1.0], [0.5, 2.0]])
    model.trunk[0][1] = np.array([0.1, -0.2])
    w = np.zeros((4, 1))
    w[:, 0] = [1.0, 2.0, -1.0, 0.5]
    model.heads["vacuum"] = [w, np.array([0.3])]
    x = np.array([[0.2, -0.4]])
    # standardization is identity (mean 0, std 1)
    z = x @ model.trunk[0][0] + model.trunk[0][1]           # [0.1, -1.2]
    h = np.maximum(z, 0.0)                                   # [0.1, 0.0]
    h_aug = np.concatenate([h, x], axis=1)                   # [0.1, 0, 0.2, -0.4]
    expected = h_aug @ w + 0.3
    out, _ = model.forward(x)
    assert out["vacuum"][0, 0] == pytest.approx(expected[0, 0], abs=1e-15)


def test_batching_transparency(rng):
    model = small_model(refiner=True)
    params = model.get_flat_params() + rng.normal(0, 0.2, model.n_params())
    model.set_flat_params(params)
    X = rng.normal(size=(7, 4))
    batch_out, _ = model.forward(X)
    for i in range(7):
        single_out, _ = model.forward(X[i : i + 1])
        for name in batch_out:
            assert np.allclose(single_out[name][0], batch_out[name][i], atol=1e-12)


def test_forward_named_heads_match_full_forward(rng):
    model = small_model(refiner=True)
    model.set_flat_params(rng.normal(0, 0.3, model.n_params()))
    X = rng.normal(size=(9, 4))
    full, _ = model.forward(X)
    part, _ = model.forward(X, MAP_HEADS)
    assert list(part) == list(MAP_HEADS)
    for name in MAP_HEADS:
        assert np.array_equal(part[name], full[name])


def test_flat_params_roundtrip(rng):
    model = small_model(refiner=True)
    flat = rng.normal(size=model.n_params())
    model.set_flat_params(flat)
    assert np.array_equal(model.get_flat_params(), flat)


def test_feature_width_check(rng):
    model = small_model()
    with pytest.raises(ValueError):
        model.forward(rng.normal(size=(3, 5)))


def test_backward_full_fd(rng):
    model = small_model(refiner=True, seed=2)
    params = model.get_flat_params() + rng.normal(0, 0.3, model.n_params())
    model.set_flat_params(params)
    X = rng.normal(size=(8, 4))
    y_obj = (rng.uniform(size=8) > 0.5).astype(float)
    y_vac = rng.uniform(size=8)
    targets = {
        "view_scores": rng.uniform(size=(8, 3)),
        "width": rng.uniform(size=8),
        "angle_idx": rng.integers(0, 4, size=8),
        "depth_idx": rng.integers(0, 2, size=8),
        "score_idx": rng.integers(0, 3, size=8),
    }

    def total_loss(p):
        model.set_flat_params(p)
        out, _ = model.forward(X)
        l1, _ = loss_objectness(out["objectness"][:, 0], y_obj)
        l2, _ = loss_vacuum(out["vacuum"][:, 0], y_vac)
        l3, _, _ = loss_refiner(out["view"], out["width"][:, 0], out["angle"],
                                out["depth"], out["score"], targets)
        return l1 + l2 + l3

    model.set_flat_params(params)
    out, cache = model.forward(X)
    _, g_obj = loss_objectness(out["objectness"][:, 0], y_obj)
    _, g_vac = loss_vacuum(out["vacuum"][:, 0], y_vac)
    _, ref_grads, _ = loss_refiner(out["view"], out["width"][:, 0], out["angle"],
                                   out["depth"], out["score"], targets)
    analytic = model.backward(
        cache,
        {
            "objectness": g_obj[:, None],
            "vacuum": g_vac[:, None],
            "view": ref_grads["view"],
            "width": ref_grads["width"][:, None],
            "angle": ref_grads["angle"],
            "depth": ref_grads["depth"],
            "score": ref_grads["score"],
        },
    )
    eps = 1e-6
    fd = np.zeros_like(params)
    for i in range(len(params)):
        p_hi, p_lo = params.copy(), params.copy()
        p_hi[i] += eps
        p_lo[i] -= eps
        fd[i] = (total_loss(p_hi) - total_loss(p_lo)) / (2 * eps)
    denom = np.maximum(1e-6, np.maximum(np.abs(fd), np.abs(analytic)))
    assert np.max(np.abs(fd - analytic) / denom) < 1e-4


def test_checkpoint_roundtrip(tmp_path, rng):
    model = small_model(refiner=True, seed=5)
    model.set_flat_params(rng.normal(size=model.n_params()))
    model.set_feature_stats(rng.normal(size=4), rng.uniform(0.5, 2.0, size=4))
    model.meta = {"variant": "test"}
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, model)
    loaded = load_checkpoint(path)
    assert np.array_equal(loaded.get_flat_params(), model.get_flat_params())
    assert np.array_equal(loaded.feature_mean, model.feature_mean)
    assert loaded.config == model.config
    assert loaded.meta == {"variant": "test"}
    X = rng.normal(size=(5, 4))
    a, _ = model.forward(X)
    b, _ = loaded.forward(X)
    for name in a:
        assert np.array_equal(a[name], b[name])


def test_checkpoint_without_bypass_gain_uses_model_default(tmp_path):
    path = tmp_path / "old.json"
    save_checkpoint(path, MlpModel(ModelConfig(feature_dim=4), np.random.default_rng(0)))
    doc = json.loads(path.read_text())
    del doc["config"]["bypass_gain"]
    path.write_text(json.dumps(doc))
    assert load_checkpoint(path).config.bypass_gain == ModelConfig().bypass_gain == 8.0


def test_checkpoint_bytes_deterministic(tmp_path, rng):
    model = small_model()
    save_checkpoint(tmp_path / "a.json", model)
    save_checkpoint(tmp_path / "b.json", model)
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
