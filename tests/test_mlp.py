import json
from dataclasses import fields

import numpy as np
import pytest

from dualgrasp.losses import loss_objectness, loss_refiner, loss_vacuum
from dualgrasp.mlp import MAP_HEADS, MlpModel, ModelConfig, load_checkpoint, save_checkpoint


def small_model(seed=0):
    cfg = ModelConfig(feature_dim=4, hidden=(6, 5), bypass_gain=2.0,
                      n_views=3, n_angle_bins=4, n_depth_bins=2, n_score_bins=3)
    return MlpModel(cfg, np.random.default_rng(seed))


def test_zero_init_heads_give_half_sigmoid(rng):
    model = small_model()
    x = rng.normal(size=(10, 4))
    scores = model.predict_map_scores(x)
    for name in ("objectness", "parallel", "vacuum"):
        assert np.allclose(scores[name], 0.5)


def test_forward_matches_hand_computation():
    cfg = ModelConfig(feature_dim=2, hidden=(2,), bypass_gain=1.0)
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
    model = small_model()
    params = model.get_flat_params() + rng.normal(0, 0.2, model.n_params())
    model.set_flat_params(params)
    X = rng.normal(size=(7, 4))
    batch_out, _ = model.forward(X)
    for i in range(7):
        single_out, _ = model.forward(X[i : i + 1])
        for name in batch_out:
            assert np.allclose(single_out[name][0], batch_out[name][i], atol=1e-12)


def test_forward_named_heads_match_full_forward(rng):
    model = small_model()
    model.set_flat_params(rng.normal(0, 0.3, model.n_params()))
    X = rng.normal(size=(9, 4))
    full, _ = model.forward(X)
    part, _ = model.forward(X, MAP_HEADS)
    assert list(part) == list(MAP_HEADS)
    for name in MAP_HEADS:
        assert np.array_equal(part[name], full[name])


def test_flat_params_roundtrip(rng):
    model = small_model()
    flat = rng.normal(size=model.n_params())
    model.set_flat_params(flat)
    assert np.array_equal(model.get_flat_params(), flat)


def test_feature_width_check(rng):
    model = small_model()
    with pytest.raises(ValueError):
        model.forward(rng.normal(size=(3, 5)))


def test_backward_full_fd(rng):
    for rows in (None, [6, 1, 3]):  # every row, then refiner heads on seed rows only
        check_backward_fd(rng, rows)


def check_backward_fd(rng, rows):
    model = small_model(seed=2)
    params = model.get_flat_params() + rng.normal(0, 0.3, model.n_params())
    model.set_flat_params(params)
    X = rng.normal(size=(8, 4))
    y_obj = (rng.uniform(size=8) > 0.5).astype(float)
    y_vac = rng.uniform(size=8)
    k = 8 if rows is None else len(rows)
    targets = {
        "view_scores": rng.uniform(size=(k, 3)),
        "width": rng.uniform(size=k),
        "angle_idx": rng.integers(0, 4, size=k),
        "depth_idx": rng.integers(0, 2, size=k),
        "score_idx": rng.integers(0, 3, size=k),
    }

    def total_loss(p):
        model.set_flat_params(p)
        out, _ = model.forward(X, rows=rows)
        l1, _ = loss_objectness(out["objectness"][:, 0], y_obj)
        l2, _ = loss_vacuum(out["vacuum"][:, 0], y_vac)
        l3, _, _ = loss_refiner(out["view"], out["width"][:, 0], out["angle"],
                                out["depth"], out["score"], targets)
        return l1 + l2 + l3

    model.set_flat_params(params)
    out, cache = model.forward(X, rows=rows)
    assert out["view"].shape == (k, 3) and out["vacuum"].shape == (8, 1)
    _, g_obj = loss_objectness(out["objectness"][:, 0], y_obj)
    _, g_vac = loss_vacuum(out["vacuum"][:, 0], y_vac)
    _, ref_grads, _ = loss_refiner(out["view"], out["width"][:, 0], out["angle"],
                                   out["depth"], out["score"], targets)
    [analytic] = model.backward(
        cache,
        [{
            "objectness": g_obj[:, None],
            "vacuum": g_vac[:, None],
            "view": ref_grads["view"],
            "width": ref_grads["width"][:, None],
            "angle": ref_grads["angle"],
            "depth": ref_grads["depth"],
            "score": ref_grads["score"],
        }],
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


def test_refiner_rows_match_dense_zero_filled_reference(rng):
    """Refiner heads on a row subset equal the all-rows heads read at those
    rows, and their gradients equal a dense gradient that is zero elsewhere."""
    model = small_model(seed=4)
    model.set_flat_params(rng.normal(0, 0.3, model.n_params()))
    X = rng.normal(size=(12, 4))
    rows = np.array([9, 0, 4, 11])
    part, cache = model.forward(X, rows=rows)
    full, dense_cache = model.forward(X)
    grads, dense_grads = {}, {}
    for name, out in full.items():
        if name in MAP_HEADS:
            assert np.array_equal(part[name], out)
            grads[name] = dense_grads[name] = rng.normal(size=out.shape)
        else:
            np.testing.assert_allclose(part[name], out[rows], rtol=1e-10)
            grads[name] = rng.normal(size=(len(rows), out.shape[1]))
            dense_grads[name] = np.zeros_like(out)
            dense_grads[name][rows] = grads[name]
    map_grads = {name: grads[name] for name in MAP_HEADS}
    got, got_maps = model.backward(cache, [grads, map_grads])
    want, want_maps = model.backward(dense_cache, [dense_grads, map_grads])
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-14)
    # map heads alone: the refiner rows play no part
    assert np.array_equal(got_maps, want_maps)


def per_task_backward(model, cache, head_grads):
    """The backward pass of one task alone, as it ran before the tasks shared a pass: the reference for its bits."""
    activations, h_aug, _, rows = cache
    pre = [a @ w + b for a, (w, b) in zip(activations, model.trunk)]
    n_hidden = activations[-1].shape[1]
    d_hidden = np.zeros((h_aug.shape[0], n_hidden))
    head_grad_arrays = {}
    for name, (w, b) in model.heads.items():
        g = head_grads.get(name)
        if g is None:
            head_grad_arrays[name] = (np.zeros_like(w), np.zeros_like(b))
            continue
        at = slice(None) if name in MAP_HEADS else rows
        h_at = h_aug[at]
        g = np.asarray(g, dtype=np.float64).reshape(h_at.shape[0], w.shape[1])
        head_grad_arrays[name] = (h_at.T @ g, g.sum(axis=0))
        d_hidden[at] += g @ w[:n_hidden].T

    trunk_grads = [None] * len(model.trunk)
    grad = d_hidden
    for i in range(len(model.trunk) - 1, -1, -1):
        dz = grad * (pre[i] > 0)
        trunk_grads[i] = (activations[i].T @ dz, dz.sum(axis=0))
        if i > 0:
            grad = dz @ model.trunk[i][0].T

    flats = []
    for gw, gb in trunk_grads:
        flats += [gw.ravel(), gb.ravel()]
    for name in sorted(model.heads):
        gw, gb = head_grad_arrays[name]
        flats += [gw.ravel(), gb.ravel()]
    return np.concatenate(flats)


@pytest.mark.parametrize("zero_heads", [True, False])
def test_shared_backward_keeps_per_task_bits(rng, zero_heads):
    """One backward over the training step's three tasks gives each task's per-task gradient bit for bit.

    Unequal hidden widths, refiner heads on a row subset, zero-initialised
    rows of the input (so some pre-activations equal the bias) and one dead
    ReLU unit. With zero-initialised heads every head product is a signed
    zero and every trunk gradient must come out +0.0.
    """
    cfg = ModelConfig(feature_dim=4, hidden=(7, 5), bypass_gain=2.0,
                      n_views=3, n_angle_bins=4, n_depth_bins=2, n_score_bins=3)
    model = MlpModel(cfg, np.random.default_rng(6))
    if not zero_heads:
        for w, b in model.heads.values():
            w[...] = rng.normal(0.0, 0.5, w.shape)
            b[...] = rng.normal(0.0, 0.5, b.shape)
    model.trunk[0][1][2] = -1e3  # unit 2 of the first layer never fires
    X = rng.normal(size=(40, 4))
    X[:3] = 0.0
    rows = np.array([31, 2, 17, 0, 8])
    out, cache = model.forward(X, rows=rows)
    assert not np.any(cache[0][1][:, 2])
    parallel = {"parallel": rng.normal(size=(40, 1))}
    for name in ("view", "angle", "depth", "width", "score"):
        parallel[name] = rng.normal(size=out[name].shape)
    parallel["parallel"][::4] = -0.0
    tasks = [parallel, {"vacuum": rng.normal(size=(40, 1))}, {"objectness": -rng.uniform(size=(40, 1))}]
    got = model.backward(cache, tasks)
    assert len(got) == len(tasks)
    for flat, task in zip(got, tasks):
        want = per_task_backward(model, cache, task)
        assert np.array_equal(flat.view(np.uint64), want.view(np.uint64))
    if zero_heads:
        n_trunk = sum(w.size + b.size for w, b in model.trunk)
        assert not np.any(got[2][:n_trunk]) and not np.any(np.signbit(got[2][:n_trunk]))


def test_backward_write_or_add_keeps_per_task_bits(rng):
    """Each way a task fills the last hidden gradient keeps the per-task bits.

    The buffer is shared, so every task after the first finds the last one's
    values in it. A task with refiner heads only, or with no head at all, must
    zero-fill it; the first of two map heads writes and the second adds; and
    map-head gradients of exact +0.0 and -0.0 against negative head weights
    write the opposite signed zeros, of which the trunk gradients keep none.
    """
    cfg = ModelConfig(feature_dim=4, hidden=(7, 5), bypass_gain=2.0,
                      n_views=3, n_angle_bins=4, n_depth_bins=2, n_score_bins=3)
    model = MlpModel(cfg, np.random.default_rng(6))
    for w, b in model.heads.values():
        w[...] = rng.normal(0.0, 0.5, w.shape)
        b[...] = rng.normal(0.0, 0.5, b.shape)
    model.heads["vacuum"][0][...] = -rng.uniform(0.1, 1.0, model.heads["vacuum"][0].shape)
    X = rng.normal(size=(40, 4))
    rows = np.array([31, 2, 17, 0, 8])
    out, cache = model.forward(X, rows=rows)
    mixed_zeros = np.zeros((40, 1))
    mixed_zeros[::3] = -0.0
    tasks = [
        {"parallel": rng.normal(size=(40, 1))},
        {"view": rng.normal(size=out["view"].shape), "width": rng.normal(size=out["width"].shape)},
        {"objectness": rng.normal(size=(40, 1)), "vacuum": rng.normal(size=(40, 1))},
        {},
        {"vacuum": np.zeros((40, 1))},
        {"vacuum": mixed_zeros},
    ]
    got = model.backward(cache, tasks)
    for flat, task in zip(got, tasks):
        want = per_task_backward(model, cache, task)
        assert np.array_equal(flat.view(np.uint64), want.view(np.uint64))
    n_trunk = sum(w.size + b.size for w, b in model.trunk)
    for flat in got[3:]:
        assert not np.any(flat[:n_trunk]) and not np.any(np.signbit(flat[:n_trunk]))


def test_refiner_rows_must_be_distinct(rng):
    with pytest.raises(ValueError, match="distinct"):
        small_model().forward(rng.normal(size=(5, 4)), rows=[1, 3, 1])


def test_checkpoint_roundtrip(tmp_path, rng):
    model = small_model(seed=5)
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


def test_checkpoint_without_refiner_heads_rejected(tmp_path):
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, small_model())
    doc = json.loads(path.read_text())
    assert doc["config"]["refiner"] is True
    for value in (False, None):
        doc["config"]["refiner"] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="without refiner heads"):
            load_checkpoint(path)


@pytest.mark.parametrize("edit, layer", [
    (lambda doc: doc["config"].update(n_views=300), "head 'view'"),
    (lambda doc: doc["config"].update(hidden=[64]), "trunk layer 1"),
    (lambda doc: doc["heads"].pop("score"), "head 'score'"),
    (lambda doc: doc["heads"].update(extra=doc["heads"]["width"]), "head 'extra'"),
], ids=["n-views", "hidden", "missing-head", "extra-head"])
def test_checkpoint_layers_must_fit_its_config(tmp_path, edit, layer):
    """A layer whose weight shape differs from the stored config's model, or a head it lacks or adds, is refused."""
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, MlpModel(ModelConfig(feature_dim=4, n_views=200), np.random.default_rng(0)))
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=f"{layer} does not fit the checkpoint's config"):
        load_checkpoint(path)


def test_checkpoint_config_needs_every_field_but_bypass_gain(tmp_path):
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, small_model())
    saved = json.loads(path.read_text())
    for f in fields(ModelConfig):
        if f.name == "bypass_gain":
            continue
        doc = json.loads(json.dumps(saved))
        del doc["config"][f.name]
        path.write_text(json.dumps(doc))
        with pytest.raises(KeyError) as failure:
            load_checkpoint(path)
        assert str(failure.value) == f"{path}: missing key {f.name!r}"


def test_checkpoint_bytes_deterministic(tmp_path, rng):
    model = small_model()
    save_checkpoint(tmp_path / "a.json", model)
    save_checkpoint(tmp_path / "b.json", model)
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
