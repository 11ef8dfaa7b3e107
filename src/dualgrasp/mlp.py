"""Hand-rolled multi-head MLP with analytic backprop and a JSON checkpoint format.

Shared ReLU trunk, one linear output head per prediction target. Heads read
the trunk output concatenated with the standardized input (a linear bypass),
and start at zero weights: in the very short training runs this package
targets, the bypass lets the first gradient steps already induce a sensible
ranking in feature space while the trunk refines it. Map heads (objectness,
parallel, vacuum) emit one logit per point; optional refiner heads (view,
angle, depth, width, score) emit per-seed predictions.
"""

import base64
import json
from dataclasses import dataclass

import numpy as np

CHECKPOINT_SCHEMA_VERSION = 1

MAP_HEADS = ("objectness", "parallel", "vacuum")


@dataclass
class ModelConfig:
    feature_dim: int = 7
    hidden: tuple = (64, 64)
    bypass_gain: float = 8.0  # scale on the input-bypass block feeding the heads
    refiner: bool = True
    n_views: int = 300
    n_angle_bins: int = 12
    n_depth_bins: int = 4
    n_score_bins: int = 10

    def head_dims(self) -> dict:
        dims = {"objectness": 1, "parallel": 1, "vacuum": 1}
        if self.refiner:
            dims.update(
                view=self.n_views,
                angle=self.n_angle_bins,
                depth=self.n_depth_bins,
                width=1,
                score=self.n_score_bins,
            )
        return dims


class MlpModel:
    """Weights + forward/backward. Parameters flatten to a single vector in a
    fixed order (trunk layers, then heads sorted by name) for the optimizer
    and gradient surgery."""

    def __init__(self, config: ModelConfig, rng: np.random.Generator):
        self.config = config
        self.feature_mean = np.zeros(config.feature_dim)
        self.feature_std = np.ones(config.feature_dim)
        self.trunk = []
        fan_in = config.feature_dim
        for width in config.hidden:
            w = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_in, width))
            self.trunk.append([w, np.zeros(width)])
            fan_in = width
        head_in = fan_in + config.feature_dim  # trunk output + input bypass
        self.heads = {
            name: [np.zeros((head_in, dim)), np.zeros(dim)] for name, dim in config.head_dims().items()
        }
        self.meta = {}

    # -- parameter vector ----------------------------------------------------

    def _param_arrays(self):
        arrs = []
        for w, b in self.trunk:
            arrs += [w, b]
        for name in sorted(self.heads):
            arrs += self.heads[name]
        return arrs

    def n_params(self) -> int:
        return sum(a.size for a in self._param_arrays())

    def get_flat_params(self) -> np.ndarray:
        return np.concatenate([a.ravel() for a in self._param_arrays()])

    def set_flat_params(self, flat: np.ndarray):
        flat = np.asarray(flat, dtype=np.float64)
        if flat.shape != (self.n_params(),):
            raise ValueError(f"expected {self.n_params()} parameters, got {flat.shape}")
        off = 0
        for a in self._param_arrays():
            a[...] = flat[off : off + a.size].reshape(a.shape)
            off += a.size

    def set_feature_stats(self, mean, std):
        self.feature_mean = np.asarray(mean, dtype=np.float64).reshape(self.config.feature_dim)
        self.feature_std = np.maximum(np.asarray(std, dtype=np.float64).reshape(self.config.feature_dim), 1e-6)

    # -- forward / backward ----------------------------------------------------

    def forward(self, features: np.ndarray, heads=None):
        """Head outputs for a (N, F) feature batch.

        Returns (outputs, cache): outputs maps head name -> (N, dim) raw
        values (logits for classification heads), for the named heads only
        when heads is given (default: all); cache feeds backward().
        """
        x = np.atleast_2d(np.asarray(features, dtype=np.float64))
        if x.shape[1] != self.config.feature_dim:
            raise ValueError(f"feature width {x.shape[1]} != model feature_dim {self.config.feature_dim}")
        x = (x - self.feature_mean) / self.feature_std
        activations = [x]
        pre = []
        h = x
        for w, b in self.trunk:
            z = h @ w + b
            pre.append(z)
            h = np.maximum(z, 0.0)
            activations.append(h)
        h_aug = np.concatenate([h, self.config.bypass_gain * x], axis=1)
        names = self.heads if heads is None else heads
        outputs = {name: h_aug @ self.heads[name][0] + self.heads[name][1] for name in names}
        cache = (activations, pre, h_aug)
        return outputs, cache

    def backward(self, cache, head_grads: dict) -> np.ndarray:
        """Flat parameter gradient given d(loss)/d(head output) per head.

        Heads missing from head_grads contribute zero gradient.
        """
        activations, pre, h_aug = cache
        n_hidden = activations[-1].shape[1]
        d_hidden = np.zeros((h_aug.shape[0], n_hidden))
        head_grad_arrays = {}
        for name, (w, b) in self.heads.items():
            g = head_grads.get(name)
            if g is None:
                head_grad_arrays[name] = (np.zeros_like(w), np.zeros_like(b))
                continue
            g = np.asarray(g, dtype=np.float64).reshape(h_aug.shape[0], w.shape[1])
            head_grad_arrays[name] = (h_aug.T @ g, g.sum(axis=0))
            # only the trunk-output rows of the head matrix backprop further;
            # the bypass rows read the (non-parameter) standardized input
            d_hidden += g @ w[:n_hidden].T

        trunk_grads = [None] * len(self.trunk)
        grad = d_hidden
        for i in range(len(self.trunk) - 1, -1, -1):
            dz = grad * (pre[i] > 0)
            trunk_grads[i] = (activations[i].T @ dz, dz.sum(axis=0))
            if i > 0:
                grad = dz @ self.trunk[i][0].T

        flats = []
        for gw, gb in trunk_grads:
            flats += [gw.ravel(), gb.ravel()]
        for name in sorted(self.heads):
            gw, gb = head_grad_arrays[name]
            flats += [gw.ravel(), gb.ravel()]
        return np.concatenate(flats)

    # -- prediction helpers ------------------------------------------------------

    def predict_map_scores(self, features: np.ndarray) -> dict:
        """Sigmoid map predictions per point: objectness, parallel, vacuum in [0, 1]."""
        outputs, _ = self.forward(features, MAP_HEADS)
        return {name: _sigmoid(outputs[name][:, 0]) for name in MAP_HEADS}

    def refiner_outputs(self, features: np.ndarray) -> dict:
        """Raw refiner head outputs for (N, F) seed features."""
        if not self.config.refiner:
            raise ValueError("model was built without refiner heads")
        outputs, _ = self.forward(features)
        return {
            "view": outputs["view"],
            "angle_logits": outputs["angle"],
            "depth_logits": outputs["depth"],
            "width": outputs["width"][:, 0],
            "score_logits": outputs["score"],
        }


def _sigmoid(z):
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    e = np.exp(z[~pos])
    out[~pos] = e / (1.0 + e)
    return out


# -- checkpoints -----------------------------------------------------------------


def _encode(a: np.ndarray) -> str:
    return base64.b64encode(np.ascontiguousarray(a, dtype="<f8").tobytes()).decode("ascii")


def _decode(s: str, shape) -> np.ndarray:
    return np.frombuffer(base64.b64decode(s), dtype="<f8").reshape(shape).copy()


def save_checkpoint(path, model: MlpModel):
    cfg = model.config
    doc = {
        "schema_version": CHECKPOINT_SCHEMA_VERSION,
        "config": {
            "feature_dim": cfg.feature_dim,
            "hidden": list(cfg.hidden),
            "bypass_gain": cfg.bypass_gain,
            "refiner": cfg.refiner,
            "n_views": cfg.n_views,
            "n_angle_bins": cfg.n_angle_bins,
            "n_depth_bins": cfg.n_depth_bins,
            "n_score_bins": cfg.n_score_bins,
        },
        "feature_mean": _encode(model.feature_mean),
        "feature_std": _encode(model.feature_std),
        "trunk": [{"shape": list(w.shape), "w": _encode(w), "b": _encode(b)} for w, b in model.trunk],
        "heads": {
            name: {"shape": list(w.shape), "w": _encode(w), "b": _encode(b)}
            for name, (w, b) in model.heads.items()
        },
        "meta": model.meta,
    }
    with open(path, "w") as f:
        json.dump(doc, f, sort_keys=True, separators=(",", ":"))
        f.write("\n")


def load_checkpoint(path) -> MlpModel:
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema_version") != CHECKPOINT_SCHEMA_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint schema_version {doc.get('schema_version')!r}")
    c = doc["config"]
    cfg = ModelConfig(
        feature_dim=c["feature_dim"],
        hidden=tuple(c["hidden"]),
        bypass_gain=c.get("bypass_gain", ModelConfig.bypass_gain),
        refiner=c["refiner"],
        n_views=c["n_views"],
        n_angle_bins=c["n_angle_bins"],
        n_depth_bins=c["n_depth_bins"],
        n_score_bins=c["n_score_bins"],
    )
    model = MlpModel(cfg, np.random.default_rng(0))
    model.feature_mean = _decode(doc["feature_mean"], (cfg.feature_dim,))
    model.feature_std = _decode(doc["feature_std"], (cfg.feature_dim,))
    model.trunk = [[_decode(d["w"], d["shape"]), _decode(d["b"], (d["shape"][1],))] for d in doc["trunk"]]
    model.heads = {
        name: [_decode(d["w"], d["shape"]), _decode(d["b"], (d["shape"][1],))]
        for name, d in doc["heads"].items()
    }
    model.meta = doc.get("meta", {})
    return model
