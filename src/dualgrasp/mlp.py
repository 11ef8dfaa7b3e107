"""Hand-rolled multi-head MLP with analytic backprop and a JSON checkpoint format.

Shared ReLU trunk, one linear output head per prediction target. Heads read
the trunk output concatenated with the standardized input (a linear bypass),
and start at zero weights: in the very short training runs this package
targets, the bypass lets the first gradient steps already induce a sensible
ranking in feature space while the trunk refines it. Map heads (objectness,
parallel, vacuum) emit one logit per point; refiner heads (view, angle,
depth, width, score) emit per-seed predictions.
"""

import base64
import json
from dataclasses import asdict, dataclass, fields

import numpy as np

from .json_io import keys_of, write_json

CHECKPOINT_SCHEMA_VERSION = 1

MAP_HEADS = ("objectness", "parallel", "vacuum")


@dataclass
class ModelConfig:
    feature_dim: int = 7
    hidden: tuple = (64, 64)
    bypass_gain: float = 8.0  # scale on the input-bypass block feeding the heads
    # refiner head sizes; RefineParallelConfig.head_sizes() gives the ones a grid decodes
    n_views: int = 300
    n_angle_bins: int = 12
    n_depth_bins: int = 4
    n_score_bins: int = 10

    def head_dims(self) -> dict:
        return {
            "objectness": 1,
            "parallel": 1,
            "vacuum": 1,
            "view": self.n_views,
            "angle": self.n_angle_bins,
            "depth": self.n_depth_bins,
            "width": 1,
            "score": self.n_score_bins,
        }


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

    def forward(self, features: np.ndarray, heads=None, rows=None):
        """Head outputs for a (N, F) feature batch.

        Returns (outputs, cache): outputs maps head name -> raw values (logits
        for classification heads), for the named heads only when heads is
        given (default: all); cache feeds backward(). Map heads emit (N, dim)
        rows. Refiner heads score the batch rows listed in rows (distinct
        indices; default: every row) and emit (len(rows), dim), in that order.
        """
        x = np.atleast_2d(np.asarray(features, dtype=np.float64))
        if x.shape[1] != self.config.feature_dim:
            raise ValueError(f"feature width {x.shape[1]} != model feature_dim {self.config.feature_dim}")
        if rows is None:
            rows = slice(None)
        else:
            rows = np.asarray(rows, dtype=np.intp)
            if len(np.unique(rows)) != len(rows):
                raise ValueError("refiner rows must be distinct")
        x = (x - self.feature_mean) / self.feature_std
        activations = [x]
        h = x
        for w, b in self.trunk:
            h = h @ w
            h += b
            np.maximum(h, 0.0, out=h)
            activations.append(h)
        h_aug = np.concatenate([h, self.config.bypass_gain * x], axis=1)
        h_rows = h_aug[rows]
        names = self.heads if heads is None else heads
        outputs = {
            name: (h_aug if name in MAP_HEADS else h_rows) @ self.heads[name][0] + self.heads[name][1]
            for name in names
        }
        cache = (activations, h_aug, h_rows, rows)
        return outputs, cache

    def backward(self, cache, tasks: list) -> list:
        """Flat parameter gradients, one per task, given d(loss)/d(head output) per head.

        Each task is a dict of head gradients. A gradient has the shape of the
        head's forward output: every batch row for a map head, the cached
        refiner rows for a refiner head. Heads missing from a task contribute
        zero gradient. The tasks share one pass: the ReLU masks are built once
        and each hidden layer has one buffer that every task reuses, and each
        gradient keeps the bits of a pass for its task alone. When a task's
        first head is a map head, it writes its product into the last hidden
        buffer; otherwise the buffer is zero-filled. Later heads add into it.
        """
        activations, h_aug, h_rows, rows = cache
        # h > 0 equals the pre-activation test z > 0, NaN included
        masks = [h > 0 for h in activations[1:]]
        buffers = [np.empty_like(h) for h in activations[1:]]
        n_hidden = buffers[-1].shape[1]
        flats = []
        for head_grads in tasks:
            d_hidden = buffers[-1]
            first = next((name for name in self.heads if head_grads.get(name) is not None), None)
            if first not in MAP_HEADS:
                d_hidden.fill(0.0)
            head_grad_arrays = {}
            for name, (w, b) in self.heads.items():
                g = head_grads.get(name)
                if g is None:
                    head_grad_arrays[name] = (np.zeros_like(w), np.zeros_like(b))
                    continue
                h_at = h_aug if name in MAP_HEADS else h_rows
                g = np.asarray(g, dtype=np.float64).reshape(h_at.shape[0], w.shape[1])
                head_grad_arrays[name] = (h_at.T @ g, g.sum(axis=0))
                # only the trunk-output rows of the head matrix backprop further;
                # the bypass rows read the (non-parameter) standardized input
                if name not in MAP_HEADS:
                    d_hidden[rows] += g @ w[:n_hidden].T
                elif name == first:  # rank 1: g * w is the (N, 1) @ (1, n_hidden) product
                    # Writing keeps the -0.0 that adding into +0.0 would make +0.0.
                    # No gradient sees the sign: the mask multiply keeps it and the
                    # GEMMs and sums after it add it to +0.0 (the bitwise backward tests).
                    np.multiply(g, w[:n_hidden, 0], out=d_hidden)
                else:
                    d_hidden += g * w[:n_hidden, 0]

            trunk_grads = [None] * len(self.trunk)
            for i in range(len(self.trunk) - 1, -1, -1):
                dz = np.multiply(buffers[i], masks[i], out=buffers[i])
                trunk_grads[i] = (activations[i].T @ dz, dz.sum(axis=0))
                if i > 0:
                    np.matmul(dz, self.trunk[i][0].T, out=buffers[i - 1])

            parts = []
            for gw, gb in trunk_grads:
                parts += [gw.ravel(), gb.ravel()]
            for name in sorted(self.heads):
                gw, gb = head_grad_arrays[name]
                parts += [gw.ravel(), gb.ravel()]
            flats.append(np.concatenate(parts))
        return flats

    # -- prediction helpers ------------------------------------------------------

    def predict_map_scores(self, features: np.ndarray) -> dict:
        """Sigmoid map predictions per point: objectness, parallel, vacuum in [0, 1]."""
        outputs, _ = self.forward(features, MAP_HEADS)
        return {name: _sigmoid(outputs[name][:, 0]) for name in MAP_HEADS}

    def refiner_outputs(self, features: np.ndarray) -> dict:
        """Raw refiner head outputs for (N, F) seed features."""
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
    doc = {
        "schema_version": CHECKPOINT_SCHEMA_VERSION,
        # every model has refiner heads; load_checkpoint rejects refiner false
        "config": {**asdict(model.config), "refiner": True},
        "feature_mean": _encode(model.feature_mean),
        "feature_std": _encode(model.feature_std),
        "trunk": [{"shape": list(w.shape), "w": _encode(w), "b": _encode(b)} for w, b in model.trunk],
        "heads": {
            name: {"shape": list(w.shape), "w": _encode(w), "b": _encode(b)}
            for name, (w, b) in model.heads.items()
        },
        "meta": model.meta,
    }
    write_json(path, doc)


def _layer_shapes(model: MlpModel) -> dict:
    """Weight shape of each trunk layer and head, by layer name."""
    shapes = {f"trunk layer {i}": w.shape for i, (w, _) in enumerate(model.trunk)}
    return shapes | {f"head {name!r}": w.shape for name, (w, _) in model.heads.items()}


def load_checkpoint(path) -> MlpModel:
    """The model a checkpoint holds: every ModelConfig field but bypass_gain is required, and every layer must fit.

    A missing key raises a json_io.MissingKey naming the file and the key.
    """
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema_version") != CHECKPOINT_SCHEMA_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint schema_version {doc.get('schema_version')!r}")
    with keys_of(path):
        c = doc["config"]
        if c.get("refiner") is not True:
            raise ValueError(f"{path}: unsupported checkpoint without refiner heads")
        kwargs = {f.name: c[f.name] for f in fields(ModelConfig) if f.name in c or f.name != "bypass_gain"}
        cfg = ModelConfig(**{**kwargs, "hidden": tuple(kwargs["hidden"])})
        model = MlpModel(cfg, np.random.default_rng(0))
        expected = _layer_shapes(model)
        model.feature_mean = _decode(doc["feature_mean"], (cfg.feature_dim,))
        model.feature_std = _decode(doc["feature_std"], (cfg.feature_dim,))
        model.trunk = [[_decode(d["w"], d["shape"]), _decode(d["b"], (d["shape"][1],))] for d in doc["trunk"]]
        model.heads = {
            name: [_decode(d["w"], d["shape"]), _decode(d["b"], (d["shape"][1],))]
            for name, d in doc["heads"].items()
        }
    stored = _layer_shapes(model)
    for name in expected | stored:
        if stored.get(name) != expected.get(name):
            raise ValueError(f"{path}: {name} does not fit the checkpoint's config "
                             f"(stored weights {stored.get(name)}, the config gives {expected.get(name)})")
    model.meta = doc.get("meta", {})
    return model
