"""Weight-sharing classifier over graph signals, with exact analytic gradients.

Architecture: stacked graph-signal layers sharing one transformation tensor,
global average pooling (signal mode) or a per-vertex head (vertex mode),
fully-connected layer, softmax. The temperature of the shared row softmax is
annealed geometrically during training so the relaxed tensor converges to
one-hot rows.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import TrainingDivergedError
from .graph import Graph, write_edge_list
from .transforms import (EdgeLogits, Schedule, SoftTransforms, harden, soften,
                         soften_backward, temperature_at)

EPS_LOG = 1e-12
# train() keeps weights, activations and their gradients in float32, which
# halves the bytes of the GEMMs and gathers that dominate a step; the edge
# logits, their softmax and its backward stay float64
TRAIN_DTYPE = np.float32


@dataclass
class GSLayerParams:
    """One graph-signal layer: filter weights (K, C_in, C_out) and bias (C_out,)."""

    w: np.ndarray
    b: np.ndarray


@dataclass
class Model:
    gsl_layers: list[GSLayerParams]
    fc_weight: np.ndarray  # (C_last, num_classes)
    fc_bias: np.ndarray    # (num_classes,)
    mode: str = "signal"   # "signal" (pooled) | "vertex" (per-vertex head)

    @property
    def num_classes(self) -> int:
        return self.fc_bias.shape[0]

    @property
    def dtype(self) -> np.dtype:
        """The dtype the forward and backward passes compute in."""
        return self.fc_weight.dtype

    def param_arrays(self) -> list[np.ndarray]:
        out = []
        for layer in self.gsl_layers:
            out.extend([layer.w, layer.b])
        out.extend([self.fc_weight, self.fc_bias])
        return out


def build_model(in_channels: int, hidden: tuple[int, ...], num_classes: int,
                k: int, mode: str, rng: np.random.Generator,
                dtype=np.float64) -> Model:
    """Fan-in-scaled uniform weight init, zero biases. The draws are float64
    whatever the dtype, so a seed gives the same init rounded to it."""
    if num_classes < 2:
        raise ValueError("need at least 2 classes")
    if not hidden:
        raise ValueError("need at least one graph-signal layer")
    if k < 1 or min(hidden) < 1:
        raise ValueError(f"need k >= 1 slices and layer widths >= 1, "
                         f"got k={k}, widths {','.join(map(str, hidden))}")
    layers = []
    c_in = in_channels
    for c_out in hidden:
        bound = 1.0 / np.sqrt(k * c_in)
        layers.append(GSLayerParams(
            w=rng.uniform(-bound, bound, size=(k, c_in, c_out)).astype(dtype),
            b=np.zeros(c_out, dtype)))
        c_in = c_out
    bound = 1.0 / np.sqrt(c_in)
    fc_w = rng.uniform(-bound, bound, size=(c_in, num_classes)).astype(dtype)
    return Model(layers, fc_w, np.zeros(num_classes, dtype), mode)


def _relu(z: np.ndarray) -> np.ndarray:
    return np.maximum(z, 0.0)


def _softmax(z: np.ndarray) -> np.ndarray:
    m = z.max(axis=-1, keepdims=True)
    e = np.exp(z - m)
    return e / e.sum(axis=-1, keepdims=True)


def _gsl(m, h: np.ndarray, layer: GSLayerParams):
    """One graph-signal layer on node-major h, shaped (N, B, C_in), where m
    is the stacked operator of SoftTransforms.sparse(). Returns u, every
    S_k^T h as (K, N*B, C_in), and z = sum_k (S_k^T h) W_k + b as (N, B, C_out)."""
    n, b, c = h.shape
    u = (m @ h.reshape(n, b * c)).reshape(len(layer.w), n * b, c)
    z = u[0] @ layer.w[0]
    for u_k, w_k in zip(u[1:], layer.w[1:]):
        z += u_k @ w_k
    z += layer.b
    return u, z.reshape(n, b, -1)


def _forward_batch(xb: np.ndarray, soft: SoftTransforms, model: Model):
    """Forward pass on a (B, N, C_in) batch; returns (probs, cache).

    Activations are node-major, (N, B, C), so that the stacked operator
    reads and writes them without copies; probs are (B, cls) in signal
    mode and (B, N, cls) in vertex mode. Everything is computed in
    model.dtype: the batch and the stacked operator are cast to it.
    """
    m = soft.sparse(model.dtype)
    h = np.ascontiguousarray(xb.transpose(1, 0, 2), dtype=model.dtype)
    layer_cache = []
    last = len(model.gsl_layers) - 1
    for li, layer in enumerate(model.gsl_layers):
        if h.shape[2] != layer.w.shape[1]:
            raise ValueError(
                f"layer {li}: input has {h.shape[2]} channels, expected {layer.w.shape[1]}")
        u, z = _gsl(m, h, layer)
        layer_cache.append((h, u, z))
        h = _relu(z) if li < last else z
    if not np.all(np.isfinite(h)):
        raise FloatingPointError("non-finite activations after graph-signal layers")
    pooled = h.mean(axis=0) if model.mode == "signal" else h   # (B, C) or (N, B, C)
    logits = pooled @ model.fc_weight + model.fc_bias
    if not np.all(np.isfinite(logits)):
        raise FloatingPointError("non-finite logits of the fully-connected layer")
    probs = _softmax(logits)
    if model.mode == "vertex":
        probs = probs.transpose(1, 0, 2)
    cache = {"m": m, "layers": layer_cache, "pooled": pooled, "probs": probs}
    return probs, cache


def _loss_grad_output(probs: np.ndarray, yb: np.ndarray):
    """Mean cross-entropy and its gradient w.r.t. the fc logits.

    Signal mode: yb is (B,) class indices. Vertex mode: yb is (B, N) with -1
    marking vertices excluded from the loss.
    """
    mask = yb >= 0
    count = int(mask.sum())
    if count == 0:
        raise ValueError("no labeled vertices in batch")
    picked = probs[mask, yb[mask]]
    loss = float(-np.log(np.maximum(picked, EPS_LOG)).mean())
    dlogits = np.zeros_like(probs)
    dlogits[mask] = probs[mask]
    dlogits[mask, yb[mask]] -= 1.0
    dlogits /= count
    correct = (probs[mask].argmax(axis=1) == yb[mask]).mean()
    return loss, dlogits, float(correct)


def _backward_batch(xb, yb, soft, model, params, cache):
    """Mean cross-entropy over the batch, accuracy, and the exact gradients
    in model.param_arrays() + [params.logits] order."""
    loss, dlogits, acc = _loss_grad_output(cache["probs"], yb)
    pooled = cache["pooled"]
    if model.mode == "vertex":
        dlogits = dlogits.transpose(1, 0, 2)           # node-major, like pooled
    flat = dlogits.reshape(-1, model.num_classes)
    dfc_w = pooled.reshape(-1, pooled.shape[-1]).T @ flat
    dfc_b = flat.sum(axis=0)
    dh = dlogits @ model.fc_weight.T
    if model.mode == "signal":
        n = xb.shape[1]
        dh = np.repeat(dh[None] / n, n, axis=0)        # through the vertex mean

    m = cache["m"]
    dprobs = np.zeros_like(soft.probs)
    grads: list[np.ndarray] = []
    last = len(model.gsl_layers) - 1
    for li in range(last, -1, -1):
        layer = model.gsl_layers[li]
        h, u, z = cache["layers"][li]
        n, b, c = h.shape
        dz = (dh if li == last else dh * (z > 0)).reshape(n * b, -1)
        dw = u.transpose(0, 2, 1) @ dz
        db = dz.sum(axis=0)
        g = (dz @ layer.w.transpose(0, 2, 1)).reshape(-1, b * c)  # g_k = dz W_k^T
        dprobs += soft.probs_grad(h.reshape(n, b * c), g)
        if li > 0:
            dh = (m.T @ g).reshape(n, b, c)
        grads = [dw, db] + grads
        if not all(np.isfinite(a).all() for a in (dw, db)):
            raise FloatingPointError(f"non-finite gradient in graph-signal layer {li}")
    grads += [dfc_w, dfc_b, soften_backward(params, soft, dprobs)]
    return loss, acc, grads


class SGD:
    def __init__(self, lr: float):
        self.lr = lr

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]):
        for p, g in zip(params, grads):
            p -= self.lr * g


class Adam:
    def __init__(self, lr: float, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self.m: list[np.ndarray] | None = None
        self.v: list[np.ndarray] | None = None

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]):
        if self.m is None:
            self.m = [np.zeros_like(p) for p in params]
            self.v = [np.zeros_like(p) for p in params]
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for i, (p, g) in enumerate(zip(params, grads)):
            self.m[i] = b1 * self.m[i] + (1 - b1) * g
            self.v[i] = b2 * self.v[i] + (1 - b2) * g * g
            m_hat = self.m[i] / (1 - b1 ** self.t)
            v_hat = self.v[i] / (1 - b2 ** self.t)
            p -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


@dataclass
class TrainConfig:
    schedule: Schedule
    lr: float = 1e-3
    logit_lr: float | None = None  # transform logits; defaults to lr
    batch_size: int = 32
    optimizer: str = "adam"
    seed: int = 0
    k: int = 5
    hidden: tuple[int, ...] = (32, 64)

    def __post_init__(self):
        rates = [self.lr] + ([] if self.logit_lr is None else [self.logit_lr])
        if not all(math.isfinite(r) and r >= 0 for r in rates):
            raise ValueError(f"learning rates must be finite and nonnegative, got "
                             f"lr={self.lr}, logit_lr={self.logit_lr}")
        if self.batch_size < 1:
            raise ValueError("batch size must be >= 1")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")


@dataclass
class HistoryRow:
    step: int
    temperature: float
    train_loss: float
    train_acc: float
    val_acc: float


def _batches(dataset, idx, batch_size, rng=None):
    """(xb, yb) batches over the samples idx, in a fresh shuffle when rng is
    given. Vertex mode yields the whole graph once, with every label outside
    idx set to -1 so that the loss and the accuracy skip it."""
    if dataset.mode == "vertex":
        y = np.full(len(dataset.labels), -1, dtype=np.int64)
        y[idx] = dataset.labels[idx]
        yield dataset.signals, y[None]
        return
    order = idx if rng is None else rng.permutation(idx)
    for lo in range(0, len(order), batch_size):
        chunk = order[lo:lo + batch_size]
        yield dataset.signals[chunk], dataset.labels[chunk]


def _eval_split(model, params, dataset, idx, t, batch_size=256):
    """Mean loss and accuracy over the given sample/vertex indices."""
    soft = soften(params, t)
    losses, correct, count = [], 0, 0
    for xb, yb in _batches(dataset, idx, batch_size):
        probs, _ = _forward_batch(xb, soft, model)
        mask = yb >= 0
        p, y = probs[mask], yb[mask]
        picked = np.maximum(p[np.arange(len(y)), y], EPS_LOG)
        losses.append(-np.log(picked).sum())
        correct += int((p.argmax(axis=1) == y).sum())
        count += len(y)
    return float(np.sum(losses) / count), correct / count


# non-finite values are detected and raised explicitly; numpy's warnings
# about them would only repeat that
@np.errstate(over="ignore", invalid="ignore")
def train(dataset, graph: Graph, config: TrainConfig):
    """Anneal the shared temperature over s_total optimizer steps.

    Returns (model, edge_logits, hard_transforms, history); the model is in
    TRAIN_DTYPE, the edge logits in float64. Deterministic for a fixed
    config (seed included). A non-finite value anywhere in a
    step or an evaluation raises TrainingDivergedError.
    """
    if not dataset.splits["train"].size:
        raise ValueError("empty training split")
    rng = np.random.default_rng(config.seed)
    in_channels = dataset.signals.shape[2]
    model = build_model(in_channels, tuple(config.hidden), dataset.num_classes,
                        config.k, dataset.mode, rng, TRAIN_DTYPE)
    params = EdgeLogits.init(graph, config.k, rng)
    logit_lr = config.lr if config.logit_lr is None else config.logit_lr
    if config.optimizer == "adam":
        opt, opt_logits = Adam(config.lr), Adam(logit_lr)
    else:
        opt, opt_logits = SGD(config.lr), SGD(logit_lr)
    sched = config.schedule
    train_idx = dataset.splits["train"]
    val_idx = dataset.splits.get("val", train_idx)
    model_arrays = model.param_arrays()
    # an epoch is one pass over train_idx: a whole-graph step in vertex mode,
    # which records about twenty times a run; both modes record the last step
    record_every = max(1, sched.s_total // 20) if dataset.mode == "vertex" else 1

    history: list[HistoryRow] = []
    step, epoch, stage = 0, 0, "evaluation"

    def record():
        t = temperature_at(step, sched)
        tl, ta = _eval_split(model, params, dataset, train_idx, t)
        _, va = _eval_split(model, params, dataset, val_idx, t)
        history.append(HistoryRow(step, t, tl, ta, va))

    try:
        record()
        while step < sched.s_total:
            for xb, yb in _batches(dataset, train_idx, config.batch_size, rng):
                stage = "soften"
                soft = soften(params, temperature_at(step, sched))
                stage = "forward"
                _, cache = _forward_batch(xb, soft, model)
                stage = "backward"
                loss, _, grads = _backward_batch(xb, yb, soft, model, params, cache)
                if not np.isfinite(loss):
                    raise FloatingPointError("non-finite loss")
                opt.step(model_arrays, grads[:-1])
                opt_logits.step([params.logits], grads[-1:])
                step += 1
                if step == sched.s_total:
                    break
            epoch += 1
            if epoch % record_every == 0 or step == sched.s_total:
                stage = "evaluation"
                record()
    except FloatingPointError as exc:
        raise TrainingDivergedError(step, temperature_at(step, sched), stage,
                                    str(exc)) from exc
    hard = harden(params)
    return model, params, hard, history


CHECKPOINT_VERSION = 1


def graph_hash(graph: Graph) -> str:
    return hashlib.sha256(write_edge_list(graph).encode()).hexdigest()


def save_checkpoint(path, model: Model, params: EdgeLogits, graph: Graph,
                    sched: Schedule):
    meta = {
        "version": CHECKPOINT_VERSION,
        "mode": model.mode,
        "k": params.k,
        "num_layers": len(model.gsl_layers),
        "graph_hash": graph_hash(graph),
        "t_init": sched.t_init,
        "t_final": sched.t_final,
        "s_total": sched.s_total,
    }
    arrays = {"meta": np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)}
    for i, layer in enumerate(model.gsl_layers):
        arrays[f"w{i}"] = layer.w
        arrays[f"b{i}"] = layer.b
    arrays["fc_weight"] = model.fc_weight
    arrays["fc_bias"] = model.fc_bias
    arrays["logits"] = params.logits
    np.savez(path, **arrays)


def _check_shape(path, name: str, a: np.ndarray, expected: tuple):
    """Raise ValueError unless a has the expected shape; None matches any size."""
    if a.ndim != len(expected) or any(e not in (None, s) for s, e in zip(a.shape, expected)):
        shown = str(tuple("*" if e is None else e for e in expected)).replace("'", "")
        raise ValueError(f"{path}: {name} has shape {a.shape}, expected {shown}")


def load_checkpoint(path, graph: Graph):
    """Returns (model, edge_logits, schedule). Raises ValueError if the file
    lacks an array, was trained on another graph, or an array's shape does
    not fit the layer chain (w{i} is (k, c_{i-1}, c_i), b{i} is (c_i,),
    fc_weight is (c_last, classes), fc_bias is (classes,)), a weight array
    is not float32 or float64 or differs in dtype from w0, or the logits do
    not fit the graph's support. The model keeps the checkpoint's dtype."""
    with np.load(path) as data:
        if "meta" not in data.files:
            raise ValueError(f"{path}: not a gstrans checkpoint (no 'meta' array)")
        meta = json.loads(bytes(data["meta"]).decode())
        if meta["version"] != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {meta['version']}")
        if meta["graph_hash"] != graph_hash(graph):
            raise ValueError("checkpoint was trained on a different graph")
        num_layers = meta["num_layers"]
        needed = [f"{p}{i}" for i in range(num_layers) for p in "wb"]
        needed += ["fc_weight", "fc_bias"]
        missing = [name for name in needed + ["logits"] if name not in data.files]
        if missing:
            raise ValueError(f"{path}: checkpoint lacks arrays {', '.join(missing)}")
        weights = {name: data[name] for name in needed}
        for name, a in weights.items():
            if a.dtype not in (np.float32, np.float64):
                raise ValueError(f"{path}: {name} has dtype {a.dtype}, "
                                 f"expected float32 or float64")
            if a.dtype != weights[needed[0]].dtype:
                raise ValueError(f"{path}: {name} has dtype {a.dtype}, but "
                                 f"{needed[0]} has {weights[needed[0]].dtype}")
        k, c_in, layers = meta["k"], None, []
        for i in range(num_layers):
            w, b = weights[f"w{i}"], weights[f"b{i}"]
            _check_shape(path, f"w{i}", w, (k, c_in, None))
            _check_shape(path, f"b{i}", b, (w.shape[2],))
            layers.append(GSLayerParams(w, b))
            c_in = w.shape[2]
        fc_w, fc_b = weights["fc_weight"], weights["fc_bias"]
        _check_shape(path, "fc_weight", fc_w, (c_in, None))
        _check_shape(path, "fc_bias", fc_b, (fc_w.shape[1],))
        model = Model(layers, fc_w, fc_b, meta["mode"])
        try:
            params = EdgeLogits(graph, k, data["logits"].copy())
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        sched = Schedule(meta["t_init"], meta["t_final"], meta["s_total"])
        return model, params, sched
