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
import zipfile
from dataclasses import dataclass

import numpy as np
from scipy.linalg import get_blas_funcs

from .errors import TrainingDivergedError
from .graph import Graph, write_edge_list
from .transforms import (EdgeLogits, Schedule, harden, matmul, matmul_t, soften,
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


def _softmax(z: np.ndarray) -> np.ndarray:
    m = z.max(axis=-1, keepdims=True)
    e = np.exp(z - m)
    return e / e.sum(axis=-1, keepdims=True)


# _gsl computes z in blocks of whole vertices whose rows take at most this
# many bytes, so that a block and its products stay in a core's L2
BLOCK_BYTES = 256 * 1024


def _gsl(m, h: np.ndarray, layer: GSLayerParams, relu: bool, pool: bool = False):
    """One graph-signal layer on node-major h, shaped (N, B, C_in), where m
    is the stacked operator of SoftTransforms.sparse(). Returns u, every
    S_k^T h as (K, N*B, C_in), and z = sum_k (S_k^T h) W_k + b as
    (N, B, C_out), put through ReLU in place if relu. With pool, the vertex
    mean of z, (B, C_out), takes the place of z, which is never made whole.
    u is computed by transforms.matmul.

    z is computed in blocks of whole vertices, so that the products of a
    narrow layer stay in cache; a layer that is not blocked is one block of
    all N vertices. A block's rows get the bits of the same rows of the
    whole product (the tests check it). The pooled sum adds the vertices in
    order, as z.mean(axis=0) does.

    Each slice's product goes into the block in place through SciPy's BLAS:
    GEMM (C <- A B + beta C), beta = 0 for slice 0 and 1 after it, or GEMV
    for C_out = 1, which numpy also runs as a matrix-vector product. BLAS
    adds each finished sum to the block, so the bits are those of
    zb += u_k @ w_k while C_in fits OpenBLAS's K block (the tests pin them);
    a wider layer, such as WebKB's 1703 channels, rounds otherwise. The
    wrappers write C in place only if it is Fortran-contiguous, as zb.T and
    zb[:, 0] are.

    The bias add and the ReLU see a block as rows of whole vertices,
    (vertices, B*C_out): the bias as one row of b tiled B times, the ReLU
    as np.maximum against one row of zeros, both filled once per call.
    numpy runs a broadcast C_out-long vector or a scalar operand one short
    row at a time; B*C_out-long rows it runs faster. Each element gets the
    same operation on the same operands, so the bits are those of z + b and
    np.maximum(z, 0.0).
    """
    n, b, c = h.shape
    w = layer.w
    c_out = w.shape[2]
    u = matmul(m, h.reshape(n, b * c)).reshape(len(w), n * b, c)
    # OpenBLAS rounds the rows of a block differently from those of the
    # whole product for some layers with C_in >= 16, and for C_out = 1 (a
    # matrix-vector product, whose z numpy also averages pairwise); those
    # layers, on which blocking gains less, are computed whole
    whole = c >= 16 or c_out == 1
    gemm, gemv = get_blas_funcs(("gemm", "gemv"), dtype=h.dtype)
    step = n if whole else min(n, max(1, BLOCK_BYTES // (b * c_out * h.itemsize)))
    rows = step * b
    if pool:
        # slab 0 carries the running vertex sum into the next block's sum
        slabs = np.empty((step + 1, b, c_out), h.dtype)
        total = np.empty((b, c_out), h.dtype)
        block = slabs[1:].reshape(rows, c_out)
    else:
        z = np.empty((n * b, c_out), h.dtype)
    # b tiled B times, in b's dtype so that the add is that of zb += b
    bias = np.tile(layer.b, b)
    zero = np.zeros(b * c_out, h.dtype) if relu else None
    for lo in range(0, n * b, rows):
        hi = min(lo + rows, n * b)
        zb = block[:hi - lo] if pool else z[lo:hi]
        # zb = u_0 W_0, then zb += u_k W_k
        for k, (u_k, w_k) in enumerate(zip(u[:, lo:hi], w)):
            if c_out == 1:
                gemv(1.0, u_k.T, w_k[:, 0], float(k > 0), zb[:, 0], trans=1,
                     overwrite_y=True)
            else:
                gemm(1.0, w_k.T, u_k.T, float(k > 0), zb.T, overwrite_c=True)
        zv = zb.reshape(-1, b * c_out)
        zv += bias
        if relu:
            np.maximum(zv, zero, out=zv)
        if pool:
            if lo:
                slabs[0] = total
            np.add.reduce(slabs[0 if lo else 1:1 + (hi - lo) // b], axis=0, out=total)
    if not pool:
        return u, z.reshape(n, b, c_out)
    # ndarray.mean's division: by an intp, rounded to the dtype
    return u, np.true_divide(total, np.intp(n), out=total, casting="unsafe")


def _forward_batch(xb: np.ndarray, m, model: Model, backward: bool = True):
    """Forward pass on a (B, N, C_in) batch through the stacked operator m,
    SoftTransforms.sparse(model.dtype); returns (probs, cache), the cache
    being None unless a backward pass follows.

    Activations are node-major, (N, B, C), so that the stacked operator
    reads and writes them without copies; probs are (B, cls) in signal
    mode and (B, N, cls) in vertex mode. Everything is computed in
    model.dtype: the batch is cast to it. A layer's cache entry is
    (h, u, z), z after its ReLU: the mask z > 0 is unchanged by it, and
    that z is the next layer's h.

    In signal mode the last layer runs after the vertex mean. It has no
    ReLU, and every S_k is row-stochastic, so S_k^T preserves the vertex
    sum: mean_n(sum_k S_k^T h W_k + b) = mean_n(h) sum_k W_k + b. Its
    cache entry is (mean_n(h),), shaped (B, C_in), instead of (h, u, z).
    Without a backward pass the layer below it computes that mean block
    by block, and its z is never made whole.
    """
    b, n, c = xb.shape
    h = np.empty((n, b, c), model.dtype)
    np.copyto(h, xb.transpose(1, 0, 2))
    layer_cache = []
    last = len(model.gsl_layers) - 1
    pool_at = last - 1 if model.mode == "signal" and not backward else None
    for li, layer in enumerate(model.gsl_layers):
        if h.shape[-1] != layer.w.shape[1]:
            raise ValueError(
                f"layer {li}: input has {h.shape[-1]} channels, expected {layer.w.shape[1]}")
        if li == last and model.mode == "signal":
            hbar = h.mean(axis=0) if h.ndim == 3 else h   # pooled by _gsl
            layer_cache.append((hbar,))
            h = hbar @ layer.w.sum(axis=0) + layer.b
        else:
            u, z = _gsl(m, h, layer, li < last, li == pool_at)
            if backward:
                layer_cache.append((h, u, z))
            h = z
    if not np.all(np.isfinite(h)):
        raise FloatingPointError("non-finite activations after graph-signal layers")
    pooled = h   # the fc input: (B, C) in signal mode, (N, B, C) in vertex mode
    logits = pooled @ model.fc_weight + model.fc_bias
    if not np.all(np.isfinite(logits)):
        raise FloatingPointError("non-finite logits of the fully-connected layer")
    probs = _softmax(logits)
    if model.mode == "vertex":
        probs = probs.transpose(1, 0, 2)
    if not backward:
        return probs, None
    cache = {"m": m, "layers": layer_cache, "pooled": pooled, "probs": probs}
    return probs, cache


def _score(probs: np.ndarray, yb: np.ndarray):
    """Summed cross-entropy, correct count, scored count and label mask of a
    batch; yb is (B,) in signal mode, (B, N) with -1 for unscored vertices in vertex mode."""
    mask = yb >= 0
    p, y = probs[mask], yb[mask]
    picked = np.maximum(p[np.arange(len(y)), y], EPS_LOG)
    return -np.log(picked).sum(), int((p.argmax(axis=1) == y).sum()), len(y), mask


def _loss_grad_output(probs: np.ndarray, yb: np.ndarray):
    """Mean cross-entropy, its gradient w.r.t. the fc logits, and accuracy."""
    loss, correct, count, mask = _score(probs, yb)
    if count == 0:
        raise ValueError("no labeled vertices in batch")
    dlogits = np.zeros_like(probs)
    dlogits[mask] = probs[mask]
    dlogits[mask, yb[mask]] -= 1.0
    dlogits /= count
    return float(loss / count), dlogits, correct / count


def _backward_batch(yb, soft, model, cache):
    """Mean cross-entropy over the batch, accuracy, and the exact gradients
    in model.param_arrays() + [edge logits] order."""
    loss, dlogits, acc = _loss_grad_output(cache["probs"], yb)
    pooled = cache["pooled"]
    if model.mode == "vertex":
        dlogits = dlogits.transpose(1, 0, 2)           # node-major, like pooled
    flat = dlogits.reshape(-1, model.num_classes)
    dfc_w = pooled.reshape(-1, pooled.shape[-1]).T @ flat
    dfc_b = flat.sum(axis=0)
    dh = dlogits @ model.fc_weight.T

    m = cache["m"]
    dprobs = np.zeros_like(soft.probs)
    grads: list[np.ndarray] = []
    last = len(model.gsl_layers) - 1
    for li in range(last, -1, -1):
        layer = model.gsl_layers[li]
        if li == last and model.mode == "signal":
            # the layer ran after the vertex mean (see _forward_batch): every
            # slice gets the same dW, the translations get no gradient, and
            # the layer below gets the same dh at every vertex, (B, C_in),
            # which broadcasts over the vertex axis
            (hbar,) = cache["layers"][li]
            dw = np.repeat((hbar.T @ dh)[None], len(layer.w), axis=0)
            db = dh.sum(axis=0)
            dh = dh @ layer.w.sum(axis=0).T / soft.graph.n
        else:
            h, u, z = cache["layers"][li]
            n, b, c = h.shape
            dz = (dh if li == last else dh * (z > 0)).reshape(n * b, -1)
            dw = u.transpose(0, 2, 1) @ dz
            db = dz.sum(axis=0)
            g = (dz @ layer.w.transpose(0, 2, 1)).reshape(-1, b * c)  # g_k = dz W_k^T
            dprobs += soft.probs_grad(h.reshape(n, b * c), g)
            if li > 0:
                dh = matmul_t(m, g).reshape(n, b, c)
        grads = [dw, db] + grads
        if not all(np.isfinite(a).all() for a in (dw, db)):
            raise FloatingPointError(f"non-finite gradient in graph-signal layer {li}")
    grads += [dfc_w, dfc_b, soften_backward(soft, dprobs)]
    return loss, acc, grads


class SGD:
    """Steps a fixed list of arrays of one dtype, given when it is built,
    from one flat copy of their gradients: _update computes the flat update
    into self.update, whose blocks are views shaped like the arrays. The
    update is elementwise, so each array moves by the same bits as under an
    update computed array by array."""

    def __init__(self, params: list[np.ndarray], lr: float):
        self.params, self.lr = params, lr
        bounds = np.cumsum([0] + [p.size for p in params])
        self.update = np.empty(bounds[-1], params[0].dtype)
        self.blocks = [self.update[lo:hi].reshape(p.shape)
                       for p, lo, hi in zip(params, bounds, bounds[1:])]

    def step(self, grads: list[np.ndarray]):
        """Move each array by its gradient, grads being in the arrays' order."""
        self._update(np.concatenate([a.ravel() for a in grads]))
        for p, u in zip(self.params, self.blocks):
            p -= u

    def _update(self, g: np.ndarray):
        np.multiply(self.lr, g, out=self.update)


class Adam(SGD):
    """SGD's flat state plus Adam's first and second moments, two flat
    arrays beside the update (Kingma & Ba, arXiv:1412.6980). _update
    writes the moments and the update in place, through one flat scratch
    array, with the operations, operands and order of the textbook
    expressions, so each value gets their bits."""

    def __init__(self, params: list[np.ndarray], lr: float):
        super().__init__(params, lr)
        self.t = 0
        self.m, self.v = np.zeros_like(self.update), np.zeros_like(self.update)
        self.scratch = np.empty_like(self.update)

    def _update(self, g: np.ndarray):
        self.t += 1
        b1, b2, eps = 0.9, 0.999, 1e-8
        m, v, s, u = self.m, self.v, self.scratch, self.update
        # m = b1 * m + (1 - b1) * g
        np.multiply(b1, m, out=m)
        np.add(m, np.multiply(1 - b1, g, out=s), out=m)
        # v = b2 * v + (1 - b2) * g * g
        np.multiply(b2, v, out=v)
        np.multiply(np.multiply(1 - b2, g, out=s), g, out=s)
        np.add(v, s, out=v)
        # update = lr * (m / (1 - b1^t)) / (sqrt(v / (1 - b2^t)) + eps)
        np.multiply(self.lr, np.divide(m, 1 - b1 ** self.t, out=u), out=u)
        np.add(np.sqrt(np.divide(v, 1 - b2 ** self.t, out=s), out=s), eps, out=s)
        np.divide(u, s, out=u)


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


def _eval_split(model, m, dataset, idx):
    """Mean loss and accuracy over the given sample/vertex indices, scored
    in chunks of 256 samples through the stacked operator m,
    SoftTransforms.sparse(model.dtype). No backward pass follows, so each
    forward keeps no cache, and in signal mode the last graph-signal layer
    hands on only its vertex mean."""
    losses, correct, count = [], 0, 0
    for xb, yb in _batches(dataset, idx, 256):
        probs = _forward_batch(xb, m, model, backward=False)[0]
        loss, c, n = _score(probs, yb)[:3]
        losses.append(loss)
        correct += c
        count += n
    return float(np.sum(losses) / count), correct / count


# non-finite values are detected and raised explicitly; numpy's warnings
# about them would only repeat that
@np.errstate(over="ignore", invalid="ignore")
def train(dataset, graph: Graph, config: TrainConfig):
    """Anneal the shared temperature over s_total optimizer steps.

    Returns (model, edge_logits, targets, history), targets being harden()'s
    (K, N) array; the model is in TRAIN_DTYPE, the edge logits in float64.
    Deterministic for a fixed config (seed included). A non-finite value
    anywhere in a step or an evaluation raises TrainingDivergedError.
    """
    for name, split in (("training", "train"), ("validation", "val")):
        if not len(dataset.splits.get(split, ())):
            raise ValueError(f"empty {name} split")
    train_idx, val_idx = dataset.splits["train"], dataset.splits["val"]
    rng = np.random.default_rng(config.seed)
    in_channels = dataset.signals.shape[2]
    model = build_model(in_channels, tuple(config.hidden), dataset.num_classes,
                        config.k, dataset.mode, rng, TRAIN_DTYPE)
    params = EdgeLogits.init(graph, config.k, rng)
    logit_lr = config.lr if config.logit_lr is None else config.logit_lr
    optimizer = Adam if config.optimizer == "adam" else SGD
    opt = optimizer(model.param_arrays(), config.lr)
    opt_logits = optimizer([params.logits], logit_lr)
    sched = config.schedule
    # an epoch is one pass over train_idx: a whole-graph step in vertex mode,
    # which records about twenty times a run; both modes record the last step
    record_every = max(1, sched.s_total // 20) if dataset.mode == "vertex" else 1

    history: list[HistoryRow] = []
    step, epoch, stage = 0, 0, "evaluation"
    # the stacked operator: built by the first record, refilled in place by
    # every step and record after it
    m = None

    def record():
        nonlocal m
        t = temperature_at(step, sched)
        m = soften(params, t).sparse(model.dtype, out=m)
        tl, ta = _eval_split(model, m, dataset, train_idx)
        _, va = _eval_split(model, m, dataset, val_idx)
        history.append(HistoryRow(step, t, tl, ta, va))

    try:
        record()
        while step < sched.s_total:
            for xb, yb in _batches(dataset, train_idx, config.batch_size, rng):
                stage = "soften"
                soft = soften(params, temperature_at(step, sched))
                stage = "forward"
                m = soft.sparse(model.dtype, out=m)
                _, cache = _forward_batch(xb, m, model)
                stage = "backward"
                grads = _backward_batch(yb, soft, model, cache)[2]
                opt.step(grads[:-1])
                opt_logits.step(grads[-1:])
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
    return model, params, harden(params), history


CHECKPOINT_VERSION = 1
# the keys of a checkpoint's meta record, in the order save_checkpoint writes them
_META_KEYS = ("version", "mode", "k", "num_layers", "graph_hash", "t_init",
              "t_final", "s_total")


def graph_hash(graph: Graph) -> str:
    return hashlib.sha256(write_edge_list(graph).encode()).hexdigest()


def save_checkpoint(path, model: Model, params: EdgeLogits, sched: Schedule):
    """Writes the model, the edge logits and the schedule as one .npz; the
    graph hash is that of params.graph, the graph the logits are aligned to."""
    meta = dict(zip(_META_KEYS, (CHECKPOINT_VERSION, model.mode, params.k,
                                 len(model.gsl_layers), graph_hash(params.graph),
                                 sched.t_init, sched.t_final, sched.s_total)))
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
    lacks an array or a meta key, was trained on another graph, or an
    array's shape does not fit the layer chain (w{i} is (k, c_{i-1}, c_i), b{i} is (c_i,),
    fc_weight is (c_last, classes), fc_bias is (classes,)), a weight array
    or the logits are not float32 or float64, a weight array differs in
    dtype from w0, or the logits do not fit the graph's support, or the
    file is no readable .npz archive.
    The model keeps the checkpoint's dtype. The meta record must be a JSON
    object whose version, k, num_layers and s_total are integers >= 1,
    t_init and t_final positive finite numbers, and mode 'signal' or 'vertex'."""
    try:
        data = np.load(path)
    except (EOFError, ValueError, zipfile.BadZipFile):
        data = None
    if not isinstance(data, np.lib.npyio.NpzFile):
        raise ValueError(f"{path}: not a readable .npz checkpoint")
    with data:
        if "meta" not in data.files:
            raise ValueError(f"{path}: not a gstrans checkpoint (no 'meta' array)")
        try:
            meta = json.loads(bytes(data["meta"]).decode())
        except ValueError as exc:
            raise ValueError(f"{path}: checkpoint meta is not JSON: {exc}") from None
        if not isinstance(meta, dict):
            raise ValueError(f"{path}: checkpoint meta is not a JSON object")
        missing = [key for key in _META_KEYS if key not in meta]
        if missing:
            raise ValueError(f"{path}: checkpoint meta lacks keys {', '.join(missing)}")
        ints = [key for key in ("version", "k", "num_layers", "s_total")
                if type(meta[key]) is not int or meta[key] < 1]
        reals = [key for key in ("t_init", "t_final")
                 if type(meta[key]) not in (int, float) or not 0 < meta[key] < math.inf]
        modes = [] if meta["mode"] in ("signal", "vertex") else ["mode"]
        for keys, expected in ((ints, "an integer >= 1"), (reals, "a positive finite number"),
                               (modes, "'signal' or 'vertex'")):
            if keys:
                raise ValueError(f"{path}: checkpoint meta {keys[0]} is "
                                 f"{meta[keys[0]]!r}, expected {expected}")
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
        logits = data["logits"]
        for name, a in [*weights.items(), ("logits", logits)]:
            if a.dtype not in (np.float32, np.float64):
                raise ValueError(f"{path}: {name} has dtype {a.dtype}, "
                                 f"expected float32 or float64")
            if name != "logits" and a.dtype != weights[needed[0]].dtype:
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
            params = EdgeLogits(graph, k, logits)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        sched = Schedule(meta["t_init"], meta["t_final"], meta["s_total"])
        return model, params, sched
