"""The learnable edge-constrained transformation tensor.

All K slices share the graph's CSR support: one (K, E) array aligned with
``Graph.dst``, applied as one sparse operator, so the edge constraint is
structural. ``Graph.stacked_pattern`` builds the operator's index arrays
from this layout, and ``nn`` reads its product as K blocks of N rows."""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
# the kernels m @ x runs: SciPy's private module, pinned by the tests that
# compare matmul and matmul_t with m @ x and m.T @ g byte for byte
from scipy.sparse import _sparsetools

from .graph import Graph


def _require_support(graph: Graph):
    counts = np.diff(graph.indptr)
    if not counts.all():
        raise ValueError(f"vertex {int(np.argmin(counts))} has no neighbors; "
                         "every row needs support")


@dataclass
class EdgeLogits:
    """Raw parameters of the transformation tensor: one logit per slice and edge."""

    graph: Graph
    k: int
    logits: np.ndarray  # (k, e), aligned with graph.dst

    def __post_init__(self):
        _require_support(self.graph)
        expected = (self.k, self.graph.num_entries())
        if self.logits.shape != expected:
            raise ValueError(f"logits have shape {self.logits.shape}, expected "
                             f"{expected} for this graph")

    @classmethod
    def init(cls, graph: Graph, k: int, rng: np.random.Generator,
             scale: float = 0.01) -> "EdgeLogits":
        logits = rng.uniform(-scale, scale, size=(k, graph.num_entries()))
        return cls(graph, k, logits)


@dataclass
class SoftTransforms:
    """Row-stochastic relaxation of the transformation tensor at temperature t."""

    graph: Graph
    probs: np.ndarray  # (k, e)
    temperature: float

    @property
    def k(self) -> int:
        return self.probs.shape[0]

    def sparse(self, dtype=np.float64, out=None) -> sp.csr_matrix:
        """The (K*N x N) operator M whose k-th block of rows is S_k^T, in
        dtype (SciPy would upcast a float32 x to M's float64).

        For x of shape (N, F), M @ x stacks every S_k^T x; for g of shape
        (K*N, F), M.T @ g is sum_k S_k g_k. matmul and matmul_t compute
        them without SciPy's dispatch.

        With out, an operator this method built for the same graph, K and
        dtype, the values are written into out's data in place and out is
        returned: the bytes of a new operator, without building one. An
        out built for another graph, K or dtype raises ValueError.
        """
        indptr, indices, order = self.graph.stacked_pattern(self.k)
        probs = self.probs.astype(dtype, copy=False).ravel()
        if out is None:
            n = self.graph.n
            return sp.csr_matrix((probs.take(order), indices, indptr),
                                 shape=(self.k * n, n))
        if out.indptr is not indptr or out.data.dtype != probs.dtype:
            raise ValueError(f"out is not a {probs.dtype} operator built for this "
                             f"graph with k={self.k}")
        probs.take(order, out=out.data, mode="clip")   # "raise" would buffer
        return out

    def probs_grad(self, x: np.ndarray, g: np.ndarray) -> np.ndarray:
        """Gradient of sum(g * (M @ x)) w.r.t. probs, for x of shape (N, F)
        and g of shape (K*N, F): entry (k, e) is x[src_e] . g_k[dst_e].

        The entries are taken in groups of one in-degree d
        (Graph.by_in_degree): x is gathered at their sources once, as
        (n_d, d, F), and g_k's rows at their destinations once, as
        (n_d, F), broadcast over d. Each entry is still np.vecdot of two
        contiguous F-vectors, so it gets the bits of a product taken entry
        by entry."""
        n = self.graph.n
        # each g_k row contiguous, as the per-entry product reads it
        g = np.ascontiguousarray(g).reshape(self.k, n, g.shape[1])
        out = np.empty_like(self.probs)
        for vertices, entries, sources in self.graph.by_in_degree:
            # a group of every vertex, a regular graph's only one, reads g uncopied
            rows = g[:, vertices] if len(vertices) < n else g
            out[:, entries] = np.vecdot(x[sources], rows[:, :, None])
        return out


def _matvecs(kernel, m: sp.csr_matrix, x: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Runs a SciPy kernel on m's arrays and x into a new zeroed (rows, F)
    array, after checking that x is (cols, F) and of m's dtype: the kernel
    reads raw buffers by the sizes it is given, and would cast x to
    another dtype."""
    if x.ndim != 2 or x.shape[0] != cols:
        raise ValueError(f"expected x of shape ({cols}, F), got {x.shape}")
    if x.dtype != m.dtype:
        raise ValueError(f"x must have the operator's dtype {m.dtype}, got {x.dtype}")
    out = np.zeros((rows, x.shape[1]), x.dtype)
    kernel(rows, cols, x.shape[1], m.indptr, m.indices, m.data, x.ravel(), out.ravel())
    return out


def matmul(m: sp.csr_matrix, x: np.ndarray) -> np.ndarray:
    """m @ x, shaped (K*N, F), for an operator m of SoftTransforms.sparse()
    and x of shape (N, F) in m's dtype, else ValueError. It runs the kernel
    m @ x runs, into a new zeroed array, and gets its bits (for F = 1 those
    of its one-vector form, which the tests check against this one)."""
    return _matvecs(_sparsetools.csr_matvecs, m, x, *m.shape)


def matmul_t(m: sp.csr_matrix, g: np.ndarray) -> np.ndarray:
    """m.T @ g, shaped (N, F), for g of shape (K*N, F), as matmul. m's CSR
    arrays are those of m.T in CSC form, so this runs the kernel m.T @ g
    runs, without building m.T."""
    return _matvecs(_sparsetools.csc_matvecs, m, g, *m.shape[::-1])


def soften(params: EdgeLogits, t: float) -> SoftTransforms:
    """Masked softmax over each row's neighbor support, at temperature t."""
    if t <= 0:
        raise ValueError(f"temperature must be positive, got {t}")
    if not np.all(np.isfinite(params.logits)):
        raise FloatingPointError("non-finite logits")
    starts, counts = params.graph.indptr[:-1], np.diff(params.graph.indptr)
    top = np.maximum.reduceat(params.logits, starts, axis=1)
    z = np.exp((params.logits - np.repeat(top, counts, axis=1)) / t)
    total = np.add.reduceat(z, starts, axis=1)
    return SoftTransforms(params.graph, z / np.repeat(total, counts, axis=1), t)


def soften_backward(soft: SoftTransforms, dprobs: np.ndarray) -> np.ndarray:
    """Gradient w.r.t. logits given the gradient w.r.t. the soft probabilities."""
    p, indptr = soft.probs, soft.graph.indptr
    dot = np.add.reduceat(dprobs * p, indptr[:-1], axis=1)
    return p * (dprobs - np.repeat(dot, np.diff(indptr), axis=1)) / soft.temperature


def harden(params: EdgeLogits) -> np.ndarray:
    """The K discrete pseudo-translations as a (K, N) int64 array: row k maps
    each vertex to one of its neighbors, the row-wise argmax of the logits;
    ties go to the smallest vertex index."""
    if not np.all(np.isfinite(params.logits)):
        raise FloatingPointError("non-finite logits")
    g = params.graph
    starts, counts, e = g.indptr[:-1], np.diff(g.indptr), g.num_entries()
    top = np.repeat(np.maximum.reduceat(params.logits, starts, axis=1), counts, axis=1)
    # neighbor lists are sorted, so the first maximal entry has the smallest index
    entry = np.where(params.logits == top, np.arange(e), e)
    return g.dst[np.minimum.reduceat(entry, starts, axis=1)]


def one_hot_soft(graph: Graph, targets: np.ndarray) -> SoftTransforms:
    """Exact one-hot SoftTransforms from explicit vertex -> neighbor maps, at
    temperature 1."""
    targets = np.asarray(targets, dtype=np.int64)
    _require_support(graph)
    _, n = targets.shape
    if n != graph.n:
        raise ValueError(f"targets cover {n} vertices, graph has {graph.n}")
    probs = (graph.dst == targets[:, graph.src]).astype(float)
    missing = np.argwhere(np.add.reduceat(probs, graph.indptr[:-1], axis=1) == 0)
    if len(missing):
        s, i = missing[0]
        raise ValueError(f"slice {s}: target {targets[s, i]} is not a neighbor of {i}")
    return SoftTransforms(graph, probs, 1.0)


def _slice_weights(s_soft: SoftTransforms, w: np.ndarray) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    if w.shape != (s_soft.k,):
        raise ValueError(f"expected weight vector of length {s_soft.k}, got shape {w.shape}")
    return w


def mode3_product(s_soft: SoftTransforms, w: np.ndarray) -> np.ndarray:
    """Weighted sum of slices: the N x N matrix S x_3 w = sum_k w[k] * S_k,
    from the K dense blocks S_k^T of the stacked operator."""
    w, n = _slice_weights(s_soft, w), s_soft.graph.n
    return (w @ s_soft.sparse().toarray().reshape(s_soft.k, n * n)).reshape(n, n).T


def convolve(signal: np.ndarray, s_soft: SoftTransforms, w: np.ndarray) -> np.ndarray:
    """Pseudo-convolution s^T (S x_3 w) = sum_k w[k] * S_k^T s, as a vector."""
    w, n = _slice_weights(s_soft, w), s_soft.graph.n
    signal = np.asarray(signal, dtype=float)
    if signal.shape != (n,):
        raise ValueError(f"expected signal of length {n}, got shape {signal.shape}")
    return w @ (s_soft.sparse() @ signal).reshape(s_soft.k, n)


@dataclass(frozen=True)
class Schedule:
    """Geometric temperature interpolation over the training steps."""

    t_init: float
    t_final: float
    s_total: int

    def __post_init__(self):
        if not all(math.isfinite(t) and t > 0 for t in (self.t_init, self.t_final)):
            raise ValueError(f"temperatures must be positive and finite, got "
                             f"t_init={self.t_init}, t_final={self.t_final}")
        # temperature_at raises the ratio to powers in [0, 1]: at 0 or inf
        # every temperature after step 0 would be 0 or inf
        if not 0 < self.t_final / self.t_init < math.inf:
            raise ValueError(f"temperature ratio t_final/t_init leaves float range, got "
                             f"t_init={self.t_init}, t_final={self.t_final}")
        if self.s_total < 1:
            raise ValueError("s_total must be >= 1")


def temperature_at(step: int, sched: Schedule) -> float:
    """t(s) = t_init * (t_final / t_init)^(s / s_total)."""
    if not 0 <= step <= sched.s_total:
        raise ValueError(f"step {step} outside [0, {sched.s_total}]")
    return sched.t_init * (sched.t_final / sched.t_init) ** (step / sched.s_total)


def apply_hard(targets: np.ndarray, signal: np.ndarray) -> np.ndarray:
    """Apply one hard map, a row of harden()'s array, to a signal: out[j] is
    the sum of signal rows mapping to j. Every target must be an integer in
    [0, n), n being the signal's row count; ValueError otherwise."""
    targets, signal = np.asarray(targets), np.asarray(signal, dtype=float)
    n = signal.shape[0]
    if targets.shape != signal.shape[:1]:
        raise ValueError(f"signal has {n} rows, map has shape {targets.shape}")
    if targets.size and (targets.dtype.kind not in "iu"
                         or not 0 <= targets.min() <= targets.max() < n):
        raise ValueError(f"targets must be integers in [0, {n})")
    out = np.zeros_like(signal)
    np.add.at(out, targets, signal)
    return out


def transforms_to_json(targets: np.ndarray) -> str:
    k, n = targets.shape
    return json.dumps({"n": n, "k": k, "targets": targets.tolist()})


def transforms_from_json(text: str) -> np.ndarray:
    """The (K, N) int64 targets of a transforms_to_json() document; a
    malformed document raises ValueError."""
    try:
        doc = json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None
    if not isinstance(doc, dict):
        raise ValueError(f"expected a JSON object, got {type(doc).__name__}")
    missing = [key for key in ("n", "k", "targets") if key not in doc]
    if missing:
        raise ValueError(f"missing key(s) {', '.join(missing)}")
    n, k = doc["n"], doc["k"]
    if type(n) is not int or type(k) is not int:
        raise ValueError(f"n and k must be integers, got n={n!r}, k={k!r}")
    targets = np.asarray(doc["targets"], dtype=object)
    if targets.shape != (k, n):
        raise ValueError("targets shape does not match declared n and k")
    if not all(type(t) is int for t in targets.flat):
        raise ValueError("targets must be integers")
    # checked on Python ints, so a value past int64 is named, not overflowed
    if not all(0 <= t < n for t in targets.flat):
        raise ValueError(f"targets outside [0, {n})")
    return targets.astype(np.int64)
