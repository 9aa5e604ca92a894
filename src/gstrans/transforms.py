"""The learnable edge-constrained transformation tensor.

All K slices share one support, the graph's edges: they are stored as one
(K, E) array over it and applied as one sparse operator, so the edge
constraint is structural. No other module knows this layout.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .graph import Graph


@dataclass(frozen=True)
class EdgeIndex:
    """CSR arrays describing the row-wise support shared by every slice."""

    indptr: np.ndarray  # (n + 1,)
    src: np.ndarray     # (e,) row index of each entry
    dst: np.ndarray     # (e,) column index (the neighbor), sorted within a row
    by_dst: np.ndarray  # (e,) the entries sorted by (dst, src): a transposed slice's rows

    @property
    def num_entries(self) -> int:
        return len(self.src)

    @property
    def counts(self) -> np.ndarray:
        return np.diff(self.indptr)


def edge_index(graph: Graph) -> EdgeIndex:
    counts = np.array([len(nbrs) for nbrs in graph.neighbors], dtype=np.int64)
    if not counts.all():
        raise ValueError(f"vertex {int(np.argmin(counts))} has no neighbors; "
                         "every row needs support")
    dst = np.array([j for nbrs in graph.neighbors for j in nbrs], dtype=np.int64)
    src = np.repeat(np.arange(graph.n, dtype=np.int64), counts)
    # src is already sorted, so a stable sort on dst orders ties by src
    return EdgeIndex(np.append(0, np.cumsum(counts)), src, dst,
                     np.argsort(dst, kind="stable"))


def _stacked_transpose(index: EdgeIndex, data: np.ndarray) -> sp.csr_matrix:
    """(K*N x N) CSR whose k-th block of rows is the transpose of the N x N
    matrix that holds data[k] on the support."""
    k, n = len(data), len(index.indptr) - 1
    cols = np.tile(index.src[index.by_dst], k)
    indptr = np.append(0, np.cumsum(np.tile(np.bincount(index.dst, minlength=n), k)))
    return sp.csr_matrix((data[:, index.by_dst].ravel(), cols, indptr), shape=(k * n, n))


@dataclass
class EdgeLogits:
    """Raw parameters of the transformation tensor: one logit per slice and edge."""

    graph: Graph
    k: int
    logits: np.ndarray  # (k, e), aligned with index.dst
    index: EdgeIndex = field(init=False, repr=False)

    def __post_init__(self):
        self.index = edge_index(self.graph)
        expected = (self.k, self.index.num_entries)
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
    index: EdgeIndex = field(repr=False)

    @property
    def k(self) -> int:
        return self.probs.shape[0]

    def sparse(self, dtype=np.float64) -> sp.csr_matrix:
        """The (K*N x N) operator M whose k-th block of rows is S_k^T, in
        dtype (SciPy would upcast a float32 x to M's float64).

        For x of shape (N, F), M @ x stacks every S_k^T x; for g of shape
        (K*N, F), M.T @ g is sum_k S_k g_k.
        """
        return _stacked_transpose(self.index, self.probs.astype(dtype, copy=False))

    def probs_grad(self, x: np.ndarray, g: np.ndarray) -> np.ndarray:
        """Gradient of sum(g * (M @ x)) w.r.t. probs, for x of shape (N, F)
        and g of shape (K*N, F): entry (k, e) is x[src_e] . g_k[dst_e]."""
        xs = x[self.index.src]
        out = np.empty_like(self.probs)
        for k, g_k in enumerate(g.reshape(self.k, -1, g.shape[1])):
            out[k] = np.vecdot(xs, g_k[self.index.dst])
        return out


def soften(params: EdgeLogits, t: float) -> SoftTransforms:
    """Masked softmax over each row's neighbor support, at temperature t."""
    if t <= 0:
        raise ValueError(f"temperature must be positive, got {t}")
    if not np.all(np.isfinite(params.logits)):
        raise FloatingPointError("non-finite logits")
    idx = params.index
    starts, counts = idx.indptr[:-1], idx.counts
    top = np.maximum.reduceat(params.logits, starts, axis=1)
    z = np.exp((params.logits - np.repeat(top, counts, axis=1)) / t)
    total = np.add.reduceat(z, starts, axis=1)
    return SoftTransforms(params.graph, z / np.repeat(total, counts, axis=1), t, idx)


def soften_backward(params: EdgeLogits, soft: SoftTransforms,
                    dprobs: np.ndarray) -> np.ndarray:
    """Gradient w.r.t. logits given the gradient w.r.t. the soft probabilities."""
    idx = params.index
    p = soft.probs
    dot = np.add.reduceat(dprobs * p, idx.indptr[:-1], axis=1)
    return p * (dprobs - np.repeat(dot, idx.counts, axis=1)) / soft.temperature


@dataclass(frozen=True)
class HardTransforms:
    """K discrete pseudo-translations: each vertex maps to one of its neighbors."""

    n: int
    targets: np.ndarray  # (k, n) int

    @property
    def k(self) -> int:
        return self.targets.shape[0]


def harden(params: EdgeLogits) -> HardTransforms:
    """Row-wise argmax of the logits; ties go to the smallest vertex index."""
    if not np.all(np.isfinite(params.logits)):
        raise FloatingPointError("non-finite logits")
    idx = params.index
    starts, counts = idx.indptr[:-1], idx.counts
    top = np.repeat(np.maximum.reduceat(params.logits, starts, axis=1), counts, axis=1)
    # neighbor lists are sorted, so the first maximal entry has the smallest index
    entry = np.where(params.logits == top, np.arange(idx.num_entries), idx.num_entries)
    return HardTransforms(params.graph.n,
                          idx.dst[np.minimum.reduceat(entry, starts, axis=1)])


def one_hot_soft(graph: Graph, targets: np.ndarray,
                 temperature: float = 1.0) -> SoftTransforms:
    """Exact one-hot SoftTransforms from explicit vertex -> neighbor maps."""
    targets = np.asarray(targets, dtype=np.int64)
    idx = edge_index(graph)
    _, n = targets.shape
    if n != graph.n:
        raise ValueError(f"targets cover {n} vertices, graph has {graph.n}")
    probs = (idx.dst == targets[:, idx.src]).astype(float)
    missing = np.argwhere(np.add.reduceat(probs, idx.indptr[:-1], axis=1) == 0)
    if len(missing):
        s, i = missing[0]
        raise ValueError(f"slice {s}: target {targets[s, i]} is not a neighbor of {i}")
    return SoftTransforms(graph, probs, temperature, idx)


def _weighted_transpose(s_soft: SoftTransforms, w: np.ndarray) -> sp.csr_matrix:
    """(sum_k w[k] * S_k)^T: the shared pattern with data w @ probs."""
    w = np.asarray(w, dtype=float)
    if w.shape != (s_soft.k,):
        raise ValueError(f"expected weight vector of length {s_soft.k}, got shape {w.shape}")
    return _stacked_transpose(s_soft.index, (w @ s_soft.probs)[None])


def mode3_product(s_soft: SoftTransforms, w: np.ndarray) -> np.ndarray:
    """Weighted sum of slices: the N x N matrix sum_k w[k] * S_k."""
    return _weighted_transpose(s_soft, w).T.toarray()


def convolve(signal: np.ndarray, s_soft: SoftTransforms, w: np.ndarray) -> np.ndarray:
    """Pseudo-convolution s^T (S x_3 w), returned as a vector."""
    signal = np.asarray(signal, dtype=float)
    if signal.shape != (s_soft.graph.n,):
        raise ValueError(f"expected signal of length {s_soft.graph.n}, got shape {signal.shape}")
    return _weighted_transpose(s_soft, w) @ signal


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
        if self.s_total < 1:
            raise ValueError("s_total must be >= 1")


def temperature_at(step: int, sched: Schedule) -> float:
    """t(s) = t_init * (t_final / t_init)^(s / s_total)."""
    if not 0 <= step <= sched.s_total:
        raise ValueError(f"step {step} outside [0, {sched.s_total}]")
    return sched.t_init * (sched.t_final / sched.t_init) ** (step / sched.s_total)


def apply_hard(t_hard: HardTransforms, k: int, signal: np.ndarray) -> np.ndarray:
    """Apply slice k to a signal: out[j] is the sum of signal rows mapping to j."""
    if not 0 <= k < t_hard.k:
        raise ValueError(f"slice index {k} outside [0, {t_hard.k})")
    signal = np.asarray(signal, dtype=float)
    if signal.shape[0] != t_hard.n:
        raise ValueError(f"signal has {signal.shape[0]} rows, expected {t_hard.n}")
    out = np.zeros_like(signal)
    np.add.at(out, t_hard.targets[k], signal)
    return out


def transforms_to_json(t_hard: HardTransforms) -> str:
    doc = {"n": t_hard.n, "k": t_hard.k,
           "targets": t_hard.targets.tolist()}
    return json.dumps(doc)


def transforms_from_json(text: str) -> HardTransforms:
    doc = json.loads(text)
    targets = np.asarray(doc["targets"], dtype=np.int64)
    if targets.shape != (doc["k"], doc["n"]):
        raise ValueError("targets shape does not match declared n and k")
    return HardTransforms(doc["n"], targets)
