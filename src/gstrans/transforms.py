"""The learnable edge-constrained transformation tensor.

Rows are stored per vertex over the neighbor support only (CSR layout
shared by all K slices), so the edge constraint is structural and the
masked softmax needs no explicit mask.
"""
from __future__ import annotations

import json
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

    @property
    def num_entries(self) -> int:
        return len(self.src)

    @property
    def counts(self) -> np.ndarray:
        return np.diff(self.indptr)


def edge_index(graph: Graph) -> EdgeIndex:
    indptr = np.zeros(graph.n + 1, dtype=np.int64)
    dst = []
    for i, nbrs in enumerate(graph.neighbors):
        if not nbrs:
            raise ValueError(f"vertex {i} has no neighbors; every row needs support")
        indptr[i + 1] = indptr[i] + len(nbrs)
        dst.extend(nbrs)
    dst = np.asarray(dst, dtype=np.int64)
    src = np.repeat(np.arange(graph.n, dtype=np.int64), np.diff(indptr))
    return EdgeIndex(indptr, src, dst)


@dataclass
class EdgeLogits:
    """Raw parameters of the transformation tensor: one logit per slice and edge."""

    graph: Graph
    k: int
    logits: np.ndarray  # (k, e), aligned with index.dst
    index: EdgeIndex = field(repr=False)

    @classmethod
    def init(cls, graph: Graph, k: int, rng: np.random.Generator,
             scale: float = 0.01) -> "EdgeLogits":
        idx = edge_index(graph)
        logits = rng.uniform(-scale, scale, size=(k, idx.num_entries))
        return cls(graph, k, logits, idx)

    @classmethod
    def from_rows(cls, graph: Graph, rows: list[list[np.ndarray]]) -> "EdgeLogits":
        """Build from per-slice, per-vertex logit vectors over the neighbor lists."""
        idx = edge_index(graph)
        k = len(rows)
        logits = np.empty((k, idx.num_entries))
        for s, slice_rows in enumerate(rows):
            if len(slice_rows) != graph.n:
                raise ValueError("one logit vector per vertex is required")
            for i, row in enumerate(slice_rows):
                row = np.asarray(row, dtype=float)
                lo, hi = idx.indptr[i], idx.indptr[i + 1]
                if len(row) != hi - lo:
                    raise ValueError(
                        f"slice {s} vertex {i}: {len(row)} logits for "
                        f"{hi - lo} neighbors")
                logits[s, lo:hi] = row
        return cls(graph, k, logits, idx)


def _segment_softmax(values: np.ndarray, idx: EdgeIndex, t: float) -> np.ndarray:
    counts = idx.counts
    starts = idx.indptr[:-1]
    m = np.maximum.reduceat(values, starts)
    z = np.exp((values - np.repeat(m, counts)) / t)
    s = np.add.reduceat(z, starts)
    return z / np.repeat(s, counts)


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

    def row(self, k: int, i: int) -> np.ndarray:
        lo, hi = self.index.indptr[i], self.index.indptr[i + 1]
        return self.probs[k, lo:hi]

    def sparse(self, k: int) -> sp.csr_matrix:
        n = self.graph.n
        return sp.csr_matrix((self.probs[k], self.index.dst, self.index.indptr),
                             shape=(n, n))

    def dense(self, k: int) -> np.ndarray:
        return self.sparse(k).toarray()


def soften(params: EdgeLogits, t: float) -> SoftTransforms:
    """Masked softmax over each row's neighbor support, at temperature t."""
    if t <= 0:
        raise ValueError(f"temperature must be positive, got {t}")
    if not np.all(np.isfinite(params.logits)):
        raise FloatingPointError("non-finite logits")
    probs = np.vstack([_segment_softmax(params.logits[k], params.index, t)
                       for k in range(params.k)])
    return SoftTransforms(params.graph, probs, t, params.index)


def soften_backward(params: EdgeLogits, soft: SoftTransforms,
                    dprobs: np.ndarray) -> np.ndarray:
    """Gradient w.r.t. logits given the gradient w.r.t. the soft probabilities."""
    idx = params.index
    counts, starts = idx.counts, idx.indptr[:-1]
    out = np.empty_like(dprobs)
    for k in range(params.k):
        p, dp = soft.probs[k], dprobs[k]
        dot = np.add.reduceat(dp * p, starts)
        out[k] = p * (dp - np.repeat(dot, counts)) / soft.temperature
    return out


@dataclass(frozen=True)
class HardTransforms:
    """K discrete pseudo-translations: each vertex maps to one of its neighbors."""

    n: int
    targets: np.ndarray  # (k, n) int

    @property
    def k(self) -> int:
        return self.targets.shape[0]

    def slice(self, k: int) -> np.ndarray:
        return self.targets[k]


def harden(params: EdgeLogits) -> HardTransforms:
    """Row-wise argmax of the logits; ties go to the smallest vertex index."""
    idx = params.index
    n = params.graph.n
    targets = np.empty((params.k, n), dtype=np.int64)
    for k in range(params.k):
        for i in range(n):
            lo, hi = idx.indptr[i], idx.indptr[i + 1]
            # neighbor lists are sorted, so the first argmax is the smallest index
            targets[k, i] = idx.dst[lo + int(np.argmax(params.logits[k, lo:hi]))]
    return HardTransforms(n, targets)


def one_hot_soft(graph: Graph, targets: np.ndarray,
                 temperature: float = 1.0) -> SoftTransforms:
    """Exact one-hot SoftTransforms from explicit vertex -> neighbor maps."""
    targets = np.asarray(targets, dtype=np.int64)
    idx = edge_index(graph)
    k, n = targets.shape
    if n != graph.n:
        raise ValueError(f"targets cover {n} vertices, graph has {graph.n}")
    probs = np.zeros((k, idx.num_entries))
    for s in range(k):
        for i in range(n):
            lo, hi = idx.indptr[i], idx.indptr[i + 1]
            pos = np.nonzero(idx.dst[lo:hi] == targets[s, i])[0]
            if not pos.size:
                raise ValueError(
                    f"slice {s}: target {targets[s, i]} is not a neighbor of {i}")
            probs[s, lo + pos[0]] = 1.0
    return SoftTransforms(graph, probs, temperature, idx)


def mode3_product(s_soft: SoftTransforms, w: np.ndarray) -> np.ndarray:
    """Weighted sum of slices: the N x N matrix sum_k w[k] * S_k."""
    w = np.asarray(w, dtype=float)
    if w.shape != (s_soft.k,):
        raise ValueError(f"expected weight vector of length {s_soft.k}, got shape {w.shape}")
    n = s_soft.graph.n
    out = np.zeros((n, n))
    for k in range(s_soft.k):
        np.add.at(out, (s_soft.index.src, s_soft.index.dst), w[k] * s_soft.probs[k])
    return out


def convolve(signal: np.ndarray, s_soft: SoftTransforms, w: np.ndarray) -> np.ndarray:
    """Pseudo-convolution s^T (S x_3 w), returned as a vector."""
    signal = np.asarray(signal, dtype=float)
    w = np.asarray(w, dtype=float)
    if signal.shape != (s_soft.graph.n,):
        raise ValueError(f"expected signal of length {s_soft.graph.n}, got shape {signal.shape}")
    if w.shape != (s_soft.k,):
        raise ValueError(f"expected weight vector of length {s_soft.k}, got shape {w.shape}")
    out = np.zeros(s_soft.graph.n)
    for k in range(s_soft.k):
        out += w[k] * (s_soft.sparse(k).T @ signal)
    return out


@dataclass(frozen=True)
class Schedule:
    """Geometric temperature interpolation over the training steps."""

    t_init: float
    t_final: float
    s_total: int

    def __post_init__(self):
        if self.t_init <= 0 or self.t_final <= 0:
            raise ValueError("temperatures must be positive")
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
