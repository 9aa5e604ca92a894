"""Graph construction: the support as one read-only CSR pattern, built from
(i, j) pairs by ``from_pairs``. Every learned transformation downstream is
constrained to this support and reads it from here."""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


def _read_only(a, dtype=np.int64) -> np.ndarray:
    a = np.array(a, dtype=dtype)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class Graph:
    """Vertex i's neighbors are dst[indptr[i]:indptr[i+1]], sorted and unique,
    in read-only int64 copies, so the cached views below never go stale."""

    n: int
    indptr: np.ndarray  # (n + 1,)
    dst: np.ndarray     # (e,) the neighbor of each entry

    def __post_init__(self):
        for name in ("indptr", "dst"):
            object.__setattr__(self, name, _read_only(getattr(self, name)))
        n, indptr, dst = self.n, self.indptr, self.dst
        if indptr.shape != (n + 1,):
            raise ValueError("neighbor list count does not match vertex count")
        if dst.ndim != 1 or indptr[0] != 0 or (np.diff(indptr) < 0).any() \
                or indptr[-1] != len(dst):
            raise ValueError("indptr must rise from 0 to the number of entries")
        bad = np.flatnonzero((dst < 0) | (dst >= n))
        if bad.size:
            raise ValueError(f"neighbor {dst[bad[0]]} of vertex {self.src[bad[0]]} "
                             "out of range")
        # neighbors in range: rows are sorted and unique iff src * n + dst rises
        bad = np.flatnonzero(np.diff(self.src * n + dst) <= 0)
        if bad.size:
            raise ValueError(f"neighbor list of vertex {self.src[bad[0]]} not sorted/unique")

    @cached_property
    def src(self) -> np.ndarray:  # (e,) the row (vertex) of each entry
        return _read_only(np.repeat(np.arange(self.n), np.diff(self.indptr)))

    @cached_property
    def by_dst(self) -> np.ndarray:  # (e,) entries by (dst, src): a transposed slice's rows
        # src is already sorted, so a stable sort on dst orders ties by src
        return _read_only(np.argsort(self.dst, kind="stable"))

    @cached_property
    def by_in_degree(self) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
        """The entries grouped by the in-degree d of their neighbor, one
        (vertices, entries, sources) triple per d >= 1 that occurs, in
        rising d: vertices (n_d,) are the vertices j that d entries point
        at, in rising order, entries (n_d, d) those entries (i, j) by rising
        i, and sources (n_d, d) their i. Every entry is in exactly one
        group; built on first use and read-only."""
        counts = np.bincount(self.dst, minlength=self.n)
        starts = np.cumsum(counts) - counts   # each vertex's first entry in by_dst
        groups = []
        for d in np.unique(counts[counts > 0]):
            vertices = np.flatnonzero(counts == d)
            entries = self.by_dst[starts[vertices, None] + np.arange(d)]
            groups.append(tuple(map(_read_only, (vertices, entries, self.src[entries]))))
        return tuple(groups)

    @cached_property
    def _stacked(self) -> dict:  # k -> stacked_pattern(k)
        return {}

    def stacked_pattern(self, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(indptr, indices, order) of the (k*n x n) CSR operator whose k-th
        block of rows holds every slice's transpose: row k*n + j lists the i
        of each entry (i, j), in rising order, and order[p] is the position,
        in a flattened (k, e) array of entry values, of the p-th stored
        value. Built once per k and read-only; indptr and indices are in the
        index dtype SciPy keeps (int32 while it holds k*e), so that building
        the operator copies neither."""
        if k not in self._stacked:
            e = self.num_entries()
            dtype = np.int32 if k * max(self.n, e) <= np.iinfo(np.int32).max else np.int64
            counts = np.tile(np.bincount(self.dst, minlength=self.n), k)
            self._stacked[k] = (_read_only(np.append(0, np.cumsum(counts)), dtype),
                                _read_only(np.tile(self.src[self.by_dst], k), dtype),
                                _read_only((np.arange(k)[:, None] * e + self.by_dst).ravel()))
        return self._stacked[k]

    def num_entries(self) -> int:
        """Total number of (i, j) support entries, self-loops included."""
        return len(self.dst)


def from_pairs(n: int, i, j) -> Graph:
    """The graph on n vertices whose support holds (i, j) and (j, i) for every pair."""
    i, j = np.asarray(i, dtype=np.int64), np.asarray(j, dtype=np.int64)
    bad = np.flatnonzero((np.minimum(i, j) < 0) | (np.maximum(i, j) >= n))
    if bad.size:
        raise ValueError(f"edge ({i[bad[0]]}, {j[bad[0]]}) out of range for n={n}")
    codes = np.unique(np.concatenate([i * n + j, j * n + i]))
    return Graph(n, np.searchsorted(codes, np.arange(n + 1) * n), codes % n)


def build_ring_graph(n: int) -> Graph:
    """Self-looped cycle graph: vertex i adjacent to i, (i-1) mod n and (i+1) mod n."""
    if n < 3:
        raise ValueError(f"ring graph needs n >= 3, got {n}")
    return from_pairs(n, np.r_[:n, :n], np.r_[:n, 1:n, 0])  # (i, i) and (i, i + 1)


def build_grid_graph(height: int, width: int) -> Graph:
    """Self-looped 2D grid, 4-connectivity, no wrap-around. Pixel (r, c) ->
    vertex r*width + c."""
    if height < 1 or width < 1:
        raise ValueError(f"grid dimensions must be positive, got {height}x{width}")
    n, v = height * width, np.arange(height * width).reshape(height, width)
    # each vertex with itself, its right-hand and its lower neighbor
    return from_pairs(n, np.r_[:n, v[:, :-1].ravel(), v[:-1].ravel()],
                      np.r_[:n, v[:, 1:].ravel(), v[1:].ravel()])


def build_knn_covariance_graph(samples: np.ndarray, k: int) -> Graph:
    """Graph linking each vertex to the k vertices of largest |covariance|.

    ``samples`` is M x N (M observations of N vertex values). The diagonal
    entry participates in the ranking, so every vertex ends up self-looped;
    the directed top-k selection is symmetrized by union.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2:
        raise ValueError("samples must be a 2D array")
    m, n = samples.shape
    if m < 2:
        raise ValueError(f"need at least 2 samples to estimate covariance, got {m}")
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    mag = np.abs(np.atleast_2d(np.cov(samples, rowvar=False)))
    # stable sort so ties resolve to the smallest vertex index
    top = np.argsort(-mag, axis=1, kind="stable")[:, :k]
    return from_pairs(n, np.r_[np.repeat(np.arange(n), k), :n], np.r_[top.ravel(), :n])


def write_edge_list(g: Graph) -> str:
    """Serialize as one 'i j' pair per line (0-based); self-loops as 'i i'."""
    upper = g.dst >= g.src
    pairs = zip(g.src[upper].tolist(), g.dst[upper].tolist())
    return "".join(f"{i} {j}\n" for i, j in pairs) or "\n"


def read_edge_list(text: str, n: int) -> Graph:
    """Parse the edge-list text format into a graph on n vertices."""
    pairs = []
    for ln, line in enumerate(map(str.strip, text.splitlines()), 1):
        if not line:
            continue
        try:  # a token that is not an integer, or a count other than two
            i, j = map(int, line.split())
        except ValueError:
            raise ValueError(f"edge list line {ln}: expected 'i j', got {line!r}") from None
        pairs.append((i, j))
    # checked on Python ints, so a value past int64 is named, not overflowed
    for i, j in pairs:
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"edge ({i}, {j}) out of range for n={n}")
    return from_pairs(n, *np.array(pairs, dtype=np.int64).reshape(-1, 2).T)
