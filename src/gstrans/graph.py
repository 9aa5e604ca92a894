"""Graph construction and neighbor-list representation.

Graphs are stored as sorted per-vertex neighbor lists; every learned
transformation downstream is constrained to this support.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Graph:
    """Undirected graph with sorted, duplicate-free neighbor lists."""

    n: int
    neighbors: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.n != len(self.neighbors):
            raise ValueError("neighbor list count does not match vertex count")
        for i, nbrs in enumerate(self.neighbors):
            for j in nbrs:
                if not 0 <= j < self.n:
                    raise ValueError(f"neighbor {j} of vertex {i} out of range")
            if list(nbrs) != sorted(set(nbrs)):
                raise ValueError(f"neighbor list of vertex {i} not sorted/unique")

    def num_entries(self) -> int:
        """Total number of (i, j) support entries, self-loops included."""
        return sum(len(nbrs) for nbrs in self.neighbors)


def _from_sets(n: int, nbr_sets: list[set[int]]) -> Graph:
    return Graph(n, tuple(tuple(sorted(s)) for s in nbr_sets))


def build_ring_graph(n: int) -> Graph:
    """Self-looped cycle graph: vertex i adjacent to i, (i-1) mod n and (i+1) mod n."""
    if n < 3:
        raise ValueError(f"ring graph needs n >= 3, got {n}")
    return _from_sets(n, [{(i - 1) % n, i, (i + 1) % n} for i in range(n)])


def build_grid_graph(height: int, width: int) -> Graph:
    """Self-looped 2D grid, 4-connectivity, no wrap-around. Pixel (r, c) ->
    vertex r*width + c."""
    if height < 1 or width < 1:
        raise ValueError(f"grid dimensions must be positive, got {height}x{width}")
    n = height * width
    sets = [{i} for i in range(n)]
    for r in range(height):
        for c in range(width):
            i = r * width + c
            if r > 0:
                sets[i].add(i - width)
            if r < height - 1:
                sets[i].add(i + width)
            if c > 0:
                sets[i].add(i - 1)
            if c < width - 1:
                sets[i].add(i + 1)
    return _from_sets(n, sets)


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
    cov = np.cov(samples, rowvar=False)
    cov = np.atleast_2d(cov)
    mag = np.abs(cov)
    sets: list[set[int]] = [set() for _ in range(n)]
    for i in range(n):
        # stable sort so ties resolve to the smallest vertex index
        order = np.argsort(-mag[i], kind="stable")[:k]
        for j in order:
            sets[i].add(int(j))
            sets[int(j)].add(i)
    for i in range(n):
        sets[i].add(i)
    return _from_sets(n, sets)


def write_edge_list(g: Graph) -> str:
    """Serialize as one 'i j' pair per line (0-based); self-loops as 'i i'."""
    lines = []
    for i, nbrs in enumerate(g.neighbors):
        for j in nbrs:
            if j >= i:
                lines.append(f"{i} {j}")
    return "\n".join(lines) + "\n"


def read_edge_list(text: str, n: int) -> Graph:
    """Parse the edge-list text format into a graph on n vertices."""
    pairs = []
    for ln, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        try:  # a token that is not an integer, or a count other than two
            i, j = map(int, line.split())
        except ValueError:
            raise ValueError(f"edge list line {ln}: expected 'i j', got {line!r}") from None
        pairs.append((i, j))
    sets: list[set[int]] = [set() for _ in range(n)]
    for i, j in pairs:
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"edge ({i}, {j}) out of range for n={n}")
        sets[i].add(j)
        sets[j].add(i)
    return _from_sets(n, sets)
