"""Graph construction and neighbor-list representation.

Graphs are stored as sorted per-vertex neighbor lists; every learned
transformation downstream is constrained to this support.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError


@dataclass(frozen=True)
class Graph:
    """Undirected graph with sorted, duplicate-free neighbor lists.

    ``self_loops`` records whether diagonal entries were added at
    construction time; when true, ``i in neighbors[i]`` for every vertex.
    """

    n: int
    neighbors: tuple[tuple[int, ...], ...]
    self_loops: bool

    def __post_init__(self):
        if self.n != len(self.neighbors):
            raise ValueError("neighbor list count does not match vertex count")
        for i, nbrs in enumerate(self.neighbors):
            for j in nbrs:
                if not 0 <= j < self.n:
                    raise ValueError(f"neighbor {j} of vertex {i} out of range")
            if list(nbrs) != sorted(set(nbrs)):
                raise ValueError(f"neighbor list of vertex {i} not sorted/unique")
            if self.self_loops and i not in nbrs:
                raise ValueError(f"self_loops set but vertex {i} has no self-loop")

    def degree(self, i: int) -> int:
        return len(self.neighbors[i])

    def num_entries(self) -> int:
        """Total number of (i, j) support entries, self-loops included."""
        return sum(len(nbrs) for nbrs in self.neighbors)

    def adjacency(self) -> np.ndarray:
        """Dense binary adjacency matrix (diagonal included iff self-looped)."""
        a = np.zeros((self.n, self.n))
        for i, nbrs in enumerate(self.neighbors):
            a[i, list(nbrs)] = 1.0
        return a


def _from_sets(n: int, nbr_sets: list[set[int]], self_loops: bool) -> Graph:
    return Graph(n, tuple(tuple(sorted(s)) for s in nbr_sets), self_loops)


def build_ring_graph(n: int, with_self_loops: bool = True) -> Graph:
    """Cycle graph: vertex i adjacent to (i-1) mod n and (i+1) mod n."""
    if n < 3:
        raise ValueError(f"ring graph needs n >= 3, got {n}")
    sets = [{(i - 1) % n, (i + 1) % n} for i in range(n)]
    if with_self_loops:
        for i in range(n):
            sets[i].add(i)
    return _from_sets(n, sets, with_self_loops)


def build_grid_graph(height: int, width: int, with_self_loops: bool = True) -> Graph:
    """2D grid, 4-connectivity, no wrap-around. Pixel (r, c) -> vertex r*width + c."""
    if height < 1 or width < 1:
        raise ValueError(f"grid dimensions must be positive, got {height}x{width}")
    n = height * width
    sets: list[set[int]] = [set() for _ in range(n)]
    for r in range(height):
        for c in range(width):
            i = r * width + c
            if with_self_loops:
                sets[i].add(i)
            if r > 0:
                sets[i].add(i - width)
            if r < height - 1:
                sets[i].add(i + width)
            if c > 0:
                sets[i].add(i - 1)
            if c < width - 1:
                sets[i].add(i + 1)
    return _from_sets(n, sets, with_self_loops)


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
        raise InsufficientDataError(f"need at least 2 samples to estimate covariance, got {m}")
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
    return _from_sets(n, sets, True)


def laplacian(g: Graph) -> np.ndarray:
    """Combinatorial Laplacian L = D - A, computed on A with the diagonal removed."""
    a = g.adjacency()
    np.fill_diagonal(a, 0.0)
    return np.diag(a.sum(axis=1)) - a


def write_edge_list(g: Graph) -> str:
    """Serialize as one 'i j' pair per line (0-based); self-loops as 'i i'."""
    lines = []
    for i, nbrs in enumerate(g.neighbors):
        for j in nbrs:
            if j >= i:
                lines.append(f"{i} {j}")
    return "\n".join(lines) + "\n"


def read_edge_list(text: str, n: int | None = None) -> Graph:
    """Parse the edge-list text format; n defaults to max index + 1."""
    pairs = []
    for ln, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"edge list line {ln}: expected 'i j', got {line!r}")
        pairs.append((int(parts[0]), int(parts[1])))
    if not pairs and n is None:
        raise ValueError("empty edge list and no vertex count given")
    if n is None:
        n = max(max(i, j) for i, j in pairs) + 1
    sets: list[set[int]] = [set() for _ in range(n)]
    for i, j in pairs:
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"edge ({i}, {j}) out of range for n={n}")
        sets[i].add(j)
        sets[j].add(i)
    self_loops = all(i in sets[i] for i in range(n))
    return _from_sets(n, sets, self_loops)
