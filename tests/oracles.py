"""Dense reference objects for the tests, built from neighbor and entry
lists alone, so that they share no code path with the sparse operator."""
import numpy as np

from gstrans.graph import Graph


def dense_slices(soft):
    """(K, N, N) array whose slice k is S_k: entry (i, j) is the probability
    that vertex i maps to its neighbor j."""
    n = soft.graph.n
    s = np.zeros((soft.k, n, n))
    s[:, soft.index.src, soft.index.dst] = soft.probs
    return s


def adjacency(graph):
    """Dense boolean support of the neighbor lists, diagonal included where
    a vertex lists itself."""
    a = np.zeros((graph.n, graph.n), dtype=bool)
    for i, nbrs in enumerate(graph.neighbors):
        a[i, list(nbrs)] = True
    return a


def bare_ring(n):
    """Cycle graph without self-loops: vertex i adjacent to i - 1 and i + 1."""
    return Graph(n, tuple(tuple(sorted({(i - 1) % n, (i + 1) % n}))
                          for i in range(n)))
