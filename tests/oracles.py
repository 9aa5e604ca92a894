"""Dense reference objects for the tests, built from neighbor and entry
lists alone, so that they share no code path with the sparse operator or
the array graph builders."""
import numpy as np
import scipy.sparse as sp

from gstrans.graph import Graph


def dense_slices(soft):
    """(K, N, N) array whose slice k is S_k: entry (i, j) is the probability
    that vertex i maps to its neighbor j."""
    n = soft.graph.n
    s = np.zeros((soft.k, n, n))
    s[:, soft.graph.src, soft.graph.dst] = soft.probs
    return s


def graph_of(lists):
    """The Graph whose vertex i has the neighbor list lists[i], as given."""
    return Graph(len(lists), np.cumsum([0, *map(len, lists)]),
                 np.array([j for nbrs in lists for j in nbrs], dtype=np.int64))


def neighbors(graph):
    """The graph's neighbor lists as a tuple of tuples of ints."""
    bounds = graph.indptr.tolist()
    return tuple(tuple(graph.dst[a:b].tolist()) for a, b in zip(bounds, bounds[1:]))


def adjacency(graph):
    """Dense boolean support of the neighbor lists, diagonal included where
    a vertex lists itself."""
    a = np.zeros((graph.n, graph.n), dtype=bool)
    for i, nbrs in enumerate(neighbors(graph)):
        a[i, list(nbrs)] = True
    return a


def bare_ring(n):
    """Cycle graph without self-loops: vertex i adjacent to i - 1 and i + 1."""
    return graph_of([sorted({(i - 1) % n, (i + 1) % n}) for i in range(n)])


def ring_by_sets(n):
    """Self-looped cycle graph, one neighbor set per vertex."""
    return graph_of([sorted({(i - 1) % n, i, (i + 1) % n}) for i in range(n)])


def grid_by_sets(height, width):
    """Self-looped 4-connected grid without wrap-around, one neighbor set
    per pixel (r, c) -> vertex r*width + c."""
    sets = []
    for r in range(height):
        for c in range(width):
            sets.append({r2 * width + c2 for r2, c2 in
                         ((r, c), (r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1))
                         if 0 <= r2 < height and 0 <= c2 < width})
    return graph_of([sorted(s) for s in sets])


def knn_covariance_by_sets(samples, k):
    """Each vertex linked to the k vertices of largest |covariance|, one row
    at a time, ties to the smallest index; symmetrized and self-looped."""
    mag = np.abs(np.atleast_2d(np.cov(np.asarray(samples, dtype=float), rowvar=False)))
    n = len(mag)
    sets = [{i} for i in range(n)]
    for i in range(n):
        for j in np.argsort(-mag[i], kind="stable")[:k].tolist():
            sets[i].add(j)
            sets[j].add(i)
    return graph_of([sorted(s) for s in sets])


def canonical_maps(height, width):
    """The nine canonical grid transforms by name, built one pixel at a time:
    identity, one-step shifts clamped at the border, and dilations
    (contractions) that move every row or column one step away from
    (toward) the centre line, which maps to itself."""
    cr, cc = (height - 1) // 2, (width - 1) // 2

    def flow(x, centre, size, away):
        if x == centre:
            return x
        step = -1 if (x < centre) == away else 1
        return min(max(x + step, 0), size - 1)

    moves = {
        "identity": lambda r, c: (r, c),
        "up": lambda r, c: (max(r - 1, 0), c),
        "down": lambda r, c: (min(r + 1, height - 1), c),
        "left": lambda r, c: (r, max(c - 1, 0)),
        "right": lambda r, c: (r, min(c + 1, width - 1)),
        "h-dilate": lambda r, c: (r, flow(c, cc, width, True)),
        "h-contract": lambda r, c: (r, flow(c, cc, width, False)),
        "v-dilate": lambda r, c: (flow(r, cr, height, True), c),
        "v-contract": lambda r, c: (flow(r, cr, height, False), c),
    }
    out = {}
    for name, move in moves.items():
        targets = np.empty(height * width, dtype=np.int64)
        for r in range(height):
            for c in range(width):
                r2, c2 = move(r, c)
                targets[r * width + c] = r2 * width + c2
        out[name] = targets
    return out


def downscale_2x(image: np.ndarray) -> np.ndarray:
    """Mean over non-overlapping 2x2 blocks, per channel:
    (..., 32, 32, 3) -> (..., 16, 16, 3)."""
    image = np.asarray(image, dtype=float)
    if image.shape[-3:] != (32, 32, 3):
        raise ValueError(f"expected 32x32x3 images, got shape {image.shape}")
    return image.reshape(*image.shape[:-3], 16, 2, 16, 2, 3).mean(axis=(-4, -2))


def ring_task_by_roll(n, num_classes, samples_per_class, noise_std, seed):
    """The ring task's signals (S, n, 1), labels and splits, built one
    np.roll at a time from the generator's draws: the waveforms, then for
    each sample in label order its shift and its noise."""
    from gstrans.data import Dataset, make_splits

    rng = np.random.default_rng(seed)
    waves = rng.standard_normal((num_classes, n))
    signals, labels = [], []
    for c in range(num_classes):
        for _ in range(samples_per_class):
            shift = int(rng.integers(n))
            s = np.roll(waves[c], shift) + noise_std * rng.standard_normal(n)
            signals.append(s[:, None])
            labels.append(c)
    dataset = Dataset("signal", np.stack(signals), np.asarray(labels), num_classes)
    splits = make_splits(dataset, (0.8, 0.1, 0.1), seed=seed)
    return dataset.signals, dataset.labels, splits


def stacked_operator_by_tile(soft, dtype=np.float64):
    """SoftTransforms.sparse(dtype) with its pattern tiled and summed afresh
    from the graph's entries on every call, in SciPy's own index dtype."""
    g, k, n = soft.graph, soft.k, soft.graph.n
    data = soft.probs.astype(dtype, copy=False)[:, g.by_dst].ravel()
    cols = np.tile(g.src[g.by_dst], k)
    indptr = np.append(0, np.cumsum(np.tile(np.bincount(g.dst, minlength=n), k)))
    return sp.csr_matrix((data, cols, indptr), shape=(k * n, n))


def same_bits(a, b):
    """Equal dtype, shape and bytes: unlike np.array_equal, -0.0 != 0.0."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def probs_grad_per_slice(soft, x, g):
    """SoftTransforms.probs_grad with x gathered at every entry's source,
    and each slice's g_k at every entry's neighbor, one slice at a time."""
    xs = x[soft.graph.src]
    out = np.empty_like(soft.probs)
    for k, g_k in enumerate(g.reshape(soft.k, -1, g.shape[1])):
        out[k] = np.vecdot(xs, g_k[soft.graph.dst])
    return out


class SGDPerArray:
    """Plain SGD, one array at a time."""

    def __init__(self, lr):
        self.lr = lr

    def step(self, params, grads):
        for p, g in zip(params, grads):
            p -= self.lr * g


class AdamPerArray:
    """Adam with one moment pair per array, updated one array at a time."""

    def __init__(self, lr):
        self.lr, self.t, self.m, self.v = lr, 0, None, None

    def step(self, params, grads):
        if self.m is None:
            self.m = [np.zeros_like(p) for p in params]
            self.v = [np.zeros_like(p) for p in params]
        self.t += 1
        b1, b2, eps = 0.9, 0.999, 1e-8
        for i, (p, g) in enumerate(zip(params, grads)):
            self.m[i] = b1 * self.m[i] + (1 - b1) * g
            self.v[i] = b2 * self.v[i] + (1 - b2) * g * g
            m_hat = self.m[i] / (1 - b1 ** self.t)
            v_hat = self.v[i] / (1 - b2 ** self.t)
            p -= self.lr * m_hat / (np.sqrt(v_hat) + eps)


def unblocked_forward(xb, m, model):
    """probs of the classifier on a (B, N, C_in) batch, and each
    graph-signal layer's (u, z), computed whole in the order of the
    unblocked kernel: u = m h, z = u_0 W_0, z += u_k W_k slice by slice,
    z += b, ReLU into a new array below the last layer, and in signal mode
    the vertex mean of the whole activation before the last layer, which
    sees only that mean."""
    h = np.ascontiguousarray(xb.transpose(1, 0, 2), dtype=model.dtype)
    layers, last = model.gsl_layers, len(model.gsl_layers) - 1
    uz = []
    for li, layer in enumerate(layers):
        if li == last and model.mode == "signal":
            h = h.mean(axis=0) @ layer.w.sum(axis=0) + layer.b
            break
        n, b, c = h.shape
        u = (m @ h.reshape(n, b * c)).reshape(len(layer.w), n * b, c)
        z = u[0] @ layer.w[0]
        for u_k, w_k in zip(u[1:], layer.w[1:]):
            z += u_k @ w_k
        z += layer.b
        z = z.reshape(n, b, -1)
        h = np.maximum(z, 0.0) if li < last else z
        uz.append((u, h))
    logits = h @ model.fc_weight + model.fc_bias
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    probs = e / e.sum(axis=-1, keepdims=True)
    return (probs.transpose(1, 0, 2) if model.mode == "vertex" else probs), uz
