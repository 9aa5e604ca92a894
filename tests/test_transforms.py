import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from gstrans.graph import (build_grid_graph, build_knn_covariance_graph,
                           build_ring_graph, from_pairs, read_edge_list)
from gstrans.transforms import (EdgeLogits, Schedule, SoftTransforms, apply_hard,
                                convolve, harden, matmul, matmul_t,
                                mode3_product, one_hot_soft, soften, soften_backward,
                                temperature_at, transforms_from_json, transforms_to_json)
from oracles import (adjacency, bare_ring, dense_slices, graph_of, neighbors,
                     probs_grad_per_slice, same_bits, stacked_operator_by_tile)


def ring_rotation_soft(n):
    """The worked 4-vertex example generalized: slices identity, -1, +1."""
    g = build_ring_graph(n)
    targets = np.array([
        [i for i in range(n)],
        [(i - 1) % n for i in range(n)],
        [(i + 1) % n for i in range(n)],
    ])
    return g, one_hot_soft(g, targets)


def single_slice_logits(graph, rows):
    """One slice from per-vertex logit vectors over the neighbor lists."""
    return EdgeLogits(graph, 1, np.concatenate(rows, dtype=float)[None])


class TestSoften:
    def test_single_neighbor_row(self):
        g = graph_of([(1,), (0, 1)])
        params = single_slice_logits(g, [np.array([3.7]), np.array([0.0, 1.0])])
        for t in (1e-3, 1.0, 50.0):
            assert soften(params, t).probs[0, :1] == pytest.approx([1.0])

    def test_equal_logits_split(self):
        g = bare_ring(4)
        params = single_slice_logits(g, [np.array([2.2, 2.2])] * 4)
        soft = soften(params, 0.5)
        assert soft.probs[0, 4:6] == pytest.approx([0.5, 0.5])  # vertex 2's row

    def test_unit_gap(self):
        g = graph_of([(0, 1), (0, 1)])
        params = single_slice_logits(g, [np.array([1.0, 0.0]), np.array([0.0, 0.0])])
        e = np.e
        assert soften(params, 1.0).probs[0, :2] == pytest.approx([e / (e + 1), 1 / (e + 1)])

    def test_invalid_temperature(self):
        g = bare_ring(3)
        params = EdgeLogits.init(g, 1, np.random.default_rng(0))
        with pytest.raises(ValueError):
            soften(params, 0.0)
        with pytest.raises(ValueError):
            soften(params, -1.0)

    def test_non_finite_logits(self):
        g = bare_ring(3)
        params = EdgeLogits.init(g, 1, np.random.default_rng(0))
        params.logits[0, 0] = np.nan
        with pytest.raises(FloatingPointError):
            soften(params, 1.0)

    @pytest.mark.parametrize("t", [1e-3, 1.0, 1e3])
    def test_rows_stochastic_on_support(self, t):
        g = build_grid_graph(3, 4)
        params = EdgeLogits.init(g, 4, np.random.default_rng(5), scale=2.0)
        soft = soften(params, t)
        assert np.all(soft.probs >= 0)
        s = dense_slices(soft)
        assert np.allclose(s.sum(axis=2), 1.0, atol=1e-9)
        assert np.all(s[:, ~adjacency(g)] == 0)
        # the stacked operator holds S_k^T as its k-th block of rows
        assert np.array_equal(soft.sparse().toarray(),
                              s.transpose(0, 2, 1).reshape(-1, g.n))

    def test_small_t_saturates(self):
        g = build_ring_graph(6)
        rng = np.random.default_rng(6)
        # unique max per row with gap >= 1
        rows = []
        for nbrs in neighbors(g):
            row = rng.uniform(-0.4, 0.4, len(nbrs))
            row[rng.integers(len(nbrs))] += 1.5
            rows.append(row)
        soft = soften(single_slice_logits(g, rows), 1e-4)
        assert np.all(dense_slices(soft)[0].max(axis=1) >= 1 - 1e-6)


def pattern_cases():
    knn = build_knn_covariance_graph(np.random.default_rng(3).standard_normal((30, 12)), 3)
    edges = read_edge_list("0 1\n1 2\n2 3\n3 4\n4 0\n0 2\n5 5\n5 1\n"
                           + "".join(f"{i} {i}\n" for i in range(5)), 6)
    return ([pytest.param(build_ring_graph(16), k, id=f"ring16-k{k}") for k in range(1, 6)]
            + [pytest.param(build_grid_graph(16, 16), 5, id="grid16x16-k5"),
               pytest.param(knn, 4, id="knn-k4"), pytest.param(edges, 2, id="edge-list-k2")])


class TestStackedPattern:
    """The stacked operator built on the graph's cached pattern against the
    pattern built afresh on every call."""

    @pytest.mark.parametrize("graph,k", pattern_cases())
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_bitwise_equal_to_tiled_pattern(self, graph, k, dtype):
        params = EdgeLogits.init(graph, k, np.random.default_rng(k), scale=3.0)
        soft = soften(params, 0.7)
        m, ref = soft.sparse(dtype), stacked_operator_by_tile(soft, dtype)
        for name in ("indptr", "indices", "data"):
            a, b = getattr(m, name), getattr(ref, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        assert m.shape == ref.shape

    def test_cached_per_k_and_read_only(self):
        g = build_ring_graph(16)
        three = g.stacked_pattern(3)
        assert g.stacked_pattern(3) is three
        two = g.stacked_pattern(2)
        assert two is not three and len(two[0]) == 2 * 16 + 1
        for a in three + two:
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1
        # the operator reads the cached index arrays without copying them
        m = soften(EdgeLogits.init(g, 3, np.random.default_rng(0)), 1.0).sparse()
        assert np.shares_memory(m.indptr, three[0])
        assert np.shares_memory(m.indices, three[1])


def hub_graph(n=120, hubs=(90, 40, 25), seed=0):
    """A WebKB-like support: a sparse random graph plus a few vertices that
    most others link to, so that in-degrees range from 2 to about n."""
    rng = np.random.default_rng(seed)
    i, j = rng.integers(0, n, 2 * n), rng.integers(0, n, 2 * n)
    for hub, fans in enumerate(hubs):
        i = np.r_[i, np.full(fans, hub)]
        j = np.r_[j, rng.choice(n, fans, replace=False)]
    return from_pairs(n, np.r_[i, :n], np.r_[j, :n])


# neighbor lists in which vertex 0 is no vertex's neighbor, 1 and 2 are
# neighbors of two vertices each and 3 of three
IN_DEGREE_ZERO = [[1, 2, 3], [2, 3], [3], [1]]


def grad_cases():
    return [pytest.param(build_ring_graph(16), 3, id="ring16"),
            pytest.param(build_grid_graph(16, 16), 5, id="grid16x16"),
            pytest.param(hub_graph(), 4, id="hub"),
            pytest.param(graph_of(IN_DEGREE_ZERO), 2, id="in-degree-0")]


class TestInDegreeGroups:
    @pytest.mark.parametrize("graph,k", grad_cases())
    def test_every_entry_once(self, graph, k):
        groups = graph.by_in_degree
        entries = np.concatenate([e.ravel() for _, e, _ in groups])
        assert np.array_equal(np.sort(entries), np.arange(graph.num_entries()))
        in_degree = np.bincount(graph.dst, minlength=graph.n)
        degrees = [e.shape[1] for _, e, _ in groups]
        assert degrees == sorted(set(in_degree[in_degree > 0]))
        for vertices, entries, sources in groups:
            assert np.array_equal(vertices, np.flatnonzero(in_degree == entries.shape[1]))
            assert np.array_equal(graph.dst[entries], np.repeat(vertices[:, None],
                                                                entries.shape[1], axis=1))
            assert np.array_equal(sources, graph.src[entries])
            assert (np.diff(sources, axis=1) > 0).all()   # rising source

    def test_in_degree_zero_vertex_in_no_group(self):
        groups = graph_of(IN_DEGREE_ZERO).by_in_degree
        assert [(e.shape[1], v.tolist()) for v, e, _ in groups] == [(2, [1, 2]), (3, [3])]

    def test_cached_and_read_only(self):
        g = hub_graph()
        groups = g.by_in_degree
        assert g.by_in_degree is groups
        for a in (a for group in groups for a in group):
            with pytest.raises(ValueError, match="read-only"):
                a.flat[0] = 0


class TestProbsGrad:
    """The in-degree-grouped edge gradient against the per-slice gathers
    of oracles.probs_grad_per_slice, bit for bit."""

    @pytest.mark.parametrize("graph,k", grad_cases())
    @pytest.mark.parametrize("width", [1, 7, 512], ids=["f1", "f7", "f512"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_same_bits_as_per_slice(self, graph, k, width, dtype):
        rng = np.random.default_rng(width)
        soft = soften(EdgeLogits.init(graph, k, rng, scale=2.0), 0.5)
        x = rng.standard_normal((graph.n, width)).astype(dtype)
        g = rng.standard_normal((k * graph.n, width)).astype(dtype)
        out = soft.probs_grad(x, g)
        assert same_bits(out, probs_grad_per_slice(soft, x, g))
        assert out.dtype == soft.probs.dtype

    @pytest.mark.parametrize("graph,k", grad_cases())
    @pytest.mark.parametrize("width", [1, 64])
    def test_signed_zeros(self, graph, k, width):
        # products of zeros of either sign, whole rows of them included
        rng = np.random.default_rng(3)
        soft = soften(EdgeLogits.init(graph, k, rng), 1.0)
        x = rng.choice(np.array([-0.0, 0.0, 1.5, -2.0], np.float32), (graph.n, width))
        g = rng.choice(np.array([-0.0, 0.0, 0.25], np.float32), (k * graph.n, width))
        x[::2] = -0.0
        g[1::3] = 0.0
        out = soft.probs_grad(x, g)
        assert same_bits(out, probs_grad_per_slice(soft, x, g))
        assert (out == 0).any()

    def test_matches_dense_gradient(self):
        # d/dS_k[i, j] of sum(g_k * (S_k^T x)) is x[i] . g_k[j]
        g = graph_of(IN_DEGREE_ZERO)
        rng = np.random.default_rng(1)
        soft = SoftTransforms(g, rng.random((2, g.num_entries())), 1.0)
        x, gk = rng.standard_normal((g.n, 3)), rng.standard_normal((2 * g.n, 3))
        dense = np.einsum("if,kjf->kij", x, gk.reshape(2, g.n, 3))
        assert np.allclose(soft.probs_grad(x, gk), dense[:, g.src, g.dst], rtol=0,
                           atol=1e-12)


class TestRefill:
    """sparse(dtype, out=m) against a new sparse(dtype)."""

    @pytest.mark.parametrize("graph,k", grad_cases()[:3])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_same_bytes_over_the_anneal(self, graph, k, dtype):
        params = EdgeLogits.init(graph, k, np.random.default_rng(0), scale=1.0)
        m = soften(params, 10.0).sparse(dtype)
        zeros = subnormal = 0
        for t in np.geomspace(10.0, 0.01, 13):
            soft = soften(params, t)
            fresh = soft.sparse(dtype)
            assert soft.sparse(dtype, out=m) is m
            for name in ("data", "indices", "indptr"):
                assert same_bits(getattr(m, name), getattr(fresh, name)), (t, name)
            assert m.shape == fresh.shape and m.nnz == fresh.nnz
            zeros += int((m.data == 0).sum())
            subnormal += int(((m.data != 0) & (np.abs(m.data) < np.finfo(dtype).tiny)).sum())
        if dtype == np.float32:
            # the cold end keeps explicit zeros and subnormals in the pattern
            assert zeros and subnormal, (zeros, subnormal)

    @pytest.mark.parametrize("k,dtype", [(2, np.float32), (3, np.float64)],
                             ids=["other-k", "other-dtype"])
    def test_other_operator_rejected(self, k, dtype):
        g = build_ring_graph(16)
        m = soften(EdgeLogits.init(g, k, np.random.default_rng(0)), 1.0).sparse(dtype)
        soft = soften(EdgeLogits.init(g, 3, np.random.default_rng(1)), 1.0)
        before = m.data.copy()
        with pytest.raises(ValueError, match="k=3"):
            soft.sparse(np.float32, out=m)
        assert same_bits(m.data, before)

    def test_other_graph_rejected(self):
        m = soften(EdgeLogits.init(build_ring_graph(16), 3,
                                   np.random.default_rng(0)), 1.0).sparse()
        soft = soften(EdgeLogits.init(build_ring_graph(16), 3,
                                      np.random.default_rng(0)), 1.0)
        with pytest.raises(ValueError, match="built for this graph"):
            soft.sparse(out=m)


class TestMatmulInto:
    """matmul and matmul_t, SciPy's kernels run on the operator's arrays,
    against m @ x and m.T @ g byte for byte: an F = 1 product, which SciPy
    runs through its one-vector kernel, included."""

    @pytest.mark.parametrize("graph,k", grad_cases())
    @pytest.mark.parametrize("width", [1, 7, 512], ids=["f1", "f7", "f512"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_same_bits_as_scipy(self, graph, k, width, dtype):
        rng = np.random.default_rng(width)
        m = soften(EdgeLogits.init(graph, k, rng, scale=2.0), 0.5).sparse(dtype)
        x = rng.standard_normal((graph.n, width)).astype(dtype)
        g = rng.standard_normal((k * graph.n, width)).astype(dtype)
        assert same_bits(matmul(m, x), m @ x)
        assert same_bits(matmul_t(m, g), m.T @ g)

    @pytest.mark.parametrize("graph,k", grad_cases())
    @pytest.mark.parametrize("width", [1, 64])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_signed_zeros(self, graph, k, width, dtype):
        # zeros of either sign, whole rows and the last column of them
        rng = np.random.default_rng(3)
        m = soften(EdgeLogits.init(graph, k, rng), 1.0).sparse(dtype)
        x = rng.choice(np.array([-0.0, 0.0, 1.5, -2.0], dtype), (graph.n, width))
        g = rng.choice(np.array([-0.0, 0.0, 0.25], dtype), (k * graph.n, width))
        x[::2] = -0.0
        g[1::3] = -0.0
        x[:, -1] = g[:, -1] = -0.0
        assert same_bits(matmul(m, x), m @ x)
        assert same_bits(matmul_t(m, g), m.T @ g)

    @staticmethod
    def ring_case(transposed):
        """A float32 ring operator, the helper under test and its
        (16-vertex, K = 3) input of width 4."""
        m = soften(EdgeLogits.init(build_ring_graph(16), 3, np.random.default_rng(0)),
                   1.0).sparse(np.float32)
        rows = 48 if transposed else 16
        x = np.random.default_rng(1).standard_normal((rows, 4)).astype(np.float32)
        return m, matmul_t if transposed else matmul, x

    @pytest.mark.parametrize("transposed", [False, True], ids=["m", "m.T"])
    @pytest.mark.parametrize("x_dtype", [np.float64, np.float16], ids=["float64", "float16"])
    def test_other_dtype_rejected(self, transposed, x_dtype):
        # the kernel would need a float64 result for a float64 x, and would
        # cast a float16 x to float32 unasked
        m, fn, x = self.ring_case(transposed)
        with pytest.raises(ValueError, match="operator's dtype float32"):
            fn(m, x.astype(x_dtype))

    @pytest.mark.parametrize("transposed", [False, True], ids=["m", "m.T"])
    @pytest.mark.parametrize("cut", [lambda x: x[:-1], lambda x: np.vstack([x, x[:1]]),
                                     lambda x: x[:, 0]], ids=["x-rows", "x-rows-long", "x-1d"])
    def test_wrong_shape_rejected(self, transposed, cut):
        # the kernel reads raw buffers by the sizes it is given
        m, fn, x = self.ring_case(transposed)
        with pytest.raises(ValueError, match="expected x of shape"):
            fn(m, cut(x))


class TestOneHotSoft:
    @pytest.mark.parametrize("targets,match", [
        (np.arange(5)[None], "targets cover 5 vertices, graph has 4"),
        (np.array([[0, 1, 2, 3], [1, 2, 0, 0]]), "slice 1: target 0 is not a neighbor of 2"),
    ], ids=["wrong-width", "not-a-neighbor"])
    def test_bad_targets_rejected(self, targets, match):
        with pytest.raises(ValueError, match=match):
            one_hot_soft(build_ring_graph(4), targets)


class TestHarden:
    def test_argmax(self):
        # vertex 0 restricted support {2, 5, 7} via explicit graph
        g = graph_of([(2, 5, 7)] + [(0,)] * 7)
        params = single_slice_logits(
            g, [np.array([0.1, 2.0, -1.0])] + [np.array([0.0])] * 7)
        assert harden(params)[0, 0] == 5

    def test_tie_break_smallest_index(self):
        g = graph_of([(0, 3), (1,), (2,), (0, 3)])
        params = single_slice_logits(
            g, [np.array([1.0, 1.0]), np.array([0.]), np.array([0.]),
                np.array([0.5, 0.5])])
        hard = harden(params)
        assert hard[0, 0] == 0
        assert hard[0, 3] == 0

    def test_non_finite_logits(self):
        params = EdgeLogits.init(build_ring_graph(4), 2, np.random.default_rng(0))
        params.logits[1, 3] = np.nan
        with pytest.raises(FloatingPointError):
            harden(params)

    @pytest.mark.parametrize("t", [1e-2, 1.0, 1e2])
    def test_matches_soften_argmax(self, t):
        g = build_grid_graph(4, 4)
        params = EdgeLogits.init(g, 3, np.random.default_rng(7), scale=1.0)
        hard = harden(params)
        soft = soften(params, t)
        assert np.array_equal(dense_slices(soft).argmax(axis=2), hard)


class TestMode3Product:
    def test_circulant_pattern(self):
        _, soft = ring_rotation_soft(4)
        w0, w1, w2 = 0.3, -1.2, 2.5
        m = mode3_product(soft, np.array([w0, w1, w2]))
        expected = np.array([[w0, w2, 0, w1],
                             [w1, w0, w2, 0],
                             [0, w1, w0, w2],
                             [w2, 0, w1, w0]])
        assert np.array_equal(m, expected)

    def test_integer_weights(self):
        _, soft = ring_rotation_soft(4)
        m = mode3_product(soft, np.array([1.0, 2.0, 3.0]))
        assert np.array_equal(m, [[1, 3, 0, 2], [2, 1, 3, 0],
                                  [0, 2, 1, 3], [3, 0, 2, 1]])

    def test_zero_weights(self):
        _, soft = ring_rotation_soft(5)
        assert np.array_equal(mode3_product(soft, np.zeros(3)), np.zeros((5, 5)))

    def test_length_mismatch(self):
        _, soft = ring_rotation_soft(4)
        with pytest.raises(ValueError):
            mode3_product(soft, np.zeros(2))

    def test_support_within_adjacency(self):
        g = build_grid_graph(3, 3)
        params = EdgeLogits.init(g, 4, np.random.default_rng(8))
        m = mode3_product(soften(params, 2.0), np.random.default_rng(9).standard_normal(4))
        assert np.all(m[~adjacency(g)] == 0)


class TestConvolve:
    def test_dirac_through_rotation_slices(self):
        _, soft = ring_rotation_soft(4)
        dirac = np.array([1.0, 0, 0, 0])
        # slice 1 has row i one-hot at (i-1) mod n, so s^T M sends 0 -> 3
        assert np.array_equal(convolve(dirac, soft, np.array([0., 1., 0.])),
                              [0, 0, 0, 1])
        assert np.array_equal(convolve(dirac, soft, np.array([0., 0., 1.])),
                              [0, 1, 0, 0])

    def test_identity_slice(self):
        _, soft = ring_rotation_soft(6)
        x = np.random.default_rng(10).standard_normal(6)
        assert np.allclose(convolve(x, soft, np.array([1., 0., 0.])), x)

    def test_linearity(self):
        _, soft = ring_rotation_soft(8)
        rng = np.random.default_rng(11)
        x, y = rng.standard_normal((2, 8))
        w = rng.standard_normal(3)
        lhs = convolve(2.0 * x + 3.0 * y, soft, w)
        rhs = 2.0 * convolve(x, soft, w) + 3.0 * convolve(y, soft, w)
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_matches_circular_convolution(self):
        # the mode-3 matrix is circulant; its first row is the kernel
        rng = np.random.default_rng(12)
        for n in (4, 7, 16):
            _, soft = ring_rotation_soft(n)
            for _ in range(20):
                x = rng.standard_normal(n)
                w = rng.standard_normal(3)
                kernel = np.zeros(n)
                kernel[0], kernel[1], kernel[-1] = w[0], w[2], w[1]
                expected = np.array([sum(x[m] * kernel[(j - m) % n] for m in range(n))
                                     for j in range(n)])
                assert np.allclose(convolve(x, soft, w), expected, atol=1e-12)

    def test_dimension_mismatch(self):
        _, soft = ring_rotation_soft(4)
        with pytest.raises(ValueError):
            convolve(np.zeros(5), soft, np.zeros(3))


class TestTemperatureSchedule:
    def test_endpoints(self):
        sched = Schedule(7.0, 0.02, 500)
        assert temperature_at(0, sched) == 7.0
        assert temperature_at(500, sched) == pytest.approx(0.02, abs=1e-15)

    def test_midpoint(self):
        sched = Schedule(10.0, 0.01, 100)
        assert temperature_at(50, sched) == pytest.approx(10.0 * 0.001 ** 0.5,
                                                          abs=1e-12)

    def test_constant_schedule(self):
        sched = Schedule(0.7, 0.7, 10)
        assert all(temperature_at(s, sched) == pytest.approx(0.7)
                   for s in range(11))

    def test_out_of_range(self):
        sched = Schedule(1.0, 0.1, 10)
        with pytest.raises(ValueError):
            temperature_at(11, sched)
        with pytest.raises(ValueError):
            temperature_at(-1, sched)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            Schedule(0.0, 1.0, 10)
        with pytest.raises(ValueError):
            Schedule(1.0, 1.0, 0)

    @pytest.mark.parametrize("t_init,t_final", [(1e200, 1e-200), (1e-200, 1e200)],
                             ids=["ratio-underflows", "ratio-overflows"])
    def test_ratio_outside_float_range_rejected(self, t_init, t_final):
        # each value is positive and finite, but t_final / t_init is 0 or
        # inf, so every temperature after step 0 would be 0 or inf
        with pytest.raises(ValueError, match="t_init=1e[-+]?200, t_final=1e[-+]?200"):
            Schedule(t_init, t_final, 10)

    def test_extreme_ratio_in_range_accepted(self):
        sched = Schedule(1e150, 1e-150, 4)
        assert all(0 < temperature_at(s, sched) < math.inf for s in range(5))


class TestApplyHard:
    def test_identity(self):
        x = np.random.default_rng(13).standard_normal((5, 2))
        assert np.array_equal(apply_hard(np.arange(5), x), x)

    def test_ring_rotation_dirac(self):
        n = 4
        hard = np.array([[(i - 1) % n for i in range(n)],
                         [(i + 1) % n for i in range(n)]])
        dirac = np.zeros(n)
        dirac[0] = 1.0
        assert np.array_equal(apply_hard(hard[0], dirac), [0, 0, 0, 1])
        assert np.array_equal(apply_hard(hard[1], dirac), [0, 1, 0, 0])

    def test_preimage_sum(self):
        out = apply_hard(np.array([0, 3, 3, 2]), np.ones(4))
        assert np.array_equal(out, [1, 0, 1, 2])

    def test_invalid_slice(self):
        # one map per call: the whole (K, N) array, or a row of another length
        for targets in (np.arange(3)[None], np.arange(4)):
            with pytest.raises(ValueError, match="signal has 3 rows"):
                apply_hard(targets, np.zeros(3))

    @pytest.mark.parametrize("bad", [-1, 3, 0.5], ids=["negative", "n", "float"])
    def test_target_outside_range(self, bad):
        # np.add.at would wrap -1 round to the last row and fail on n or 0.5
        targets = np.array([0, 1, bad])
        with pytest.raises(ValueError, match=r"integers in \[0, 3\)"):
            apply_hard(targets, np.arange(3.0))


class TestTransformsJson:
    def test_roundtrip(self):
        hard = np.array([[0, 1, 2, 3], [1, 2, 3, 0]])
        hard2 = transforms_from_json(transforms_to_json(hard))
        assert hard2.dtype == np.int64
        assert np.array_equal(hard2, hard)

    def test_format_fields(self):
        import json
        doc = json.loads(transforms_to_json(np.array([[0, 1]])))
        assert doc == {"n": 2, "k": 1, "targets": [[0, 1]]}

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            transforms_from_json('{"n": 3, "k": 1, "targets": [[0, 1]]}')

    @pytest.mark.parametrize("text,match", [
        ("null", "expected a JSON object, got NoneType"),
        ("[]", "expected a JSON object, got list"),
        ('{"k": 1, "targets": [[0]]}', "missing key.* n"),
        ('{"n": 1, "k": 1}', "missing key.* targets"),
        ('{"n": 1, "k": 1, "targets": [[%d]]}' % 2 ** 70, r"targets outside \[0, 1\)"),
        ("[" * 100_000 + "]" * 100_000, "nested too deeply")],
        ids=["null", "list", "no-n", "no-targets", "past-int64", "deep"])
    def test_malformed_document(self, text, match):
        with pytest.raises(ValueError, match=match):
            transforms_from_json(text)

    @pytest.mark.parametrize("targets", [[0, 1, 3], [-1, 1, 2]], ids=["n", "negative"])
    def test_target_out_of_range(self, targets):
        with pytest.raises(ValueError, match=r"targets outside \[0, 3\)"):
            transforms_from_json(f'{{"n": 3, "k": 1, "targets": [{targets}]}}')


# property checks over the anneal range: temperatures 1e-4 ... 1e3, logits up
# to +-1e3, K up to 5, on ring and grid supports
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)
SUPPORTS = st.one_of(st.builds(lambda n, loops: build_ring_graph(n) if loops else bare_ring(n),
                               st.integers(3, 9), st.booleans()),
                     st.builds(build_grid_graph, st.integers(1, 4), st.integers(1, 4)))
TEMPERATURES = st.floats(-4.0, 3.0).map(lambda e: 10.0 ** e)


@st.composite
def edge_logits(draw, values):
    g = draw(SUPPORTS)
    k = draw(st.integers(1, 5))
    logits = draw(hnp.arrays(float, (k, g.num_entries()), elements=values))
    return EdgeLogits(g, k, logits)


class TestSoftenProperties:
    @PROPERTY
    @given(edge_logits(st.floats(-1e3, 1e3)), TEMPERATURES)
    def test_rows_finite_and_stochastic(self, params, t):
        probs = soften(params, t).probs
        assert np.all(np.isfinite(probs))
        sums = np.add.reduceat(probs, params.graph.indptr[:-1], axis=1)
        assert np.all(np.abs(sums - 1.0) <= 1e-12)

    @PROPERTY
    @given(edge_logits(st.floats(-5.0, 5.0)), st.floats(-1.0, 3.0).map(lambda e: 10.0 ** e),
           st.data())
    def test_backward_matches_central_differences(self, params, t, data):
        dprobs = data.draw(hnp.arrays(float, params.logits.shape,
                                      elements=st.floats(-1.0, 1.0)))
        analytic = soften_backward(soften(params, t), dprobs)
        h = 1e-6
        numeric = np.zeros_like(params.logits)
        for ix in np.ndindex(params.logits.shape):
            orig = params.logits[ix]
            params.logits[ix] = orig + h
            up = np.sum(dprobs * soften(params, t).probs)
            params.logits[ix] = orig - h
            down = np.sum(dprobs * soften(params, t).probs)
            params.logits[ix] = orig
            numeric[ix] = (up - down) / (2 * h)
        assert np.allclose(analytic, numeric, rtol=1e-5, atol=1e-7)

    @PROPERTY
    @given(edge_logits(st.integers(-8000, 8000).map(lambda v: v / 8)))
    def test_harden_is_argmax_of_cold_soften(self, params):
        # logits on a 1/8 grid: distinct values stay distinct at t = 1e-4,
        # equal ones tie, and np.argmax takes the first (smallest) neighbor
        soft, hard = soften(params, 1e-4), harden(params)
        assert np.array_equal(dense_slices(soft).argmax(axis=2), hard)
