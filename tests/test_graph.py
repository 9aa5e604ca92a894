import numpy as np
import pytest

from gstrans.graph import (Graph, build_grid_graph, build_knn_covariance_graph,
                           build_ring_graph, from_pairs, read_edge_list,
                           write_edge_list)
from gstrans.nn import graph_hash
from oracles import (adjacency, bare_ring, graph_of, grid_by_sets,
                     knn_covariance_by_sets, neighbors, ring_by_sets)


class TestRingGraph:
    def test_four_ring_self_looped(self):
        g = build_ring_graph(4)
        assert neighbors(g)[0] == (0, 1, 3)
        # full support matches the circulant pattern: diagonal + both rotations
        expected = np.array([[1, 1, 0, 1],
                             [1, 1, 1, 0],
                             [0, 1, 1, 1],
                             [1, 0, 1, 1]], dtype=bool)
        assert np.array_equal(adjacency(g), expected)

    def test_three_ring_is_complete(self):
        g = build_ring_graph(3)
        assert neighbors(g) == ((0, 1, 2),) * 3

    def test_degrees(self):
        g = build_ring_graph(8)
        assert all(len(neighbors(g)[i]) == 3 for i in range(8))

    def test_too_small(self):
        with pytest.raises(ValueError):
            build_ring_graph(2)


class TestGridGraph:
    def test_2x2_self_looped(self):
        g = build_grid_graph(2, 2)
        assert g.n == 4
        nbrs = neighbors(g)
        assert all(len(nbrs[i]) == 3 and i in nbrs[i] for i in range(4))

    def test_16x16_degree_classes(self):
        g = build_grid_graph(16, 16)
        assert g.n == 256
        nbrs = neighbors(g)
        for r in range(16):
            for c in range(16):
                i = r * 16 + c
                on_border = (r in (0, 15)) + (c in (0, 15))
                assert len(nbrs[i]) == 5 - on_border

    def test_path_degenerate(self):
        g = build_grid_graph(1, 4)
        assert [len(nbrs) for nbrs in neighbors(g)] == [2, 3, 3, 2]

    def test_zero_dimension(self):
        with pytest.raises(ValueError):
            build_grid_graph(0, 5)

    @pytest.mark.parametrize("h,w", [(2, 3), (4, 4), (1, 7), (5, 2)])
    def test_edge_count(self, h, w):
        g = build_grid_graph(h, w)
        assert g.n == h * w
        # every vertex lists itself once and each of its edges' other end
        n_edges = (g.num_entries() - g.n) // 2
        assert n_edges == h * (w - 1) + w * (h - 1)


class TestKnnCovarianceGraph:
    def test_degenerate_constant_vertices(self):
        rng = np.random.default_rng(0)
        base = rng.standard_normal(10)
        samples = np.tile(base[:, None], (1, 6))  # all vertices identical
        g = build_knn_covariance_graph(samples, 3)
        assert all(i in neighbors(g)[i] for i in range(6))

    def test_correlated_pair_linked(self):
        # vertices 0 and 1 carry the same values, vertex 2 independent noise
        rng = np.random.default_rng(1)
        shared = rng.standard_normal(50)
        noise = rng.standard_normal(50)
        samples = np.column_stack([shared, shared, noise])
        cov = np.cov(samples, rowvar=False)  # oracle: brute-force covariance
        assert cov[0, 1] == pytest.approx(cov[0, 0])
        g = build_knn_covariance_graph(samples, 2)
        nbrs = neighbors(g)
        assert 1 in nbrs[0] and 0 in nbrs[1]
        assert all(i in nbrs[i] for i in range(3))

    def test_k_equals_n_complete(self):
        samples = np.random.default_rng(2).standard_normal((8, 5))
        g = build_knn_covariance_graph(samples, 5)
        assert adjacency(g).all()

    def test_insufficient_samples(self):
        with pytest.raises(ValueError, match="at least 2 samples"):
            build_knn_covariance_graph(np.zeros((1, 4)), 2)

    def test_k_too_large(self):
        with pytest.raises(ValueError):
            build_knn_covariance_graph(np.zeros((5, 4)), 5)


class TestGraphInvariants:
    @pytest.mark.parametrize("g", [
        build_ring_graph(7),
        build_grid_graph(3, 5),
        build_knn_covariance_graph(
            np.random.default_rng(4).standard_normal((30, 9)), 4),
    ])
    def test_symmetric_adjacency(self, g):
        a = adjacency(g)
        assert np.array_equal(a, a.T)

    def test_rejects_out_of_range_neighbor(self):
        with pytest.raises(ValueError):
            graph_of([(1,), (0, 5)])

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            graph_of([(2, 1), (0,), (0,)])

    @pytest.mark.parametrize("indptr,dst,message", [
        ([0, 1, 3], [1, 0, 2], "neighbor 2 of vertex 1 out of range"),
        ([0, 1, 2], [1, -1], "neighbor -1 of vertex 1 out of range"),
        ([0, 2, 3], [1, 0, 0], "neighbor list of vertex 0 not sorted/unique"),
        ([0, 1, 3], [1, 0, 0], "neighbor list of vertex 1 not sorted/unique"),
        ([0, 1], [1], "neighbor list count does not match vertex count"),
        ([0, 1, 2, 3], [1, 0, 0], "neighbor list count does not match vertex count"),
        ([0, 2, 1], [0, 1], "indptr must rise from 0"),
        ([0, 1, 2], [1, 0, 1], "indptr must rise from 0"),
        ([1, 2, 3], [1, 0, 1], "indptr must rise from 0"),
    ], ids=["out-of-range", "negative", "unsorted", "duplicate", "indptr-short",
            "indptr-long", "indptr-decreasing", "indptr-end", "indptr-start"])
    def test_rejects_malformed_pattern(self, indptr, dst, message):
        with pytest.raises(ValueError, match=message):
            Graph(2, np.array(indptr), np.array(dst))

    def test_arrays_read_only(self):
        dst = np.array([0, 1, 0, 1])
        g = Graph(2, np.array([0, 2, 4]), dst)
        for a in (g.indptr, g.dst, g.src, g.by_dst):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1
        dst[1] = 0  # the graph holds a copy, not the caller's array
        assert neighbors(g) == ((0, 1), (0, 1))

    def test_no_value_equality(self):
        # value equality over arrays is ambiguous; checkpoints compare graph_hash
        g = build_ring_graph(4)
        assert g == g and g != build_ring_graph(4)


class TestReferenceBuilders:
    """The array builders against one neighbor set per vertex."""

    @staticmethod
    def assert_same(g, ref):
        assert g.n == ref.n
        assert np.array_equal(g.indptr, ref.indptr) and np.array_equal(g.dst, ref.dst)
        assert g.indptr.dtype == g.dst.dtype == np.int64

    @pytest.mark.parametrize("n", [3, 16])
    def test_ring(self, n):
        self.assert_same(build_ring_graph(n), ring_by_sets(n))

    @pytest.mark.parametrize("h,w", [(1, 5), (5, 1), (2, 2), (3, 5), (16, 16), (32, 32)])
    def test_grid(self, h, w):
        self.assert_same(build_grid_graph(h, w), grid_by_sets(h, w))

    @pytest.mark.parametrize("samples,k", [
        (np.tile(np.random.default_rng(0).standard_normal(10)[:, None], (1, 6)), 3),
        (np.column_stack([np.arange(8.0)] * 3 + [np.ones(8)] * 3), 2),
        (np.random.default_rng(2).standard_normal((8, 5)), 5),
        (np.random.default_rng(4).standard_normal((30, 9)), 4),
    ], ids=["all-tied", "tied-and-constant", "k-equals-n", "random"])
    def test_knn_covariance(self, samples, k):
        self.assert_same(build_knn_covariance_graph(samples, k),
                         knn_covariance_by_sets(samples, k))

    def test_from_pairs_symmetrizes_and_dedups(self):
        g = from_pairs(4, [2, 0, 2, 3, 3], [0, 2, 2, 1, 1])
        assert neighbors(g) == ((2,), (3,), (0, 2), (1,))

    def test_from_pairs_out_of_range(self):
        with pytest.raises(ValueError, match=r"edge \(1, 4\) out of range for n=4"):
            from_pairs(4, [0, 1], [1, 4])

    # sha256 of the edge-list text: every checkpoint written so far names its
    # graph by these digests
    @pytest.mark.parametrize("g,digest", [
        (build_ring_graph(16),
         "a271c5a62f5a7f224a2f2cfa790545e4f3f15b21720bd87a5d13efa5debb2f55"),
        (build_grid_graph(16, 16),
         "6c496acf935543a6b86a6ff2cfeee66aa44da0d294800d2fcb5285eec29192b9"),
        (build_grid_graph(32, 32),
         "3513f8a6900b0b81487547f16ffee2fa3d7543237ca284096afb17e2fda47b6a"),
    ], ids=["ring16", "grid16x16", "grid32x32"])
    def test_pinned_graph_hash(self, g, digest):
        assert graph_hash(g) == digest


class TestEdgeList:
    def test_roundtrip(self):
        for g in (build_ring_graph(5), build_grid_graph(2, 4), bare_ring(6)):
            g2 = read_edge_list(write_edge_list(g), g.n)
            assert neighbors(g2) == neighbors(g)

    def test_self_loop_lines(self):
        text = write_edge_list(build_ring_graph(3))
        assert "0 0" in text.splitlines()

    def test_malformed(self):
        with pytest.raises(ValueError):
            read_edge_list("0 1 2\n", 3)

    @pytest.mark.parametrize("line", ["0 3", "-1 0", "0 99999999999999999999"])
    def test_out_of_range_named_in_order(self, line):
        # the first bad pair is named, even one past int64, after a good one
        with pytest.raises(ValueError, match=rf"edge \({line.replace(' ', ', ')}\) "
                                             r"out of range for n=3"):
            read_edge_list(f"0 1\n{line}\n2 7\n", 3)
