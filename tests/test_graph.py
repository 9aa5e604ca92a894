import numpy as np
import pytest

from gstrans.graph import (Graph, build_grid_graph, build_knn_covariance_graph,
                           build_ring_graph, read_edge_list, write_edge_list)
from oracles import adjacency, bare_ring


class TestRingGraph:
    def test_four_ring_self_looped(self):
        g = build_ring_graph(4)
        assert g.neighbors[0] == (0, 1, 3)
        # full support matches the circulant pattern: diagonal + both rotations
        expected = np.array([[1, 1, 0, 1],
                             [1, 1, 1, 0],
                             [0, 1, 1, 1],
                             [1, 0, 1, 1]], dtype=bool)
        assert np.array_equal(adjacency(g), expected)

    def test_three_ring_is_complete(self):
        g = build_ring_graph(3)
        assert g.neighbors == ((0, 1, 2),) * 3

    def test_degrees(self):
        g = build_ring_graph(8)
        assert all(len(g.neighbors[i]) == 3 for i in range(8))

    def test_too_small(self):
        with pytest.raises(ValueError):
            build_ring_graph(2)


class TestGridGraph:
    def test_2x2_self_looped(self):
        g = build_grid_graph(2, 2)
        assert g.n == 4
        assert all(len(g.neighbors[i]) == 3 and i in g.neighbors[i] for i in range(4))

    def test_16x16_degree_classes(self):
        g = build_grid_graph(16, 16)
        assert g.n == 256
        for r in range(16):
            for c in range(16):
                i = r * 16 + c
                on_border = (r in (0, 15)) + (c in (0, 15))
                assert len(g.neighbors[i]) == 5 - on_border

    def test_path_degenerate(self):
        g = build_grid_graph(1, 4)
        assert [len(nbrs) for nbrs in g.neighbors] == [2, 3, 3, 2]

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
        assert all(i in g.neighbors[i] for i in range(6))

    def test_correlated_pair_linked(self):
        # vertices 0 and 1 carry the same values, vertex 2 independent noise
        rng = np.random.default_rng(1)
        shared = rng.standard_normal(50)
        noise = rng.standard_normal(50)
        samples = np.column_stack([shared, shared, noise])
        cov = np.cov(samples, rowvar=False)  # oracle: brute-force covariance
        assert cov[0, 1] == pytest.approx(cov[0, 0])
        g = build_knn_covariance_graph(samples, 2)
        assert 1 in g.neighbors[0] and 0 in g.neighbors[1]
        assert all(i in g.neighbors[i] for i in range(3))

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
            Graph(2, ((1,), (0, 5)))

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            Graph(3, ((2, 1), (0,), (0,)))


class TestEdgeList:
    def test_roundtrip(self):
        for g in (build_ring_graph(5), build_grid_graph(2, 4), bare_ring(6)):
            g2 = read_edge_list(write_edge_list(g), g.n)
            assert g2.neighbors == g.neighbors

    def test_self_loop_lines(self):
        text = write_edge_list(build_ring_graph(3))
        assert "0 0" in text.splitlines()

    def test_malformed(self):
        with pytest.raises(ValueError):
            read_edge_list("0 1 2\n", 3)
