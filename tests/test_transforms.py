import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from gstrans.graph import Graph, build_grid_graph, build_ring_graph
from gstrans.transforms import (EdgeLogits, HardTransforms, Schedule, apply_hard,
                                convolve, harden, mode3_product, one_hot_soft,
                                soften, soften_backward, temperature_at,
                                transforms_from_json, transforms_to_json)


def ring_rotation_soft(n):
    """The worked 4-vertex example generalized: slices identity, -1, +1."""
    g = build_ring_graph(n, True)
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
        g = Graph(2, ((1,), (0, 1)), False)
        params = single_slice_logits(g, [np.array([3.7]), np.array([0.0, 1.0])])
        for t in (1e-3, 1.0, 50.0):
            assert soften(params, t).row(0, 0) == pytest.approx([1.0])

    def test_equal_logits_split(self):
        g = build_ring_graph(4, False)
        params = single_slice_logits(g, [np.array([2.2, 2.2])] * 4)
        soft = soften(params, 0.5)
        assert soft.row(0, 2) == pytest.approx([0.5, 0.5])

    def test_unit_gap(self):
        g = Graph(2, ((0, 1), (0, 1)), True)
        params = single_slice_logits(g, [np.array([1.0, 0.0]), np.array([0.0, 0.0])])
        e = np.e
        assert soften(params, 1.0).row(0, 0) == pytest.approx([e / (e + 1), 1 / (e + 1)])

    def test_invalid_temperature(self):
        g = build_ring_graph(3, False)
        params = EdgeLogits.init(g, 1, np.random.default_rng(0))
        with pytest.raises(ValueError):
            soften(params, 0.0)
        with pytest.raises(ValueError):
            soften(params, -1.0)

    def test_non_finite_logits(self):
        g = build_ring_graph(3, False)
        params = EdgeLogits.init(g, 1, np.random.default_rng(0))
        params.logits[0, 0] = np.nan
        with pytest.raises(FloatingPointError):
            soften(params, 1.0)

    @pytest.mark.parametrize("t", [1e-3, 1.0, 1e3])
    def test_rows_stochastic_on_support(self, t):
        g = build_grid_graph(3, 4, True)
        params = EdgeLogits.init(g, 4, np.random.default_rng(5), scale=2.0)
        soft = soften(params, t)
        assert np.all(soft.probs >= 0)
        for k in range(4):
            dense = soft.dense(k)
            assert np.allclose(dense.sum(axis=1), 1.0, atol=1e-9)
            assert np.all(dense[g.adjacency() == 0] == 0)

    def test_small_t_saturates(self):
        g = build_ring_graph(6, True)
        rng = np.random.default_rng(6)
        # unique max per row with gap >= 1
        rows = []
        for i in range(6):
            row = rng.uniform(-0.4, 0.4, g.degree(i))
            row[rng.integers(g.degree(i))] += 1.5
            rows.append(row)
        soft = soften(single_slice_logits(g, rows), 1e-4)
        for i in range(6):
            assert soft.row(0, i).max() >= 1 - 1e-6


class TestHarden:
    def test_argmax(self):
        g = Graph(8, (tuple(range(8)),) + tuple((i,) for i in range(1, 8)), False)
        # vertex 0 restricted support {2, 5, 7} via explicit graph
        g = Graph(8, ((2, 5, 7),) + tuple((0,) for _ in range(7)), False)
        params = single_slice_logits(
            g, [np.array([0.1, 2.0, -1.0])] + [np.array([0.0])] * 7)
        assert harden(params).slice(0)[0] == 5

    def test_tie_break_smallest_index(self):
        g = Graph(4, ((0, 3), (1,), (2,), (0, 3)), False)
        params = single_slice_logits(
            g, [np.array([1.0, 1.0]), np.array([0.]), np.array([0.]),
                np.array([0.5, 0.5])])
        hard = harden(params)
        assert hard.slice(0)[0] == 0
        assert hard.slice(0)[3] == 0

    def test_non_finite_logits(self):
        params = EdgeLogits.init(build_ring_graph(4, True), 2, np.random.default_rng(0))
        params.logits[1, 3] = np.nan
        with pytest.raises(FloatingPointError):
            harden(params)

    @pytest.mark.parametrize("t", [1e-2, 1.0, 1e2])
    def test_matches_soften_argmax(self, t):
        g = build_grid_graph(4, 4, True)
        params = EdgeLogits.init(g, 3, np.random.default_rng(7), scale=1.0)
        hard = harden(params)
        soft = soften(params, t)
        for k in range(3):
            for i in range(g.n):
                lo = params.index.indptr[i]
                j = params.index.dst[lo + int(np.argmax(soft.row(k, i)))]
                assert j == hard.slice(k)[i]


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
        g = build_grid_graph(3, 3, True)
        params = EdgeLogits.init(g, 4, np.random.default_rng(8))
        m = mode3_product(soften(params, 2.0), np.random.default_rng(9).standard_normal(4))
        assert np.all(m[g.adjacency() == 0] == 0)


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


class TestApplyHard:
    def test_identity(self):
        hard = HardTransforms(5, np.arange(5)[None])
        x = np.random.default_rng(13).standard_normal((5, 2))
        assert np.array_equal(apply_hard(hard, 0, x), x)

    def test_ring_rotation_dirac(self):
        n = 4
        hard = HardTransforms(n, np.array([[(i - 1) % n for i in range(n)],
                                           [(i + 1) % n for i in range(n)]]))
        dirac = np.zeros(n)
        dirac[0] = 1.0
        assert np.array_equal(apply_hard(hard, 0, dirac), [0, 0, 0, 1])
        assert np.array_equal(apply_hard(hard, 1, dirac), [0, 1, 0, 0])

    def test_preimage_sum(self):
        hard = HardTransforms(4, np.array([[0, 3, 3, 2]]))
        out = apply_hard(hard, 0, np.ones(4))
        assert np.array_equal(out, [1, 0, 1, 2])

    def test_invalid_slice(self):
        hard = HardTransforms(3, np.arange(3)[None])
        with pytest.raises(ValueError):
            apply_hard(hard, 1, np.zeros(3))


class TestTransformsJson:
    def test_roundtrip(self):
        hard = HardTransforms(4, np.array([[0, 1, 2, 3], [1, 2, 3, 0]]))
        hard2 = transforms_from_json(transforms_to_json(hard))
        assert hard2.n == 4 and hard2.k == 2
        assert np.array_equal(hard2.targets, hard.targets)

    def test_format_fields(self):
        import json
        doc = json.loads(transforms_to_json(HardTransforms(2, np.array([[0, 1]]))))
        assert doc == {"n": 2, "k": 1, "targets": [[0, 1]]}

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            transforms_from_json('{"n": 3, "k": 1, "targets": [[0, 1]]}')


# property checks over the anneal range: temperatures 1e-4 ... 1e3, logits up
# to +-1e3, K up to 5, on ring and grid supports
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)
SUPPORTS = st.one_of(st.builds(build_ring_graph, st.integers(3, 9), st.booleans()),
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
        sums = np.add.reduceat(probs, params.index.indptr[:-1], axis=1)
        assert np.all(np.abs(sums - 1.0) <= 1e-12)

    @PROPERTY
    @given(edge_logits(st.floats(-5.0, 5.0)), st.floats(-1.0, 3.0).map(lambda e: 10.0 ** e),
           st.data())
    def test_backward_matches_central_differences(self, params, t, data):
        dprobs = data.draw(hnp.arrays(float, params.logits.shape,
                                      elements=st.floats(-1.0, 1.0)))
        analytic = soften_backward(params, soften(params, t), dprobs)
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
        for k in range(params.k):
            for i in range(params.graph.n):
                j = params.graph.neighbors[i][int(np.argmax(soft.row(k, i)))]
                assert hard.slice(k)[i] == j
