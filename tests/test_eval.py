import numpy as np
import pytest

from gstrans.data import make_ring_task
from gstrans.evaluate import (CANONICAL_NAMES, _canonical_maps, canonical_distances,
                              evaluate_accuracy, transform_distance, transform_report)
from gstrans.nn import TrainConfig, _forward_batch, train
from gstrans.transforms import Schedule, soften
from oracles import canonical_maps


def by_name(height, width):
    """The table under test, one row per name of CANONICAL_NAMES."""
    return dict(zip(CANONICAL_NAMES, _canonical_maps(height, width), strict=True))


class TestCanonicalTransforms:
    def test_names_and_count(self):
        assert _canonical_maps(3, 3).shape == (len(CANONICAL_NAMES), 9)

    def test_identity(self):
        assert np.array_equal(by_name(2, 4)["identity"], np.arange(8))

    def test_up_clamps_top_row(self):
        up = by_name(3, 3)["up"]
        # top row maps to itself, others one row up
        assert list(up) == [0, 1, 2, 0, 1, 2, 3, 4, 5]

    def test_right_clamps_last_column(self):
        right = by_name(2, 3)["right"]
        assert list(right) == [1, 2, 2, 4, 5, 5]

    def test_h_contract_3x3(self):
        # every column flows one step toward the center column
        contract = by_name(3, 3)["h-contract"]
        assert list(contract) == [1, 1, 1, 4, 4, 4, 7, 7, 7]

    def test_h_dilate_3x4(self):
        # center column is index 1; columns flow away, clamped at the edges
        dilate = by_name(3, 4)["h-dilate"]
        cols = dilate[:4] % 4
        assert list(cols) == [0, 1, 3, 3]

    def test_v_dilate_4x2(self):
        dilate = by_name(4, 2)["v-dilate"]
        rows = dilate[::2] // 2
        # center row is 1; row 0 clamps at 0, rows 2,3 flow down (3 clamped)
        assert list(rows) == [0, 1, 3, 3]

    def test_all_maps_in_range(self):
        for h, w in [(2, 2), (4, 5), (16, 16)]:
            maps = _canonical_maps(h, w)
            assert maps.min() >= 0
            assert maps.max() < h * w

    def test_grid_too_small(self):
        for shape in ((1, 5), (5, 1)):
            with pytest.raises(ValueError, match="at least 2x2"):
                canonical_distances(np.zeros((1, 5), dtype=int), *shape)

    @pytest.mark.parametrize("height", range(2, 13))
    def test_matches_per_pixel_oracle(self, height):
        for width in range(2, 13):
            got = by_name(height, width)
            expected = canonical_maps(height, width)
            assert list(got) == list(expected) == list(CANONICAL_NAMES)
            for name in CANONICAL_NAMES:
                assert got[name].dtype == np.int64
                assert np.array_equal(got[name], expected[name]), (height, width, name)


def random_maps(rng, k, height, width):
    """k maps, each a random mix of canonical moves and arbitrary vertices,
    so that every distance from 0 to 1 occurs."""
    canon = np.stack(list(canonical_maps(height, width).values()))
    n = height * width
    picks = canon[rng.integers(0, len(canon), (k, n)), np.arange(n)]
    wild = rng.random((k, n)) < rng.random((k, 1))
    return np.where(wild, rng.integers(0, n, (k, n)), picks)


class TestCanonicalDistances:
    @pytest.mark.parametrize("shape", [(2, 2), (3, 5), (4, 4), (7, 6)])
    def test_every_entry_is_transform_distance(self, shape):
        h, w = shape
        maps = random_maps(np.random.default_rng(h * w), 6, h, w)
        dist = canonical_distances(maps, h, w)
        canon = canonical_maps(h, w)
        assert dist.shape == (6, len(CANONICAL_NAMES))
        for k in range(6):
            for j, name in enumerate(CANONICAL_NAMES):
                assert dist[k, j] == transform_distance(maps[k], canon[name])

    def test_nearest_and_report_read_the_matrix(self):
        maps = random_maps(np.random.default_rng(5), 8, 4, 5)
        dist = canonical_distances(maps, 4, 5)
        lines = transform_report(dist).splitlines()
        canon = canonical_maps(4, 5)
        for k, line in enumerate(lines[1:-1]):
            # the first minimal column, as a loop over CANONICAL_NAMES finds it
            j = min(range(len(CANONICAL_NAMES)), key=lambda j: (dist[k, j], j))
            d = min(transform_distance(maps[k], t) for t in canon.values())
            assert dist[k, j] == d
            assert line == f"{k},{CANONICAL_NAMES[j]},{d:.10g}"
        assert lines[-1] == f"mean,,{float(np.mean(dist.min(axis=1))):.10g}"

    def test_shape_check(self):
        with pytest.raises(ValueError, match="rows of length 9"):
            canonical_distances(np.arange(8)[None], 3, 3)


class TestTransformDistance:
    def test_identical(self):
        a = np.arange(6)
        assert transform_distance(a, a) == 0.0

    def test_counted_fraction(self):
        a = np.array([0, 1, 2, 3])
        b = np.array([0, 1, 0, 0])
        assert transform_distance(a, b) == 0.5

    def test_disjoint(self):
        assert transform_distance(np.zeros(5, int), np.ones(5, int)) == 1.0

    def test_shape_check(self):
        with pytest.raises(ValueError):
            transform_distance(np.arange(4), np.arange(5))

    def test_symmetric(self):
        rng = np.random.default_rng(0)
        a, b = rng.integers(0, 9, (2, 9))
        assert transform_distance(a, b) == transform_distance(b, a)


def nearest(targets, height, width):
    """(name, distance) of the first closest canonical transform."""
    d = canonical_distances(np.asarray(targets)[None], height, width)[0]
    return CANONICAL_NAMES[d.argmin()], d.min()


class TestNearestCanonical:
    def test_exact_match(self):
        canon = canonical_maps(4, 4)
        for targets in canon.values():
            got, d = nearest(targets, 4, 4)
            assert d == 0.0
            # some canonical maps coincide on tiny grids; distance is what counts
            assert np.array_equal(canon[got], targets)

    def test_perturbed_identity(self):
        targets = np.arange(16).copy()
        targets[5] = 6  # one vertex deviates
        name, d = nearest(targets, 4, 4)
        assert name == "identity"
        assert d == pytest.approx(1 / 16)

    def test_tie_goes_to_list_order(self):
        # on a 2x2 grid v-contract coincides with up, and h-dilate with the
        # identity: the report names the one that comes first
        canon = canonical_maps(2, 2)
        dist = canonical_distances(np.stack([canon["v-contract"], canon["h-dilate"]]), 2, 2)
        assert dist[0, CANONICAL_NAMES.index("up")] == 0.0
        assert dist[1, CANONICAL_NAMES.index("identity")] == 0.0
        lines = transform_report(dist).splitlines()
        assert lines[1:3] == ["0,up,0", "1,identity,0"]


class TestTransformReport:
    def test_csv_layout(self):
        maps = by_name(3, 3)
        dist = canonical_distances(np.stack([maps["identity"], maps["down"]]), 3, 3)
        lines = transform_report(dist).splitlines()
        assert lines[0] == "k,nearest_name,distance"
        assert lines[1] == "0,identity,0"
        assert lines[2] == "1,down,0"
        assert lines[3] == "mean,,0"

    def test_mean_row(self):
        targets = np.arange(9).copy()
        targets[0] = 1
        dist = canonical_distances(np.stack([np.arange(9), targets]), 3, 3)
        lines = transform_report(dist).splitlines()
        mean = float(lines[-1].split(",")[2])
        assert mean == pytest.approx((0 + 1 / 9) / 2)


class TestEvaluateAccuracy:
    def setup_method(self):
        self.ds, self.g = make_ring_task(8, 2, 12, 0.05, seed=0)
        cfg = TrainConfig(Schedule(2.0, 0.5, 10), batch_size=8, k=2,
                          hidden=(4,), seed=0)
        self.model, self.params, _, _ = train(self.ds, self.g, cfg)

    def test_matches_per_sample_argmax(self):
        idx = self.ds.splits["val"]
        acc = evaluate_accuracy(self.model, self.params, self.ds, "val", 0.5)
        m = soften(self.params, 0.5).sparse(self.model.dtype)
        preds = [int(np.argmax(_forward_batch(self.ds.signals[i:i + 1], m, self.model)[0][0]))
                 for i in idx]
        expected = float(np.mean([p == self.ds.labels[i]
                                  for p, i in zip(preds, idx)]))
        assert acc == pytest.approx(expected)

    def test_empty_split_rejected(self):
        self.ds.splits["val"] = np.array([], dtype=int)
        with pytest.raises(ValueError, match="^empty evaluation split$"):
            evaluate_accuracy(self.model, self.params, self.ds, "val", 0.5)
