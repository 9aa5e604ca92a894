import numpy as np
import pytest

from gstrans.data import (Dataset, downscale_2x, downscale_cifar, load_cifar10,
                          load_webkb, make_ring_task, make_splits)
from gstrans.errors import IngestionError


def nearest_rotation_class(sample: np.ndarray, waves: np.ndarray) -> int:
    """Brute-force oracle: class whose rotated waveform is closest in L2."""
    sample = np.asarray(sample, dtype=float).ravel()
    best, best_c = np.inf, -1
    for c in range(waves.shape[0]):
        for shift in range(waves.shape[1]):
            d = float(np.sum((sample - np.roll(waves[c], shift)) ** 2))
            if d < best:
                best, best_c = d, c
    return best_c


def write_cifar_batch(path, labels, images):
    """Binary batch fixture: label byte + R,G,B planes per record."""
    records = []
    for lb, img in zip(labels, images):
        planar = np.asarray(img).transpose(2, 0, 1).reshape(-1)
        records.append(bytes([lb]) + planar.astype(np.uint8).tobytes())
    path.write_bytes(b"".join(records))


def random_images(rng, count):
    return rng.integers(0, 256, size=(count, 32, 32, 3), dtype=np.uint8)


class TestCifarLoading:
    def test_values_and_labels(self, tmp_path):
        rng = np.random.default_rng(0)
        imgs = random_images(rng, 10)
        labels = rng.integers(0, 10, 10)
        write_cifar_batch(tmp_path / "data_batch_1.bin", labels, imgs)
        ds = load_cifar10(tmp_path, val_fraction=0.2)
        assert ds.mode == "signal" and ds.num_classes == 10
        assert np.array_equal(ds.labels, labels)
        # pixel order: row-major spatial, channels last, scaled to [0, 1]
        expected = imgs[3].reshape(1024, 3) / 255.0
        assert np.allclose(ds.signals[3], expected)
        assert np.array_equal(ds.splits["train"], np.arange(8))
        assert np.array_equal(ds.splits["val"], np.arange(8, 10))
        assert ds.splits["test"].size == 0

    def test_test_batch_becomes_test_split(self, tmp_path):
        rng = np.random.default_rng(1)
        write_cifar_batch(tmp_path / "data_batch_1.bin",
                          rng.integers(0, 10, 10), random_images(rng, 10))
        write_cifar_batch(tmp_path / "test_batch.bin",
                          rng.integers(0, 10, 4), random_images(rng, 4))
        ds = load_cifar10(tmp_path, val_fraction=0.1)
        assert len(ds.signals) == 14
        assert np.array_equal(ds.splits["test"], np.arange(10, 14))

    def test_truncated_file(self, tmp_path):
        rng = np.random.default_rng(2)
        write_cifar_batch(tmp_path / "data_batch_1.bin",
                          rng.integers(0, 10, 3), random_images(rng, 3))
        f = tmp_path / "data_batch_1.bin"
        f.write_bytes(f.read_bytes()[:-100])
        with pytest.raises(IngestionError, match="offset"):
            load_cifar10(tmp_path)

    def test_bad_label_byte(self, tmp_path):
        rng = np.random.default_rng(3)
        write_cifar_batch(tmp_path / "data_batch_1.bin", [4, 11],
                          random_images(rng, 2))
        with pytest.raises(IngestionError, match="label"):
            load_cifar10(tmp_path)

    def test_missing_batches(self, tmp_path):
        with pytest.raises(IngestionError):
            load_cifar10(tmp_path)


class TestDownscale:
    def test_block_means(self):
        img = np.zeros((32, 32, 3))
        img[0, 0, 0], img[0, 1, 0], img[1, 0, 0], img[1, 1, 0] = 1, 2, 3, 4
        small = downscale_2x(img)
        assert small.shape == (16, 16, 3)
        assert small[0, 0, 0] == pytest.approx(2.5)
        assert small[0, 0, 1] == 0.0

    def test_constant_image_preserved(self):
        assert np.allclose(downscale_2x(np.full((32, 32, 3), 0.7)), 0.7)

    def test_shape_check(self):
        with pytest.raises(ValueError):
            downscale_2x(np.zeros((16, 16, 3)))

    def test_downscale_dataset(self, tmp_path):
        rng = np.random.default_rng(4)
        write_cifar_batch(tmp_path / "data_batch_1.bin",
                          rng.integers(0, 10, 5), random_images(rng, 5))
        ds = downscale_cifar(load_cifar10(tmp_path))
        assert ds.signals.shape == (5, 256, 3)
        # global mean is preserved by 2x2 block averaging
        big = load_cifar10(tmp_path)
        assert np.mean(ds.signals[0]) == pytest.approx(np.mean(big.signals[0]))
        # the whole-array downscale equals the per-image one, bit for bit
        per_image = [downscale_2x(s.reshape(32, 32, 3)).reshape(256, 3)
                     for s in big.signals]
        assert np.array_equal(ds.signals, np.stack(per_image))


def webkb_fixture_text():
    """Four pages per class (the splitter needs that many), simple features."""
    from gstrans.data import WEBKB_CLASSES
    lines = []
    for ci, cls in enumerate(WEBKB_CLASSES):
        for j in range(4):
            feats = [int(b) for b in f"{(ci * 4 + j) % 8:03b}"]
            lines.append(f"page{ci}{j} {feats[0]} {feats[1]} {feats[2]} {cls}")
    return "\n".join(lines) + "\n"


WEBKB_CONTENT = webkb_fixture_text()

WEBKB_CITES = """\
page00 page40
page40 page10
page10 page00
page30 pageUNKNOWN
"""


class TestWebKB:
    def make(self, tmp_path, content=WEBKB_CONTENT, cites=WEBKB_CITES):
        c = tmp_path / "x.content"
        c.write_text(content)
        e = tmp_path / "x.cites"
        e.write_text(cites)
        return load_webkb(c, e)

    def test_vertices_and_labels(self, tmp_path):
        ds, g = self.make(tmp_path)
        assert ds.mode == "vertex"
        assert g.n == 20 and ds.num_classes == 5
        # classes indexed alphabetically, four pages each
        assert list(ds.labels) == sorted([0, 1, 2, 3, 4] * 4)
        assert np.array_equal(ds.signals[0][2], [0, 1, 0])
        total = sum(len(ds.splits[p]) for p in ("train", "val", "test"))
        assert total == 20

    def test_edges_symmetrized_with_self_loops(self, tmp_path):
        _, g = self.make(tmp_path)
        assert g.self_loops
        # page00=0, page10=4, page40=16 form a triangle in the citation list
        assert 16 in g.neighbors[0] and 0 in g.neighbors[16]
        assert 4 in g.neighbors[16] and 0 in g.neighbors[4]
        assert g.neighbors[12] == (12,)  # unknown citation target dropped

    def test_unknown_class(self, tmp_path):
        with pytest.raises(IngestionError, match="class"):
            self.make(tmp_path, content="pageA 1 0 1 admin\n", cites="")

    def test_width_mismatch(self, tmp_path):
        bad = "pageA 1 0 1 course\npageB 0 1 student\n"
        with pytest.raises(IngestionError, match="features"):
            self.make(tmp_path, content=bad, cites="")

    def test_malformed_citation(self, tmp_path):
        with pytest.raises(IngestionError, match="citation"):
            self.make(tmp_path, cites="pageA pageB pageC\n")


class TestRingTask:
    def test_shapes_and_splits(self):
        ds, g = make_ring_task(12, 3, 20, 0.05, seed=0)
        assert g.n == 12 and g.self_loops
        assert len(ds.signals) == 60
        assert all(s.shape == (12, 1) for s in ds.signals)
        total = sum(len(ds.splits[p]) for p in ("train", "val", "test"))
        assert total == 60
        assert len(ds.splits["train"]) == 48

    def test_samples_match_rotation_oracle(self):
        n, classes = 16, 4
        ds, _ = make_ring_task(n, classes, 10, 0.01, seed=1)
        # recover the waveforms the generator drew, then classify by
        # brute-force nearest rotated waveform
        rng = np.random.default_rng(1)
        waves = rng.standard_normal((classes, n))
        hits = sum(nearest_rotation_class(s, waves) == y
                   for s, y in zip(ds.signals, ds.labels))
        assert hits == len(ds.signals)

    def test_noise_free_sample_is_exact_shift(self):
        n = 8
        ds, _ = make_ring_task(n, 2, 10, 0.0, seed=2)
        rng = np.random.default_rng(2)
        waves = rng.standard_normal((2, n))
        s0 = ds.signals[0].ravel()
        assert any(np.allclose(s0, np.roll(waves[0], k)) for k in range(n))

    def test_deterministic(self):
        a, _ = make_ring_task(10, 2, 8, 0.05, seed=3)
        b, _ = make_ring_task(10, 2, 8, 0.05, seed=3)
        assert all(np.array_equal(x, y) for x, y in zip(a.signals, b.signals))
        assert np.array_equal(a.labels, b.labels)

    def test_validation(self):
        with pytest.raises(ValueError):
            make_ring_task(3, 2, 5, 0.05, 0)
        with pytest.raises(ValueError):
            make_ring_task(8, 1, 5, 0.05, 0)
        with pytest.raises(ValueError):
            make_ring_task(8, 2, 5, -0.1, 0)


class TestMakeSplits:
    def labeled_dataset(self, per_class=10, classes=3):
        labels = np.repeat(np.arange(classes), per_class)
        signals = [np.zeros((4, 1)) for _ in labels]
        return Dataset("signal", signals, labels, classes)

    def test_partition_and_stratification(self):
        ds = self.labeled_dataset()
        splits = make_splits(ds, (0.6, 0.2, 0.2), 1, seed=0)[0]
        merged = np.concatenate([splits[p] for p in ("train", "val", "test")])
        assert np.array_equal(np.sort(merged), np.arange(30))
        for c in range(3):
            members = np.nonzero(ds.labels == c)[0]
            assert len(np.intersect1d(splits["train"], members)) == 6
            assert len(np.intersect1d(splits["val"], members)) == 2

    def test_multiple_distinct_splits(self):
        ds = self.labeled_dataset()
        s = make_splits(ds, (0.6, 0.2, 0.2), 3, seed=1)
        assert len(s) == 3
        assert not np.array_equal(s[0]["train"], s[1]["train"])

    def test_unlabeled_excluded(self):
        labels = np.array([0, 0, 0, 1, 1, 1, -1, -1, 0, 1, 0, 1])
        ds = Dataset("signal", [np.zeros((2, 1))] * 12, labels, 2)
        splits = make_splits(ds, (0.5, 0.25, 0.25), 1, seed=0)[0]
        merged = np.concatenate([splits[p] for p in ("train", "val", "test")])
        assert 6 not in merged and 7 not in merged
        assert len(merged) == 10

    def test_bad_ratios(self):
        with pytest.raises(ValueError):
            make_splits(self.labeled_dataset(), (0.5, 0.4, 0.2), 1, 0)

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            make_splits(self.labeled_dataset(per_class=2), (0.8, 0.1, 0.1), 1, 0)


class TestDatasetValidation:
    def test_bad_mode(self):
        with pytest.raises(ValueError):
            Dataset("batch", [np.zeros((2, 1))], np.array([0]), 2)

    def test_signals_must_be_3d(self):
        with pytest.raises(ValueError, match="samples, vertices, channels"):
            Dataset("signal", np.zeros((2, 1)), np.array([0, 1]), 2)

    def test_vertex_needs_single_matrix(self):
        with pytest.raises(ValueError):
            Dataset("vertex", [np.zeros((2, 1))] * 2, np.array([0, 1]), 2)

    def test_label_range(self):
        with pytest.raises(ValueError):
            Dataset("signal", [np.zeros((2, 1))], np.array([5]), 2)
