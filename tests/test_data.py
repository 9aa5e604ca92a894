import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from gstrans import data
from gstrans.cli import main
from gstrans.data import (CIFAR_RECORD_BYTES, Dataset, load_cifar10, load_webkb,
                          make_ring_task, make_splits)
from gstrans.errors import IngestionError
from oracles import downscale_2x, neighbors, ring_task_by_roll

ROOT = Path(__file__).resolve().parent.parent


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
        ds = load_cifar10(tmp_path)
        assert ds.mode == "signal" and ds.num_classes == 10
        assert np.array_equal(ds.labels, labels)
        # pixel order: row-major spatial, channels last, scaled to [0, 1]
        expected = imgs[3].reshape(1024, 3) / 255.0
        assert np.allclose(ds.signals[3], expected)
        # the trailing CIFAR_VAL_FRACTION = 0.1 of the records is the val split
        assert np.array_equal(ds.splits["train"], np.arange(9))
        assert np.array_equal(ds.splits["val"], np.arange(9, 10))
        assert ds.splits["test"].size == 0

    def test_test_batch_becomes_test_split(self, tmp_path):
        rng = np.random.default_rng(1)
        write_cifar_batch(tmp_path / "data_batch_1.bin",
                          rng.integers(0, 10, 10), random_images(rng, 10))
        write_cifar_batch(tmp_path / "test_batch.bin",
                          rng.integers(0, 10, 4), random_images(rng, 4))
        ds = load_cifar10(tmp_path)
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


def random_records(rng, count):
    """(count, 3073) uint8 records with valid label bytes."""
    records = rng.integers(0, 256, size=(count, CIFAR_RECORD_BYTES), dtype=np.uint8)
    records[:, 0] %= 10
    return records


def oracle_signals(records, downscale):
    """The signals of the whole record array at once: the floats keep the
    files' channel-planar memory layout, and downscale_2x's mean over them
    sets the bits a chunked downscale must reproduce."""
    pixels = records[:, 1:].reshape(-1, 3, 1024).transpose(0, 2, 1) / 255.0
    if not downscale:
        return pixels
    s = len(records)
    return downscale_2x(pixels.reshape(s, 32, 32, 3)).reshape(s, 256, 3)


class TestChunkedLoad:
    # record counts that are no multiple of the chunk size, one file below it
    COUNTS = {"data_batch_1.bin": 300, "data_batch_2.bin": 5, "data_batch_3.bin": 517,
              "test_batch.bin": 70}

    def write(self, tmp_path):
        rng = np.random.default_rng(0)
        parts = []
        for name, count in self.COUNTS.items():
            parts.append(random_records(rng, count))
            (tmp_path / name).write_bytes(parts[-1].tobytes())
        return np.concatenate(parts)

    @pytest.mark.parametrize("downscale", [True, False], ids=["downscale", "full"])
    def test_matches_whole_array_oracle(self, tmp_path, downscale):
        assert all(n % data._CHUNK_RECORDS for n in self.COUNTS.values())
        records = self.write(tmp_path)
        ds = load_cifar10(tmp_path, downscale=downscale)
        assert ds.signals.dtype == np.float64
        assert np.array_equal(ds.signals, oracle_signals(records, downscale))
        assert np.array_equal(ds.labels, records[:, 0])

    def test_test_batch_becomes_test_split(self, tmp_path):
        self.write(tmp_path)
        ds = load_cifar10(tmp_path, downscale=True)
        assert np.array_equal(ds.splits["train"], np.arange(740))
        assert np.array_equal(ds.splits["val"], np.arange(740, 822))
        assert np.array_equal(ds.splits["test"], np.arange(822, 892))

    @pytest.mark.parametrize("fault", ["truncated", "bad-label"])
    def test_fault_in_a_later_file_names_it(self, tmp_path, fault):
        self.write(tmp_path)
        f = tmp_path / "data_batch_2.bin"
        raw = bytearray(f.read_bytes())
        if fault == "truncated":
            del raw[-100:]
        else:
            raw[3 * CIFAR_RECORD_BYTES] = 12
        f.write_bytes(bytes(raw))
        match = "offset" if fault == "truncated" else "record 3 has label byte 12"
        with pytest.raises(IngestionError, match=re.escape(str(f)) + ".*" + match):
            load_cifar10(tmp_path, downscale=True)

    @staticmethod
    def edit_after_stat(monkeypatch, target, edit):
        """Rewrite target, as edit(raw) gives it, right after its size is taken."""
        stat = Path.stat

        def stat_then_edit(path, *args, **kwargs):
            result = stat(path, *args, **kwargs)
            if path == target:
                target.write_bytes(edit(target.read_bytes()))
            return result

        monkeypatch.setattr(Path, "stat", stat_then_edit)

    def test_file_that_grows_while_loading(self, tmp_path, monkeypatch):
        self.write(tmp_path)
        grown = tmp_path / "data_batch_3.bin"
        # one byte past the size taken: the read fills the buffer and one byte is left
        self.edit_after_stat(monkeypatch, grown, lambda raw: raw + b"\0")
        with pytest.raises(IngestionError, match=re.escape(str(grown)) + ": size changed"):
            load_cifar10(tmp_path)

    def test_file_that_shrinks_while_loading(self, tmp_path, monkeypatch):
        self.write(tmp_path)
        shrunk = tmp_path / "data_batch_3.bin"
        # a whole record less: the size taken is still whole records, the read falls short
        self.edit_after_stat(monkeypatch, shrunk, lambda raw: raw[:-CIFAR_RECORD_BYTES])
        with pytest.raises(IngestionError, match=re.escape(str(shrunk)) + ": size changed"):
            load_cifar10(tmp_path)

    def test_files_share_one_read_buffer(self, tmp_path):
        # three files of one size: a buffer per file would hold two of them
        # at once while the second is read
        rng = np.random.default_rng(2)
        for i in range(1, 4):
            (tmp_path / f"data_batch_{i}.bin").write_bytes(random_records(rng, 200).tobytes())
        tracemalloc.start()
        try:
            ds = load_cifar10(tmp_path, splits=())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(ds.labels) == 0
        assert peak < 200 * CIFAR_RECORD_BYTES + 64 * 1024

    def test_downscale_never_holds_the_full_size_floats(self, tmp_path):
        # one file, so converting it whole would hold the full-size floats;
        # numpy reports its buffers to tracemalloc
        records = random_records(np.random.default_rng(1), 2000)
        (tmp_path / "data_batch_1.bin").write_bytes(records.tobytes())
        tracemalloc.start()
        try:
            ds = load_cifar10(tmp_path, downscale=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ds.signals.shape == (2000, 256, 3)
        assert peak < 2000 * 1024 * 3 * 8

    def test_footprint_script_runs(self):
        script = ROOT / "scripts" / "cifar_load_footprint.py"
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        out = subprocess.run([sys.executable, str(script), "600"], env=env,
                             capture_output=True, text=True, check=True).stdout
        assert "600 records" in out and "(600, 256, 3)" in out
        assert re.search(r"CPU: \d+\.\d+ s", out) and re.search(r"peak RSS: \d+ MB", out)
        assert re.search(r"minor faults: \d+", out)
        # the capped row: the first 320 of 450 train records and the 50 val ones
        assert "370 records converted" in out and "(370, 256, 3)" in out

    # caps that cross a chunk boundary, the first file boundary and
    # the five-record second file, one at the train split's end, one past it
    @pytest.mark.parametrize("splits,max_train", [
        (("train",), 257), (("train", "val"), 302), (("val", "train"), 306),
        (("train", "test"), 740), (("test", "val", "train"), 5000),
        (("val",), None), (("test",), 3), ((), None)])
    @pytest.mark.parametrize("downscale", [True, False], ids=["downscale", "full"])
    def test_subset_matches_full_load(self, tmp_path, downscale, splits, max_train):
        self.write(tmp_path)
        full = load_cifar10(tmp_path, downscale=downscale)
        sub = load_cifar10(tmp_path, downscale=downscale, splits=splits,
                           max_train=max_train)
        assert set(sub.splits) == set(splits)
        rows, start = [], 0
        for name in ("train", "val", "test"):            # file order
            if name not in splits:
                continue
            idx = full.splits[name][:max_train] if name == "train" else full.splits[name]
            assert np.array_equal(sub.splits[name], np.arange(start, start + len(idx)))
            rows.append(idx)
            start += len(idx)
        rows = np.concatenate(rows) if rows else np.arange(0)
        assert np.array_equal(sub.signals, full.signals[rows])
        assert np.array_equal(sub.labels, full.labels[rows])
        assert sub.signals.shape[1:] == full.signals.shape[1:]

    def test_unconverted_records_are_still_checked(self, tmp_path):
        self.write(tmp_path)
        f = tmp_path / "data_batch_3.bin"
        raw = bytearray(f.read_bytes())
        raw[5 * CIFAR_RECORD_BYTES] = 10                 # a train record past the cap
        f.write_bytes(bytes(raw))
        with pytest.raises(IngestionError, match="record 5 has label byte 10"):
            load_cifar10(tmp_path, splits=("train",), max_train=4)
        with pytest.raises(IngestionError, match="record 5 has label byte 10"):
            load_cifar10(tmp_path, splits=())

    @pytest.mark.parametrize("kwargs", [{"splits": ("train", "valid")},
                                        {"max_train": -1}])
    def test_bad_subset_rejected(self, tmp_path, kwargs):
        self.write(tmp_path)
        with pytest.raises(ValueError):
            load_cifar10(tmp_path, **kwargs)


class TestDownscale:
    def test_block_means(self, tmp_path):
        img = np.zeros((32, 32, 3), dtype=np.uint8)
        img[0, 0, 0], img[0, 1, 0], img[1, 0, 0], img[1, 1, 0] = 1, 2, 3, 4
        img[2:4, 4:6, 2] = 200                    # block (1, 2), vertex 1 * 16 + 2
        write_cifar_batch(tmp_path / "data_batch_1.bin", [0], [img])
        small = load_cifar10(tmp_path, downscale=True).signals[0]
        assert small.shape == (256, 3)
        assert small[0, 0] == pytest.approx(2.5 / 255.0)
        assert small[0, 1] == 0.0
        assert small[18, 2] == 200 / 255.0
        assert np.count_nonzero(small) == 2

    def test_constant_image_preserved(self, tmp_path):
        write_cifar_batch(tmp_path / "data_batch_1.bin", [3],
                          [np.full((32, 32, 3), 178, dtype=np.uint8)])
        assert np.all(load_cifar10(tmp_path, downscale=True).signals == 178 / 255.0)

    def test_shape_check(self, tmp_path):
        rng = np.random.default_rng(5)
        write_cifar_batch(tmp_path / "data_batch_1.bin",
                          rng.integers(0, 10, 3), random_images(rng, 3))
        assert load_cifar10(tmp_path).signals.shape == (3, 1024, 3)
        assert load_cifar10(tmp_path, downscale=False).signals.shape == (3, 1024, 3)
        assert load_cifar10(tmp_path, downscale=True).signals.shape == (3, 256, 3)
        with pytest.raises(ValueError):           # the oracle takes 32x32 images only
            downscale_2x(np.zeros((16, 16, 3)))

    def test_downscale_dataset(self, tmp_path):
        rng = np.random.default_rng(4)
        write_cifar_batch(tmp_path / "data_batch_1.bin",
                          rng.integers(0, 10, 5), random_images(rng, 5))
        ds = load_cifar10(tmp_path, downscale=True)
        assert ds.signals.shape == (5, 256, 3)
        # global mean is preserved by 2x2 block averaging
        big = load_cifar10(tmp_path)
        assert np.mean(ds.signals[0]) == pytest.approx(np.mean(big.signals[0]))
        # the chunked downscale equals the oracle's mean over all images, bit for bit
        records = np.frombuffer((tmp_path / "data_batch_1.bin").read_bytes(), np.uint8)
        assert np.array_equal(ds.signals, oracle_signals(records.reshape(5, -1), True))


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

    def test_edges_symmetrized_and_self_looped(self, tmp_path):
        _, g = self.make(tmp_path)
        nbrs = neighbors(g)
        assert all(i in nbrs[i] for i in range(g.n))
        # page00=0, page10=4, page40=16 form a triangle in the citation list
        assert 16 in nbrs[0] and 0 in nbrs[16]
        assert 4 in nbrs[16] and 0 in nbrs[4]
        assert nbrs[12] == (12,)  # unknown citation target dropped

    def test_unknown_class(self, tmp_path):
        with pytest.raises(IngestionError, match="class"):
            self.make(tmp_path, content="pageA 1 0 1 admin\n", cites="")

    def test_width_mismatch(self, tmp_path):
        bad = "pageA 1 0 1 course\npageB 0 1 student\n"
        with pytest.raises(IngestionError, match="features"):
            self.make(tmp_path, content=bad, cites="")

    def test_non_numeric_feature_names_file_and_line(self, tmp_path):
        bad = "pageA 1 0 1 course\npageB 0 x 1 student\n"
        with pytest.raises(IngestionError, match=r"x\.content:2: could not convert "
                                                 r"string to float: 'x'"):
            self.make(tmp_path, content=bad, cites="")

    def test_duplicate_page_id_names_both_lines(self, tmp_path, monkeypatch, capsys):
        lines = WEBKB_CONTENT.splitlines()
        content = "\n".join(lines + [lines[3]]) + "\n"
        with pytest.raises(IngestionError, match=r"x\.content:21: page id 'page03' "
                                                 r"already given on line 4"):
            self.make(tmp_path, content=content)
        monkeypatch.chdir(tmp_path)
        rc = main(["export-graph", "--out", "g.txt", "--dataset", "webkb",
                   "--content", "x.content", "--cites", "x.cites"])
        assert rc == 2 and "already given on line 4" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_feature_names_file_and_line(self, tmp_path, value):
        bad = f"pageA 1 0 1 course\npageB 0 {value} 1 student\n"
        with pytest.raises(IngestionError, match=rf"x\.content:2: non-finite "
                                                 rf"feature value '{value}'"):
            self.make(tmp_path, content=bad, cites="")

    def test_malformed_citation(self, tmp_path):
        with pytest.raises(IngestionError, match="citation"):
            self.make(tmp_path, cites="pageA pageB pageC\n")

    @pytest.mark.parametrize("command", [["train"], ["export-graph", "--out", "g.txt"]])
    def test_covariance_graph_needs_signal_mode(self, tmp_path, monkeypatch, capsys,
                                                command):
        monkeypatch.chdir(tmp_path)
        Path("x.content").write_text(WEBKB_CONTENT)
        Path("x.cites").write_text(WEBKB_CITES)
        rc = main(command + ["--dataset", "webkb", "--content", "x.content",
                             "--cites", "x.cites", "--graph", "knn-covariance"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.splitlines() == ["error: the knn-covariance graph needs signal-mode "
                                    "samples, and webkb is a vertex-mode dataset"]


class TestRingTask:
    def test_shapes_and_splits(self):
        ds, g = make_ring_task(12, 3, 20, 0.05, seed=0)
        assert g.n == 12 and all(i in neighbors(g)[i] for i in range(12))
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

    # test_ring_recovery's data, the ring benchmark at seed 1, the CLI
    # tests' FAST ring, and the smallest ring without noise
    @pytest.mark.parametrize("config", [(16, 4, 200, 0.05, 0), (16, 4, 200, 0.05, 1),
                                        (8, 2, 10, 0.05, 0), (4, 3, 10, 0.0, 2)])
    def test_matches_per_sample_roll_oracle(self, config):
        ds, _ = make_ring_task(*config)
        signals, labels, splits = ring_task_by_roll(*config)
        assert np.array_equal(ds.signals, signals)
        assert ds.labels.dtype == labels.dtype and np.array_equal(ds.labels, labels)
        assert ds.splits.keys() == splits.keys()
        assert all(np.array_equal(ds.splits[p], splits[p]) for p in splits)

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
        splits = make_splits(ds, (0.6, 0.2, 0.2), seed=0)
        merged = np.concatenate([splits[p] for p in ("train", "val", "test")])
        assert np.array_equal(np.sort(merged), np.arange(30))
        for c in range(3):
            members = np.nonzero(ds.labels == c)[0]
            assert len(np.intersect1d(splits["train"], members)) == 6
            assert len(np.intersect1d(splits["val"], members)) == 2

    def test_multiple_distinct_splits(self):
        ds = self.labeled_dataset()
        rng = np.random.default_rng(1)
        s = [make_splits(ds, (0.6, 0.2, 0.2), seed=rng) for _ in range(3)]
        assert not np.array_equal(s[0]["train"], s[1]["train"])

    @staticmethod
    def loop_splits(dataset, ratios, num_splits, seed):
        """num_splits splits drawn in one loop: one generator from seed, and
        per split one permutation per class in class order."""
        rng = np.random.default_rng(seed)
        items = np.nonzero(dataset.labels >= 0)[0]
        out = []
        for _ in range(num_splits):
            parts = {"train": [], "val": [], "test": []}
            for c in range(dataset.num_classes):
                members = items[dataset.labels[items] == c]
                b = np.floor(np.cumsum(ratios) * len(members) + 0.5).astype(int)
                perm = rng.permutation(members)
                for name, part in zip(parts, (perm[:b[0]], perm[b[0]:b[1]], perm[b[1]:])):
                    parts[name].append(part)
            out.append({k: np.sort(np.concatenate(v)) for k, v in parts.items()})
        return out

    @pytest.mark.parametrize("ratios,count,seed", [((0.6, 0.2, 0.2), 3, 1),
                                                   ((0.6, 0.2, 0.2), 10, 0),
                                                   ((0.5, 0.25, 0.25), 4, 7)])
    def test_generator_calls_match_one_loop(self, ratios, count, seed):
        # the 3-split and 10-split callers pin these draws
        labels = np.array([0, 1, 2, 0, -1, 1, 1, 2, 0, 2, 1, 0, 2, 2, 1, 0, -1, 1, 0, 2] * 3)
        ds = Dataset("signal", np.zeros((len(labels), 2, 1)), labels, 3)
        rng = np.random.default_rng(seed)
        got = [make_splits(ds, ratios, seed=rng) for _ in range(count)]
        for g, want in zip(got, self.loop_splits(ds, ratios, count, seed), strict=True):
            assert g.keys() == want.keys()
            for name in want:
                assert np.array_equal(g[name], want[name])
                assert g[name].dtype == want[name].dtype

    def test_unlabeled_excluded(self):
        labels = np.array([0, 0, 0, 1, 1, 1, -1, -1, 0, 1, 0, 1])
        ds = Dataset("signal", [np.zeros((2, 1))] * 12, labels, 2)
        splits = make_splits(ds, (0.5, 0.25, 0.25), seed=0)
        merged = np.concatenate([splits[p] for p in ("train", "val", "test")])
        assert 6 not in merged and 7 not in merged
        assert len(merged) == 10

    def test_bad_ratios(self):
        with pytest.raises(ValueError):
            make_splits(self.labeled_dataset(), (0.5, 0.4, 0.2), 0)

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            make_splits(self.labeled_dataset(per_class=2), (0.8, 0.1, 0.1), 0)


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

    @pytest.mark.parametrize("mode,signals,labels", [
        ("signal", np.zeros((3, 4, 1)), np.array([0, 1])),
        ("signal", np.zeros((3, 4, 1)), np.zeros((3, 1), dtype=np.int64)),
        ("vertex", np.zeros((1, 4, 1)), np.array([0, 1, 0, 1, 0, 1])),
        ("vertex", np.zeros((1, 4, 1)), np.zeros((1, 4), dtype=np.int64)),
    ], ids=["signal-short", "signal-2d", "vertex-long", "vertex-2d"])
    def test_labels_must_fit_signals(self, mode, signals, labels):
        with pytest.raises(ValueError, match="labels have shape .* expected"):
            Dataset(mode, signals, labels, 2)
