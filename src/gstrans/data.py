"""Dataset ingestion: CIFAR-10 binary batches, WebKB content/cites files,
and the synthetic ring-shift task used for desk-scale verification."""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from itertools import accumulate
from pathlib import Path

import numpy as np

from .errors import IngestionError
from .graph import Graph, build_ring_graph, from_pairs

log = logging.getLogger(__name__)

CIFAR_RECORD_BYTES = 3073
# records converted at a time. _convert's temporaries are about 48 KB a
# record with downscale: at 32 records the allocator reuses one chunk's
# memory for the next, where 256-record chunks took new pages each time. One
# grid benchmark load in a fresh process took 1 760 minor faults at 32, and
# 6 390, 2 250 and 4 310 at 16, 64 and 256 records.
_CHUNK_RECORDS = 32
CIFAR_VAL_FRACTION = 0.1
CIFAR_SPLITS = ("train", "val", "test")
WEBKB_CLASSES = ("course", "faculty", "project", "staff", "student")


@dataclass
class Dataset:
    """Labeled graph signals.

    Signal mode: one (N, C) matrix per sample, one label per sample.
    Vertex mode: a single (N, C) matrix; labels indexed by vertex, and the
    splits partition the labeled vertices.

    S is the number of samples held. For CIFAR-10 these are only the
    records load_cifar10 converted, those of the splits it was asked for,
    and the splits index into them.
    """

    mode: str                      # "signal" | "vertex"
    signals: np.ndarray            # (S, N, C) float64; S = 1 in vertex mode
    labels: np.ndarray             # (num_samples,) or (N,)
    num_classes: int
    splits: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        if self.mode not in ("signal", "vertex"):
            raise ValueError(f"unknown mode {self.mode!r}")
        self.signals = np.asarray(self.signals, dtype=float)
        if self.signals.ndim != 3:
            raise ValueError(f"signals must be (samples, vertices, channels), "
                             f"got shape {self.signals.shape}")
        if self.mode == "vertex" and len(self.signals) != 1:
            raise ValueError("vertex mode carries exactly one signal matrix")
        self.labels = np.asarray(self.labels)
        signal = self.mode == "signal"
        expected = (self.signals.shape[0 if signal else 1],)
        if self.labels.shape != expected:
            raise ValueError(f"labels have shape {self.labels.shape}, expected {expected}: "
                             f"one per {'sample' if signal else 'vertex'}")
        labeled = self.labels[self.labels >= 0]
        if labeled.size and labeled.max() >= self.num_classes:
            raise ValueError("labels out of range")


def _read_cifar_batch(path, buf: np.ndarray) -> np.ndarray:
    """The file's (n, 3073) uint8 records, each a label byte and 3072 pixels,
    read into ``buf``, which holds exactly the size ``stat`` gave."""
    size = len(buf)
    if size % CIFAR_RECORD_BYTES != 0:
        raise IngestionError(f"{path}: truncated record at byte offset "
                             f"{size - size % CIFAR_RECORD_BYTES}")
    with open(path, "rb") as f:
        if f.readinto(buf) != size or f.read(1):
            raise IngestionError(f"{path}: size changed while loading")
    records = buf.reshape(-1, CIFAR_RECORD_BYTES)
    bad = np.nonzero(records[:, 0] > 9)[0]
    if bad.size:
        raise IngestionError(
            f"{path}: record {bad[0]} has label byte {records[bad[0], 0]} > 9")
    return records


def _convert(chunk: np.ndarray, downscale: bool) -> np.ndarray:
    """(n, 1024 or 256, 3) float64 signals of n uint8 records."""
    # channel-planar R,G,B planes of 1024 bytes each, row-major 32x32
    pixels = chunk[:, 1:].reshape(-1, 3, 1024).transpose(0, 2, 1) / 255.0
    if downscale:
        # the order in which numpy's mean over the block axes of the
        # whole planar-strided float array adds: the bits are the same
        q = pixels.reshape(-1, 16, 2, 16, 2, 3)
        pixels = ((q[:, :, 0, :, 0] + q[:, :, 0, :, 1])
                  + (q[:, :, 1, :, 0] + q[:, :, 1, :, 1])) / 4
    return pixels.reshape(len(chunk), -1, 3)


def load_cifar10(path, downscale: bool = False, splits=CIFAR_SPLITS,
                 max_train: int | None = None) -> Dataset:
    """Load the standard binary batches under ``path``, reading one file at a
    time into one reused buffer and converting it, in chunks of records,
    straight into the float output.

    Training batches are split train/val by the trailing CIFAR_VAL_FRACTION;
    test_batch.bin, when present, becomes the test split. ``downscale`` gives
    each image's 16x16 grid of 2x2 block means, (S, 256, 3), not (S, 1024, 3).

    Every file is read, and its size and every label byte checked, but only
    the records of the named ``splits`` are converted, the train split cut
    to its first ``max_train`` records. The Dataset holds those records in
    file order, its splits index into them, and a split not named is absent."""
    path = Path(path)
    train_files = sorted(path.glob("data_batch_*.bin"))
    if not train_files:
        raise IngestionError(f"no data_batch_*.bin files found in {path}")
    if not set(splits) <= set(CIFAR_SPLITS):
        raise ValueError(f"CIFAR-10 splits are {CIFAR_SPLITS}, got {tuple(splits)}")
    if max_train is not None and max_train < 0:
        raise ValueError(f"max_train must be >= 0, got {max_train}")
    test_file = path / "test_batch.bin"
    files = train_files + ([test_file] if test_file.exists() else [])
    sizes = [f.stat().st_size for f in files]
    counts = [size // CIFAR_RECORD_BYTES for size in sizes]
    n_train_total = sum(counts[:len(train_files)])
    n_train = n_train_total - int(round(CIFAR_VAL_FRACTION * n_train_total))
    bounds = {"train": (0, n_train if max_train is None else min(n_train, max_train)),
              "val": (n_train, n_train_total), "test": (n_train_total, sum(counts))}
    # the splits asked for, in file order (their record ranges do not
    # overlap), and the place in the output where each begins
    wanted = sorted(set(splits), key=bounds.get)
    starts = list(accumulate((bounds[s][1] - bounds[s][0] for s in wanted), initial=0))
    signals = np.empty((starts[-1], 256 if downscale else 1024, 3))
    labels = np.empty(starts[-1], dtype=np.int64)
    # one buffer for every file: reading into pages already touched
    # takes no new page faults
    buf = np.empty(max(sizes), dtype=np.uint8)
    start = offset = 0
    for f, size, count in zip(files, sizes, counts):
        records = _read_cifar_batch(f, buf[:size])
        for first, end in map(bounds.get, wanted):
            for lo in range(max(first - offset, 0), min(end - offset, count),
                            _CHUNK_RECORDS):
                chunk = records[lo:min(lo + _CHUNK_RECORDS, end - offset)]
                labels[start:start + len(chunk)] = chunk[:, 0]
                signals[start:start + len(chunk)] = _convert(chunk, downscale)
                start += len(chunk)
        offset += count
    index = {s: np.arange(a, b) for s, a, b in zip(wanted, starts, starts[1:])}
    return Dataset("signal", signals, labels, 10, index)


def load_webkb(content_path, cites_path) -> tuple[Dataset, Graph]:
    """Parse the content/cites text pair into a vertex-mode dataset and graph.

    Hyperlink direction is discarded (edges symmetrized) and self-loops are
    added. Citations mentioning unknown page ids are dropped and counted; a
    page id given twice is an error.
    """
    first_line: dict[str, int] = {}  # page id -> its content line, in vertex order
    feats: list[np.ndarray] = []
    labels: list[int] = []
    width = None
    class_index = {c: i for i, c in enumerate(WEBKB_CLASSES)}
    for ln, line in enumerate(Path(content_path).read_text().splitlines(), 1):
        parts = line.split()
        if not parts:
            continue
        page_id, cls = parts[0], parts[-1]
        row = parts[1:-1]
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise IngestionError(
                f"{content_path}:{ln}: {len(row)} features, expected {width}")
        if cls not in class_index:
            raise IngestionError(f"{content_path}:{ln}: unknown class {cls!r}")
        if page_id in first_line:
            raise IngestionError(f"{content_path}:{ln}: page id {page_id!r} "
                                 f"already given on line {first_line[page_id]}")
        first_line[page_id] = ln
        try:
            values = np.asarray(row, dtype=float)
        except ValueError as exc:
            raise IngestionError(f"{content_path}:{ln}: {exc}") from None
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise IngestionError(
                f"{content_path}:{ln}: non-finite feature value {row[bad[0]]!r}")
        feats.append(values)
        labels.append(class_index[cls])
    if not first_line:
        raise IngestionError(f"{content_path}: no content rows")
    index = {pid: i for i, pid in enumerate(first_line)}
    pairs = [(i, i) for i in index.values()]
    dropped = 0
    for line in Path(cites_path).read_text().splitlines():
        parts = line.split()
        if not parts:
            continue
        if len(parts) != 2:
            raise IngestionError(f"{cites_path}: malformed citation line {line!r}")
        a, b = parts
        if a not in index or b not in index:
            dropped += 1
            continue
        pairs.append((index[a], index[b]))
    if dropped:
        log.info("dropped %d citations referencing unknown page ids", dropped)
    dataset = Dataset("vertex", np.vstack(feats)[None], np.asarray(labels),
                      len(WEBKB_CLASSES))
    dataset.splits = make_splits(dataset, (0.6, 0.2, 0.2), seed=0)
    return dataset, from_pairs(len(index), *np.array(pairs).T)


def make_ring_task(n: int, num_classes: int, samples_per_class: int,
                   noise_std: float, seed: int) -> tuple[Dataset, Graph]:
    """Synthetic shift-invariant task: each sample is a random circular shift
    of its class waveform plus Gaussian noise, on a self-looped ring."""
    if n < 4:
        raise ValueError(f"ring task needs n >= 4, got {n}")
    if num_classes < 2:
        raise ValueError("need at least 2 classes")
    if samples_per_class < 1 or not (math.isfinite(noise_std) and noise_std >= 0):
        raise ValueError(f"degenerate sample count or noise level, got "
                         f"{samples_per_class} samples per class, noise {noise_std}")
    rng = np.random.default_rng(seed)
    waves = rng.standard_normal((num_classes, n))
    labels = np.repeat(np.arange(num_classes), samples_per_class)
    shifts = np.empty(len(labels), dtype=np.int64)
    noise = np.empty((len(labels), n))
    # per sample, its shift and then its noise: each seed's data rests on this order
    integers, standard_normal = rng.integers, rng.standard_normal
    for i in range(len(labels)):
        shifts[i] = integers(n)
        standard_normal(out=noise[i])
    # np.roll(wave, shift)[j] == wave[(j - shift) % n]
    signals = waves[labels[:, None], (np.arange(n) - shifts[:, None]) % n] + noise_std * noise
    dataset = Dataset("signal", signals[:, :, None], labels, num_classes)
    dataset.splits = make_splits(dataset, (0.8, 0.1, 0.1), seed=seed)
    return dataset, build_ring_graph(n)


def make_splits(dataset: Dataset, ratios: tuple[float, float, float],
                seed: int | np.random.Generator) -> dict[str, np.ndarray]:
    """A stratified-by-class random train/val/test assignment; successive
    calls on one np.random.Generator as ``seed`` draw distinct splits."""
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError("ratios must sum to 1")
    labels = dataset.labels
    items = np.nonzero(labels >= 0)[0]
    rng = np.random.default_rng(seed)
    parts: dict[str, list[np.ndarray]] = {"train": [], "val": [], "test": []}
    for c in range(dataset.num_classes):
        members = items[labels[items] == c]
        n_c = len(members)
        bounds = np.floor(np.cumsum(ratios) * n_c + 0.5).astype(int)
        if bounds[0] < 1 or bounds[1] - bounds[0] < 1 or n_c - bounds[1] < 1:
            raise ValueError(
                f"class {c} has too few samples ({n_c}) for ratios {ratios}")
        perm = rng.permutation(members)
        parts["train"].append(perm[:bounds[0]])
        parts["val"].append(perm[bounds[0]:bounds[1]])
        parts["test"].append(perm[bounds[1]:])
    return {k: np.sort(np.concatenate(v)) for k, v in parts.items()}
