"""Dataset ingestion: CIFAR-10 binary batches, WebKB content/cites files,
and the synthetic ring-shift task used for desk-scale verification."""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import IngestionError
from .graph import Graph, _from_sets, build_ring_graph

log = logging.getLogger(__name__)

CIFAR_RECORD_BYTES = 3073
WEBKB_CLASSES = ("course", "faculty", "project", "staff", "student")


@dataclass
class Dataset:
    """Labeled graph signals.

    Signal mode: one (N, C) matrix per sample, one label per sample.
    Vertex mode: a single (N, C) matrix; labels indexed by vertex, and the
    splits partition the labeled vertices.
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
        labeled = self.labels[self.labels >= 0]
        if labeled.size and (labeled.min() < 0 or labeled.max() >= self.num_classes):
            raise ValueError("labels out of range")


def _parse_cifar_batch(raw: bytes, path) -> np.ndarray:
    """The file's (n, 3073) uint8 records, each a label byte and 3072 pixels."""
    if len(raw) % CIFAR_RECORD_BYTES != 0:
        valid = len(raw) - len(raw) % CIFAR_RECORD_BYTES
        raise IngestionError(f"{path}: truncated record at byte offset {valid}")
    records = np.frombuffer(raw, dtype=np.uint8).reshape(-1, CIFAR_RECORD_BYTES)
    bad = np.nonzero(records[:, 0] > 9)[0]
    if bad.size:
        raise IngestionError(
            f"{path}: record {bad[0]} has label byte {records[bad[0], 0]} > 9")
    return records


def load_cifar10(path, val_fraction: float = 0.1) -> Dataset:
    """Load the standard binary batches under ``path``.

    Training batches are split train/val by the trailing ``val_fraction``;
    test_batch.bin, when present, becomes the test split.
    """
    path = Path(path)
    train_files = sorted(path.glob("data_batch_*.bin"))
    if not train_files:
        raise IngestionError(f"no data_batch_*.bin files found in {path}")
    test_file = path / "test_batch.bin"
    files = train_files + ([test_file] if test_file.exists() else [])
    parts = [_parse_cifar_batch(f.read_bytes(), f) for f in files]
    n_train_total = sum(len(p) for p in parts[:len(train_files)])
    records = np.concatenate(parts)
    # channel-planar R,G,B planes of 1024 bytes each, row-major 32x32; the
    # floats keep that planar memory layout, since a C-order copy would cost
    # a strided transpose of the whole array and change the summation order,
    # and so the last bits, of downscale_2x
    pixels = records[:, 1:].reshape(-1, 3, 1024).transpose(0, 2, 1) / 255.0
    n_val = int(round(val_fraction * n_train_total))
    splits = {
        "train": np.arange(0, n_train_total - n_val),
        "val": np.arange(n_train_total - n_val, n_train_total),
        "test": np.arange(n_train_total, len(records)),
    }
    return Dataset("signal", pixels, records[:, 0].astype(np.int64), 10, splits)


def downscale_2x(image: np.ndarray) -> np.ndarray:
    """Mean over non-overlapping 2x2 blocks, per channel:
    (..., 32, 32, 3) -> (..., 16, 16, 3)."""
    image = np.asarray(image, dtype=float)
    if image.shape[-3:] != (32, 32, 3):
        raise ValueError(f"expected 32x32x3 images, got shape {image.shape}")
    return image.reshape(*image.shape[:-3], 16, 2, 16, 2, 3).mean(axis=(-4, -2))


def downscale_cifar(dataset: Dataset) -> Dataset:
    """Map every 1024-vertex CIFAR signal to the 256-vertex 16x16 grid."""
    s = len(dataset.signals)
    signals = downscale_2x(dataset.signals.reshape(s, 32, 32, 3)).reshape(s, 256, 3)
    return Dataset(dataset.mode, signals, dataset.labels, dataset.num_classes,
                   dataset.splits)


def load_webkb(content_path, cites_path) -> tuple[Dataset, Graph]:
    """Parse the content/cites text pair into a vertex-mode dataset and graph.

    Hyperlink direction is discarded (edges symmetrized) and self-loops are
    added. Citations mentioning unknown page ids are dropped and counted.
    """
    ids: list[str] = []
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
        ids.append(page_id)
        feats.append(np.asarray(row, dtype=float))
        labels.append(class_index[cls])
    if not ids:
        raise IngestionError(f"{content_path}: no content rows")
    index = {pid: i for i, pid in enumerate(ids)}
    n = len(ids)
    sets: list[set[int]] = [{i} for i in range(n)]
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
        i, j = index[a], index[b]
        sets[i].add(j)
        sets[j].add(i)
    if dropped:
        log.info("dropped %d citations referencing unknown page ids", dropped)
    graph = _from_sets(n, sets)
    x = np.vstack(feats)
    dataset = Dataset("vertex", x[None], np.asarray(labels), len(WEBKB_CLASSES))
    dataset.splits = make_splits(dataset, (0.6, 0.2, 0.2), 1, seed=0)[0]
    return dataset, graph


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
    for _ in range(100):
        waves = rng.standard_normal((num_classes, n))
        if not _has_rotation_collision(waves):
            break
    else:
        raise RuntimeError("could not draw rotation-distinct class waveforms")
    signals, labels = [], []
    for c in range(num_classes):
        for _ in range(samples_per_class):
            shift = int(rng.integers(n))
            s = np.roll(waves[c], shift) + noise_std * rng.standard_normal(n)
            signals.append(s[:, None])
            labels.append(c)
    dataset = Dataset("signal", np.stack(signals), np.asarray(labels), num_classes)
    dataset.splits = make_splits(dataset, (0.8, 0.1, 0.1), 1, seed=seed)[0]
    return dataset, build_ring_graph(n)


def _has_rotation_collision(waves: np.ndarray) -> bool:
    c, n = waves.shape
    for a in range(c):
        for b in range(a + 1, c):
            for shift in range(n):
                if np.allclose(waves[a], np.roll(waves[b], shift)):
                    return True
    return False


def make_splits(dataset: Dataset, ratios: tuple[float, float, float],
                num_splits: int, seed: int) -> list[dict[str, np.ndarray]]:
    """Stratified-by-class random train/val/test assignments."""
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError("ratios must sum to 1")
    labels = dataset.labels
    items = np.nonzero(labels >= 0)[0]
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(num_splits):
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
        out.append({k: np.sort(np.concatenate(v)) for k, v in parts.items()})
    return out
