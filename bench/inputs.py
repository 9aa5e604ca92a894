"""Seeded synthetic inputs, written in the on-disk formats gstrans ingests.

The generator plants structure a classifier can learn, so the accuracy a
run prints says whether it learned, not only that it finished.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

CIFAR_SIDE = 32
CIFAR_CLASSES = 10


def write_cifar10(out_dir: Path, rng: np.random.Generator, train_batches: int,
                  records_per_batch: int) -> None:
    """Write data_batch_1..n.bin and test_batch.bin.

    Each class is a template: its own mean colour plus a blocky pattern. A
    record is its class template circularly shifted by up to 4 pixels per
    axis, plus Gaussian noise.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    # class colours on a shuffled 3-level lattice of the RGB cube keep every
    # pair of classes at least 80 levels apart in some channel
    lattice = np.stack(np.meshgrid(*[[48.0, 128.0, 208.0]] * 3), -1).reshape(-1, 3)
    colours = lattice[rng.permutation(len(lattice))[:CIFAR_CLASSES], :, None, None]
    pattern = np.kron(rng.uniform(-40, 40, (CIFAR_CLASSES, 3, 4, 4)),
                      np.ones((1, 1, 8, 8)))
    templates = colours + pattern
    side = np.arange(CIFAR_SIDE)
    names = [f"data_batch_{i}.bin" for i in range(1, train_batches + 1)]
    for name in names + ["test_batch.bin"]:
        n = records_per_batch
        labels = rng.integers(0, CIFAR_CLASSES, n)
        dy, dx = rng.integers(-4, 5, (2, n, 1, 1, 1))
        rows = (side[None, None, :, None] - dy) % CIFAR_SIDE
        cols = (side[None, None, None, :] - dx) % CIFAR_SIDE
        images = templates[labels[:, None, None, None],
                           np.arange(3)[None, :, None, None], rows, cols]
        images += rng.normal(0.0, 30.0, images.shape)
        records = np.empty((n, 1 + 3 * CIFAR_SIDE * CIFAR_SIDE), dtype=np.uint8)
        records[:, 0] = labels
        records[:, 1:] = np.clip(np.rint(images), 0, 255).reshape(n, -1)
        (out_dir / name).write_bytes(records.tobytes())
