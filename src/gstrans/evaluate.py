"""Accuracy evaluation and distance of hard transforms to canonical 2D
translations, dilations, and contractions on grid graphs."""
from __future__ import annotations

import numpy as np

from .nn import _eval_split
from .transforms import EdgeLogits, soften

CANONICAL_NAMES = ("identity", "up", "down", "left", "right",
                   "h-dilate", "h-contract", "v-dilate", "v-contract")


def _canonical_maps(height: int, width: int) -> np.ndarray:
    """(9, h*w) targets of the canonical transforms in CANONICAL_NAMES order,
    boundary-clamped to self. Dilations move one step away from the centre
    row/column, contractions one step toward it."""
    r, c = np.divmod(np.arange(height * width, dtype=np.int64), width)

    def flow(x, size, away):
        """One step away from (toward) the centre line, clamped; the centre
        line maps to itself."""
        centre = (size - 1) // 2
        step = np.where((x < centre) == away, -1, 1)
        return np.where(x == centre, x, np.clip(x + step, 0, size - 1))

    rows_cols = [(r, c), (np.maximum(r - 1, 0), c), (np.minimum(r + 1, height - 1), c),
                 (r, np.maximum(c - 1, 0)), (r, np.minimum(c + 1, width - 1)),
                 (r, flow(c, width, True)), (r, flow(c, width, False)),
                 (flow(r, height, True), c), (flow(r, height, False), c)]
    return np.stack([rows * width + cols for rows, cols in rows_cols])


def transform_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Normalized Hamming distance: fraction of vertices where the maps differ."""
    a, b = np.asarray(a), np.asarray(b)
    if a.ndim != 1 or a.shape != b.shape:
        raise ValueError(f"transforms must be vectors of one length, got shapes "
                         f"{a.shape} and {b.shape}")
    return float(np.count_nonzero(a != b)) / len(a)


def canonical_distances(targets: np.ndarray, height: int, width: int) -> np.ndarray:
    """(K, 9) normalized Hamming distances from each of the K maps in targets,
    shaped (K, h*w), to each canonical transform in CANONICAL_NAMES order."""
    if height < 2 or width < 2:
        raise ValueError("canonical transforms need a grid of at least 2x2")
    targets, n = np.asarray(targets), height * width
    if targets.ndim != 2 or targets.shape[1] != n:
        raise ValueError(f"transforms must be rows of length {n}, got shape {targets.shape}")
    canon = _canonical_maps(height, width)
    return np.count_nonzero(targets[:, None] != canon, axis=2) / n


def transform_report(distances: np.ndarray) -> str:
    """CSV of a canonical_distances() matrix: one row per slice with its
    nearest canonical transform (ties go to list order), plus the mean
    nearest distance."""
    lines = ["k,nearest_name,distance"]
    for k, row in enumerate(distances):
        i = row.argmin()
        lines.append(f"{k},{CANONICAL_NAMES[i]},{row[i]:.10g}")
    lines.append(f"mean,,{distances.min(axis=1).mean():.10g}")
    return "\n".join(lines) + "\n"


def evaluate_accuracy(model, params: EdgeLogits, dataset, split: str, t: float) -> float:
    """Fraction of correct argmax predictions on the named split."""
    idx = dataset.splits[split]
    if idx.size == 0:
        raise ValueError("empty evaluation split")
    return _eval_split(model, soften(params, t).sparse(model.dtype), dataset, idx)[1]
