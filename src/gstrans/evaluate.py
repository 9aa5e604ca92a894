"""Accuracy evaluation and distance of hard transforms to canonical 2D
translations, dilations, and contractions on grid graphs."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .transforms import EdgeLogits, HardTransforms

CANONICAL_NAMES = ("identity", "up", "down", "left", "right",
                   "h-dilate", "h-contract", "v-dilate", "v-contract")


@dataclass(frozen=True)
class CanonicalTransform:
    name: str
    targets: np.ndarray  # (n,) target vertex per vertex


def _grid_map(height, width, fn) -> np.ndarray:
    out = np.empty(height * width, dtype=np.int64)
    for r in range(height):
        for c in range(width):
            r2, c2 = fn(r, c)
            out[r * width + c] = r2 * width + c2
    return out


def canonical_transforms(height: int, width: int) -> list[CanonicalTransform]:
    """The nine reference transforms, boundary-clamped to self.

    Dilations move one step away from the center row/column, contractions one
    step toward it; the center line maps to itself.
    """
    if height < 2 or width < 2:
        raise ValueError("canonical transforms need a grid of at least 2x2")
    cc = (width - 1) // 2
    cr = (height - 1) // 2

    def h_flow(c, away):
        if c == cc:
            return c
        step = -1 if (c < cc) == away else 1
        return min(max(c + step, 0), width - 1)

    def v_flow(r, away):
        if r == cr:
            return r
        step = -1 if (r < cr) == away else 1
        return min(max(r + step, 0), height - 1)

    defs = {
        "identity": lambda r, c: (r, c),
        "up": lambda r, c: (max(r - 1, 0), c),
        "down": lambda r, c: (min(r + 1, height - 1), c),
        "left": lambda r, c: (r, max(c - 1, 0)),
        "right": lambda r, c: (r, min(c + 1, width - 1)),
        "h-dilate": lambda r, c: (r, h_flow(c, True)),
        "h-contract": lambda r, c: (r, h_flow(c, False)),
        "v-dilate": lambda r, c: (v_flow(r, True), c),
        "v-contract": lambda r, c: (v_flow(r, False), c),
    }
    return [CanonicalTransform(name, _grid_map(height, width, defs[name]))
            for name in CANONICAL_NAMES]


def transform_distance(a: np.ndarray, b: np.ndarray, n: int) -> float:
    """Normalized Hamming distance: fraction of vertices where the maps differ."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != (n,) or b.shape != (n,):
        raise ValueError("transforms must be vectors of length n")
    return float(np.count_nonzero(a != b)) / n


def nearest_canonical(targets: np.ndarray, height: int, width: int):
    """(name, distance) of the closest canonical transform; ties go to list order."""
    n = height * width
    best_name, best_d = None, np.inf
    for ct in canonical_transforms(height, width):
        d = transform_distance(targets, ct.targets, n)
        if d < best_d:
            best_name, best_d = ct.name, d
    return best_name, best_d


def transform_report(hard: HardTransforms, height: int, width: int) -> str:
    """CSV with one row per slice plus a mean-distance summary row."""
    lines = ["k,nearest_name,distance"]
    dists = []
    for k in range(hard.k):
        name, d = nearest_canonical(hard.targets[k], height, width)
        dists.append(d)
        lines.append(f"{k},{name},{d:.10g}")
    lines.append(f"mean,,{float(np.mean(dists)):.10g}")
    return "\n".join(lines) + "\n"


def evaluate_accuracy(model, params: EdgeLogits, dataset, split, t: float) -> float:
    """Fraction of correct argmax predictions on a split (name or index array)."""
    from .nn import _eval_split
    idx = dataset.splits[split] if isinstance(split, str) else np.asarray(split)
    if idx.size == 0:
        raise ValueError("empty evaluation split")
    _, acc = _eval_split(model, params, dataset, idx, t)
    return acc
