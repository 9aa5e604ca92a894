"""Figure export: arrow fields over a grid (SVG) and transformed images (PPM)."""
from __future__ import annotations

import numpy as np

from .transforms import HardTransforms, apply_hard

# displacement categories in tie-break order for the majority vote
DIRECTIONS = ("self", "up", "down", "left", "right")
_OFFSETS = {(0, 0): "self", (-1, 0): "up", (1, 0): "down",
            (0, -1): "left", (0, 1): "right"}

CELL = 20
HIGHLIGHT = "#d62728"
NORMAL = "#444444"


def _displacements(targets: np.ndarray, height: int, width: int) -> list[str]:
    out = []
    for i, j in enumerate(targets):
        dr = j // width - i // width
        dc = j % width - i % width
        key = (int(dr), int(dc))
        if key not in _OFFSETS:
            raise ValueError(
                f"vertex {i} maps to {j}, which is not itself or a 4-neighbor")
        out.append(_OFFSETS[key])
    return out


def majority_direction(targets: np.ndarray, height: int, width: int) -> str:
    disp = _displacements(targets, height, width)
    counts = {d: 0 for d in DIRECTIONS}
    for d in disp:
        counts[d] += 1
    return max(DIRECTIONS, key=lambda d: (counts[d], -DIRECTIONS.index(d)))


def arrow_field_svg(hard_slice: np.ndarray, height: int, width: int) -> str:
    """One glyph per vertex: a dot for self-maps, an arrow toward the target
    otherwise; vertices matching the majority direction are highlighted."""
    hard_slice = np.asarray(hard_slice)
    if hard_slice.shape != (height * width,):
        raise ValueError(
            f"transform has {hard_slice.shape} targets for a {height}x{width} grid")
    disp = _displacements(hard_slice, height, width)
    major = majority_direction(hard_slice, height, width)
    w_px, h_px = width * CELL, height * CELL
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w_px}" height="{h_px}" '
        f'viewBox="0 0 {w_px} {h_px}">',
        f'<rect width="{w_px}" height="{h_px}" fill="white"/>',
    ]
    arrow_len = 0.35 * CELL
    deltas = {"up": (0, -1), "down": (0, 1), "left": (-1, 0), "right": (1, 0)}
    for i, d in enumerate(disp):
        r, c = divmod(i, width)
        cx = (c + 0.5) * CELL
        cy = (r + 0.5) * CELL
        color = HIGHLIGHT if d == major else NORMAL
        if d == "self":
            parts.append(f'<circle cx="{cx:g}" cy="{cy:g}" r="2.5" fill="{color}"/>')
        else:
            dx, dy = deltas[d]
            x1, y1 = cx - dx * arrow_len, cy - dy * arrow_len
            x2, y2 = cx + dx * arrow_len, cy + dy * arrow_len
            # arrowhead: small triangle at the tip, perpendicular base
            hx, hy = x2 - dx * 4, y2 - dy * 4
            px, py = -dy * 3, dx * 3
            parts.append(
                f'<line x1="{x1:g}" y1="{y1:g}" x2="{hx:g}" y2="{hy:g}" '
                f'stroke="{color}" stroke-width="1.5"/>'
                f'<polygon points="{x2:g},{y2:g} {hx + px:g},{hy + py:g} '
                f'{hx - px:g},{hy - py:g}" fill="{color}"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def translated_image_ppm(t_hard: HardTransforms, k: int, image: np.ndarray,
                         height: int, width: int) -> bytes:
    """Apply hard slice k to an (N, 3) image in [0, 1] and encode as binary PPM.

    Non-injective targets accumulate; channel sums are clamped to [0, 1]
    before 8-bit quantization.
    """
    image = np.asarray(image, dtype=float)
    if image.shape != (height * width, 3):
        raise ValueError(
            f"expected image of shape ({height * width}, 3), got {image.shape}")
    if t_hard.n != height * width:
        raise ValueError("transform size does not match grid dimensions")
    moved = np.clip(apply_hard(t_hard, k, image), 0.0, 1.0)
    header = f"P6\n{width} {height}\n255\n".encode()
    body = np.round(moved.reshape(height, width, 3) * 255).astype(np.uint8)
    return header + body.tobytes()


def read_ppm(raw: bytes) -> tuple[np.ndarray, int, int]:
    """Parse a binary P6 PPM into an (N, 3) float image in [0, 1] plus dims."""
    if not raw.startswith(b"P6"):
        raise ValueError("not a binary PPM (P6) file")
    fields: list[int] = []
    pos = 2
    while len(fields) < 3:
        while pos < len(raw) and raw[pos:pos + 1].isspace():
            pos += 1
        if raw[pos:pos + 1] == b"#":
            while pos < len(raw) and raw[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(raw) and not raw[pos:pos + 1].isspace():
            pos += 1
        fields.append(int(raw[start:pos]))
    pos += 1  # single whitespace after maxval
    width, height, maxval = fields
    if not 1 <= maxval <= 255:
        raise ValueError(f"PPM maxval {maxval} is not supported; need 1..255")
    body = np.frombuffer(raw, dtype=np.uint8, count=width * height * 3, offset=pos)
    return body.reshape(height * width, 3).astype(float) / maxval, height, width
