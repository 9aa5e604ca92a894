"""Figure export: arrow fields over a grid (SVG) and transformed images (PPM)."""
from __future__ import annotations

import numpy as np

from .evaluate import _canonical_maps
from .transforms import apply_hard

# displacement categories in tie-break order for the majority vote: the
# first five canonical transforms, with the identity shown as "self"
DIRECTIONS = ("self", "up", "down", "left", "right")

CELL = 20
HIGHLIGHT = "#d62728"
NORMAL = "#444444"


def _displacements(targets: np.ndarray, height: int, width: int) -> np.ndarray:
    """Index into DIRECTIONS of each vertex's move: the first of those
    canonical transforms that maps the vertex where targets does."""
    targets = np.asarray(targets)
    if targets.shape != (height * width,):
        raise ValueError(
            f"transform has {targets.shape} targets for a {height}x{width} grid")
    hits = _canonical_maps(height, width)[:len(DIRECTIONS)] == targets
    matched = hits.any(axis=0)
    if not matched.all():
        i = int(matched.argmin())
        raise ValueError(
            f"vertex {i} maps to {targets[i]}, which is not itself or a 4-neighbor")
    return hits.argmax(axis=0)


def majority_direction(targets: np.ndarray, height: int, width: int) -> str:
    counts = np.bincount(_displacements(targets, height, width), minlength=len(DIRECTIONS))
    return DIRECTIONS[counts.argmax()]


def arrow_field_svg(hard_slice: np.ndarray, height: int, width: int) -> str:
    """One glyph per vertex: a dot for self-maps, an arrow toward the target
    otherwise; vertices matching the majority direction are highlighted."""
    disp = _displacements(hard_slice, height, width)
    major = majority_direction(hard_slice, height, width)
    w_px, h_px = width * CELL, height * CELL
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w_px}" height="{h_px}" '
        f'viewBox="0 0 {w_px} {h_px}">',
        f'<rect width="{w_px}" height="{h_px}" fill="white"/>',
    ]
    arrow_len = 0.35 * CELL
    for i, (d, target) in enumerate(zip(disp, np.asarray(hard_slice))):
        r, c = divmod(i, width)
        cx = (c + 0.5) * CELL
        cy = (r + 0.5) * CELL
        color = HIGHLIGHT if DIRECTIONS[d] == major else NORMAL
        if DIRECTIONS[d] == "self":
            parts.append(f'<circle cx="{cx:g}" cy="{cy:g}" r="2.5" fill="{color}"/>')
        else:
            dx, dy = target % width - c, target // width - r
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


def translated_image_ppm(hard_slice: np.ndarray, image: np.ndarray,
                         height: int, width: int) -> bytes:
    """Apply one hard map to an (N, 3) image in [0, 1] and encode as binary PPM.

    Non-injective targets accumulate; channel sums are clamped to [0, 1]
    before 8-bit quantization.
    """
    image = np.asarray(image, dtype=float)
    if image.shape != (height * width, 3):
        raise ValueError(
            f"expected image of shape ({height * width}, 3), got {image.shape}")
    moved = np.clip(apply_hard(hard_slice, image), 0.0, 1.0)
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
        if not raw[start:pos].isdigit():
            name = ("width", "height", "maxval")[len(fields)]
            raise ValueError(f"PPM header: expected the {name} as a decimal integer, "
                             f"found {raw[start:pos].decode('latin-1')!r}")
        fields.append(int(raw[start:pos]))
    pos += 1  # single whitespace after maxval
    width, height, maxval = fields
    if not 1 <= maxval <= 255:
        raise ValueError(f"PPM maxval {maxval} is not supported; need 1..255")
    if len(raw) - pos < width * height * 3:
        raise ValueError(f"PPM body has {max(len(raw) - pos, 0)} bytes, a "
                         f"{width}x{height} image needs {width * height * 3}")
    body = np.frombuffer(raw, dtype=np.uint8, count=width * height * 3, offset=pos)
    return body.reshape(height * width, 3).astype(float) / maxval, height, width
