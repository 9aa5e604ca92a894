import xml.etree.ElementTree as ET

import numpy as np
import pytest

from gstrans.viz import (DIRECTIONS, _displacements, arrow_field_svg,
                         majority_direction, read_ppm, translated_image_ppm)
from oracles import canonical_maps


def canonical(name, h, w):
    return canonical_maps(h, w)[name]


class TestMajorityDirection:
    def test_identity_is_self(self):
        assert majority_direction(np.arange(12), 3, 4) == "self"

    def test_down_shift(self):
        assert majority_direction(canonical("down", 4, 4), 4, 4) == "down"

    def test_tie_break_order(self):
        # 2x2 "left": half self (clamped), half left; tie goes to "self"
        targets = canonical("left", 2, 2)
        assert majority_direction(targets, 2, 2) == "self"

    def test_rejects_long_jump(self):
        targets = np.arange(9).copy()
        targets[0] = 8  # diagonal across the grid
        with pytest.raises(ValueError):
            majority_direction(targets, 3, 3)

    @pytest.mark.parametrize("vertex,target", [(15, 19), (0, -4), (3, 4), (4, 3)],
                             ids=["below-grid", "above-grid", "wrap-right", "wrap-left"])
    def test_rejects_target_off_the_grid(self, vertex, target):
        # row/column arithmetic alone reads 19 from vertex 15 as "down" and -4
        # from vertex 0 as "up"
        targets = np.arange(16)
        targets[vertex] = target
        with pytest.raises(ValueError, match=f"vertex {vertex} maps to {target},"):
            majority_direction(targets, 4, 4)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 5), (5, 1), (2, 2), (3, 7), (6, 4)])
    def test_directions_are_row_column_offsets(self, shape):
        h, w = shape
        offsets = {(0, 0): "self", (-1, 0): "up", (1, 0): "down",
                   (0, -1): "left", (0, 1): "right"}
        rng = np.random.default_rng(h * 31 + w)
        rows, cols = np.divmod(np.arange(h * w), w)
        for _ in range(20):
            # each vertex stays or moves to a random 4-neighbour on the grid
            dr, dc = np.array(list(offsets))[rng.integers(0, 5, h * w)].T
            r2, c2 = np.clip(rows + dr, 0, h - 1), np.clip(cols + dc, 0, w - 1)
            got = [DIRECTIONS[j] for j in _displacements(r2 * w + c2, h, w)]
            assert got == [offsets[(r2[i] - rows[i], c2[i] - cols[i])]
                           for i in range(h * w)]
            counts = [got.count(d) for d in DIRECTIONS]
            assert majority_direction(r2 * w + c2, h, w) == DIRECTIONS[
                counts.index(max(counts))]


class TestArrowFieldSvg:
    def test_well_formed_xml(self):
        svg = arrow_field_svg(canonical("right", 3, 4), 3, 4)
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")
        assert root.attrib["width"] == "80"
        assert root.attrib["height"] == "60"

    def test_glyph_counts(self):
        targets = canonical("up", 3, 3)  # top row self, 6 arrows
        svg = arrow_field_svg(targets, 3, 3)
        assert svg.count("<circle") == 3
        assert svg.count("<line") == 6
        assert svg.count("<polygon") == 6

    def test_majority_highlighted(self):
        svg = arrow_field_svg(canonical("down", 4, 4), 4, 4)
        # 12 moving vertices are the majority; the 4 clamped self-dots are not
        assert svg.count('"#d62728"') == 24  # line + polygon per arrow
        assert svg.count("<circle") == 4

    def test_shape_check(self):
        with pytest.raises(ValueError):
            arrow_field_svg(np.arange(6), 3, 3)


class TestPpm:
    def test_header_and_size(self):
        img = np.random.default_rng(0).uniform(0, 1, (6, 3))
        raw = translated_image_ppm(np.arange(6), img, 2, 3)
        assert raw.startswith(b"P6\n3 2\n255\n")
        assert len(raw) == len(b"P6\n3 2\n255\n") + 6 * 3

    def test_identity_roundtrip(self):
        img = np.random.default_rng(1).uniform(0, 1, (12, 3))
        back, h, w = read_ppm(translated_image_ppm(np.arange(12), img, 3, 4))
        assert (h, w) == (3, 4)
        # 8-bit quantization error only
        assert np.max(np.abs(back - img)) <= 0.5 / 255 + 1e-12

    def test_shift_moves_pixels(self):
        # map every vertex one column right on a 1-row grid, clamped at the end
        targets = np.array([1, 2, 3, 3])
        img = np.zeros((4, 3))
        img[0] = [1.0, 0.5, 0.25]
        back, _, _ = read_ppm(translated_image_ppm(targets, img, 1, 4))
        assert np.allclose(back[1], img[0], atol=1 / 255)
        assert np.allclose(back[0], 0.0)

    def test_accumulation_clamped(self):
        # two bright pixels land on the same vertex; sum clips to 1
        img = np.full((2, 3), 0.8)
        back, _, _ = read_ppm(translated_image_ppm(np.array([0, 0]), img, 1, 2))
        assert np.allclose(back[0], 1.0)

    def test_read_ppm_handles_comments(self):
        raw = b"P6\n# a comment\n2 1\n255\n" + bytes([255, 0, 0, 0, 255, 0])
        img, h, w = read_ppm(raw)
        assert (h, w) == (1, 2)
        assert np.allclose(img[0], [1, 0, 0])
        assert np.allclose(img[1], [0, 1, 0])

    @pytest.mark.parametrize("raw,message", [
        (b"P6\n2 2\n255\n" + bytes(11), "PPM body has 11 bytes, a 2x2 image needs 12"),
        (b"P6\n2 2\n", "expected the maxval as a decimal integer, found ''"),
        (b"P6\n2 x\n255\n", "expected the height as a decimal integer, found 'x'"),
    ], ids=["short-body", "missing-maxval", "non-numeric-height"])
    def test_read_ppm_names_the_fault(self, raw, message):
        with pytest.raises(ValueError) as info:
            read_ppm(raw)
        assert str(info.value).endswith(message)

    def test_read_ppm_rejects_other_magic(self):
        with pytest.raises(ValueError):
            read_ppm(b"P3\n1 1\n255\n0 0 0")

    @pytest.mark.parametrize("maxval", [0, 256, 65535])
    def test_read_ppm_rejects_maxval_outside_8_bit(self, maxval):
        # a 16-bit body has two bytes per sample; maxval 0 would divide by zero
        raw = b"P6\n1 1\n%d\n" % maxval + bytes(6)
        with pytest.raises(ValueError, match=f"maxval {maxval} "):
            read_ppm(raw)

    def test_read_ppm_scales_by_maxval(self):
        img, _, _ = read_ppm(b"P6\n1 1\n15\n" + bytes([15, 5, 0]))
        assert np.allclose(img, [[1.0, 1 / 3, 0.0]])

    def test_image_shape_check(self):
        with pytest.raises(ValueError):
            translated_image_ppm(np.arange(4), np.zeros((4, 1)), 2, 2)
