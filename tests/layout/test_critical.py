"""Critical-feature extraction tests: the column mask, with the
orientation the shifter generator reads off it."""

from repro.geometry import Rect
from repro.geometry.rect import rect_columns
from repro.layout import critical_fraction, critical_mask, layout_from_rects
from repro.shifters import BOTTOM, LEFT, generate_shifters


def critical(lay, tech):
    return critical_mask(*rect_columns(lay.features), tech) \
        .nonzero()[0].tolist()


class TestCriticalExtraction:
    def test_narrow_vertical_gate_is_critical(self, tech):
        lay = layout_from_rects([Rect(0, 0, 90, 1000)])
        assert critical(lay, tech) == [0]
        shifters = generate_shifters(lay, tech)
        assert shifters[0].side == LEFT
        assert shifters[0].rect.height == 1000 + 2 * tech.shifter_extension

    def test_narrow_horizontal_wire_is_critical(self, tech):
        lay = layout_from_rects([Rect(0, 0, 1000, 90)])
        assert critical(lay, tech) == [0]
        assert generate_shifters(lay, tech)[0].side == BOTTOM

    def test_wide_feature_not_critical(self, tech):
        lay = layout_from_rects([Rect(0, 0, 200, 200)])
        assert critical(lay, tech) == []
        assert len(generate_shifters(lay, tech)) == 0

    def test_threshold_is_strict(self, tech):
        lay = layout_from_rects([
            Rect(0, 0, tech.critical_width, 1000),          # exactly at
            Rect(2000, 0, 2000 + tech.critical_width - 1, 1000),  # below
        ])
        assert critical(lay, tech) == [1]

    def test_square_feature_tie_is_vertical(self, tech):
        lay = layout_from_rects([Rect(0, 0, 100, 100)])
        assert critical(lay, tech) == [0]
        assert generate_shifters(lay, tech)[0].side == LEFT

    def test_indices_in_order(self, tech):
        lay = layout_from_rects([
            Rect(0, 0, 90, 500),
            Rect(500, 0, 800, 300),   # wide, skipped
            Rect(2000, 0, 2090, 500),
        ])
        assert critical(lay, tech) == [0, 2]

    def test_critical_fraction(self, tech):
        lay = layout_from_rects([
            Rect(0, 0, 90, 500),
            Rect(1000, 0, 1300, 300),
        ])
        assert critical_fraction(lay, tech) == 0.5

    def test_critical_fraction_empty(self, tech):
        from repro.layout import Layout
        assert critical_fraction(Layout(), tech) == 0.0
