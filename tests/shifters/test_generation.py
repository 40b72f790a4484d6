"""Shifter generation tests."""

import pytest

from repro.geometry import Rect
from repro.layout import layout_from_rects
from repro.shifters import (
    LEFT,
    RIGHT,
    TOP,
    BOTTOM,
    generate_shifters,
)

from ..oracles import shifter_rects_for_feature


class TestShifterRects:
    def test_vertical_feature_left_right(self, tech):
        feature = Rect(0, 0, 90, 1000)
        (side1, r1), (side2, r2) = shifter_rects_for_feature(
            feature, vertical=True, tech=tech)
        assert side1 == LEFT and side2 == RIGHT
        assert r1.x2 == feature.x1 and r2.x1 == feature.x2
        assert r1.width == tech.shifter_width
        assert r1.y1 == feature.y1 - tech.shifter_extension
        assert r1.y2 == feature.y2 + tech.shifter_extension

    def test_horizontal_feature_top_bottom(self, tech):
        feature = Rect(0, 0, 1000, 90)
        (side1, r1), (side2, r2) = shifter_rects_for_feature(
            feature, vertical=False, tech=tech)
        assert side1 == BOTTOM and side2 == TOP
        assert r1.y2 == feature.y1 and r2.y1 == feature.y2
        assert r1.height == tech.shifter_width

    def test_shifters_do_not_overlap_feature(self, tech):
        feature = Rect(0, 0, 90, 1000)
        for _side, rect in shifter_rects_for_feature(feature, True, tech):
            assert not rect.strictly_intersects(feature)
            assert rect.intersects(feature)  # abutting


class TestGenerateShifters:
    def test_two_per_critical_feature(self, tech):
        lay = layout_from_rects([
            Rect(0, 0, 90, 500),       # critical
            Rect(1000, 0, 1300, 500),  # wide, skipped
            Rect(5000, 0, 5090, 500),  # critical
        ])
        shifters = generate_shifters(lay, tech)
        assert len(shifters) == 4
        assert shifters.feature_indices() == [0, 2]

    def test_ids_dense_and_ordered(self, tech):
        lay = layout_from_rects([Rect(0, 0, 90, 500),
                                 Rect(5000, 0, 5090, 500)])
        shifters = generate_shifters(lay, tech)
        assert [s.id for s in shifters] == [0, 1, 2, 3]
        assert shifters[0].side == LEFT
        assert shifters[1].side == RIGHT

    def test_feature_pairs_invariant(self, tech):
        """Feature edges form a perfect matching on shifter nodes."""
        lay = layout_from_rects([Rect(i * 2000, 0, i * 2000 + 90, 500)
                                 for i in range(5)])
        shifters = generate_shifters(lay, tech)
        pairs = shifters.feature_pairs()
        seen = set()
        for a, b in pairs:
            assert a.feature_index == b.feature_index
            assert a.id not in seen and b.id not in seen
            seen.update({a.id, b.id})
        assert len(seen) == len(shifters)

    def test_empty_layout(self, tech):
        from repro.layout import Layout
        assert len(generate_shifters(Layout(), tech)) == 0

    def test_of_feature_lookup(self, tech):
        lay = layout_from_rects([Rect(0, 0, 90, 500)])
        shifters = generate_shifters(lay, tech)
        members = shifters.of_feature(0)
        assert [m.side for m in members] == [LEFT, RIGHT]
        assert shifters.of_feature(99) == []

    def test_center2_is_exact(self, tech):
        lay = layout_from_rects([Rect(0, 0, 90, 500)])
        shifters = generate_shifters(lay, tech)
        left = shifters[0]
        assert left.center2 == (left.rect.x1 + left.rect.x2,
                                left.rect.y1 + left.rect.y2)


def _columns(shifters):
    return (shifters.feature_column().tolist(),
            shifters.code_column().tolist(), shifters.box.tolist())


def _corpus():
    from repro.scenarios import stratum_names

    return ([f"{s}:{seed}" for s in stratum_names() for seed in range(3)]
            + ["D1", "D2", "D3", "cold-chip:17", "cold-chip:23"])


class TestColumnGenerationOracle:
    """``generate_shifters``' column pass against the feature-by-feature
    oracle (``tests/oracles.py:scalar_generate_shifters``): same ids,
    feature indices, sides and rects."""

    @pytest.mark.parametrize("name", _corpus())
    def test_matches_per_feature_generation(self, tech, name):
        from repro.bench import build_design
        from repro.scenarios import build_scenario

        from ..conftest import cold_chip_layout
        from ..oracles import scalar_generate_shifters

        if name.startswith("cold-chip:"):
            layout = cold_chip_layout(int(name.split(":")[1]))
        elif ":" in name:
            stratum, seed = name.split(":")
            scenario = build_scenario(stratum, int(seed))
            layout, tech = scenario.layout, scenario.tech
        else:
            layout = build_design(name)
        got = generate_shifters(layout, tech)
        assert _columns(got) == _columns(scalar_generate_shifters(layout,
                                                                  tech))
        assert got.box.dtype.name == "int64"
        assert got.num_critical() == len(got) // 2

    @pytest.mark.parametrize("rects", [
        [Rect(0, 0, 100, 100)],                           # square: vertical
        [Rect(0, 0, 149, 900), Rect(500, 0, 650, 900)],   # cw - 1, cw
        [Rect(0, 0, 900, 149), Rect(0, 500, 900, 650)],   # both, horizontal
        [],                                               # empty layout
        [Rect(0, 0, 90, 500), Rect(0, 0, 90, 500),        # duplicates
         Rect(300, 0, 1000, 90), Rect(300, 0, 1000, 90)],
    ], ids=["square", "widths-vertical", "widths-horizontal", "empty",
            "duplicates"])
    def test_edge_cases(self, tech, rects):
        from ..oracles import scalar_generate_shifters

        assert tech.critical_width == 150
        layout = layout_from_rects(rects)
        got = generate_shifters(layout, tech)
        assert _columns(got) == _columns(scalar_generate_shifters(layout,
                                                                  tech))
        assert len(got) == 2 * sum(min(r.width, r.height) < 150
                                   for r in rects)
