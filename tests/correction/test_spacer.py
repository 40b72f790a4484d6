"""End-to-end space insertion tests, including the no-new-violations
property the paper argues for in §3.2."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.correction import SpaceCut, apply_cuts, stretched_feature_indices
from repro.geometry import Rect
from repro.geometry.rect import rect_columns
from repro.layout import check_spacing, layout_from_rects
from repro.layout.generator import random_rect_layout

from ..conftest import min_separation
from ..oracles import scalar_apply_cuts


class TestSingleCut:
    def test_shifts_right_of_cut(self):
        lay = layout_from_rects([Rect(0, 0, 10, 10), Rect(50, 0, 60, 10)])
        out = apply_cuts(lay, [SpaceCut("x", 30, 100)])
        assert out.features == [Rect(0, 0, 10, 10), Rect(150, 0, 160, 10)]

    def test_stretches_spanning_rect(self):
        lay = layout_from_rects([Rect(0, 0, 100, 10)])
        out = apply_cuts(lay, [SpaceCut("x", 50, 7)])
        assert out.features == [Rect(0, 0, 107, 10)]

    def test_cut_at_edge_shifts_not_stretches(self):
        lay = layout_from_rects([Rect(0, 0, 10, 10), Rect(10, 20, 20, 30)])
        out = apply_cuts(lay, [SpaceCut("x", 10, 5)])
        # First rect ends exactly at the cut: untouched.
        # Second starts exactly at the cut: shifted.
        assert out.features == [Rect(0, 0, 10, 10), Rect(15, 20, 25, 30)]

    def test_horizontal_cut(self):
        lay = layout_from_rects([Rect(0, 0, 10, 10), Rect(0, 50, 10, 60)])
        out = apply_cuts(lay, [SpaceCut("y", 20, 40)])
        assert out.features == [Rect(0, 0, 10, 10), Rect(0, 90, 10, 100)]

    def test_other_layers_transformed_too(self):
        lay = layout_from_rects([Rect(0, 0, 10, 10)])
        lay.add_shape(42, Rect(50, 0, 60, 10))
        out = apply_cuts(lay, [SpaceCut("x", 30, 10)])
        assert out.layers[42] == [Rect(60, 0, 70, 10)]

    def test_invalid_cut(self):
        with pytest.raises(ValueError):
            SpaceCut("z", 0, 10)
        with pytest.raises(ValueError):
            SpaceCut("x", 0, 0)


class TestMultipleCuts:
    def test_two_cuts_compose(self):
        lay = layout_from_rects([Rect(100, 0, 110, 10)])
        out = apply_cuts(lay, [SpaceCut("x", 10, 5), SpaceCut("x", 50, 7)])
        assert out.features == [Rect(112, 0, 122, 10)]

    def test_positions_refer_to_original_coords(self):
        # Both cuts at original positions; order must not matter.
        lay = layout_from_rects([Rect(100, 0, 110, 10)])
        a = apply_cuts(lay, [SpaceCut("x", 10, 5), SpaceCut("x", 50, 7)])
        b = apply_cuts(lay, [SpaceCut("x", 50, 7), SpaceCut("x", 10, 5)])
        assert a.features == b.features

    def test_mixed_axes(self):
        lay = layout_from_rects([Rect(100, 100, 110, 110)])
        out = apply_cuts(lay, [SpaceCut("x", 0, 3), SpaceCut("y", 0, 4)])
        assert out.features == [Rect(103, 104, 113, 114)]


class TestNoNewViolations:
    """The paper's key safety argument, as executable properties."""

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 100_000), st.integers(1, 3))
    def test_separations_never_shrink(self, seed, n_cuts):
        rng = random.Random(seed)
        lay = random_rect_layout(15, seed=seed, region=5000)
        if len(lay.features) < 2:
            return
        cuts = []
        for _ in range(n_cuts):
            cuts.append(SpaceCut(rng.choice("xy"),
                                 rng.randrange(0, 5000),
                                 rng.randint(1, 300)))
        before = min_separation(lay.features)
        after_lay = apply_cuts(lay, cuts)
        after = min_separation(after_lay.features)
        assert after >= before

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 100_000))
    def test_drc_violation_count_never_grows(self, seed):
        rng = random.Random(seed)
        lay = random_rect_layout(12, seed=seed + 7, region=4000)
        cuts = [SpaceCut(rng.choice("xy"), rng.randrange(0, 4000),
                         rng.randint(10, 200))]
        before = len(check_spacing(lay.features, 140))
        after = len(check_spacing(apply_cuts(lay, cuts).features, 140))
        assert after <= before

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 100_000))
    def test_widths_preserved_for_non_spanning(self, seed):
        rng = random.Random(seed)
        lay = random_rect_layout(12, seed=seed + 3, region=4000)
        cut = SpaceCut("x", rng.randrange(0, 4000), rng.randint(10, 200))
        out = apply_cuts(lay, [cut])
        stretched = set(stretched_feature_indices(lay, [cut]))
        for i, (a, b) in enumerate(zip(lay.features, out.features)):
            if a.x1 < cut.position < a.x2:
                assert b.width == a.width + cut.width
            else:
                assert b.width == a.width
            assert b.height == a.height
            if i not in stretched:
                # Not flagged means the critical dimension is safe.
                vertical = a.height >= a.width
                if vertical:
                    assert b.width == a.width


class TestColumnPassOracle:
    """The column pass against the per-rect bisect oracle: same rects,
    same layer and rect order, on edges exactly on a cut, several cuts
    at one position, both axes and no cut at all."""

    @staticmethod
    def layered(seed):
        rng = random.Random(seed)
        lay = random_rect_layout(20, seed=seed, region=3000)
        for layer in (7, 3):
            for _ in range(rng.randint(0, 6)):
                x, y = rng.randrange(0, 3000), rng.randrange(0, 3000)
                lay.add_shape(layer, Rect(x, y, x + rng.randint(1, 200),
                                          y + rng.randint(1, 200)))
        return lay

    @staticmethod
    def assert_same(lay, cuts):
        out = apply_cuts(lay, cuts)
        ref = scalar_apply_cuts(lay, cuts)
        assert out.name == ref.name
        assert list(out.layers) == list(ref.layers) == list(lay.layers)
        assert out.layers == ref.layers
        # Each layer carries the columns the pass computed.
        for rects in out.layers.values():
            fresh = rect_columns(list(rects))
            assert all(np.array_equal(a, b)
                       for a, b in zip(rects.columns, fresh))

    @pytest.mark.parametrize("seed", range(30))
    def test_random_cuts_on_edges(self, seed):
        rng = random.Random(seed)
        lay = self.layered(seed)
        rects = [r for rects in lay.layers.values() for r in rects]
        cuts = []
        for _ in range(rng.randint(1, 8)):
            axis = rng.choice("xy")
            r = rng.choice(rects)
            position = rng.choice(
                (r.x1, r.x2, (r.x1 + r.x2) // 2, rng.randrange(-50, 3300))
                if axis == "x" else
                (r.y1, r.y2, (r.y1 + r.y2) // 2, rng.randrange(-50, 3300)))
            cuts.append(SpaceCut(axis, position, rng.randint(1, 300)))
            if rng.random() < 0.3:
                cuts.append(SpaceCut(axis, position, rng.randint(1, 300)))
        rng.shuffle(cuts)
        self.assert_same(lay, cuts)

    def test_stacked_cuts_on_both_edges(self):
        lay = layout_from_rects([Rect(10, 20, 30, 40), Rect(30, 40, 50, 60)])
        cuts = [SpaceCut("x", 30, 5), SpaceCut("x", 30, 7),
                SpaceCut("y", 40, 11), SpaceCut("y", 20, 2),
                SpaceCut("y", 40, 3), SpaceCut("x", 10, 1)]
        self.assert_same(lay, cuts)
        assert apply_cuts(lay, cuts).features == [
            Rect(11, 22, 31, 42), Rect(43, 56, 63, 76)]

    @pytest.mark.parametrize("axis", "xy")
    def test_one_axis_only(self, axis):
        lay = self.layered(99)
        self.assert_same(lay, [SpaceCut(axis, 1500, 40),
                               SpaceCut(axis, 700, 9)])

    def test_no_cuts(self):
        lay = self.layered(5)
        self.assert_same(lay, [])
        assert apply_cuts(lay, []).layers == lay.layers

    def test_empty_layer(self):
        lay = layout_from_rects([Rect(0, 0, 10, 10)])
        lay.layers[9] = []
        self.assert_same(lay, [SpaceCut("x", 5, 3)])


class TestStretchedDetector:
    def test_vertical_feature_widened_flagged(self):
        lay = layout_from_rects([Rect(0, 0, 90, 1000)])
        assert stretched_feature_indices(
            lay, [SpaceCut("x", 45, 10)]) == [0]

    def test_vertical_feature_lengthened_ok(self):
        lay = layout_from_rects([Rect(0, 0, 90, 1000)])
        assert stretched_feature_indices(
            lay, [SpaceCut("y", 500, 10)]) == []

    def test_cut_at_boundary_ok(self):
        lay = layout_from_rects([Rect(0, 0, 90, 1000)])
        assert stretched_feature_indices(
            lay, [SpaceCut("x", 90, 10)]) == []
