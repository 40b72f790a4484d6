"""The correct stage's column passes against the scalar routines they
replaced (``tests/oracles.py``): correction options, the snap index,
stretched features, T-shapes, and whole plans with every scalar
routine swapped back in."""

from __future__ import annotations

import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import build_design
from repro.conflict import detect_conflicts, layout_front_end
from repro.correction import (
    SpaceCut,
    conflict_options,
    plan_correction,
    stretched_feature_indices,
)
from repro.correction import flow as correction_flow
from repro.correction.options import _ceil_sqrt, rect_pair_options
from repro.geometry import Rect
from repro.layout import Layout, find_tshapes, layout_from_rects, \
    tshape_feature_indices
from repro.layout.generator import random_rect_layout
from repro.scenarios import build_scenario
from repro.scenarios.strata import stratum_names
from repro.shifters import pair_columns

from ..oracles import (
    ScalarSnapIndex,
    isqrt_ceil,
    scalar_conflict_options,
    scalar_find_tshapes,
    scalar_rect_pair_options,
    scalar_stretched_feature_indices,
)

coords = st.integers(-3000, 3000)
rects = st.builds(lambda x, y, w, h: Rect(x, y, x + w, y + h),
                  coords, coords, st.integers(1, 400), st.integers(1, 400))


def scenario_layouts():
    """Every stratum's first seeds, D1-D3 and the edge layouts."""
    cases = [(f"{s}:{seed}", lambda s=s, seed=seed:
              build_scenario(s, seed).layout)
             for s in stratum_names() for seed in range(3)]
    cases += [(d, lambda d=d: build_design(d)) for d in ("D1", "D2", "D3")]
    cases += [("empty", Layout),
              ("duplicates", lambda: layout_from_rects(
                  [Rect(0, 0, 90, 900)] * 3 + [Rect(200, 0, 290, 900),
                                               Rect(200, 0, 290, 900)]))]
    return cases


CASES = scenario_layouts()
IDS = [name for name, _ in CASES]


def columns_of(pairs):
    """``rect_pair_options``' keys and box for a list of rect pairs:
    pair ``k`` is columns ``2k`` and ``2k + 1``."""
    box = np.array([[r.x1, r.y1, r.x2, r.y2] for pair in pairs
                    for r in pair], dtype=np.int64).reshape(-1, 4).T
    return [(2 * k, 2 * k + 1) for k in range(len(pairs))], box


class TestCeilSqrt:
    @given(st.lists(st.integers(-10, 1 << 62), max_size=50))
    def test_matches_scalar(self, values):
        n = np.array(values, dtype=np.int64)
        assert _ceil_sqrt(np, n).tolist() == [isqrt_ceil(v) for v in values]

    def test_squares_and_neighbours(self):
        roots = np.arange(0, 3_000_000, 997, dtype=np.int64)
        n = np.concatenate((roots * roots - 1, roots * roots,
                            roots * roots + 1))
        assert _ceil_sqrt(np, n).tolist() == [isqrt_ceil(v)
                                              for v in n.tolist()]


class TestOptionsOracle:
    """One column pass per axis makes the options the per-pair
    ``axis_option`` calls made, in the same order."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(rects, rects), max_size=12),
           st.integers(1, 400))
    def test_random_pairs(self, pairs, rule):
        keys, box = columns_of(pairs)
        assert rect_pair_options(keys, box, rule) \
            == scalar_rect_pair_options(dict(zip(keys, pairs)), rule)

    def test_touching_and_one_axis_pairs(self):
        # Touching projections (a cut on the shared edge), one axis
        # only, overlapping both ways, already legal on the other axis.
        pairs = [(Rect(0, 0, 10, 10), Rect(10, 0, 20, 10)),
                 (Rect(0, 0, 10, 10), Rect(0, 15, 10, 25)),
                 (Rect(0, 0, 10, 10), Rect(5, 5, 15, 15)),
                 (Rect(0, 0, 10, 10), Rect(12, 500, 20, 510)),
                 (Rect(30, 30, 40, 40), Rect(0, 0, 10, 10))]
        keys, box = columns_of(pairs)
        options = rect_pair_options(keys, box, 120)
        assert options == scalar_rect_pair_options(dict(zip(keys, pairs)),
                                                   120)
        assert options[(4, 5)] == [] and options[(6, 7)] == []
        assert [o.axis for o in options[(0, 1)]] == ["x"]

    def test_no_conflicts(self, tech):
        shifters, _pairs = layout_front_end(build_design("D1"), tech)
        assert conflict_options([], shifters, tech) == {}

    @pytest.mark.parametrize("name,build", CASES, ids=IDS)
    def test_every_overlap_pair(self, tech, name, build):
        """Every Condition-2 pair of the layout as a conflict, and the
        detected conflicts with a repeated key."""
        layout = build()
        shifters, pairs = layout_front_end(layout, tech)
        keys = [tuple(row) for row in pair_columns(pairs)[:, :2].tolist()]
        conflicts = [c.key for c in detect_conflicts(layout, tech).conflicts]
        for chosen in (keys, conflicts + conflicts[:1]):
            assert conflict_options(chosen, shifters, tech) \
                == scalar_conflict_options(chosen, shifters, tech)

    @pytest.mark.parametrize("design", ["D1", "D2", "D3"])
    def test_darkfield_options_unchanged(self, tech, design):
        """The dark-field corrector's options, from its feature columns,
        equal the per-pair options of its feature rects, on every
        critical pair within four interaction distances."""
        from repro.darkfield import flow as darkfield_flow

        layout = build_design(design)
        distance = 4 * darkfield_flow.interaction_distance(tech)
        conflicts = sorted(set(darkfield_flow.build_darkfield_graph(
            layout, tech, distance).edge_pair.values()))
        assert conflicts
        seen = []
        engine = darkfield_flow.rect_pair_options

        def recording(*args):
            seen.append(engine(*args))
            return seen[-1]

        with mock.patch.object(darkfield_flow, "rect_pair_options",
                               recording):
            darkfield_flow.correct_darkfield_conflicts(
                layout, tech, conflicts, distance)
        keyed = {key: (layout.features[key[0]], layout.features[key[1]])
                 for key in conflicts}
        assert seen == [scalar_rect_pair_options(keyed, distance)]


def snap_lists(index):
    """A snap index's sorted edges, as three axis -> list dicts."""
    return tuple({axis: list(col) for axis, col in cols.items()}
                 for cols in (index._edges, index._lo, index._hi))


class TestSnapIndexOracle:
    @pytest.mark.parametrize("name,build", CASES, ids=IDS)
    def test_matches_feature_loop(self, name, build):
        layout = build()
        assert snap_lists(correction_flow._SnapIndex(layout)) \
            == snap_lists(ScalarSnapIndex(layout))

    @settings(max_examples=50, deadline=None)
    @given(st.lists(rects, max_size=30))
    def test_random_layouts(self, rs):
        layout = layout_from_rects(rs + rs[:3])
        assert snap_lists(correction_flow._SnapIndex(layout)) \
            == snap_lists(ScalarSnapIndex(layout))


def random_cuts(layout, rng, axes="xy"):
    """Cuts on feature edges, centres and anywhere, some stacked."""
    feats = list(layout.features)
    cuts = []
    for _ in range(rng.randint(0, 10)):
        axis = rng.choice(axes)
        r = rng.choice(feats)
        lo, hi = (r.x1, r.x2) if axis == "x" else (r.y1, r.y2)
        position = rng.choice((lo, hi, (lo + hi) // 2, lo + 1,
                               rng.randrange(-5000, 5000)))
        cuts.append(SpaceCut(axis, position, rng.randint(1, 200)))
        if rng.random() < 0.2:
            cuts.append(SpaceCut(axis, position, rng.randint(1, 200)))
    return cuts


class TestStretchedOracle:
    @pytest.mark.parametrize("name,build", CASES, ids=IDS)
    def test_strata(self, name, build):
        layout = build()
        if not layout.features:
            assert stretched_feature_indices(
                layout, [SpaceCut("x", 5, 3)]) == []
            return
        rng = random.Random(name)
        for axes in ("xy", "x", "y"):
            for _ in range(4):
                cuts = random_cuts(layout, rng, axes)
                assert stretched_feature_indices(layout, cuts) \
                    == scalar_stretched_feature_indices(layout, cuts)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 100_000))
    def test_random_layouts(self, seed):
        layout = random_rect_layout(25, seed=seed, region=3000)
        cuts = random_cuts(layout, random.Random(seed))
        assert stretched_feature_indices(layout, cuts) \
            == scalar_stretched_feature_indices(layout, cuts)

    def test_no_cuts(self):
        layout = random_rect_layout(10, seed=1, region=2000)
        assert stretched_feature_indices(layout, []) == []


class TestTShapeOracle:
    @pytest.mark.parametrize("name,build", CASES, ids=IDS)
    def test_strata(self, name, build):
        layout = build()
        keys = scalar_find_tshapes(layout)
        assert [t.key for t in find_tshapes(layout)] == keys
        assert tshape_feature_indices(layout) \
            == {f for key in keys for f in key}

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.builds(
        lambda x, y, w, h: Rect(x, y, x + w, y + h),
        st.integers(0, 40).map(lambda v: 10 * v),
        st.integers(0, 40).map(lambda v: 10 * v),
        st.integers(1, 20).map(lambda v: 10 * v),
        st.integers(1, 20).map(lambda v: 10 * v)), max_size=25))
    def test_random_abutting_layouts(self, rs):
        """Coarse coordinates, so rects touch and overlap often."""
        layout = layout_from_rects(rs)
        assert [t.key for t in find_tshapes(layout)] \
            == scalar_find_tshapes(layout)


class TestPlanOracle:
    """Whole plans: the scalar options, stretched features and snap
    index swapped back in give the same report."""

    @staticmethod
    def scalar_plan(layout, tech, conflicts, shifters):
        def stretched_critical(lay, tech, cuts):
            return [i for i in scalar_stretched_feature_indices(lay, cuts)
                    if tech.is_critical_width(
                        lay.features[i].min_dimension)]

        with mock.patch.object(correction_flow, "conflict_options",
                               scalar_conflict_options), \
                mock.patch.object(correction_flow, "_SnapIndex",
                                  ScalarSnapIndex), \
                mock.patch.object(correction_flow, "_stretched_critical",
                                  stretched_critical):
            return plan_correction(layout, tech, conflicts,
                                   shifters=shifters)

    @pytest.mark.parametrize("name,build", CASES, ids=IDS)
    def test_same_report(self, tech, name, build):
        layout = build()
        shifters, _pairs = layout_front_end(layout, tech)
        conflicts = [c.key for c in detect_conflicts(layout, tech).conflicts]
        got = plan_correction(layout, tech, conflicts, shifters=shifters)
        assert got == self.scalar_plan(layout, tech, conflicts, shifters)

    @pytest.mark.parametrize("seed", [17, 23])
    def test_cold_chip(self, tech, seed):
        from ..conftest import cold_chip_layout

        layout = cold_chip_layout(seed)
        shifters, _pairs = layout_front_end(layout, tech)
        conflicts = [c.key for c in detect_conflicts(layout, tech).conflicts]
        got = plan_correction(layout, tech, conflicts, shifters=shifters)
        assert got.cuts and got.stretched_critical
        assert got == self.scalar_plan(layout, tech, conflicts, shifters)
