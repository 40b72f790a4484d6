"""The tiled path's front end: one chip-wide pass, owned once per tile.

:func:`tiled_front_end` is the monolithic pass (its equality with
``layout_front_end`` over every stratum is
``tests/pipeline/test_pipeline.py::TestTiledFrontEnd``), and each tile
job gets a slice of it (``tests/chip/test_executor.py::TestFrontSlices``).
What a tile *owns* of a front end — a critical feature by its rect
centre, a pair by the centre of its overlap region — is the executor's
column test :func:`_owns_points2`: summed over a partition's owner
windows it owns every feature and pair exactly once, and per window it
owns what the scalar loop of ``tests/oracles.py`` owns.
"""

import numpy as np
import pytest

from repro.bench import build_design
from repro.chip.partition import partition_layout
from repro.conflict import layout_front_end
from repro.geometry import Rect
from repro.geometry.kernels import get_kernel
from repro.geometry.rect import rect_columns
from repro.layout import Layout, layout_from_rects
from repro.scenarios.strata import build_scenario, stratum_names
from repro.shifters import pair_columns, tiled_front_end
from repro.shifters.frontend import _owns_points2

from ..conftest import cold_chip_layout
from ..oracles import scalar_owned_front_end


def assert_front_ends_equal(got, expected):
    """Shifter-by-shifter, pair-by-pair equality (ids included)."""
    got_s, got_p = got
    exp_s, exp_p = expected
    assert len(got_s) == len(exp_s)
    for a, b in zip(got_s, exp_s):
        assert (a.id, a.feature_index, a.side, a.rect) \
            == (b.id, b.feature_index, b.side, b.rect)
    assert got_p == exp_p


def column_ownership(layout, shifters, pairs, owner):
    """What ``owner`` owns of a front end, tested as the executor tests
    it: :func:`_owns_points2` over the critical features' doubled
    centres and the kernel's pair region centres.  Returns the owned
    feature and pair indices, ascending."""
    x1, y1, x2, y2 = rect_columns(layout.features)
    first, _second = shifters.feature_pair_ids()
    features = shifters.feature_column()[first]
    owned = _owns_points2(owner, x1[features] + x2[features],
                          y1[features] + y2[features])
    cols = pair_columns(pairs)
    cx2, cy2 = get_kernel().region_center_arrays(*shifters.box, cols[:, 0],
                                                 cols[:, 1])
    return (features[owned].tolist(),
            np.flatnonzero(_owns_points2(owner, cx2, cy2)).tolist())


class TestEquivalence:
    def test_empty_layout(self, tech):
        for lay in (layout_from_rects([Rect(0, 0, 90, 1000)]), Layout()):
            assert_front_ends_equal(tiled_front_end(lay, tech),
                                    layout_front_end(lay, tech))


class TestOwnershipPartition:
    def test_every_feature_and_pair_owned_exactly_once(self, tech):
        for lay, spec in ((build_design("D2"), 3),
                          (cold_chip_layout(17), None)):
            shifters, pairs = layout_front_end(lay, tech)
            features = np.zeros(lay.num_polygons, dtype=np.int64)
            owned_pairs = np.zeros(len(pairs), dtype=np.int64)
            for t in partition_layout(lay, tech, tiles=spec).tiles:
                f, p = column_ownership(lay, shifters, pairs, t.owner)
                features[f] += 1
                owned_pairs[p] += 1
            expected = np.zeros(lay.num_polygons, dtype=np.int64)
            expected[shifters.feature_column()] = 1
            assert len(pairs) and expected.any()
            assert features.tolist() == expected.tolist()
            assert owned_pairs.tolist() == [1] * len(pairs)


def cut_oracle_cases():
    """``(name, layout builder, grid spec)`` for the ownership oracle."""
    cases = [(f"{s}:{seed}", lambda s=s, seed=seed:
              build_scenario(s, seed).layout, 2)
             for s in stratum_names() for seed in range(3)]
    cases += [(d, lambda d=d: build_design(d), 3) for d in ("D1", "D2", "D3")]
    cases += [(f"cold-chip:{seed}", lambda seed=seed: cold_chip_layout(seed),
               None) for seed in (17, 23)]
    return cases


class TestColumnCutOracle:
    """Per owner window, the column ownership test owns exactly what
    the per-feature, per-pair scalar loop owns: over the chip front
    end, and over each tile's own sub-layout front end, which is what
    a tile job holds."""

    @pytest.mark.parametrize("name,build,spec", cut_oracle_cases(),
                             ids=[c[0] for c in cut_oracle_cases()])
    def test_matches_scalar_cut(self, tech, name, build, spec):
        lay = build()
        grid = partition_layout(lay, tech, tiles=spec)
        chip_s, chip_p = layout_front_end(lay, tech)
        for t in grid.tiles:
            assert column_ownership(lay, chip_s, chip_p, t.owner) == \
                scalar_owned_front_end(lay, chip_s, chip_p, t.owner)
            if spec is not None:
                tile_s, tile_p = layout_front_end(t.layout, tech)
                assert column_ownership(t.layout, tile_s, tile_p,
                                        t.owner) == \
                    scalar_owned_front_end(t.layout, tile_s, tile_p,
                                           t.owner)
