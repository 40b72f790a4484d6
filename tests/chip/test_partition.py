"""Tile partitioning invariants."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench import build_design
from repro.chip import (
    auto_tile_grid,
    default_halo,
    interaction_distance,
    partition_layout,
)
from repro.chip.partition import _boundaries
from repro.geometry import Rect
from repro.geometry.rect import rect_columns
from repro.layout import (
    Layout,
    Technology,
    layout_from_rects,
    standard_cell_layout,
)
from repro.scenarios import build_scenario, stratum_names
from ..conftest import cold_chip_layout
from ..oracles import rect_digest, scalar_partition


@pytest.fixture
def tech() -> Technology:
    return Technology.node_90nm()


class TestGridGeometry:
    def test_cores_partition_the_bbox(self, tech):
        layout = standard_cell_layout(seed=3)
        grid = partition_layout(layout, tech, tiles=(3, 2))
        box = layout.bbox()
        # Half-open cores must cover the closed bbox exactly once.
        xs = sorted({t.core[0] for t in grid.tiles})
        assert xs[0] == box.x1
        total = sum((t.core[2] - t.core[0]) * (t.core[3] - t.core[1])
                    for t in grid.tiles)
        assert total == (box.x2 + 1 - box.x1) * (box.y2 + 1 - box.y1)

    def test_every_feature_captured_by_its_owner(self, tech):
        layout = standard_cell_layout(seed=4)
        grid = partition_layout(layout, tech, tiles=3)
        for rect in layout.features:
            flat = grid.owner_index_of_point2(*rect.center2)
            tile = grid.tiles[flat]
            assert rect in tile.layout.features

    def test_owner_regions_are_disjoint_and_total(self, tech):
        layout = standard_cell_layout(seed=5)
        grid = partition_layout(layout, tech, tiles=(2, 3))
        probes = [r.center2 for r in layout.features[:50]]
        # Points far outside the bbox still have exactly one owner.
        probes += [(-10**7, -10**7), (10**9, 10**9)]
        def owns(tile, px2, py2):
            ox1, oy1, ox2, oy2 = tile.owner
            return 2 * ox1 <= px2 < 2 * ox2 and 2 * oy1 <= py2 < 2 * oy2

        for p in probes:
            owners = [t for t in grid.tiles if owns(t, *p)]
            assert len(owners) == 1
            flat = grid.owner_index_of_point2(*p)
            assert grid.tiles[flat] is owners[0]

    def test_halo_features_shared_between_tiles(self, tech):
        # Two gates 200 nm apart with a cut line between them: both
        # tiles must capture both gates.
        a = Rect(0, 0, 90, 1000)
        b = Rect(290, 0, 380, 1000)
        layout = layout_from_rects([a, b])
        grid = partition_layout(layout, tech, tiles=(2, 1))
        for tile in grid.tiles:
            assert set(tile.layout.features) == {a, b}

    def test_feature_ids_map_back_to_chip_indices(self, tech):
        layout = standard_cell_layout(seed=6)
        grid = partition_layout(layout, tech, tiles=2)
        for tile in grid.tiles:
            for local, gi in enumerate(tile.feature_ids):
                assert tile.layout.features[local] == layout.features[gi]

    def test_empty_layout(self, tech):
        grid = partition_layout(Layout(), tech, tiles=2)
        assert grid.bbox is None
        assert grid.tiles == []

    def test_rejects_bad_grid(self, tech):
        layout = standard_cell_layout(seed=1)
        with pytest.raises(ValueError):
            partition_layout(layout, tech, tiles=0)


class TestSizing:
    def test_interaction_distance_monotone_in_rules(self, tech):
        wide = tech.with_(shifter_spacing=tech.shifter_spacing * 2)
        assert interaction_distance(wide) > interaction_distance(tech)
        assert default_halo(tech) >= 8 * interaction_distance(tech) - 1

    def test_auto_grid_scales_with_polygon_count(self):
        small = standard_cell_layout(seed=1)
        nx, ny = auto_tile_grid(small)
        assert (nx, ny) == (1, 1)
        big = Layout()
        for i in range(9000):
            big.add_feature(Rect(i * 300, 0, i * 300 + 90, 900))
        assert auto_tile_grid(big)[0] >= 2

    def test_auto_grid_gives_every_worker_a_tile(self, tech):
        """A parallel run grows the automatic grid to a tile per
        worker, as long as tiles keep two features each; the tiled
        front-end stage partitions with that grid."""
        from repro.pipeline import PipelineConfig, stage_front_end

        d4 = build_design("D4")
        assert auto_tile_grid(d4) == (1, 1)
        assert auto_tile_grid(d4, jobs=2) == (2, 2)
        assert auto_tile_grid(d4, jobs=8) == (3, 3)
        three = layout_from_rects([Rect(i * 1000, 0, i * 1000 + 90, 900)
                                   for i in range(3)])
        assert auto_tile_grid(three, jobs=8) == (2, 2)
        front = stage_front_end(d4, tech, PipelineConfig(tiled=True, jobs=2))
        assert (front.grid.nx, front.grid.ny) == (2, 2)


def on_cut_lines_layout(tech) -> Layout:
    """Features whose edges, capture spans and centres land exactly on
    the 2x2 grid's cut lines (the bbox is pinned by two corner
    features, so the cut lines do not move)."""
    halo = default_halo(tech)
    corners = [Rect(0, 0, 90, 900), Rect(9910, 9100, 10000, 10000)]
    cut = _boundaries(0, 10000, 2)[1]
    rects = list(corners)
    for k, (lo, hi) in enumerate([(cut - 90, cut), (cut, cut + 90),
                                  (cut + halo, cut + halo + 90),
                                  (cut - halo - 90, cut - halo),
                                  (cut - 45, cut + 45)]):
        rects.append(Rect(lo, 1000 + 1000 * k, hi, 1900 + 1000 * k))
        rects.append(Rect(1000 + 1000 * k, lo, 1900 + 1000 * k, hi))
    return layout_from_rects(rects, name="on-cut-lines")


def oracle_cases():
    """``(name, layout builder, grid specs)`` for the routing oracle."""
    cases = [(f"{s}:{seed}", lambda s=s, seed=seed:
              build_scenario(s, seed).layout, [1, 2, 3, (2, 5)])
             for s in stratum_names() for seed in range(3)]
    cases += [(d, lambda d=d: build_design(d), [None, 1, 3, (2, 5)])
              for d in ("D1", "D2", "D3")]
    cases += [(f"cold-chip:{seed}", lambda seed=seed: cold_chip_layout(seed),
               [None, 3]) for seed in (17, 23)]
    cases += [("empty", Layout, [None, 2]),
              ("single", lambda: layout_from_rects([Rect(0, 0, 90, 900)]),
               [None, 1, 2, (3, 2)]),
              ("on-cut-lines",
               lambda: on_cut_lines_layout(Technology.node_90nm()),
               [2, 3, (2, 1)])]
    return cases


class TestColumnPartitionOracle:
    """The column-pass partition routes exactly like the per-rect
    bisect loop it replaced (``tests/oracles.py``)."""

    @pytest.mark.parametrize("name,build,specs", oracle_cases(),
                             ids=[c[0] for c in oracle_cases()])
    def test_matches_scalar_routing(self, tech, name, build, specs):
        layout = build()
        for spec in specs:
            grid = partition_layout(layout, tech, tiles=spec)
            bbox, xs, ys, ref = scalar_partition(layout, tech, spec)
            assert grid.bbox == bbox
            assert (grid.xs, grid.ys) == (xs, ys)
            assert len(grid.tiles) == len(ref)
            for tile, want in zip(grid.tiles, ref):
                assert (tile.ix, tile.iy, tile.core, tile.owner,
                        tile.bounds) == (want["ix"], want["iy"],
                                         want["core"], want["owner"],
                                         want["bounds"])
                assert tile.feature_ids == want["feature_ids"]
                assert tile.layout.features == want["features"]
                assert tile.digest == rect_digest(want["features"])
                # The tile carries its slice of the chip's columns.
                fresh = rect_columns(list(tile.layout.features))
                assert all(np.array_equal(a, b) for a, b in zip(
                    tile.layout.features.columns, fresh))

    def test_cut_line_features_reach_both_sides(self, tech):
        """The on-cut-lines layout is a real boundary case: some of
        its features land in more than one tile."""
        grid = partition_layout(on_cut_lines_layout(tech), tech, tiles=2)
        counts = [len(t.feature_ids) for t in grid.tiles]
        assert sum(counts) > grid.tiles[0].layout.num_polygons
        assert all(counts)

    def test_bbox_is_the_hull(self, tech):
        layout = cold_chip_layout(17)
        box = layout.bbox()
        grid = partition_layout(layout, tech)
        assert grid.bbox == (box.x1, box.y1, box.x2, box.y2)
