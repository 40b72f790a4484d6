"""Tiled-vs-monolithic equivalence — the subsystem's contract.

``run_chip_flow`` must report the *same conflicts* as the monolithic
``detect_conflicts`` on the same layout, including conflicts whose
geometry straddles tile boundaries.  Conflicts are compared in
canonical ``(feature rect, shifter side)`` terms so the tiled flow gets
no credit for renumbering.  The tiled == monolithic comparisons run
under the shortest-path T-join engine (``use_paths_engine``), so they
also check that engine against the tiled path.
"""

from __future__ import annotations

import pytest

from repro.cache import KIND_TILE, ArtifactCache
from repro.chip import run_chip_flow, stitch_results
from repro.conflict import detect_conflicts
from repro.core import run_aapsm_flow
from repro.layout import (
    GeneratorParams,
    Layout,
    Technology,
    conflict_grid_layout,
    figure1_layout,
    grating_layout,
    standard_cell_layout,
)
from repro.shifters import generate_shifters

from ..oracles import use_paths_engine


@pytest.fixture
def tech() -> Technology:
    return Technology.node_90nm()


def canonical_conflicts(layout, tech, report):
    """Map a report's shifter-id conflicts to geometric keys."""
    shifters = generate_shifters(layout, tech)
    feats = layout.features

    def key(sid):
        s = shifters[sid]
        r = feats[s.feature_index]
        return ((r.x1, r.y1, r.x2, r.y2), s.side)

    return {tuple(sorted((key(c.a), key(c.b)))) for c in report.conflicts}


def assert_equivalent(layout, tech, tiles, **kw):
    with use_paths_engine():
        mono = detect_conflicts(layout, tech)
        chip = run_chip_flow(layout, tech, tiles=tiles, **kw)
    assert chip.num_conflicts == mono.num_conflicts
    assert canonical_conflicts(layout, tech, chip.detection) == \
        canonical_conflicts(layout, tech, mono)
    assert chip.detection.phase_assignable == mono.phase_assignable
    assert chip.detection.num_shifters == mono.num_shifters
    assert chip.detection.num_critical == mono.num_critical
    assert chip.detection.num_overlap_pairs == mono.num_overlap_pairs
    return chip


class TestEquivalence:
    def test_figure1_across_grids(self, tech):
        for tiles in (1, 2, (3, 1), (1, 3)):
            assert_equivalent(figure1_layout(), tech, tiles)

    def test_grating_no_conflicts(self, tech):
        chip = assert_equivalent(grating_layout(12), tech, 2)
        assert chip.num_conflicts == 0
        assert chip.phase_assignable

    def test_boundary_straddling_conflict_grid(self, tech):
        """Odd grids cut straight through Figure-1 clusters; every
        cluster's single conflict must survive stitching exactly once."""
        layout = conflict_grid_layout(4, 4, cluster_pitch=2500)
        mono = detect_conflicts(layout, tech)
        assert mono.num_conflicts == 16  # known ground truth
        for tiles in (2, 3, 5):
            assert_equivalent(layout, tech, tiles)

    @pytest.mark.parametrize("seed", range(8))
    def test_property_generated_layouts(self, tech, seed):
        """Across random standard-cell layouts and asymmetric grids the
        tiled conflict set equals the monolithic one."""
        layout = standard_cell_layout(
            GeneratorParams(rows=3, cols=8, risky_wire_fraction=0.4),
            seed=seed)
        for tiles in (2, (4, 1)):
            assert_equivalent(layout, tech, tiles)

    def test_empty_layout(self, tech):
        chip = run_chip_flow(Layout(), tech, tiles=2)
        assert chip.num_conflicts == 0
        assert chip.phase_assignable

    def test_multiprocess_equals_serial(self, tech):
        layout = standard_cell_layout(seed=21)
        serial = run_chip_flow(layout, tech, tiles=2, jobs=1)
        parallel = run_chip_flow(layout, tech, tiles=2, jobs=2)
        assert [c.key for c in serial.conflicts] == \
            [c.key for c in parallel.conflicts]


class TestChipFrontEnd:
    """One chip front end per call; tiles never regenerate theirs."""

    @pytest.fixture
    def counted(self, monkeypatch):
        """Count shifter generation chip-wide and inside tile jobs."""
        from repro.chip import orchestrator
        from repro.conflict import detection

        calls = {"chip": 0, "tile": 0}

        def counter(where, real):
            def wrapped(*args, **kwargs):
                calls[where] += 1
                return real(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(orchestrator, "generate_shifters",
                            counter("chip", orchestrator.generate_shifters))
        monkeypatch.setattr(detection, "generate_shifters",
                            counter("tile", detection.generate_shifters))
        return calls

    def test_tiles_get_slices_of_one_chip_front_end(self, tech, counted):
        layout = standard_cell_layout(seed=21)
        chip = run_chip_flow(layout, tech, tiles=3)
        assert counted == {"chip": 1, "tile": 0}
        assert chip.cache_delta[KIND_TILE] == (0, chip.num_tiles)
        assert_equivalent(layout, tech, 3)

    def test_given_front_end_is_not_regenerated(self, tech, counted):
        from repro.conflict import layout_front_end

        layout = standard_cell_layout(seed=21)
        front = layout_front_end(layout, tech)
        counted["tile"] = 0
        run_chip_flow(layout, tech, tiles=2, front=front)
        assert counted == {"chip": 0, "tile": 0}

    def test_chip_shifters_stay_columns(self, tech):
        """Slicing and stitching read the chip shifter set's columns:
        no Shifter object is built for it, and the critical count is
        still the feature-pair count."""
        from repro.conflict import layout_front_end

        layout = standard_cell_layout(seed=21)
        shifters, pairs = layout_front_end(layout, tech)
        chip = run_chip_flow(layout, tech, tiles=2, front=(shifters, pairs))
        assert not shifters._objs
        assert chip.detection.num_critical == len(shifters.feature_pairs())


class TestCachingBehaviour:
    def test_second_run_hits_every_tile(self, tech, tmp_path):
        layout = standard_cell_layout(seed=22)
        cold = run_chip_flow(layout, tech, tiles=2,
                             cache_dir=str(tmp_path))
        warm = run_chip_flow(layout, tech, tiles=2,
                             cache_dir=str(tmp_path))
        assert cold.cache_delta[KIND_TILE][0] == 0
        assert warm.cache_delta[KIND_TILE][0] == warm.num_tiles
        assert [c.key for c in cold.conflicts] == \
            [c.key for c in warm.conflicts]

    def test_shared_cache_object(self, tech):
        layout = standard_cell_layout(seed=23)
        cache = ArtifactCache()
        run_chip_flow(layout, tech, tiles=2, cache=cache)
        again = run_chip_flow(layout, tech, tiles=2, cache=cache)
        assert again.cache_delta[KIND_TILE][0] >= again.num_tiles

    def test_cache_results_keep_correct_ids_after_far_edit(self, tech):
        """Cached tiles survive an edit elsewhere on the chip and still
        stitch to correct *global* ids (geometry-keyed canonicalism)."""
        from repro.geometry import Rect

        layout = standard_cell_layout(seed=24)
        cache = ArtifactCache()
        first = run_chip_flow(layout, tech, tiles=3, cache=cache)
        edited = layout.copy()
        box = layout.bbox()
        # A lone far-away gate: shifts every global feature index.
        edited.layers[1].insert(0, Rect(box.x2 + 50000, box.y1,
                                        box.x2 + 50090, box.y1 + 900))
        second = run_chip_flow(edited, tech, tiles=3, cache=cache)
        assert second.unmapped_conflicts == 0
        assert canonical_conflicts(edited, tech, second.detection) >= \
            canonical_conflicts(layout, tech, first.detection)


class TestFlowIntegration:
    def test_run_aapsm_flow_tiled_equals_monolithic(self, tech):
        layout = standard_cell_layout(seed=25)
        with use_paths_engine():
            mono = run_aapsm_flow(layout, tech)
            tiled = run_aapsm_flow(layout, tech, tiles=2, jobs=1)
        assert tiled.success == mono.success
        assert tiled.detection.num_conflicts == mono.detection.num_conflicts
        assert {c.key for c in tiled.detection.conflicts} == \
            {c.key for c in mono.detection.conflicts}
        assert tiled.correction.num_cuts == mono.correction.num_cuts

    def test_summary_mentions_tiling(self, tech):
        chip = run_chip_flow(figure1_layout(), tech, tiles=2, jobs=1)
        text = chip.summary()
        assert "2x2 grid" in text
        assert "cache" in text


class TestStitchReports:
    def test_tshape_conflicts_routed_separately(self, tech):
        layout = standard_cell_layout(
            GeneratorParams(rows=2, cols=6, tshape_probability=1.0),
            seed=26)
        with use_paths_engine():
            mono = detect_conflicts(layout, tech)
            chip = run_chip_flow(layout, tech, tiles=2)
        assert len(chip.detection.tshape_conflicts) == \
            len(mono.tshape_conflicts)
        assert chip.detection.tshape_features == mono.tshape_features

    def test_detect_seconds_is_wall_clock(self, tech):
        chip = run_chip_flow(standard_cell_layout(seed=27), tech, tiles=2)
        assert chip.detection.detect_seconds == chip.wall_seconds
        assert chip.tile_seconds >= 0

    def test_stitch_exported(self):
        assert callable(stitch_results)
