"""Per-tile detection and executors."""

from __future__ import annotations

import pytest

from repro.chip import (
    EXECUTOR_BACKENDS,
    ProcessExecutor,
    SerialExecutor,
    detect_tile,
    make_executor,
    make_jobs,
    partition_layout,
    register_executor,
    resolve_executor,
)
from dataclasses import replace

from repro.chip.cache import tile_cache_key
from repro.conflict import FG, PCG, detect_conflicts, layout_front_end
from repro.layout import Layout, Technology, figure1_layout, \
    standard_cell_layout
from repro.scenarios.strata import build_scenario, stratum_names
from repro.shifters import FrontEndSlicer


@pytest.fixture
def tech() -> Technology:
    return Technology.node_90nm()


def sliced_jobs(layout, tech, tiles):
    """Every tile job, with and without its front-end slice."""
    grid = partition_layout(layout, tech, tiles=tiles)
    shifters, pairs = layout_front_end(layout, tech)
    slicer = FrontEndSlicer(shifters, pairs, layout.num_polygons)
    return [(job, replace(job, front=slicer.slice(job.feature_ids)))
            for job in make_jobs(grid.tiles, tech)]


def result_key(result):
    """A tile result minus the worker's timings."""
    return (result.ix, result.iy, result.report.conflicts,
            result.report.tshape_conflicts,
            result.report.uncorrectable_features, result.conflicts,
            result.owned_pairs, result.owned_uncorrectable,
            result.owned_tshape_features)


class TestFrontSlices:
    @pytest.mark.parametrize("stratum", stratum_names())
    def test_slice_equals_regenerated_sublayout(self, stratum):
        for seed in (0, 1):
            scenario = build_scenario(stratum, seed)
            tech = scenario.tech
            for tiles in (1, 2, 3):
                for job, sliced in sliced_jobs(scenario.layout, tech,
                                               tiles):
                    got_s, got_p = sliced.front
                    exp_s, exp_p = layout_front_end(job.layout, tech)
                    for column in ("feature_column", "code_column"):
                        assert getattr(got_s, column)().tolist() \
                            == getattr(exp_s, column)().tolist()
                    assert got_s.box.tolist() == exp_s.box.tolist()
                    assert got_p == exp_p

    def test_detect_tile_same_with_or_without_slice(self, tech):
        layout = standard_cell_layout(seed=11)
        for job, sliced in sliced_jobs(layout, tech, 2):
            assert result_key(detect_tile(sliced)) == \
                result_key(detect_tile(job))

    def test_slice_is_not_part_of_the_job_identity(self, tech):
        for job, sliced in sliced_jobs(standard_cell_layout(seed=3),
                                       tech, 2):
            assert tile_cache_key(sliced) == tile_cache_key(job)
            assert sliced == job


class TestDetectTile:
    def test_single_tile_matches_monolithic(self, tech):
        """A 1x1 grid is the monolithic flow in tile clothing."""
        layout = standard_cell_layout(seed=11)
        grid = partition_layout(layout, tech, tiles=1)
        (job,) = make_jobs(grid.tiles, tech)
        result = detect_tile(job)
        mono = detect_conflicts(layout, tech)
        assert len(result.conflicts) == mono.num_conflicts
        assert result.owned_pairs == mono.num_overlap_pairs

    def test_empty_tile(self, tech):
        """An empty tile takes the ordinary route: its report is the
        one detect_conflicts gives the empty sub-layout, on both graph
        kinds."""
        from dataclasses import asdict

        grid = partition_layout(figure1_layout(), tech, tiles=1)
        for kind in (PCG, FG):
            (job,) = make_jobs(grid.tiles, tech, kind=kind)
            empty = replace(job, layout=Layout(name="empty"))
            result = detect_tile(empty)
            got = asdict(result.report)
            expected = asdict(detect_conflicts(empty.layout, tech,
                                               kind=kind))
            got.pop("detect_seconds")
            expected.pop("detect_seconds")
            assert got == expected
            assert result.report.phase_assignable
            assert (result.conflicts, result.owned_pairs,
                    result.owned_uncorrectable,
                    result.owned_tshape_features) == ([], 0, [], [])

    def test_owned_counts_sum_to_monolithic(self, tech):
        layout = standard_cell_layout(seed=12)
        grid = partition_layout(layout, tech, tiles=(3, 2))
        results = [detect_tile(j) for j in make_jobs(grid.tiles, tech)]
        mono = detect_conflicts(layout, tech)
        assert sum(r.owned_pairs for r in results) == mono.num_overlap_pairs

    def test_canonical_keys_use_absolute_geometry(self, tech):
        layout = figure1_layout()
        grid = partition_layout(layout, tech, tiles=(2, 1))
        results = [detect_tile(j) for j in make_jobs(grid.tiles, tech)]
        keys = {cc.key for r in results for cc in r.conflicts}
        rects = {(r.x1, r.y1, r.x2, r.y2) for r in layout.features}
        for a, b in keys:
            assert a[0] in rects and b[0] in rects
            assert a[1] in ("left", "right", "top", "bottom")


class TestExecutors:
    def test_resolve(self):
        assert isinstance(resolve_executor(None), SerialExecutor)
        assert isinstance(resolve_executor(1), SerialExecutor)
        assert isinstance(resolve_executor(3), ProcessExecutor)
        with pytest.raises(ValueError):
            ProcessExecutor(0)

    def test_process_executor_matches_serial(self, tech):
        layout = standard_cell_layout(seed=13)
        grid = partition_layout(layout, tech, tiles=2)
        jobs = make_jobs(grid.tiles, tech)
        serial = SerialExecutor().map(detect_tile, jobs)
        procs = ProcessExecutor(2).map(detect_tile, jobs)
        assert [sorted(c.key for c in r.conflicts) for r in serial] == \
            [sorted(c.key for c in r.conflicts) for r in procs]

    def test_process_executor_empty_work(self):
        assert ProcessExecutor(2).map(detect_tile, []) == []


class TestBackendRegistry:
    def test_builtin_backends_registered(self):
        assert {"serial", "process"} <= set(EXECUTOR_BACKENDS)
        assert "thread" not in EXECUTOR_BACKENDS

    def test_make_executor_by_name(self):
        assert isinstance(make_executor("serial"), SerialExecutor)
        proc = make_executor("process", 3)
        assert isinstance(proc, ProcessExecutor) and proc.jobs == 3

    def test_jobs_defaulted_when_unset(self):
        assert make_executor("process").jobs >= 1
        assert make_executor("process", 0).jobs >= 1

    def test_unknown_backend_raises_with_choices(self):
        with pytest.raises(ValueError, match="serial"):
            make_executor("gpu-cluster")

    def test_resolve_prefers_named_backend(self):
        # Name overrides the jobs heuristic...
        assert isinstance(resolve_executor(8, "serial"), SerialExecutor)
        assert isinstance(resolve_executor(1, "process"), ProcessExecutor)
        # ...and an executor object passes straight through.
        mine = SerialExecutor()
        assert resolve_executor(4, mine) is mine
        with pytest.raises(TypeError):
            resolve_executor(1, object())

    def test_register_custom_backend(self):
        class Recording(SerialExecutor):
            name = "recording"

        register_executor("recording", lambda jobs: Recording())
        try:
            assert isinstance(make_executor("recording"), Recording)
            assert isinstance(resolve_executor(None, "recording"),
                              Recording)
        finally:
            del EXECUTOR_BACKENDS["recording"]

    def test_executors_expose_names(self):
        assert SerialExecutor().name == "serial"
        assert ProcessExecutor(2).name == "process"


class TestCanonicalizationOracle:
    """``detect_tile`` canonicalizes in column passes; its result equals
    the per-conflict union-find, witness scan and point tests it
    replaced (``tests/oracles.py:scalar_canonical_tile``), witness
    order included, so cached ``TileResult`` bytes do not move."""

    @pytest.mark.parametrize("name", [f"{s}:{seed}" for s in stratum_names()
                                      for seed in range(3)]
                             + ["D1", "D2", "D3", "cold-chip:17"])
    def test_matches_per_conflict_canonicalization(self, tech, name):
        from repro.bench import build_design
        from repro.shifters import find_overlap_pairs, generate_shifters

        from ..conftest import cold_chip_layout
        from ..oracles import scalar_canonical_tile

        if name.startswith("cold-chip"):
            layout, grids = cold_chip_layout(17), (2,)
        elif ":" in name:
            stratum, seed = name.split(":")
            layout, grids = build_scenario(stratum, int(seed)).layout, \
                (1, 2, 3)
        else:
            layout, grids = build_design(name), (1, 3)
        for tiles in grids:
            for _job, sliced in sliced_jobs(layout, tech, tiles):
                result = detect_tile(sliced)
                shifters = generate_shifters(sliced.layout, tech)
                pairs = find_overlap_pairs(shifters, tech)
                assert (result.conflicts, result.owned_pairs,
                        result.owned_uncorrectable,
                        result.owned_tshape_features) \
                    == tuple(scalar_canonical_tile(sliced, shifters, pairs,
                                                   result.report))
