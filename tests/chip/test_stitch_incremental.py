"""Stitching: cluster arbitration, warm ECO, executor backends.

The contract: every pass clusters the tiles' conflict views and
arbitrates each cluster to one tile's view, with no store involved;
survivors carry no witness set; a warm ECO run's report is
byte-identical to a cold run; and every executor backend gives the
same chip report.
"""

from __future__ import annotations

import json

import pytest

from repro.bench import build_design
from repro.cache import ArtifactCache
from repro.chip import (
    arbitrate_clusters,
    build_stitch_clusters,
    detect_tile,
    make_jobs,
    run_chip_flow,
)
from repro.chip.partition import partition_layout
from repro.core import flow_result_dict, flow_result_from_pipeline
from repro.layout import Technology, standard_cell_layout
from repro.pipeline import (
    PipelineConfig,
    propose_eco_edit,
    run_eco_flow,
    run_pipeline,
)

ECO_CASES = [("D1", 2), ("D2", 3), ("D3", 4)]


@pytest.fixture
def tech() -> Technology:
    return Technology.node_90nm()


def canonical(pipe) -> str:
    data = flow_result_dict(flow_result_from_pipeline(pipe),
                            timings=False)
    data.pop("pipeline", None)
    return json.dumps(data, sort_keys=True)


def tile_results(layout, tech, tiles):
    grid = partition_layout(layout, tech, tiles=tiles)
    return grid, [detect_tile(j) for j in make_jobs(grid.tiles, tech)]


class TestArbitration:
    def test_arbitrates_every_cluster(self, tech):
        """Called directly, with no store anywhere, arbitration visits
        every cluster and reproduces the chip flow's conflicts and
        duplicate accounting."""
        layout = standard_cell_layout(seed=22)
        grid, results = tile_results(layout, tech, 3)
        survivors, stats = arbitrate_clusters(grid, results)
        chip = run_chip_flow(layout, tech, tiles=3)
        assert stats.clusters == len(build_stitch_clusters(grid, results))
        assert stats.clusters == chip.clusters > 0
        assert (stats.boundary_duplicates_dropped
                == chip.boundary_duplicates_dropped)
        assert len(survivors) == chip.num_conflicts \
            + len(chip.detection.tshape_conflicts)

    def test_survivors_carry_no_witness(self, tech):
        """Survivors drop their witness sets: those only matter for
        cluster formation."""
        layout = standard_cell_layout(seed=22)
        grid, results = tile_results(layout, tech, 3)
        assert any(cc.witness for r in results for cc in r.conflicts)
        survivors, _stats = arbitrate_clusters(grid, results)
        assert survivors
        assert all(cc.witness == () for cc in survivors)


class TestWarmEcoStitch:
    """A warm ECO run, which re-arbitrates every cluster over replayed
    tile results, gives a report byte-identical to a cold run."""

    @pytest.mark.parametrize("name,tiles", ECO_CASES)
    def test_warm_report_byte_identical_to_cold(self, tech, name,
                                                tiles):
        base = build_design(name)
        edited, _ = propose_eco_edit(base, tech)
        cold = run_pipeline(edited, tech, PipelineConfig(tiles=tiles),
                            cache=ArtifactCache())
        eco = run_eco_flow(base, edited, tech,
                           config=PipelineConfig(tiles=tiles))
        assert canonical(eco.result) == canonical(cold)


class TestExecutorEquivalence:
    def test_all_backends_produce_identical_reports(self, tech):
        """--executor serial|process: same chip report, under the
        shortest-path T-join engine (forked workers inherit it)."""
        from ..oracles import use_paths_engine

        layout = standard_cell_layout(seed=21)
        with use_paths_engine():
            reports = {
                name: run_chip_flow(layout, tech, tiles=2, jobs=2,
                                    executor=name)
                for name in ("serial", "process")}
        keys = {name: [c.key for c in r.conflicts]
                for name, r in reports.items()}
        assert keys["serial"] == keys["process"]
        assert {r.executor for r in reports.values()} \
            == {"serial", "process"}
