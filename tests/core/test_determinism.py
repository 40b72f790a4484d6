"""Determinism regression: seeded generation + full flow is byte-stable.

The whole stack — generator RNG, shifter generation, tie-free detection
weights, window-scoped set cover, snapping — must be a pure function of
(design, seed), so two independent runs serialize to byte-identical
JSON once wall-clock fields are omitted (``timings=False``).
"""

import json

import pytest

from repro.bench import build_design
from repro.cache import ArtifactCache
from repro.core import (
    flow_result_dict,
    flow_result_from_pipeline,
    run_aapsm_flow,
)
from repro.pipeline import PipelineConfig, run_pipeline


def report_bytes(result) -> bytes:
    return json.dumps(flow_result_dict(result, timings=False),
                      sort_keys=True).encode()


class TestFlowDeterminism:
    @pytest.mark.parametrize("name,seed", [("D1", 7), ("D2", 9)])
    def test_seeded_flow_byte_identical(self, tech, name, seed):
        """`generate --seed N` + full flow, twice, from scratch."""
        runs = []
        for _ in range(2):
            layout = build_design(name, seed=seed)
            runs.append(report_bytes(run_aapsm_flow(layout, tech)))
        assert runs[0] == runs[1]

    def test_tiled_run_matches_monolithic_bytes(self, tech):
        """The tiled pipeline serializes to the same domain report as
        the monolithic flow.  Excluded: cache accounting and the
        graph-shape counters (nodes/edges/crossings/step counts), which
        the stitcher documents as per-tile work sums over
        halo-duplicated structure, not chip-graph sizes."""
        layout = build_design("D2", seed=9)
        mono = flow_result_dict(run_aapsm_flow(layout, tech),
                                timings=False)
        tiled_pipe = run_pipeline(layout, tech, PipelineConfig(tiles=3),
                                  cache=ArtifactCache())
        tiled = flow_result_dict(flow_result_from_pipeline(tiled_pipe),
                                 timings=False)
        work_counters = ("graph_nodes", "graph_edges",
                         "crossings_removed", "step2_edges",
                         "step2_weight", "step3_edges")
        for report in (mono, tiled):
            report.pop("pipeline")
            for section in ("detection", "post_detection"):
                for key in work_counters:
                    report[section].pop(key)
        assert json.dumps(mono, sort_keys=True) \
            == json.dumps(tiled, sort_keys=True)

    def test_timings_flag_controls_wall_clock_fields(self, tech):
        layout = build_design("D1", seed=7)
        result = run_aapsm_flow(layout, tech)
        with_t = flow_result_dict(result, timings=True)
        without = flow_result_dict(result, timings=False)
        assert "detect_seconds" in with_t["detection"]
        assert "detect_seconds" not in without["detection"]
        assert "stage_seconds" in with_t["pipeline"]
        assert "stage_seconds" not in without["pipeline"]

    def test_seed_changes_report(self, tech):
        a = run_aapsm_flow(build_design("D1", seed=7), tech)
        b = run_aapsm_flow(build_design("D1", seed=8), tech)
        assert report_bytes(a) != report_bytes(b)
