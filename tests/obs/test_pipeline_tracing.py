"""End-to-end tracing of the staged pipeline.

The contracts under test:

* a traced tiled flow yields one ``flow`` root covering all five
  stages, with per-tile / per-cluster / per-window child spans under
  the stages that do that work, and one recolor and one verify span
  under the assign stage;
* stage span attributes agree *exactly* with the counters
  ``pipeline_dict`` reports (one source of truth, two views), and each
  stage span records the process's RSS high-water mark at its exit;
* serial and process executors produce structurally identical
  traces — same names, nesting, and attributes, timing aside —
  because worker measurements are merged back into the tree.
"""

import pytest

from repro.bench import build_design
from repro.core import pipeline_dict
from repro.layout import Technology
from repro.obs import Tracer, use_tracer
from repro.obs.export import iter_spans
from repro.pipeline import PipelineConfig, run_pipeline

TILES = (2, 2)


@pytest.fixture(scope="module")
def tech():
    return Technology.node_90nm()


@pytest.fixture(scope="module")
def layout():
    return build_design("D2")


def traced_run(layout, tech, executor="serial", jobs=1):
    tracer = Tracer()
    config = PipelineConfig(tiles=TILES, jobs=jobs, executor=executor)
    with use_tracer(tracer):
        pipe = run_pipeline(layout, tech, config)
    return tracer, pipe


def span_names(tracer):
    return [(s.name, s.cat, depth)
            for s, depth in iter_spans(tracer.roots)]


class TestFlowTrace:
    def test_flow_root_covers_all_five_stages(self, layout, tech):
        tracer, _pipe = traced_run(layout, tech)
        assert len(tracer.roots) == 1
        flow = tracer.roots[0]
        assert (flow.name, flow.cat) == ("flow", "flow")
        stages = [c.name for c in flow.children if c.cat == "stage"]
        assert stages == ["shifters", "detect", "correct", "verify",
                          "assign"]
        # Every stage's span window nests inside the flow's.
        for stage in flow.children:
            assert flow.t0 <= stage.t0 <= stage.t1 <= flow.t1

    def test_work_spans_hang_under_their_stages(self, layout, tech):
        tracer, pipe = traced_run(layout, tech)
        flow = tracer.roots[0]
        by_name = {c.name: c for c in flow.children}

        # The front end is one chip-wide pass: no per-tile spans.
        assert by_name["shifters"].children == []

        detect_tiles = [s for s, _ in iter_spans([by_name["detect"]])
                        if s.cat == "tile"]
        assert len(detect_tiles) == TILES[0] * TILES[1]
        assert all("tile" in s.attrs and "cached" in s.attrs
                   for s in detect_tiles)

        clusters = [s for s, _ in iter_spans([by_name["detect"]])
                    if s.cat == "stitch-cluster"]
        assert len(clusters) == pipe.detection.chip.clusters

        windows = [s for s, _ in iter_spans([by_name["correct"]])
                   if s.cat == "window"]
        assert len(windows) == len(pipe.correction.report.windows)

        # One recolor and one verify span per assign stage; their
        # recomputed / replayed counts are the store's own misses /
        # hits for the two kinds (cold run: every component both
        # recolored and verified).
        spans = {s.name: s.attrs for s, _ in iter_spans([by_name["assign"]])
                 if s.cat == "component"}
        assert set(spans) == {"recolor", "verify"}
        for name, kind in (("recolor", "coloring"), ("verify", "verify")):
            hits, misses = pipe.phase.cache_delta[kind]
            assert spans[name] == {"components": pipe.phase.components,
                                   "recomputed": misses, "replayed": hits}
            assert misses == pipe.phase.components > 0

    def test_stages_record_the_rss_high_water(self, layout, tech):
        tracer, _pipe = traced_run(layout, tech)
        flow = tracer.roots[0]
        peaks = [c.peak_rss_mb for c in flow.children]
        # A high-water mark only rises, stage after stage, and only
        # stage spans carry one.
        assert all(peak > 0 for peak in peaks)
        assert peaks == sorted(peaks)
        assert flow.peak_rss_mb is None
        assert all(s.peak_rss_mb is None
                   for s, _ in iter_spans(flow.children) if s.cat != "stage")

    def test_stage_attrs_match_pipeline_dict_exactly(self, layout,
                                                     tech):
        tracer, pipe = traced_run(layout, tech)
        report = pipeline_dict(pipe)
        stages = {c.name: c.attrs for c in tracer.roots[0].children}

        assert stages["shifters"] == {
            "tiled": report["tiled"],
            "shifters": len(pipe.front.shifters)}
        assert (stages["detect"]["cache_hits"]
                == report["detect_cache"]["hits"])
        assert (stages["detect"]["cache_misses"]
                == report["detect_cache"]["misses"])
        assert (stages["verify"]["cache_hits"]
                == report["verify_cache"]["hits"])
        assert (stages["verify"]["front_reused"]
                == report["front_reused_for_verify"])
        phase = report["phase"]
        assert stages["assign"]["components"] == phase["components"]
        assert (stages["assign"]["coloring_hits"]
                == phase["coloring"]["hits"])
        assert stages["assign"]["recolored"] == phase["coloring"]["misses"]
        assert stages["assign"]["verify_hits"] == phase["verify"]["hits"]
        assert stages["assign"]["verified"] == phase["verify"]["misses"]

    def test_cache_metrics_match_store_deltas(self, layout, tech):
        tracer, pipe = traced_run(layout, tech)
        counters = tracer.metrics.as_dict()["counters"]
        # The whole-run tile-kind delta equals the two detect passes'
        # artifact counters summed (what pipeline_dict reports).
        report = pipeline_dict(pipe)
        assert (counters.get("cache.tile.misses", 0)
                == report["detect_cache"]["misses"]
                + report["verify_cache"]["misses"])
        # The front end, stitch clusters and correction windows never
        # reach the store.
        assert {key.split(".")[1] for key in counters
                if key.startswith("cache.")} \
            == {"tile", "coloring", "verify"}


class TestExecutorEquivalence:
    def structure(self, tracer):
        """Names, categories, nesting, and attrs — timing excluded.

        Work spans within one parent are order-normalized: executors
        may legitimately complete tiles in any order.
        """

        backend = {"executor", "workers"}  # names the backend itself

        def norm(span):
            attrs = {k: v for k, v in span.attrs.items()
                     if k not in backend}
            children = sorted((norm(c) for c in span.children),
                              key=lambda r: repr(r))
            return (span.name, span.cat, tuple(sorted(attrs.items(),
                                                      key=repr)),
                    tuple(children))

        return sorted((norm(r) for r in tracer.roots), key=repr)

    def test_trace_structure_identical_across_executors(self, layout,
                                                        tech):
        serial, _ = traced_run(layout, tech, executor="serial", jobs=1)
        other, _ = traced_run(layout, tech, executor="process", jobs=2)
        # Worker lanes differ (tid), but the tree itself must not.
        assert self.structure(serial) == self.structure(other)

    def test_worker_measurements_are_merged(self, layout, tech):
        tracer, _ = traced_run(layout, tech, executor="process", jobs=2)
        tiles = [s for s, _ in iter_spans(tracer.roots)
                 if s.cat == "tile" and not s.attrs.get("cached")]
        assert tiles, "computed tiles must appear in the trace"
        for tile in tiles:
            assert tile.seconds > 0.0
            assert tile.tid >= 1
