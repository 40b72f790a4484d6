"""Span tracer mechanics: nesting, recording, the disabled default."""

import threading
from unittest import mock

from repro.obs import (
    NullTracer,
    Tracer,
    get_tracer,
    set_tracer,
    use_tracer,
)
from repro.obs.trace import NULL_SPAN


class TestSpanTree:
    def test_nesting_follows_with_blocks(self):
        tracer = Tracer()
        with tracer.span("flow", cat="flow"):
            with tracer.span("stage", cat="stage"):
                with tracer.span("tile", cat="tile", tile=[0, 0]):
                    pass
                with tracer.span("tile", cat="tile", tile=[1, 0]):
                    pass
            with tracer.span("stage2", cat="stage"):
                pass
        assert len(tracer.roots) == 1
        flow = tracer.roots[0]
        assert flow.name == "flow"
        assert [c.name for c in flow.children] == ["stage", "stage2"]
        stage = flow.children[0]
        assert [c.name for c in stage.children] == ["tile", "tile"]
        assert stage.children[0].attrs["tile"] == [0, 0]

    def test_timing_is_monotone_and_contained(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                sum(range(1000))
        assert outer.t1 is not None and inner.t1 is not None
        assert outer.t0 <= inner.t0 <= inner.t1 <= outer.t1
        assert outer.seconds >= inner.seconds >= 0.0
        assert outer.cpu >= 0.0

    def test_set_updates_attrs_and_chains(self):
        tracer = Tracer()
        with tracer.span("s", k=1) as span:
            assert span.set(k=2, extra="x") is span
        assert span.attrs == {"k": 2, "extra": "x"}

    def test_sequential_roots_form_a_forest(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        assert [s.name for s in tracer.roots] == ["a", "b"]

    def test_exception_still_closes_and_attaches(self):
        tracer = Tracer()
        try:
            with tracer.span("outer"):
                with tracer.span("inner"):
                    raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert len(tracer.roots) == 1
        assert tracer.roots[0].children[0].name == "inner"
        assert tracer.roots[0].t1 is not None

    def test_threads_get_independent_stacks(self):
        tracer = Tracer()

        def work(n):
            with tracer.span("worker", n=n):
                pass

        threads = [threading.Thread(target=work, args=(i,))
                   for i in range(4)]
        with tracer.span("main"):
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        # Worker spans ran on their own stacks: they are roots, not
        # children of the main thread's open span.
        names = sorted(s.name for s in tracer.roots)
        assert names == ["main"] + ["worker"] * 4


class TestRecord:
    def test_record_places_span_on_epoch_timeline(self):
        import time

        tracer = Tracer()
        started = time.time()
        time.sleep(0.01)
        with tracer.span("execute"):
            span = tracer.record("tile", 0.5, cat="tile", cpu=0.4,
                                 start_unix=started, tid=2,
                                 tile=[1, 1])
        assert tracer.roots[0].children[0] is span
        assert span.t0 >= 0.0
        assert abs(span.seconds - 0.5) < 1e-9
        assert span.cpu == 0.4
        assert span.tid == 2

    def test_record_without_start_ends_now(self):
        tracer = Tracer()
        span = tracer.record("tile", 0.25)
        assert span.t0 >= 0.0
        assert abs(span.seconds - 0.25) < 1e-9
        assert tracer.roots == [span]


class TestNullTracer:
    def test_default_global_tracer_is_disabled(self):
        assert get_tracer().enabled is False

    def test_null_tracer_retains_nothing(self):
        tracer = NullTracer()
        with tracer.span("flow", design="D3") as span:
            span.set(more=1)
        assert span is NULL_SPAN
        assert tracer.record("tile", 1.0) is None
        tracer.count("cache.tile.hits")
        tracer.gauge("executor.workers", 4)
        assert tracer.roots == ()
        assert tracer.metrics.as_dict() == {"counters": {}, "gauges": {}}

    def test_null_tracer_never_reads_rusage(self):
        """Only a live tracer's stage spans read the RSS high-water
        mark; the default null tracer makes no system call for it."""
        import resource

        with mock.patch.object(resource, "getrusage",
                               side_effect=AssertionError) as getrusage:
            with NullTracer().span("detect", cat="stage") as span:
                pass
        assert span.peak_rss_mb is None
        assert not getrusage.called

    def test_live_stage_span_reads_rusage_at_exit(self):
        tracer = Tracer()
        with tracer.span("flow", cat="flow") as flow:
            with tracer.span("detect", cat="stage") as stage:
                with tracer.span("tile", cat="tile") as tile:
                    pass
        assert stage.peak_rss_mb > 0
        assert flow.peak_rss_mb is None and tile.peak_rss_mb is None

    def test_use_tracer_installs_and_restores(self):
        before = get_tracer()
        live = Tracer()
        with use_tracer(live):
            assert get_tracer() is live
        assert get_tracer() is before

    def test_use_tracer_restores_on_exception(self):
        before = get_tracer()
        try:
            with use_tracer(Tracer()):
                raise ValueError
        except ValueError:
            pass
        assert get_tracer() is before

    def test_set_tracer_none_restores_null(self):
        previous = set_tracer(None)
        try:
            assert get_tracer().enabled is False
        finally:
            set_tracer(previous)
