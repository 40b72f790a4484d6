"""Telemetry overhead: the disabled tracer must be free, the live
tracer cheap.

The claim under test: instrumentation is always-on in library code
(cache lookups, tiles, windows, the assign passes all call the tracer
unconditionally), so the default :class:`~repro.obs.NullTracer` must
cost a negligible fraction of a flow — the overhead guard in
``tests/obs/test_overhead.py`` bounds it below 2% by measurement; this
bench reports the end-to-end numbers alongside a fully-traced run.

Run with ``pytest benchmarks/bench_obs.py --benchmark-only -s``.
"""

from __future__ import annotations

import time

from repro.bench import build_design
from repro.obs import Tracer, use_tracer
from repro.pipeline import PipelineConfig, run_pipeline


def _flow_seconds(layout, tech, tracer=None) -> float:
    config = PipelineConfig(tiles=(3, 3), jobs=1, executor="serial")
    t0 = time.perf_counter()
    if tracer is None:
        run_pipeline(layout, tech, config)
    else:
        with use_tracer(tracer):
            run_pipeline(layout, tech, config)
    return time.perf_counter() - t0


def test_tracing_overhead_d3(benchmark, tech, collect_row):
    """Null-traced vs live-traced D3 flow, reported side by side."""
    layout = build_design("D3")
    _flow_seconds(layout, tech)  # warm imports/allocators

    benchmark.pedantic(
        lambda: _flow_seconds(layout, tech), rounds=1, iterations=1)
    null_s = min(_flow_seconds(layout, tech) for _ in range(3))
    live_s = min(_flow_seconds(layout, tech, Tracer()) for _ in range(3))
    tracer = Tracer()
    with use_tracer(tracer):
        run_pipeline(layout, tech,
                     PipelineConfig(tiles=(3, 3), jobs=1,
                                    executor="serial"))

    spans = sum(1 for _ in _walk(tracer.roots))
    collect_row("Telemetry overhead — D3 flow", {
        "design": "D3",
        "t_null_s": round(null_s, 3),
        "t_traced_s": round(live_s, 3),
        "traced_overhead": f"{(live_s / null_s - 1) * 100:+.1f}%",
        "spans": spans,
        "counters": len(tracer.metrics.as_dict()["counters"]),
    })
    assert spans > 0


def _walk(roots):
    for span in roots:
        yield span
        yield from _walk(span.children)
