"""Differential fuzzer throughput: corpus generation and the matrix.

Two costs matter for scaling the curriculum to thousands of seeds:
how fast strata *generate* (pure layout synthesis — must be cheap
enough to burn seeds freely) and how fast a scenario clears its full
invariant matrix (dominated by the flow runs the differential
context caches).  The rows print per-stratum so a regression in one
generator or one invariant is visible in isolation.

Run with ``pytest benchmarks/bench_fuzz.py --benchmark-only -s``.
"""

import pytest

from repro.scenarios import (
    build_corpus,
    build_scenario,
    run_scenario,
    stratum_names,
)


@pytest.mark.parametrize("stratum", stratum_names())
def test_stratum_generation(benchmark, stratum, collect_row):
    """Layout synthesis + content-id derivation, one seed."""
    scenario = benchmark(lambda: build_scenario(stratum, 1))
    collect_row("Fuzz: stratum generation", {
        "stratum": stratum,
        "polygons": scenario.num_polygons,
        "invariants": len(scenario.invariants),
    })


@pytest.mark.parametrize("stratum", stratum_names())
def test_stratum_matrix(benchmark, stratum, collect_row):
    """One scenario through its whole invariant matrix."""
    scenario = build_scenario(stratum, 0)
    result = benchmark.pedantic(lambda: run_scenario(scenario),
                                rounds=3, iterations=1)
    assert result.ok, [f.as_dict() for f in result.failures]
    collect_row("Fuzz: invariant matrix", {
        "stratum": stratum,
        "checks": len(result.invariants),
    })


def test_smoke_corpus_end_to_end(benchmark):
    """The CI fuzz-smoke corpus (all strata, 3 seeds) wall-clock."""
    scenarios = build_corpus(count=3, seed=0)
    assert len(scenarios) >= 15

    def run_all():
        return [run_scenario(s) for s in scenarios]

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    assert all(r.ok for r in results)
