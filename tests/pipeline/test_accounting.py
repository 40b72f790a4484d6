"""Cache accounting: every per-pass figure is the store's own count.

Each stage records the store's per-kind delta over its own work
(:func:`repro.cache.cache_delta`), and stages touch disjoint kinds.  So
the per-pass figures of a ``pipeline`` report block must add up, kind
by kind, to what the store itself counted over the run — measured here
independently, from two :meth:`~repro.cache.ArtifactCache.counters`
snapshots around the run.
"""

import pytest

from repro.bench import build_design
from repro.cache import ARTIFACT_KINDS, ArtifactCache
from repro.core.report import pipeline_dict
from repro.pipeline import (
    PipelineConfig,
    propose_eco_edit,
    run_eco_flow,
    run_pipeline,
)
from repro.scenarios import build_scenario, stratum_names

# The per-pass figures of a pipeline block, by the kind they count.
PASS_FIGURES = {
    "tile": [("detect_cache",), ("verify_cache",)],
    "coloring": [("phase", "coloring")],
    "verify": [("phase", "verify")],
}

# The whole-run figures, by kind.
RUN_FIGURES = {"tile": "cache"}

SMOKE_CORPUS = [(stratum, seed) for stratum in stratum_names()
                for seed in range(3)]

# D3 at tiles=3 over one store — a cold run, a warm replay, then the
# canonical ECO edit — as (hits, misses) per figure, pinned to what the
# flow reported before per-pass figures were read off the store.
D3_RUNS = {
    "cold": dict(detect_cache=(0, 9), verify_cache=(0, 9), cache=(0, 18),
                 coloring=(0, 114), verify=(0, 114)),
    "warm": dict(detect_cache=(9, 0), verify_cache=(9, 0), cache=(18, 0),
                 coloring=(114, 0), verify=(114, 0)),
    "eco": dict(detect_cache=(8, 1), verify_cache=(8, 1), cache=(16, 2),
                coloring=(114, 0), verify=(114, 0)),
}


def counted(store, run):
    """``run()``'s result plus the store's ``(hits, misses)`` per kind
    over the call, from two counter snapshots."""
    before = store.counters()
    result = run()
    after = store.counters()
    delta = {}
    for kind in ARTIFACT_KINDS:
        hits, misses = after.get(kind, (0, 0))
        hits0, misses0 = before.get(kind, (0, 0))
        delta[kind] = (hits - hits0, misses - misses0)
    return result, delta


def assert_adds_up(block, delta):
    """Per-pass figures sum to the store's delta, kind by kind, and so
    do the whole-run figures."""
    for kind, paths in PASS_FIGURES.items():
        figures = []
        for path in paths:
            figure = block
            for key in path:
                figure = figure[key]
            figures.append(figure)
        assert (sum(f["hits"] for f in figures),
                sum(f["misses"] for f in figures)) == delta[kind], kind
    for kind, key in RUN_FIGURES.items():
        assert (block[key]["hits"], block[key]["misses"]) \
            == delta[kind], key


def figure(hits, misses):
    total = hits + misses
    return {"hits": hits, "misses": misses, "requests": total,
            "hit_rate": hits / total if total else 0.0}


def pinned_block(pins):
    pins = dict(pins)
    phase = {"incremental": True, "components": 114,
             "coloring": figure(*pins.pop("coloring")),
             "verify": figure(*pins.pop("verify"))}
    block = {key: figure(*counts) for key, counts in pins.items()}
    block.update(tiled=True, front_reused_for_verify=False,
                 executor="serial", phase=phase)
    return block


@pytest.mark.parametrize("stratum,seed", SMOKE_CORPUS)
def test_smoke_corpus_cold_then_warm(stratum, seed):
    scenario = build_scenario(stratum, seed)
    store = ArtifactCache()
    config = PipelineConfig(tiles=(2, 2))

    def run():
        return pipeline_dict(run_pipeline(scenario.layout, scenario.tech,
                                          config, cache=store),
                             timings=False)

    cold, cold_delta = counted(store, run)
    warm, warm_delta = counted(store, run)
    assert_adds_up(cold, cold_delta)
    assert_adds_up(warm, warm_delta)
    # The warm replay recomputes nothing: every request it makes — the
    # cold run's requests, replays included (a verify pass after no
    # cuts replays the detect pass's tiles even cold) — is a hit.
    for kind in ARTIFACT_KINDS:
        assert warm_delta[kind] == (sum(cold_delta[kind]), 0), kind


def test_d3_cold_warm_eco_blocks_are_pinned(tech):
    layout = build_design("D3")
    edited, _ = propose_eco_edit(layout, tech)
    store = ArtifactCache()
    config = PipelineConfig(tiles=3)
    runs = {
        "cold": lambda: run_pipeline(layout, tech, config, cache=store),
        "warm": lambda: run_pipeline(layout, tech, config, cache=store),
        "eco": lambda: run_eco_flow(layout, edited, tech, config=config,
                                    cache=store, warm_base=False).result,
    }
    for label, run in runs.items():
        pipe, delta = counted(store, run)
        block = pipeline_dict(pipe, timings=False)
        assert block == pinned_block(D3_RUNS[label]), label
        assert_adds_up(block, delta)


@pytest.mark.parametrize("design", ["D2", "D3"])
def test_warm_rerun_over_a_written_store_hits_every_entry(tech, tmp_path,
                                                          design):
    """A store written to disk by one run replays in full for a fresh
    store over the same directory: every ``tile``, ``coloring`` and
    ``verify`` request hits (the artifacts survive pickling), and the
    answer is unchanged."""
    from repro.core.flow import flow_result_from_pipeline
    from repro.scenarios import report_key

    layout = build_design(design)
    config = PipelineConfig(tiles=3)
    written = ArtifactCache(str(tmp_path))
    cold, cold_delta = counted(written, lambda: run_pipeline(
        layout, tech, config, cache=written))
    fresh = ArtifactCache(str(tmp_path))
    warm, warm_delta = counted(fresh, lambda: run_pipeline(
        layout, tech, config, cache=fresh))
    for kind in ARTIFACT_KINDS:
        assert cold_delta[kind][1] > 0, kind
        assert warm_delta[kind] == (sum(cold_delta[kind]), 0), kind
    assert report_key(flow_result_from_pipeline(warm)) \
        == report_key(flow_result_from_pipeline(cold))
