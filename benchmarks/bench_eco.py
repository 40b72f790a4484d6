"""Incremental ECO pipeline: warm dirty-tile re-run vs cold full run.

The claim under test: after a single-feature edit, re-running the
staged pipeline against the base run's content-addressed tile cache
(a) produces *exactly* the cold run's conflicts, cuts, and phase
assignment, (b) recomputes only the tiles whose capture window
intersects the edit, and (c) beats the cold wall-clock by >= 3x on
the full-chip design D8 under the flow's default configuration (tile
detection dominates).

Run with ``pytest benchmarks/bench_eco.py --benchmark-only -s``.
"""

import json
import os

from repro.bench import build_design
from repro.cache import KIND_TILE, ArtifactCache
from repro.core import flow_result_dict, flow_result_from_pipeline
from repro.pipeline import (
    PipelineConfig,
    propose_eco_edit,
    run_eco_flow,
    run_pipeline,
)

JOBS = os.cpu_count() or 1


def domain_report(pipe) -> str:
    """Conflicts/cuts/phases as canonical JSON (cache stats excluded)."""
    data = flow_result_dict(flow_result_from_pipeline(pipe),
                            timings=False)
    data.pop("pipeline", None)
    return json.dumps(data, sort_keys=True)


def eco_row(name, eco) -> dict:
    return {
        "design": name,
        "grid": f"{eco.plan.grid.nx}x{eco.plan.grid.ny}",
        "dirty": f"{eco.plan.num_dirty}/{eco.plan.num_tiles}",
        "t_cold_s": round(eco.base_seconds, 2),
        "t_eco_s": round(eco.eco_seconds, 2),
        "speedup": round(eco.speedup, 2),
    }


def test_eco_equivalence_d5(benchmark, tech, collect_row):
    """Warm result == cold result on the edited layout, bit for bit."""
    base = build_design("D5")
    edited, _index = propose_eco_edit(base, tech)
    # Explicit grid: D5 is small enough that the auto heuristic would
    # pick one tile, which leaves nothing to replay.
    config = PipelineConfig(jobs=JOBS, tiles=4)

    eco = benchmark.pedantic(
        lambda: run_eco_flow(base, edited, tech, config=config),
        rounds=1, iterations=1)

    grid = (eco.plan.grid.nx, eco.plan.grid.ny)
    cold = run_pipeline(edited, tech, PipelineConfig(jobs=JOBS, tiles=grid),
                        cache=ArtifactCache())
    assert domain_report(eco.result) == domain_report(cold)
    assert eco.result.detection.cache_delta[KIND_TILE] \
        == (eco.plan.num_clean, eco.plan.num_dirty)
    assert 0 < eco.plan.num_dirty < eco.plan.num_tiles
    collect_row("Incremental ECO — warm dirty-tile re-run vs cold",
                eco_row("D5", eco))


def test_eco_speedup_d8(benchmark, tech, collect_row):
    """The headline number: >= 3x on the 45K-polygon full chip."""
    base = build_design("D8")
    edited, _index = propose_eco_edit(base, tech)
    config = PipelineConfig(jobs=JOBS)

    eco = benchmark.pedantic(
        lambda: run_eco_flow(base, edited, tech, config=config),
        rounds=1, iterations=1)

    detect = eco.result.detection.cache_delta
    assert detect[KIND_TILE] == (eco.plan.num_clean, eco.plan.num_dirty)
    assert 0 < eco.plan.num_dirty < eco.plan.num_tiles
    # Same machinery as the D5 equivalence case; here the cheap proxy
    # (identical conflict sets between the base and the
    # conflict-neutral edit) avoids paying a second full cold run.
    assert ({c.key for c in eco.result.detection.report.conflicts}
            == {c.key for c in eco.base.detection.report.conflicts})
    collect_row("Incremental ECO — warm dirty-tile re-run vs cold",
                eco_row("D8", eco))
    assert eco.speedup >= 3.0


def test_eco_cache_accumulates_across_edits(benchmark, tech,
                                            collect_row):
    """A second edit elsewhere reuses the first ECO's tiles too: the
    cache accumulates across revisions, not just base vs edited."""
    base = build_design("D5")
    config = PipelineConfig(jobs=JOBS, tiles=4)
    first, _ = propose_eco_edit(base, tech, candidate=0)
    second, _ = propose_eco_edit(base, tech, candidate=1)

    cache = ArtifactCache()
    eco1 = run_eco_flow(base, first, tech, config=config, cache=cache)

    eco2 = benchmark.pedantic(
        lambda: run_eco_flow(first, second, tech, config=config,
                             cache=cache, warm_base=False),
        rounds=1, iterations=1)
    eco2.base_seconds = eco1.base_seconds  # cold baseline for the row
    collect_row("Incremental ECO — warm dirty-tile re-run vs cold",
                eco_row("D5 (2nd edit)", eco2))
    # `second` differs from `first` by two features (each edit), so at
    # most the union of both dirty sets recomputes.
    assert (eco2.result.detection.cache_delta[KIND_TILE][1]
            <= eco2.plan.num_dirty)
