"""Full-chip tiling: monolithic vs tiled/parallel/cached detection.

The claim under test: ``repro.chip`` turns the monolithic detection
flow into a tiled, multi-process, cacheable one *without changing the
answer* — identical conflict counts — while beating the monolithic
wall-clock on the largest full-chip design, and turning re-runs into
cache hits.

Run with ``pytest benchmarks/bench_chip_tiling.py --benchmark-only -s``.
"""

import os

import pytest

from repro.bench import build_design
from repro.cache import KIND_TILE
from repro.chip import run_chip_flow
from repro.conflict import detect_conflicts

# The largest design of bench_fullchip_scaling, plus a mid-size control.
DESIGNS = ["D5", "D8"]
JOBS = os.cpu_count() or 1


@pytest.mark.parametrize("name", DESIGNS)
def test_tiled_matches_and_beats_monolithic(benchmark, tech, collect_row,
                                            name):
    layout = build_design(name)

    def compare():
        mono = detect_conflicts(layout, tech)
        chip = run_chip_flow(layout, tech, jobs=JOBS)
        return mono, chip

    mono, chip = benchmark.pedantic(compare, rounds=1, iterations=1)
    speedup = mono.detect_seconds / max(chip.wall_seconds, 1e-9)
    collect_row("Full-chip tiling — monolithic vs tiled", {
        "design": name,
        "polygons": mono.num_features,
        "grid": f"{chip.nx}x{chip.ny}",
        "jobs": chip.jobs,
        "conflicts_mono": mono.num_conflicts,
        "conflicts_tiled": chip.num_conflicts,
        "t_mono_s": round(mono.detect_seconds, 2),
        "t_tiled_s": round(chip.wall_seconds, 2),
        "speedup": round(speedup, 2),
    })
    # The subsystem's contract: identical conflict counts.
    assert chip.num_conflicts == mono.num_conflicts
    assert {c.key for c in chip.conflicts} == \
        {c.key for c in mono.conflicts}
    if name == "D8":
        # Tiled detection must beat monolithic wall-clock on the
        # full-chip design (even single-core: smaller tiles dodge the
        # monolithic flow's super-linear terms; multi-core adds the
        # parallel win on top).
        assert chip.wall_seconds < mono.detect_seconds


def test_warm_cache_rerun(benchmark, tech, collect_row, tmp_path):
    """An unchanged re-run (the ECO inner loop) is nearly free."""
    layout = build_design("D5")
    cache_dir = str(tmp_path / "tiles")
    cold = run_chip_flow(layout, tech, cache_dir=cache_dir)
    warm = benchmark.pedantic(
        lambda: run_chip_flow(layout, tech, cache_dir=cache_dir),
        rounds=1, iterations=1)
    collect_row("Full-chip tiling — warm cache", {
        "design": "D5",
        "t_cold_s": round(cold.wall_seconds, 2),
        "t_warm_s": round(warm.wall_seconds, 2),
        "hits": f"{warm.cache_delta[KIND_TILE][0]}/{warm.num_tiles}",
    })
    assert warm.cache_delta[KIND_TILE] == (warm.num_tiles, 0)
    assert warm.num_conflicts == cold.num_conflicts
    assert warm.wall_seconds < max(cold.wall_seconds, 0.05)
