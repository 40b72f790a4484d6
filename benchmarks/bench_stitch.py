"""Incremental stitching at full-chip scale: cold vs warm arbitration.

The obligations the unit suite asserts on D1-D3, pushed to the
45K-polygon D8 design:

(a) a warm re-run replays every stitch-cluster verdict from the store
    (zero re-arbitrations) and produces the identical chip report;
(b) after the canonical single-feature ECO edit, only the clusters
    with a dirty contributing tile re-arbitrate — zero clean-cluster
    re-arbitrations, cluster by cluster;
(c) the warm arbitration pass itself is measurably cheaper than the
    cold one (the timed rows below).

Run with ``pytest benchmarks/bench_stitch.py --benchmark-only -s``.
"""

import time

from repro.bench import build_design
from repro.cache import KIND_STITCH, ArtifactCache, cache_delta
from repro.chip import (
    arbitrate_clusters,
    detect_tile,
    make_jobs,
    tile_cache_key,
)
from repro.chip.partition import partition_layout
from repro.pipeline import plan_eco, propose_eco_edit


def arbitrate_counted(grid, results, keys, store):
    """:func:`arbitrate_clusters` plus the store's ``stitch``-kind
    ``(replayed, re-arbitrated)`` cluster counts for the call."""
    with cache_delta(store) as delta:
        survivors, stats = arbitrate_clusters(grid, results, keys, store)
    return survivors, stats, delta.get(KIND_STITCH, (0, 0))


def test_stitch_warm_replay_d8(benchmark, tech, collect_row):
    """Cold arbitration populates the store; the warm pass replays
    every verdict and returns identical survivors."""
    lay = build_design("D8")
    grid = partition_layout(lay, tech)  # the auto grid ECO runs use
    jobs = make_jobs(grid.tiles, tech)
    keys = [tile_cache_key(j) for j in jobs]
    results = [detect_tile(j) for j in jobs]
    store = ArtifactCache()

    t0 = time.perf_counter()
    cold, cold_stats, (cold_hits, cold_misses) = arbitrate_counted(
        grid, results, keys, store)
    cold_s = time.perf_counter() - t0
    assert cold_hits == 0
    assert cold_misses == cold_stats.clusters > 0

    warm, warm_stats, (warm_hits, warm_misses) = benchmark.pedantic(
        lambda: arbitrate_counted(grid, results, keys, store),
        rounds=1, iterations=1)
    assert warm_misses == 0
    assert warm_hits == cold_stats.clusters
    assert [(c.a, c.b, c.weight) for c in warm] \
        == [(c.a, c.b, c.weight) for c in cold]

    collect_row("Incremental stitching — cold vs warm arbitration", {
        "design": "D8",
        "polygons": lay.num_polygons,
        "grid": f"{grid.nx}x{grid.ny}",
        "clusters": cold_stats.clusters,
        "cold_s": round(cold_s, 3),
        "warm": f"{warm_hits}/{cold_stats.clusters} replayed",
    })


def test_stitch_eco_dirty_clusters_only_d8(benchmark, tech,
                                           collect_row):
    """After the canonical edit, exactly the clusters touching a
    dirty tile re-arbitrate."""
    base = build_design("D8")
    edited, _index = propose_eco_edit(base, tech)
    grid = partition_layout(base, tech)
    plan = plan_eco(base, edited, tech,
                    tiles=(grid.nx, grid.ny))
    store = ArtifactCache()

    jobs = make_jobs(grid.tiles, tech)
    keys = [tile_cache_key(j) for j in jobs]
    results = [detect_tile(j) for j in jobs]
    arbitrate_clusters(grid, results, keys, store)

    egrid = partition_layout(edited, tech, tiles=(grid.nx, grid.ny))
    ejobs = make_jobs(egrid.tiles, tech)
    ekeys = [tile_cache_key(j) for j in ejobs]
    eresults = [detect_tile(j) for j in ejobs]

    _, warm_stats, (warm_hits, warm_misses) = benchmark.pedantic(
        lambda: arbitrate_counted(egrid, eresults, ekeys, store),
        rounds=1, iterations=1)

    dirty_tiles = set(plan.dirty)
    dirty_clusters = sum(
        1 for s in warm_stats.cluster_stats
        if any(t in dirty_tiles for t in s.tiles))
    assert warm_misses == dirty_clusters
    assert warm_hits == warm_stats.clusters - dirty_clusters
    # Zero clean-cluster re-arbitrations, cluster by cluster.
    for s in warm_stats.cluster_stats:
        assert s.replayed == (not any(t in dirty_tiles
                                      for t in s.tiles)), s

    collect_row("Incremental stitching — cold vs warm arbitration", {
        "design": "D8 (eco)",
        "polygons": base.num_polygons,
        "grid": f"{egrid.nx}x{egrid.ny}",
        "clusters": warm_stats.clusters,
        "cold_s": "-",
        "warm": f"{warm_hits}/{warm_stats.clusters} "
                f"replayed ({dirty_clusters} dirty)",
    })
