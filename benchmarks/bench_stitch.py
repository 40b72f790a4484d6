"""Stitching cost at full-chip scale.

Every detection pass clusters the tiles' conflict views and
arbitrates every cluster afresh; nothing of it is cached.  This
measures what that costs on the 45K-polygon D8 design: cluster
formation plus arbitration over the tile results of the automatic
grid, next to the tile detection that produced them.

Run with ``pytest benchmarks/bench_stitch.py --benchmark-only -s``.
"""

import time

from repro.bench import build_design
from repro.chip import (
    arbitrate_clusters,
    build_stitch_clusters,
    detect_tile,
    make_jobs,
)
from repro.chip.partition import partition_layout


def test_stitch_cost_d8(benchmark, tech, collect_row):
    lay = build_design("D8")
    grid = partition_layout(lay, tech)  # the flow's automatic grid
    t0 = time.perf_counter()
    results = [detect_tile(j) for j in make_jobs(grid.tiles, tech)]
    detect_s = time.perf_counter() - t0

    survivors, stats = benchmark.pedantic(
        lambda: arbitrate_clusters(grid, results), rounds=5, iterations=1)
    assert stats.clusters == len(build_stitch_clusters(grid, results)) > 0
    assert survivors and all(cc.witness == () for cc in survivors)

    collect_row("Stitching cost — every cluster arbitrated per pass", {
        "design": "D8",
        "polygons": lay.num_polygons,
        "grid": f"{grid.nx}x{grid.ny}",
        "clusters": stats.clusters,
        "stitch_s": round(benchmark.stats.stats.min, 4),
        "tile_detect_s": round(detect_s, 2),
    })
