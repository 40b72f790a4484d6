"""Tile-scoped incremental front end at full-chip scale.

The obligations the unit suite asserts on D1-D3, pushed to the
45K-polygon D8 design:

(a) the spliced per-tile front end equals the monolithic
    ``generate_shifters`` + ``find_overlap_pairs`` pass exactly —
    shifter by shifter (ids included) and pair by pair;
(b) a warm ECO run regenerates shifters only for dirty tiles — zero
    clean-tile front-end regenerations, with the final report
    byte-identical to a cold run (covered jointly with
    ``bench_eco.py``'s D8 speedup case).

Run with ``pytest benchmarks/bench_frontend.py --benchmark-only -s``.
"""

from repro.bench import build_design
from repro.cache import KIND_FRONTEND, ArtifactCache, cache_delta
from repro.chip.partition import partition_layout
from repro.conflict import layout_front_end
from repro.shifters import tiled_front_end


def assert_front_ends_equal(got, expected):
    got_s, got_p = got
    exp_s, exp_p = expected
    assert len(got_s) == len(exp_s)
    for a, b in zip(got_s, exp_s):
        assert (a.id, a.feature_index, a.side, a.rect) \
            == (b.id, b.feature_index, b.side, b.rect)
    assert got_p == exp_p


def counted_front_end(lay, tech, tiles, store):
    """:func:`tiled_front_end` plus the store's ``frontend``-kind
    ``(hits, misses)`` for the call."""
    with cache_delta(store) as delta:
        shifters, pairs = tiled_front_end(lay, tech, tiles, store)
    return (shifters, pairs, *delta.get(KIND_FRONTEND, (0, 0)))


def test_frontend_equivalence_d8(benchmark, tech, collect_row):
    """Tiled == monolithic on the full chip, and a warm replay is
    all-hits."""
    lay = build_design("D8")
    mono = layout_front_end(lay, tech)
    grid = partition_layout(lay, tech)  # the auto grid ECO runs use
    store = ArtifactCache()

    s, p, hits, misses = benchmark.pedantic(
        lambda: counted_front_end(lay, tech, grid.tiles, store),
        rounds=1, iterations=1)
    assert (hits, misses) == (0, grid.num_tiles)
    assert_front_ends_equal((s, p), mono)

    ws, wp, whits, wmisses = counted_front_end(lay, tech, grid.tiles,
                                               store)
    assert (whits, wmisses) == (grid.num_tiles, 0)
    assert_front_ends_equal((ws, wp), mono)

    collect_row("Incremental front end — tiled vs monolithic", {
        "design": "D8",
        "polygons": lay.num_polygons,
        "grid": f"{grid.nx}x{grid.ny}",
        "shifters": len(s),
        "pairs": len(p),
        "equal": "exact",
        "warm": f"{whits}/{grid.num_tiles} replayed",
    })
