"""Tile-scoped incremental front end: equivalence, keys, splicing.

The contract under test: per-tile front-end artifacts, spliced over
any capture-window partition, reproduce the monolithic
``generate_shifters`` + ``find_overlap_pairs`` pass *exactly* — same
dense shifter ids, same sorted pair list, same measurements — and the
``frontend`` cache keys are coordinate-anchored, so renumbering every
feature on the chip invalidates nothing.
"""

import numpy as np
import pytest

from repro.bench import build_design
from repro.cache import KIND_FRONTEND, ArtifactCache, cache_delta
from repro.chip.partition import partition_layout
from repro.conflict import layout_front_end
from repro.geometry import Rect
from repro.layout import Layout, layout_from_rects
from repro.obs import Tracer, use_tracer
from repro.pipeline import PipelineConfig, stage_front_end
from repro.scenarios.strata import build_scenario, stratum_names
from repro.shifters import (
    SpliceError,
    TileFrontEnd,
    compute_tile_front_end,
    frontend_cache_key,
    splice_front_ends,
    tiled_front_end,
)
from repro.shifters.frontend import SIDES

from ..conftest import cold_chip_layout
from ..oracles import front_end_tuples, rect_digest, scalar_owned_front_end

# The equivalence obligation: D1-D3 across assorted grids (D8 rides in
# benchmarks/bench_frontend.py, same assertion at 45K polygons).
EQUIVALENCE_CASES = [
    ("D1", 1), ("D1", 2), ("D2", 2), ("D2", 3),
    ("D3", 4), ("D3", (2, 5)),
]


def assert_front_ends_equal(got, expected):
    """Shifter-by-shifter, pair-by-pair equality (ids included)."""
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


def permuted(layout: Layout) -> Layout:
    """The same geometry with every feature index renumbered."""
    out = Layout(name=f"{layout.name}-permuted")
    for rect in reversed(layout.features):
        out.add_feature(rect)
    return out


class TestEquivalence:
    @pytest.mark.parametrize("name,tiles", EQUIVALENCE_CASES)
    def test_spliced_equals_monolithic(self, tech, name, tiles):
        lay = build_design(name)
        grid = partition_layout(lay, tech, tiles=tiles)
        s, p, hits, misses = counted_front_end(lay, tech, grid.tiles,
                                               ArtifactCache())
        assert (hits, misses) == (0, grid.num_tiles)
        assert_front_ends_equal((s, p), layout_front_end(lay, tech))

    def test_warm_replay_is_identical(self, tech):
        lay = build_design("D2")
        grid = partition_layout(lay, tech, tiles=3)
        store = ArtifactCache()
        cold = counted_front_end(lay, tech, grid.tiles, store)
        warm = counted_front_end(lay, tech, grid.tiles, store)
        assert warm[2:] == (grid.num_tiles, 0)  # all hits, no misses
        assert_front_ends_equal(warm[:2], cold[:2])
        assert_front_ends_equal(warm[:2], layout_front_end(lay, tech))

    def test_empty_layout(self, tech):
        lay = layout_from_rects([Rect(0, 0, 90, 1000)])
        grid = partition_layout(lay, tech, tiles=2)
        s, p = tiled_front_end(lay, tech, grid.tiles, ArtifactCache())
        assert_front_ends_equal((s, p), layout_front_end(lay, tech))


class TestColdChipWidePass:
    """A revision with nothing to replay derives every tile artifact
    from one chip-wide pass."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("stratum", stratum_names())
    def test_derived_artifacts_equal_per_tile_compute(self, stratum, n):
        for seed in (0, 1, 2):
            scenario = build_scenario(stratum, seed)
            lay, tech = scenario.layout, scenario.tech
            grid = partition_layout(lay, tech, tiles=n)
            store = ArtifactCache()
            s, p, hits, misses = counted_front_end(lay, tech, grid.tiles,
                                                   store)
            assert (hits, misses) == (0, grid.num_tiles)
            assert_front_ends_equal((s, p), layout_front_end(lay, tech))
            for t in grid.tiles:
                key = frontend_cache_key(t.digest, t.owner, tech)
                assert store.get(KIND_FRONTEND, key) == \
                    compute_tile_front_end(t.layout, t.owner, tech,
                                           t.ix, t.iy)

    def test_chip_wide_only_when_nothing_replays(self, tech, monkeypatch):
        """A partially warm revision regenerates only its dirty tiles,
        each on its own sub-layout."""
        from repro.shifters import frontend

        per_tile = []
        real = frontend.compute_tile_front_end

        def counting(*args, **kwargs):
            per_tile.append(args[1])
            return real(*args, **kwargs)

        monkeypatch.setattr(frontend, "compute_tile_front_end", counting)
        lay = build_design("D3")
        store = ArtifactCache()
        tracer = Tracer()
        passes = tracer.metrics.counter("frontend.chip_wide_passes")
        with use_tracer(tracer):
            grid = partition_layout(lay, tech, tiles=3)
            tiled_front_end(lay, tech, grid.tiles, store)
            assert (passes.value, per_tile) == (1, [])

            # Lengthen the feature nearest the chip's low corner: the
            # bbox holds, and only the tiles capturing it go dirty.
            edited = lay.copy()
            k = min(range(edited.num_polygons),
                    key=lambda i: sum(edited.features[i].center2))
            r = edited.features[k]
            edited.features[k] = Rect(r.x1, r.y1, r.x2, r.y2 + 2)
            regrid = partition_layout(edited, tech, tiles=3)
            s, p, hits, misses = counted_front_end(edited, tech,
                                                   regrid.tiles, store)
        assert passes.value == 1
        assert 0 < misses < regrid.num_tiles
        assert hits + misses == regrid.num_tiles
        assert len(per_tile) == misses
        assert_front_ends_equal((s, p), layout_front_end(edited, tech))

    def test_store_less_call_is_cold(self, tech):
        """The tiled stage called without a store runs over a fresh
        one: a cold revision, one chip-wide pass, every tile a miss."""
        tracer = Tracer()
        lay = build_design("D1")
        with use_tracer(tracer):
            front = stage_front_end(lay, tech, PipelineConfig(tiles=2))
        assert tracer.metrics.counter(
            "frontend.chip_wide_passes").value == 1
        assert front.cache_delta == {KIND_FRONTEND: (0, 4)}

    def test_doubly_owned_feature_rejected(self, tech):
        """The splice's exactly-one-owner check holds on the cold path
        too: overlapping owner windows are rejected, counted as a
        fallback, and the chip-wide pass is returned."""
        from types import SimpleNamespace

        lay = build_design("D1")
        wide_open = (-1 << 40, -1 << 40, 1 << 40, 1 << 40)
        tiles = [SimpleNamespace(ix=i, iy=0, layout=lay, owner=wide_open,
                                 digest=rect_digest(lay.features))
                 for i in range(2)]
        tracer = Tracer()
        with use_tracer(tracer):
            s, p = tiled_front_end(lay, tech, tiles, ArtifactCache())
        count = tracer.metrics.counter
        assert count("frontend.monolithic_fallbacks").value == 1
        assert count("frontend.chip_wide_passes").value == 1
        assert_front_ends_equal((s, p), layout_front_end(lay, tech))


class TestOwnershipPartition:
    def test_every_feature_and_pair_owned_exactly_once(self, tech):
        lay = build_design("D2")
        mono_s, mono_p = layout_front_end(lay, tech)
        grid = partition_layout(lay, tech, tiles=3)
        fronts = [compute_tile_front_end(t.layout, t.owner, tech,
                                         t.ix, t.iy)
                  for t in grid.tiles]
        assert (sum(f.num_owned_features for f in fronts)
                == len(mono_s.feature_pairs()))
        assert sum(f.num_owned_pairs for f in fronts) == len(mono_p)
        # No two tiles own the same feature (splice would raise).
        seen = set()
        for f in fronts:
            for row in f.features.tolist():
                rect = tuple(row[:4])
                assert rect not in seen
                seen.add(rect)

    def test_artifact_is_canonical_under_sublayout_order(self, tech):
        """A tile's artifact is independent of its sub-layout's
        internal feature order — the property that makes one cached
        artifact valid for every renumbering of the chip."""
        lay = build_design("D1")
        grid = partition_layout(lay, tech, tiles=2)
        tile = next(t for t in grid.tiles if t.num_features > 1)
        shuffled = Layout(name="shuffled")
        for rect in reversed(tile.layout.features):
            shuffled.add_feature(rect)
        a = compute_tile_front_end(tile.layout, tile.owner, tech)
        b = compute_tile_front_end(shuffled, tile.owner, tech)
        assert a.features.tolist() == b.features.tolist()
        assert a.pairs.tolist() == b.pairs.tolist()

    def test_empty_tile_artifact(self, tech):
        front = compute_tile_front_end(Layout(), (0, 0, 100, 100), tech)
        assert front.features.tolist() == [] and front.pairs.tolist() == []


class TestCacheKey:
    def owner_and_layout(self, tech, name="D1"):
        lay = build_design(name)
        grid = partition_layout(lay, tech, tiles=2)
        tile = next(t for t in grid.tiles if t.num_features)
        assert tile.digest == rect_digest(tile.layout.features)
        return tile.layout, tile.owner

    def test_key_covers_geometry(self, tech):
        sub, owner = self.owner_and_layout(tech)
        edited = sub.copy()
        r = edited.features[0]
        edited.features[0] = Rect(r.x1, r.y1, r.x2, r.y2 + 2)
        assert (frontend_cache_key(rect_digest(sub.features), owner, tech)
                != frontend_cache_key(rect_digest(edited.features), owner,
                                      tech))

    def test_key_covers_owner_window_and_tech(self, tech):
        sub, owner = self.owner_and_layout(tech)
        digest = rect_digest(sub.features)
        other = (owner[0] + 1, owner[1], owner[2], owner[3])
        assert (frontend_cache_key(digest, owner, tech)
                != frontend_cache_key(digest, other, tech))
        from repro.layout import Technology

        other_tech = Technology.node_65nm()
        assert (frontend_cache_key(digest, owner, tech)
                != frontend_cache_key(digest, owner, other_tech))

    def test_key_stable_under_renumbering(self, tech):
        """Permuting the chip's feature order (renumbering every
        shifter) leaves every tile's key untouched."""
        lay = build_design("D2")
        grid_a = partition_layout(lay, tech, tiles=3)
        grid_b = partition_layout(permuted(lay), tech, tiles=3)
        keys_a = [frontend_cache_key(t.digest, t.owner, tech)
                  for t in grid_a.tiles]
        keys_b = [frontend_cache_key(t.digest, t.owner, tech)
                  for t in grid_b.tiles]
        assert keys_a == keys_b

    def test_warm_replay_across_renumbering(self, tech):
        """Artifacts cached on one feature numbering replay bit-exact
        on another: the splice re-anchors coordinate keys onto the
        current layout's dense ids."""
        lay = build_design("D2")
        relay = permuted(lay)
        store = ArtifactCache()
        grid = partition_layout(lay, tech, tiles=3)
        tiled_front_end(lay, tech, grid.tiles, store)

        regrid = partition_layout(relay, tech, tiles=3)
        s, p, hits, misses = counted_front_end(relay, tech, regrid.tiles,
                                               store)
        assert (hits, misses) == (grid.num_tiles, 0)
        assert_front_ends_equal((s, p), layout_front_end(relay, tech))

    def test_persistent_roundtrip(self, tech, tmp_path):
        lay = build_design("D1")
        grid = partition_layout(lay, tech, tiles=2)
        tiled_front_end(lay, tech, grid.tiles,
                        ArtifactCache(str(tmp_path)))
        fresh = ArtifactCache(str(tmp_path))
        s, p, hits, misses = counted_front_end(lay, tech, grid.tiles,
                                               fresh)
        assert (hits, misses) == (grid.num_tiles, 0)
        assert fresh.stats(KIND_FRONTEND).hits == grid.num_tiles
        assert_front_ends_equal((s, p), layout_front_end(lay, tech))


class TestSpliceGuards:
    def test_duplicate_rects_detected(self, tech):
        r = Rect(0, 0, 90, 1000)
        lay = layout_from_rects([r, r])
        assert lay.features[0] == lay.features[1]
        with pytest.raises(SpliceError, match=r"\(0, 0, 90, 1000\)"):
            splice_front_ends(lay, [])
        # The first rect, in layout order, that was seen before is named.
        a, b = Rect(0, 0, 90, 1000), Rect(500, 0, 590, 1000)
        with pytest.raises(SpliceError, match=r"\(0, 0, 90, 1000\)"):
            splice_front_ends(layout_from_rects([a, b, a, b]), [])
        with pytest.raises(SpliceError, match=r"\(500, 0, 590, 1000\)"):
            splice_front_ends(layout_from_rects([a, b, b, a]), [])

    def test_no_duplicates_on_suite_designs(self, tech):
        """The golden designs never take the splice's recovery path."""
        for name in ("D1", "D2", "D3"):
            lay = build_design(name)
            assert len(set(lay.features)) == lay.num_polygons

    def test_stale_artifact_rejected(self, tech):
        lay = layout_from_rects([Rect(0, 0, 90, 1000)])
        left, right = SIDES.index("left"), SIDES.index("right")
        stale = TileFrontEnd(
            ix=0, iy=0,
            # A feature the layout does not contain.
            features=np.array([[5, 5, 95, 1005,
                                left, 0, 0, 5, 1010,
                                right, 95, 0, 100, 1010]]),
            pairs=np.empty((0, 13), dtype=np.int64),
        )
        with pytest.raises(SpliceError, match=r"tile\[0,0\] owns unknown "
                           r"feature \(5, 5, 95, 1005\)"):
            splice_front_ends(lay, [stale])

    def test_pair_naming_an_unowned_shifter_rejected(self, tech):
        lay = layout_from_rects([Rect(0, 0, 90, 1000)])
        wide_open = (-1 << 40, -1 << 40, 1 << 40, 1 << 40)
        front = compute_tile_front_end(lay, wide_open, tech)
        left = SIDES.index("left")
        stale = TileFrontEnd(
            ix=0, iy=0, features=front.features,
            pairs=np.array([[0, 0, 90, 1000, left,
                             7, 0, 97, 1000, left, 100, -10, 0]]))
        with pytest.raises(SpliceError, match=r"pair \(\(0, 0, 90, 1000\), "
                           r"'left'\) / \(\(7, 0, 97, 1000\), 'left'\) "
                           "names an unowned shifter"):
            splice_front_ends(lay, [stale])

    def test_doubly_owned_feature_rejected(self, tech):
        lay = layout_from_rects([Rect(0, 0, 90, 1000)])
        wide_open = (-1 << 40, -1 << 40, 1 << 40, 1 << 40)
        front = compute_tile_front_end(lay, wide_open, tech)
        assert front.num_owned_features == 1
        with pytest.raises(SpliceError, match="feature 0 owned by two"):
            splice_front_ends(lay, [front, front])


def cut_oracle_cases():
    """``(name, layout builder, grid spec)`` for the ownership-cut
    oracle."""
    cases = [(f"{s}:{seed}", lambda s=s, seed=seed:
              build_scenario(s, seed).layout, 2)
             for s in stratum_names() for seed in range(3)]
    cases += [(d, lambda d=d: build_design(d), 3) for d in ("D1", "D2", "D3")]
    cases += [(f"cold-chip:{seed}", lambda seed=seed: cold_chip_layout(seed),
               None) for seed in (17, 23)]
    return cases


class TestColumnCutOracle:
    """The front end's column cut yields exactly the artifacts of the
    per-feature, per-pair tuple loop it replaced
    (``tests/oracles.py``): on the cold chip-wide path, and per tile."""

    @pytest.mark.parametrize("name,build,spec", cut_oracle_cases(),
                             ids=[c[0] for c in cut_oracle_cases()])
    def test_matches_scalar_cut(self, tech, name, build, spec):
        lay = build()
        grid = partition_layout(lay, tech, tiles=spec)
        store = ArtifactCache()
        tiled_front_end(lay, tech, grid.tiles, store)
        chip_s, chip_p = layout_front_end(lay, tech)
        for t in grid.tiles:
            stored = store.get(KIND_FRONTEND,
                               frontend_cache_key(t.digest, t.owner, tech))
            assert front_end_tuples(stored) == scalar_owned_front_end(
                lay, chip_s, chip_p, t.owner)
            if spec is not None:
                tile_s, tile_p = layout_front_end(t.layout, tech)
                assert front_end_tuples(compute_tile_front_end(
                    t.layout, t.owner, tech, t.ix, t.iy)) == \
                    scalar_owned_front_end(t.layout, tile_s, tile_p,
                                           t.owner)
