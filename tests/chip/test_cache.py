"""Tile cache keys and tile results in the artifact store."""

from __future__ import annotations

import pytest

from repro.cache import KIND_TILE, ArtifactCache
from repro.chip import (
    detect_tile,
    make_jobs,
    partition_layout,
    tile_cache_key,
)
from repro.geometry import Rect
from repro.layout import Technology, standard_cell_layout


@pytest.fixture
def tech() -> Technology:
    return Technology.node_90nm()


def _jobs(layout, tech, tiles=2):
    grid = partition_layout(layout, tech, tiles=tiles)
    return make_jobs(grid.tiles, tech)


class TestCacheKey:
    def test_key_is_deterministic(self, tech):
        a = _jobs(standard_cell_layout(seed=7), tech)
        b = _jobs(standard_cell_layout(seed=7), tech)
        assert [tile_cache_key(j) for j in a] == \
            [tile_cache_key(j) for j in b]

    def test_key_changes_with_geometry(self, tech):
        layout = standard_cell_layout(seed=7)
        before = [tile_cache_key(j) for j in _jobs(layout, tech)]
        changed = layout.copy()
        changed.add_feature(Rect(5, 5, 95, 905))
        after = [tile_cache_key(j) for j in _jobs(changed, tech)]
        assert before != after

    def test_local_edit_keeps_far_tiles_valid(self, tech):
        """The ECO property: editing one corner leaves the far tiles'
        keys (and therefore their cached results) untouched."""
        from repro.layout import GeneratorParams

        layout = standard_cell_layout(GeneratorParams(rows=8, cols=40),
                                      seed=8)
        before = [tile_cache_key(j) for j in _jobs(layout, tech, tiles=3)]
        changed = layout.copy()
        box = layout.bbox()
        changed.add_feature(Rect(box.x1, box.y1, box.x1 + 90,
                                 box.y1 + 900))
        after = [tile_cache_key(j) for j in _jobs(changed, tech, tiles=3)]
        assert before != after
        same = sum(x == y for x, y in zip(before, after))
        assert same >= 5  # only the edited corner's neighbourhood moved

    def test_key_changes_with_rules_and_kind(self, tech):
        layout = standard_cell_layout(seed=7)
        job = _jobs(layout, tech)[0]
        assert tile_cache_key(job) != tile_cache_key(
            job.__class__(**{**job.__dict__, "kind": "fg"}))
        assert tile_cache_key(job) != tile_cache_key(
            job.__class__(**{**job.__dict__,
                             "tech": Technology.node_65nm()}))


class TestCacheStore:
    def test_memory_roundtrip(self, tech):
        job = _jobs(standard_cell_layout(seed=9), tech)[0]
        key = tile_cache_key(job)
        cache = ArtifactCache()
        assert cache.get(KIND_TILE, key) is None
        result = detect_tile(job)
        cache.put(KIND_TILE, key, result)
        got = cache.get(KIND_TILE, key)
        assert got is not None and got.from_cache
        assert [c.key for c in got.conflicts] == \
            [c.key for c in result.conflicts]
        assert cache.stats(KIND_TILE).as_tuple() == (1, 1)

    def test_directory_roundtrip(self, tech, tmp_path):
        job = _jobs(standard_cell_layout(seed=9), tech)[0]
        key = tile_cache_key(job)
        ArtifactCache(str(tmp_path)).put(KIND_TILE, key, detect_tile(job))
        fresh = ArtifactCache(str(tmp_path))  # new process, same directory
        got = fresh.get(KIND_TILE, key)
        assert got is not None and got.from_cache

    def test_corrupt_entry_is_a_miss(self, tech, tmp_path):
        job = _jobs(standard_cell_layout(seed=9), tech)[0]
        key = tile_cache_key(job)
        cache = ArtifactCache(str(tmp_path))
        cache.put(KIND_TILE, key, detect_tile(job))
        path = cache._path(KIND_TILE, key)
        with open(path, "wb") as fh:
            fh.write(b"not a pickle")
        assert ArtifactCache(str(tmp_path)).get(KIND_TILE, key) is None
