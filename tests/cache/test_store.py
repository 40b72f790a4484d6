"""Unified artifact store: kinds, persistence, backends, counters."""

import os

import pytest

from repro.cache import (
    ARTIFACT_KINDS,
    KIND_COLORING,
    KIND_TILE,
    KIND_VERIFY,
    ArtifactCache,
    FilesystemBackend,
    MemoryBackend,
    SharedDirectoryBackend,
    StoreBackend,
    cache_delta,
)


class TestKindNamespacing:
    def test_every_pipeline_kind_is_registered(self):
        assert set(ARTIFACT_KINDS) == {KIND_TILE, KIND_COLORING,
                                       KIND_VERIFY}

    def test_tile_kind_is_namespaced(self):
        store = ArtifactCache()
        store.put(KIND_TILE, "k", ("tile",))
        store.put(KIND_COLORING, "k", ("coloring",))
        assert store.get(KIND_TILE, "k") == ("tile",)
        assert store.stats(KIND_TILE).as_tuple() == (1, 0)
        assert store.stats(KIND_COLORING).as_tuple() == (0, 0)

    def test_same_key_different_kinds_are_distinct(self):
        store = ArtifactCache()
        store.put(KIND_VERIFY, "k", (1, 2))
        store.put(KIND_COLORING, "k", (0, 1, 0))
        assert store.get(KIND_VERIFY, "k") == (1, 2)
        assert store.get(KIND_COLORING, "k") == (0, 1, 0)

    def test_miss_returns_none_and_counts(self):
        store = ArtifactCache()
        assert store.get(KIND_VERIFY, "absent") is None
        assert store.stats(KIND_VERIFY).misses == 1
        assert store.stats(KIND_VERIFY).hits == 0
        # Other kinds untouched.
        assert store.stats(KIND_COLORING).requests == 0

    def test_per_kind_counters_are_independent(self):
        store = ArtifactCache()
        store.put(KIND_VERIFY, "a", ())
        store.get(KIND_VERIFY, "a")
        store.get(KIND_COLORING, "a")
        assert store.stats(KIND_VERIFY).as_tuple() == (1, 0)
        assert store.stats(KIND_COLORING).as_tuple() == (0, 1)
        assert store.hits == 1 and store.misses == 1

    def test_counters_snapshot_for_stage_deltas(self):
        store = ArtifactCache()
        store.put(KIND_VERIFY, "a", ())
        store.get(KIND_VERIFY, "a")
        before = store.counters()
        store.get(KIND_VERIFY, "a")
        store.get(KIND_VERIFY, "b")
        after = store.counters()
        hits0, misses0 = before[KIND_VERIFY]
        hits1, misses1 = after[KIND_VERIFY]
        assert (hits1 - hits0, misses1 - misses0) == (1, 1)

    def test_cache_delta_counts_only_the_block(self):
        store = ArtifactCache()
        store.put(KIND_VERIFY, "a", ())
        store.get(KIND_VERIFY, "a")
        store.get(KIND_TILE, "t")
        with cache_delta(store) as delta:
            assert delta == {}  # filled when the block exits
            store.get(KIND_VERIFY, "a")
            store.get(KIND_VERIFY, "b")
            store.get(KIND_COLORING, "c")
        # Work before the block is not counted, and a kind the block
        # never asked for (tile) is absent.
        assert delta == {KIND_VERIFY: (1, 1), KIND_COLORING: (0, 1)}
        with cache_delta(None) as none:
            store.get(KIND_VERIFY, "a")
        assert none == {}


class TestPersistence:
    def test_directory_roundtrip_across_instances(self, tmp_path):
        ArtifactCache(str(tmp_path)).put(KIND_VERIFY, "w1", (3, 1))
        fresh = ArtifactCache(str(tmp_path))
        assert fresh.get(KIND_VERIFY, "w1") == (3, 1)
        assert fresh.stats(KIND_VERIFY).hits == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        store = ArtifactCache(str(tmp_path))
        store.put(KIND_VERIFY, "w1", (3, 1))
        with open(store._path(KIND_VERIFY, "w1"), "wb") as fh:
            fh.write(b"not a pickle")
        assert ArtifactCache(str(tmp_path)).get(KIND_VERIFY, "w1") is None

    def test_kinds_do_not_collide_on_disk(self, tmp_path):
        store = ArtifactCache(str(tmp_path))
        store.put(KIND_VERIFY, "k", "verify-value")
        store.put(KIND_TILE, "k", "tile-value")
        fresh = ArtifactCache(str(tmp_path))
        assert fresh.get(KIND_TILE, "k") == "tile-value"
        assert fresh.get(KIND_VERIFY, "k") == "verify-value"


class TestStoreBackends:
    """The persistence seam: one ArtifactCache API over any backend."""

    def backends(self, tmp_path):
        return [
            FilesystemBackend(str(tmp_path / "fs")),
            MemoryBackend(),
            SharedDirectoryBackend(str(tmp_path / "shared"), "ns-a"),
        ]

    def test_cache_api_identical_over_every_backend(self, tmp_path):
        for backend in self.backends(tmp_path):
            store = ArtifactCache(backend=backend)
            store.put(KIND_VERIFY, "k", (3, 1))
            assert store.get(KIND_VERIFY, "k") == (3, 1)
            assert store.get(KIND_VERIFY, "absent") is None
            assert store.stats(KIND_VERIFY).as_tuple() == (1, 1)

    def test_backends_shared_across_cache_instances(self, tmp_path):
        """Two stores over one backend see each other's artifacts —
        the remote-shaped sharing property (memory backend included:
        the 'machines' here are cache instances)."""
        for backend in self.backends(tmp_path):
            ArtifactCache(backend=backend).put(KIND_COLORING, "v", "x")
            fresh = ArtifactCache(backend=backend)
            assert fresh.get(KIND_COLORING, "v") == "x"
            assert fresh.stats(KIND_COLORING).hits == 1

    def test_cache_dir_reflects_backend_location(self, tmp_path):
        fs = ArtifactCache(backend=FilesystemBackend(str(tmp_path)))
        assert fs.cache_dir == str(tmp_path)
        assert ArtifactCache(backend=MemoryBackend()).cache_dir is None
        assert ArtifactCache().cache_dir is None

    def test_cache_dir_builds_filesystem_backend(self, tmp_path):
        store = ArtifactCache(str(tmp_path))
        assert isinstance(store.backend, FilesystemBackend)
        assert store.cache_dir == str(tmp_path)

    def test_shared_directory_namespaces_are_isolated(self, tmp_path):
        root = str(tmp_path)
        a = ArtifactCache(backend=SharedDirectoryBackend(root, "job-a"))
        b = ArtifactCache(backend=SharedDirectoryBackend(root, "job-b"))
        a.put(KIND_TILE, "k", "from-a")
        b.put(KIND_TILE, "k", "from-b")
        assert ArtifactCache(
            backend=SharedDirectoryBackend(root, "job-a")).get(
                KIND_TILE, "k") == "from-a"
        assert ArtifactCache(
            backend=SharedDirectoryBackend(root, "job-b")).get(
                KIND_TILE, "k") == "from-b"
        names = sorted(os.listdir(root))
        assert any(n.startswith("job-a--tile-") for n in names)
        assert any(n.startswith("job-b--tile-") for n in names)

    def test_shared_directory_rejects_bad_namespace(self, tmp_path):
        with pytest.raises(ValueError):
            SharedDirectoryBackend(str(tmp_path), "")
        with pytest.raises(ValueError):
            SharedDirectoryBackend(str(tmp_path), "a/b")

    def test_corrupt_backend_payload_is_a_miss(self, tmp_path):
        backend = MemoryBackend()
        store = ArtifactCache(backend=backend)
        backend.save(KIND_VERIFY, "w", b"not a pickle")
        assert store.get(KIND_VERIFY, "w") is None
        assert store.stats(KIND_VERIFY).misses == 1

    def test_memory_only_store_has_no_backend(self):
        store = ArtifactCache()
        assert store.backend is None
        store.put(KIND_VERIFY, "k", ())
        assert store.get(KIND_VERIFY, "k") == ()

    def test_base_protocol_is_abstract(self):
        with pytest.raises(NotImplementedError):
            StoreBackend().load("tile", "k")
        with pytest.raises(NotImplementedError):
            StoreBackend().save("tile", "k", b"")
        assert StoreBackend().location() is None

    def test_pipeline_runs_over_memory_backend(self, tmp_path):
        """ArtifactCache works unchanged over a non-filesystem
        backend: a full warm ECO against a shared MemoryBackend."""
        from repro.bench import build_design
        from repro.layout import Technology
        from repro.pipeline import (
            PipelineConfig,
            propose_eco_edit,
            run_eco_flow,
            run_pipeline,
        )

        tech = Technology.node_90nm()
        base = build_design("D1")
        edited, _ = propose_eco_edit(base, tech)
        backend = MemoryBackend()
        cfg = PipelineConfig(tiles=2)
        run_pipeline(base, tech, cfg,
                     cache=ArtifactCache(backend=backend))
        # A *fresh* store over the same backend: everything replays.
        eco = run_eco_flow(base, edited, tech, config=cfg,
                           cache=ArtifactCache(backend=backend),
                           warm_base=False)
        detect = eco.result.detection.cache_delta
        assert detect[KIND_TILE][0] == eco.plan.num_clean

