"""Metrics registry + the cache's per-kind counter wiring."""

from repro.cache import KIND_TILE, ArtifactCache, MemoryBackend
from repro.obs import MetricsRegistry, Tracer, use_tracer
from repro.obs.metrics import NULL_METRICS


class TestRegistry:
    def test_counters_accumulate(self):
        m = MetricsRegistry()
        m.count("cache.tile.hits")
        m.count("cache.tile.hits", 2)
        m.counter("cache.tile.misses").inc()
        assert m.as_dict()["counters"] == {"cache.tile.hits": 3,
                                           "cache.tile.misses": 1}

    def test_gauges_overwrite(self):
        m = MetricsRegistry()
        m.set_gauge("executor.workers", 4)
        m.set_gauge("executor.workers", 8)
        assert m.as_dict()["gauges"] == {"executor.workers": 8}

    def test_as_dict_is_sorted_and_fresh(self):
        m = MetricsRegistry()
        m.count("b")
        m.count("a")
        d = m.as_dict()
        assert list(d["counters"]) == ["a", "b"]
        d["counters"]["a"] = 99
        assert m.as_dict()["counters"]["a"] == 1

    def test_null_metrics_absorbs_everything(self):
        NULL_METRICS.count("x", 5)
        NULL_METRICS.set_gauge("y", 1)
        NULL_METRICS.counter("x").inc()
        NULL_METRICS.gauge("y").set(3)
        assert NULL_METRICS.as_dict() == {"counters": {}, "gauges": {}}


class TestCacheWiring:
    def test_hits_misses_puts_counted_per_kind(self):
        tracer = Tracer()
        store = ArtifactCache()
        with use_tracer(tracer):
            assert store.get(KIND_TILE, "k1") is None
            store.put(KIND_TILE, "k1", {"v": 1})
            assert store.get(KIND_TILE, "k1") == {"v": 1}
            assert store.get("verify", "w1") is None
        counters = tracer.metrics.as_dict()["counters"]
        assert counters["cache.tile.misses"] == 1
        assert counters["cache.tile.hits"] == 1
        assert counters["cache.tile.puts"] == 1
        assert counters["cache.verify.misses"] == 1
        # The tracer's counters agree with the store's own stats.
        assert store.stats(KIND_TILE).hits == 1
        assert store.stats(KIND_TILE).misses == 1

    def test_backend_bytes_counted(self):
        tracer = Tracer()
        backend = MemoryBackend()
        writer = ArtifactCache(backend=backend)
        reader = ArtifactCache(backend=backend)
        with use_tracer(tracer):
            writer.put(KIND_TILE, "k", list(range(64)))
            # A different store over the same backend: the read is a
            # real payload load, not a memory-layer hit.
            assert reader.get(KIND_TILE, "k") == list(range(64))
        counters = tracer.metrics.as_dict()["counters"]
        assert counters["cache.tile.bytes_written"] > 0
        assert (counters["cache.tile.bytes_read"]
                == counters["cache.tile.bytes_written"])

    def test_disabled_tracer_changes_nothing(self):
        store = ArtifactCache()
        store.put(KIND_TILE, "k", 1)
        assert store.get(KIND_TILE, "k") == 1
        assert store.stats(KIND_TILE).hits == 1
