"""Unified content-addressed artifact store.

Every expensive intermediate of the pipeline is a pure function of a
describable set of inputs, so each can be cached under a content hash
of exactly those inputs.  This module is the one store they all share,
namespaced by *artifact kind*; the stages, ``run_pipeline``,
``run_eco_flow`` and ``run_chip_flow`` all take the store itself
(``cache: Optional[ArtifactCache]``):

========= ==========================================================
kind      value / key inputs
========= ==========================================================
tile      :class:`~repro.chip.executor.TileResult`; key hashes the
          captured geometry, rule deck, graph kind and the
          ownership window (:func:`repro.chip.cache.tile_cache_key`).
coloring  a conflict-graph component's canonical 2-coloring; key is
          the component's content id
          (:func:`repro.graph.components.decompose`).
verify    the geometric verifier's verdict for one component's
          shifters; key is the component content id plus rule deck
          (:func:`repro.phase.incremental.verify_key`).
========= ==========================================================

Persistence is pluggable through the :class:`StoreBackend` seam: the
store pickles values and hands the payload bytes to whichever backend
it was built over — the default :class:`FilesystemBackend` (one file
per ``(kind, key)``, atomically renamed into place so a crashed run
never leaves a truncated entry), an in-process :class:`MemoryBackend`,
or a :class:`SharedDirectoryBackend` (several logical stores
multiplexed into one directory under distinct key prefixes — the
local stand-in for a remote bucket/redis-style backend).  An in-memory
layer always sits in front of the backend; with no backend at all the
store is memory-only and lives for the process.  Only the store counts
hits and misses, per kind; each pipeline stage reads its own share
with :func:`cache_delta`.  The same events also feed the active
telemetry tracer's metrics registry
(``cache.<kind>.hits`` / ``.misses`` / ``.puts`` / ``.bytes_read`` /
``.bytes_written`` — no-ops under the default disabled tracer, see
:mod:`repro.obs`).
"""

from __future__ import annotations

import os
import pickle
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, Optional, Tuple

from .obs import get_tracer

KIND_TILE = "tile"
KIND_COLORING = "coloring"
KIND_VERIFY = "verify"

ARTIFACT_KINDS = (KIND_TILE, KIND_COLORING, KIND_VERIFY)


@dataclass
class KindStats:
    """Hit/miss counters for one artifact kind."""

    hits: int = 0
    misses: int = 0

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.requests if self.requests else 0.0

    def as_tuple(self) -> Tuple[int, int]:
        return (self.hits, self.misses)


# ----------------------------------------------------------------------
# Persistence backends
# ----------------------------------------------------------------------
class StoreBackend:
    """The persistence seam under :class:`ArtifactCache`.

    A backend stores and retrieves opaque payload *bytes* under
    ``(kind, key)`` — serialization, the in-memory layer, and all
    hit/miss accounting stay in the store, so a backend only has to
    answer two questions: where do bytes live, and how do they get
    there durably.  Anything implementing ``load``/``save`` works
    (a remote object store or key-value service would subclass this
    with network calls; nothing else in the pipeline would change).
    """

    def load(self, kind: str, key: str) -> Optional[bytes]:
        """Return the stored payload, or None when absent/unreadable."""
        raise NotImplementedError

    def save(self, kind: str, key: str, payload: bytes) -> None:
        """Durably store one payload; must tolerate concurrent writers
        of the same (content-addressed, hence identical) entry."""
        raise NotImplementedError

    def location(self) -> Optional[str]:
        """Human-readable storage location (None when not on disk)."""
        return None


class FilesystemBackend(StoreBackend):
    """One ``{kind}-{key}.pkl`` file per entry in a directory.

    Writes go through a temp file renamed atomically into place, so a
    crashed or concurrent run never leaves a truncated entry.
    """

    def __init__(self, root: str):
        self.root = root
        os.makedirs(root, exist_ok=True)

    def path(self, kind: str, key: str) -> str:
        return os.path.join(self.root, f"{kind}-{key}.pkl")

    def load(self, kind: str, key: str) -> Optional[bytes]:
        try:
            with open(self.path(kind, key), "rb") as fh:
                return fh.read()
        except OSError:
            return None

    def save(self, kind: str, key: str, payload: bytes) -> None:
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(payload)
            os.replace(tmp, self.path(kind, key))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def location(self) -> Optional[str]:
        return self.root


class MemoryBackend(StoreBackend):
    """Bytes in a process-local dict.

    By itself this adds nothing over the store's own memory layer; its
    point is *sharing*: several :class:`ArtifactCache` instances built
    over one ``MemoryBackend`` see each other's artifacts — the
    smallest possible model of a remote shared store, which the
    backend-seam tests exercise.
    """

    def __init__(self) -> None:
        self._data: Dict[Tuple[str, str], bytes] = {}

    def load(self, kind: str, key: str) -> Optional[bytes]:
        return self._data.get((kind, key))

    def save(self, kind: str, key: str, payload: bytes) -> None:
        self._data[(kind, key)] = payload


class SharedDirectoryBackend(FilesystemBackend):
    """Several logical stores multiplexed into one directory.

    Entries are prefixed with a ``namespace`` (two stores with
    different namespaces never see each other's artifacts; two with
    the same namespace share everything) — the filesystem-shaped proof
    of the remote pattern where many machines address one bucket or
    key-value service under per-project key prefixes.
    """

    def __init__(self, root: str, namespace: str):
        if not namespace or not namespace.replace("-", "").replace(
                "_", "").isalnum():
            raise ValueError(
                f"namespace must be non-empty [-_a-zA-Z0-9], "
                f"got {namespace!r}")
        super().__init__(root)
        self.namespace = namespace

    def path(self, kind: str, key: str) -> str:
        return os.path.join(self.root,
                            f"{self.namespace}--{kind}-{key}.pkl")


class ArtifactCache:
    """Two-level (memory, then backend) content-addressed store.

    Keys are caller-computed content hashes; the store never inspects
    values beyond pickling them.  A value exposing ``cache_copy()``
    (e.g. :class:`~repro.chip.executor.TileResult`) is copied on every
    hit so cached entries are never aliased into mutable pipeline
    state.

    Args:
        cache_dir: convenience for the common case — builds a
            :class:`FilesystemBackend` over the directory.
        backend: an explicit :class:`StoreBackend`; overrides
            ``cache_dir``.  None (and no ``cache_dir``) keeps the
            store memory-only for the process.
    """

    def __init__(self, cache_dir: Optional[str] = None,
                 backend: Optional[StoreBackend] = None):
        if backend is None and cache_dir:
            backend = FilesystemBackend(cache_dir)
        self.backend = backend
        self._memory: Dict[Tuple[str, str], Any] = {}
        self._stats: Dict[str, KindStats] = {}

    @property
    def cache_dir(self) -> Optional[str]:
        """The on-disk location, when the backend has one."""
        return self.backend.location() if self.backend else None

    # ------------------------------------------------------------------
    def _path(self, kind: str, key: str) -> str:
        path = getattr(self.backend, "path", None)
        assert path is not None, "store backend is not directory-backed"
        return path(kind, key)

    def stats(self, kind: str) -> KindStats:
        stats = self._stats.get(kind)
        if stats is None:
            stats = self._stats[kind] = KindStats()
        return stats

    def counters(self) -> Dict[str, Tuple[int, int]]:
        """Snapshot of (hits, misses) per kind; :func:`cache_delta`
        subtracts two of them for a stage's own cache delta."""
        return {kind: stats.as_tuple()
                for kind, stats in self._stats.items()}

    # ------------------------------------------------------------------
    def get(self, kind: str, key: str) -> Optional[Any]:
        """Fetch one artifact, counting the hit or miss for ``kind``.

        Checks the in-memory layer first, then the backend (promoting
        backend hits into memory).  Missing, corrupt, or unpicklable
        entries degrade to ``None`` — a miss, never an exception — so a
        stale backend can only cost recomputation, not correctness.
        """
        tracer = get_tracer()
        value = self._memory.get((kind, key))
        if value is None and self.backend is not None:
            payload = self.backend.load(kind, key)
            if payload is not None:
                tracer.count(f"cache.{kind}.bytes_read", len(payload))
                try:
                    value = pickle.loads(payload)
                except (pickle.UnpicklingError, EOFError, AttributeError,
                        ImportError, ValueError):
                    value = None  # stale or corrupt entry: a miss
            if value is not None:
                self._memory[(kind, key)] = value
        stats = self.stats(kind)
        if value is None:
            stats.misses += 1
            tracer.count(f"cache.{kind}.misses")
            return None
        stats.hits += 1
        tracer.count(f"cache.{kind}.hits")
        copier = getattr(value, "cache_copy", None)
        return copier() if copier is not None else value

    def put(self, kind: str, key: str, value: Any) -> None:
        """Store one artifact under ``(kind, key)``.

        ``put`` is idempotent (same key, same content) because keys are
        content hashes of every input the value depends on; durability
        semantics (atomicity, sharing) belong to the backend.
        """
        self._memory[(kind, key)] = value
        tracer = get_tracer()
        tracer.count(f"cache.{kind}.puts")
        if self.backend is None:
            return
        payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        tracer.count(f"cache.{kind}.bytes_written", len(payload))
        self.backend.save(kind, key, payload)

    # ------------------------------------------------------------------
    @property
    def hits(self) -> int:
        return sum(s.hits for s in self._stats.values())

    @property
    def misses(self) -> int:
        return sum(s.misses for s in self._stats.values())

    def summary(self) -> str:
        parts = [f"{kind}: {s.hits}/{s.requests}"
                 for kind, s in sorted(self._stats.items()) if s.requests]
        return "artifact cache hits — " + (", ".join(parts) or "no requests")


@contextmanager
def cache_delta(store: Optional[ArtifactCache]
                ) -> Iterator[Dict[str, Tuple[int, int]]]:
    """The store's per-kind ``(hits, misses)`` inside a ``with`` block.

    Yields a dict that is filled when the block exits: the difference
    of two :meth:`ArtifactCache.counters` snapshots, keeping only the
    kinds the block asked for (readers default to ``(0, 0)``); empty
    with no store.  Every per-pass cache figure the pipeline and the
    chip flow report is one of these deltas.
    """
    delta: Dict[str, Tuple[int, int]] = {}
    before = store.counters() if store is not None else {}
    yield delta
    if store is None:
        return
    for kind, (hits, misses) in store.counters().items():
        hits0, misses0 = before.get(kind, (0, 0))
        if (hits, misses) != (hits0, misses0):
            delta[kind] = (hits - hits0, misses - misses0)
