"""Hierarchical span tracing with a zero-overhead disabled mode.

A *span* is one timed unit of work — a flow, a stage, one tile, one
stitch cluster, one correction window, one recolored component — with
wall-clock and CPU time plus typed attributes.  Spans nest through a
per-thread stack on the tracer, so the finished run is a forest that
mirrors the pipeline's actual call structure::

    flow(design=D3)
    ├─ shifters            tile ×9 (cached=...)
    ├─ detect              chip → partition / execute → tile ×9 /
    │                      stitch → cluster ×M (arbitrated every run)
    ├─ correct             window ×4 (solved every run)
    ├─ verify              nested shifters + detect
    └─ assign              component ×N (recomputed only)

Two collection paths exist:

* ``tracer.span(...)`` — a context manager for in-process work, timed
  live on this thread;
* ``tracer.record(...)`` — a pre-timed completed span for work that
  ran elsewhere (a process-pool worker): the executor merges each
  worker's measured wall/CPU window back alongside its tile result,
  so serial and process runs produce the same span
  tree, differing only in timing (which the telemetry test suite
  asserts).

The process-global tracer defaults to :class:`NullTracer`: every call
is a constant-time no-op and nothing is retained, so instrumentation
stays always-on in library code (the overhead guard holds it under 2%
of a flow).  :func:`set_tracer` / :func:`use_tracer` install a real
:class:`Tracer` for a scope.
"""

from __future__ import annotations

import sys
import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, List, Optional

from .metrics import NULL_METRICS, MetricsRegistry


class Span:
    """One timed, attributed unit of work; also its own context manager.

    ``t0``/``t1`` are tracer-relative wall seconds (``perf_counter``
    based), ``cpu`` the process-CPU seconds consumed between enter and
    exit (or the merged worker's measurement for recorded spans).
    ``peak_rss_mb`` is the process's resident-set high-water mark at the
    exit of a ``stage`` span (:func:`peak_rss_mb`), None on every other
    span: comparing consecutive stages shows which one raised the peak.
    ``tid`` is the lane the span renders on in the Chrome trace: 0 for
    the orchestrating thread, 1.. for merged worker lanes.
    """

    __slots__ = ("name", "cat", "attrs", "children", "t0", "t1",
                 "cpu", "peak_rss_mb", "tid", "_tracer", "_cpu0")

    def __init__(self, tracer: "Tracer", name: str, cat: str,
                 attrs: Dict[str, Any], tid: int = 0):
        self._tracer = tracer
        self.name = name
        self.cat = cat
        self.attrs = attrs
        self.children: List[Span] = []
        self.t0: float = 0.0
        self.t1: Optional[float] = None
        self.cpu: float = 0.0
        self.peak_rss_mb: Optional[float] = None
        self.tid = tid
        self._cpu0: float = 0.0

    @property
    def seconds(self) -> float:
        return 0.0 if self.t1 is None else self.t1 - self.t0

    def set(self, **attrs: Any) -> "Span":
        """Attach or update attributes; chainable."""
        self.attrs.update(attrs)
        return self

    # ------------------------------------------------------------------
    def __enter__(self) -> "Span":
        self.t0 = time.perf_counter() - self._tracer.t0
        self._cpu0 = time.process_time()
        self._tracer._stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.t1 = time.perf_counter() - self._tracer.t0
        self.cpu = time.process_time() - self._cpu0
        if self.cat == "stage":
            self.peak_rss_mb = peak_rss_mb()
        stack = self._tracer._stack()
        if stack and stack[-1] is self:
            stack.pop()
        self._tracer._attach(self)
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span({self.name!r}, cat={self.cat!r}, "
                f"seconds={self.seconds:.6f}, "
                f"children={len(self.children)})")


class _NullSpan:
    """Shared inert span: enters, exits, and absorbs attributes."""

    __slots__ = ()
    name = cat = ""
    attrs: Dict[str, Any] = {}
    children: tuple = ()
    seconds = cpu = t0 = 0.0
    t1 = peak_rss_mb = None
    tid = 0

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attrs: Any) -> "_NullSpan":
        return self


NULL_SPAN = _NullSpan()


class NullTracer:
    """The disabled tracer: every operation is a constant-time no-op.

    Installed by default so hot paths can call ``span``/``record``/
    ``count`` unconditionally; retains nothing.
    """

    enabled = False
    metrics = NULL_METRICS
    roots: tuple = ()
    t0 = 0.0
    epoch = 0.0

    def span(self, name: str, cat: str = "span",
             **attrs: Any) -> _NullSpan:
        return NULL_SPAN

    def record(self, name: str, seconds: float, cat: str = "span",
               cpu: float = 0.0, start_unix: Optional[float] = None,
               tid: int = 0, **attrs: Any) -> None:
        return None

    def count(self, name: str, n=1) -> None:
        pass

    def gauge(self, name: str, value) -> None:
        pass


class Tracer(NullTracer):
    """Collecting tracer: a per-thread span stack over a shared forest.

    Spans opened on this thread nest under the thread's current span;
    completed roots land in ``roots`` (append is lock-guarded so
    thread-pool workers may trace too).  ``epoch`` (``time.time()`` at
    construction) anchors :meth:`record`'s cross-process timestamps
    onto the tracer's ``perf_counter`` timeline.
    """

    enabled = True

    def __init__(self) -> None:
        self.metrics = MetricsRegistry()
        self.roots: List[Span] = []
        self.t0 = time.perf_counter()
        self.epoch = time.time()
        self._local = threading.local()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _attach(self, span: Span) -> None:
        stack = self._stack()
        if stack:
            stack[-1].children.append(span)
        else:
            with self._lock:
                self.roots.append(span)

    # ------------------------------------------------------------------
    def span(self, name: str, cat: str = "span", **attrs: Any) -> Span:
        """Open a live span; use as a context manager."""
        return Span(self, name, cat, attrs)

    def record(self, name: str, seconds: float, cat: str = "span",
               cpu: float = 0.0, start_unix: Optional[float] = None,
               tid: int = 0, **attrs: Any) -> Span:
        """Attach an already-timed span (e.g. a worker's) to the tree.

        ``start_unix`` is the worker's ``time.time()`` at work start;
        mapped through ``epoch`` it places the span truthfully on the
        tracer timeline (parallel tiles genuinely overlap in the
        exported trace).  ``None`` places the span as ending now.
        """
        span = Span(self, name, cat, attrs, tid=tid)
        now = time.perf_counter() - self.t0
        if start_unix is not None:
            span.t0 = max(0.0, start_unix - self.epoch)
        else:
            span.t0 = max(0.0, now - seconds)
        span.t1 = span.t0 + seconds
        span.cpu = cpu
        self._attach(span)
        return span

    def count(self, name: str, n=1) -> None:
        self.metrics.count(name, n)

    def gauge(self, name: str, value) -> None:
        self.metrics.set_gauge(name, value)


def peak_rss_mb() -> Optional[float]:
    """This process's resident-set high-water mark in MB, or None where
    the platform has no ``resource`` module.  ``ru_maxrss`` counts
    kilobytes on Linux and bytes on macOS."""
    try:
        import resource
    except ImportError:
        return None
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return rss / (1024 * 1024) if sys.platform == "darwin" else rss / 1024


# ----------------------------------------------------------------------
# The process-global tracer
# ----------------------------------------------------------------------
_tracer: NullTracer = NullTracer()


def get_tracer() -> NullTracer:
    """The active tracer (a :class:`NullTracer` unless one was set)."""
    return _tracer


def set_tracer(tracer: Optional[NullTracer]) -> NullTracer:
    """Install ``tracer`` globally (None restores the null tracer);
    returns the previous one so callers can restore it."""
    global _tracer
    previous = _tracer
    _tracer = tracer if tracer is not None else NullTracer()
    return previous


@contextmanager
def use_tracer(tracer: Optional[NullTracer]):
    """Scope-install a tracer; always restores the previous one."""
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)
