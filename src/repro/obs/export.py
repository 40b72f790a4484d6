"""Exporters over one tracer's finished span forest.

Three formats, one source of truth:

* :func:`write_chrome_trace` — the Chrome trace-event JSON format
  (``{"traceEvents": [...]}``, complete-event ``"ph": "X"`` records
  with microsecond ``ts``/``dur``), loadable in Perfetto or
  ``chrome://tracing``; merged worker spans render on their own lanes.
* :func:`write_span_log` — a JSON-lines event log (one object per
  span, depth-first, plus a final ``metrics`` line) for grep/jq-style
  offline analysis.
* :func:`span_tree_summary` / :func:`telemetry_dict` — the aggregated
  span tree, as an indented human-readable table or as the
  JSON-serializable ``telemetry`` block of ``--json`` reports.
  Aggregation groups sibling spans by ``(name, cat)`` — 16 tile spans
  become one ``tile ×16`` row with summed wall/CPU — while singleton
  spans (the stages) keep their attributes, so the stage-level cache
  accounting stays exact.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Iterator, List, Sequence, Tuple

from .trace import NullTracer, Span


def iter_spans(roots: Sequence[Span],
               depth: int = 0) -> Iterator[Tuple[Span, int]]:
    """Depth-first ``(span, depth)`` walk over a span forest."""
    for span in roots:
        yield span, depth
        yield from iter_spans(span.children, depth + 1)


def _jsonable(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (tuple, list)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return repr(value)


# ----------------------------------------------------------------------
# Chrome trace events
# ----------------------------------------------------------------------
def chrome_trace_events(tracer: NullTracer) -> List[Dict[str, Any]]:
    """The tracer's forest as Chrome trace-event records.

    Every span becomes one complete event (``"ph": "X"``) with
    microsecond timestamp/duration relative to tracer creation; lane
    (``tid``) 0 is the orchestrating thread, higher lanes are merged
    executor workers.  Metadata events name the process and lanes.
    """
    pid = os.getpid()
    events: List[Dict[str, Any]] = [{
        "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
        "args": {"name": "repro"},
    }]
    lanes = {0}
    for span, _depth in iter_spans(tracer.roots):
        args = {k: _jsonable(v) for k, v in span.attrs.items()}
        if span.cpu:
            args["cpu_ms"] = round(span.cpu * 1e3, 3)
        if span.peak_rss_mb is not None:
            args["peak_rss_mb"] = round(span.peak_rss_mb, 3)
        lanes.add(span.tid)
        events.append({
            "name": span.name,
            "cat": span.cat,
            "ph": "X",
            "ts": round(span.t0 * 1e6, 3),
            "dur": round(span.seconds * 1e6, 3),
            "pid": pid,
            "tid": span.tid,
            "args": args,
        })
    for tid in sorted(lanes):
        events.append({
            "name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
            "args": {"name": "main" if tid == 0 else f"worker-{tid}"},
        })
    return events


def write_chrome_trace(tracer: NullTracer, path: str) -> None:
    """Write the run as a Chrome trace-event JSON file."""
    payload = {
        "traceEvents": chrome_trace_events(tracer),
        "displayTimeUnit": "ms",
        "otherData": {"metrics": tracer.metrics.as_dict()},
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)
        fh.write("\n")


# ----------------------------------------------------------------------
# JSON-lines event log
# ----------------------------------------------------------------------
def write_span_log(tracer: NullTracer, path: str) -> None:
    """Write one JSON object per span (depth-first) plus the metrics."""
    with open(path, "w") as fh:
        for span, depth in iter_spans(tracer.roots):
            fh.write(json.dumps({
                "event": "span",
                "name": span.name,
                "cat": span.cat,
                "depth": depth,
                "ts": round(span.t0, 6),
                "seconds": round(span.seconds, 6),
                "cpu_seconds": round(span.cpu, 6),
                "peak_rss_mb": span.peak_rss_mb,
                "tid": span.tid,
                "attrs": {k: _jsonable(v)
                          for k, v in span.attrs.items()},
            }, sort_keys=True))
            fh.write("\n")
        fh.write(json.dumps({"event": "metrics",
                             **tracer.metrics.as_dict()},
                            sort_keys=True))
        fh.write("\n")


# ----------------------------------------------------------------------
# Aggregated tree: summary text + telemetry JSON block
# ----------------------------------------------------------------------
def aggregate_spans(spans: Sequence[Span]) -> List[Dict[str, Any]]:
    """Group sibling spans by ``(name, cat)``, recursively.

    Each group row carries the member count and summed wall/CPU
    seconds, and the highest ``peak_rss_mb`` of its members when they
    are stages; a singleton keeps its attributes (stages stay exact,
    the per-tile fan-out collapses to one row per kind of work).
    """
    order: List[Tuple[str, str]] = []
    groups: Dict[Tuple[str, str], List[Span]] = {}
    for span in spans:
        key = (span.name, span.cat)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(span)
    rows: List[Dict[str, Any]] = []
    for key in order:
        members = groups[key]
        row: Dict[str, Any] = {
            "name": key[0],
            "cat": key[1],
            "count": len(members),
            "seconds": round(sum(s.seconds for s in members), 6),
            "cpu_seconds": round(sum(s.cpu for s in members), 6),
        }
        rss = [s.peak_rss_mb for s in members if s.peak_rss_mb is not None]
        if rss:
            row["peak_rss_mb"] = round(max(rss), 3)
        if len(members) == 1 and members[0].attrs:
            row["attrs"] = {k: _jsonable(v)
                            for k, v in members[0].attrs.items()}
        children = [c for s in members for c in s.children]
        if children:
            row["children"] = aggregate_spans(children)
        rows.append(row)
    return rows


def telemetry_dict(tracer: NullTracer) -> Dict[str, Any]:
    """The ``telemetry`` block of ``--json`` reports: the aggregated
    span tree plus the full metrics snapshot."""
    return {
        "spans": aggregate_spans(list(tracer.roots)),
        "metrics": tracer.metrics.as_dict(),
    }


def span_tree_summary(tracer: NullTracer) -> str:
    """Human-readable indented rendering of the aggregated span tree."""
    lines = [f"{'span':<44} {'count':>6} {'wall_s':>9} {'cpu_s':>9}"]

    def emit(rows: List[Dict[str, Any]], depth: int) -> None:
        for row in rows:
            label = "  " * depth + row["name"]
            if row["count"] > 1:
                label += f" ×{row['count']}"
            lines.append(f"{label:<44} {row['count']:>6} "
                         f"{row['seconds']:>9.3f} "
                         f"{row['cpu_seconds']:>9.3f}")
            emit(row.get("children", ()), depth + 1)

    emit(aggregate_spans(list(tracer.roots)), 0)
    counters = tracer.metrics.as_dict()["counters"]
    if counters:
        lines.append("metrics:")
        for name, value in counters.items():
            shown = round(value, 6) if isinstance(value, float) else value
            lines.append(f"  {name} = {shown}")
    return "\n".join(lines)
