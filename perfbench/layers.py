"""Outside-in layer timing: wrap the public functions of each layer.

Nothing under ``src/`` is instrumented for this.  :class:`LayerTracer`
replaces each function listed in :data:`LAYERS` with a timing wrapper,
everywhere the name is bound: modules bind by name (``from .dual import
build_dual``), so the wrapper is installed on every loaded ``repro``
module whose global *is* the original function, not only on the module
that defines it.  Methods (``ArtifactCache.get``, the executors' ``map``)
are wrapped on their class.

For every function the tracer accumulates

* ``calls`` — completed calls;
* ``busy_s`` — wall time inside the function, counted once for
  recursive or re-entrant calls (outermost call only);
* ``self_s`` — ``busy_s`` minus the time spent in wrapped callees.

and for every layer the wall time during which any of its functions
was running (``busy_s``) and the sum of its functions' self times.

Worker processes forked by the process executor inherit the wrappers.
Each worker resets its copy of the totals at fork, writes them to a
spool directory after every outermost call, and :meth:`collect_workers`
merges the spooled totals into the parent's, so tile-internal layers
are measured on the parallel workload too (summed over workers, hence
CPU-like rather than wall time).
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

# layer -> [(label, "module:attribute" of the original)].  Labels are
# unique across layers; "Class.method" targets are wrapped on the class.
LAYERS: Dict[str, List[Tuple[str, str]]] = {
    "pipeline": [
        ("stage_front_end", "repro.pipeline.runner:stage_front_end"),
        ("stage_detect", "repro.pipeline.runner:stage_detect"),
        ("stage_correct", "repro.pipeline.runner:stage_correct"),
        ("stage_verify", "repro.pipeline.runner:stage_verify"),
        ("stage_assign", "repro.pipeline.runner:stage_assign"),
    ],
    "shifters": [
        ("generate_shifters", "repro.shifters.generation:generate_shifters"),
        ("find_overlap_pairs", "repro.shifters.overlap:find_overlap_pairs"),
        ("tiled_front_end", "repro.shifters.frontend:tiled_front_end"),
    ],
    "chip": [
        ("partition_layout", "repro.chip.partition:partition_layout"),
        ("detect_tile", "repro.chip.executor:detect_tile"),
        ("stitch_results", "repro.chip.stitch:stitch_results"),
        ("executor_map", "repro.chip.executor:SerialExecutor.map"),
        ("executor_map", "repro.chip.executor:ProcessExecutor.map"),
        ("executor_map", "repro.chip.executor:ThreadExecutor.map"),
    ],
    "conflict": [
        ("build_conflict_graph", "repro.conflict.graphs:build_conflict_graph"),
        ("detect_conflicts", "repro.conflict.detection:detect_conflicts"),
    ],
    "graph": [
        ("greedy_planarize", "repro.graph.crossings:greedy_planarize"),
        ("build_embedding", "repro.graph.embedding:build_embedding"),
        ("build_dual", "repro.graph.dual:build_dual"),
        ("build_gadget_graph", "repro.graph.gadgets:build_gadget_graph"),
        ("min_weight_perfect_matching",
         "repro.graph.matching:min_weight_perfect_matching"),
        ("extract_tjoin", "repro.graph.gadgets:extract_tjoin"),
        ("residual_conflicts", "repro.graph.coloring:residual_conflicts"),
    ],
    "correction": [
        ("plan_correction", "repro.correction.flow:plan_correction"),
        ("apply_cuts", "repro.correction.spacer:apply_cuts"),
    ],
    "phase": [
        ("assign_and_verify_incremental",
         "repro.phase.incremental:assign_and_verify_incremental"),
        ("assign_phases", "repro.phase.assignment:assign_phases"),
        ("verify_assignment", "repro.phase.verify:verify_assignment"),
    ],
    "cache": [
        ("get", "repro.cache:ArtifactCache.get"),
        ("put", "repro.cache:ArtifactCache.put"),
    ],
}

# Every timed function as "layer.label", in table order.
FUNCTIONS: List[str] = list(dict.fromkeys(
    f"{layer}.{label}" for layer, entries in LAYERS.items()
    for label, _ in entries))


def _resolve(target: str):
    """(owner, attribute, original) for a "module:attr" target, or None
    when the module or attribute no longer exists."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = owner.__dict__.get(attr) if isinstance(owner, type) \
        else getattr(owner, attr, None)
    if original is None:
        return None
    return owner, attr, original


class LayerTracer:
    """Accumulates per-function and per-layer timings while installed."""

    def __init__(self, spool: Optional[str] = None):
        self.spool = spool
        self.parent_pid = os.getpid()
        self._patched: List[Tuple[object, str, object]] = []
        self.reset()
        if spool is not None:
            os.register_at_fork(after_in_child=self._after_fork)

    def reset(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.busy: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.layer_busy: Dict[str, float] = defaultdict(float)
        self.worker_counters: Dict[str, float] = defaultdict(float)
        self._stack: List[list] = []   # [name, layer, child seconds]
        self._active: Dict[str, int] = defaultdict(int)
        self._layer_active: Dict[str, int] = defaultdict(int)

    # ------------------------------------------------------------------
    def _wrap(self, name: str, layer: str, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, layer, 0.0]
            tracer._stack.append(frame)
            tracer._active[name] += 1
            tracer._layer_active[layer] += 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                tracer._stack.pop()
                tracer._active[name] -= 1
                tracer._layer_active[layer] -= 1
                tracer.calls[name] += 1
                tracer.self_s[name] += dt - frame[2]
                if not tracer._active[name]:
                    tracer.busy[name] += dt
                if not tracer._layer_active[layer]:
                    tracer.layer_busy[layer] += dt
                if tracer._stack:
                    tracer._stack[-1][2] += dt
                elif os.getpid() != tracer.parent_pid:
                    tracer._flush_worker()

        return wrapper

    def install(self) -> None:
        """Wrap every function of :data:`LAYERS` where it is bound."""
        if self._patched:
            return
        for layer, entries in LAYERS.items():
            for label, target in entries:
                resolved = _resolve(target)
                if resolved is None:
                    continue
                owner, attr, original = resolved
                wrapper = self._wrap(f"{layer}.{label}", layer, original)
                if isinstance(owner, type):
                    self._patch(owner, attr, wrapper)
                    continue
                for module in list(sys.modules.values()):
                    if getattr(module, "__name__", "").startswith("repro") \
                            and module.__dict__.get(attr) is original:
                        self._patch(module, attr, wrapper)

    def _patch(self, owner, attr: str, wrapper: Callable) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # ------------------------------------------------------------------
    # Worker processes
    # ------------------------------------------------------------------
    def _after_fork(self) -> None:
        self.reset()
        from repro.obs import Tracer, get_tracer, set_tracer

        if get_tracer().enabled:
            set_tracer(Tracer())   # count only this worker's events

    def _flush_worker(self) -> None:
        from repro.obs import get_tracer

        state = {
            "calls": self.calls, "busy": self.busy, "self_s": self.self_s,
            "layer_busy": self.layer_busy,
            "counters": get_tracer().metrics.as_dict()["counters"],
        }
        path = os.path.join(self.spool, f"worker-{os.getpid()}.json")
        with open(path + ".tmp", "w") as fh:
            json.dump(state, fh)
        os.replace(path + ".tmp", path)

    def collect_workers(self) -> None:
        """Merge (and remove) the totals spooled by finished workers."""
        if self.spool is None:
            return
        for entry in sorted(os.listdir(self.spool)):
            path = os.path.join(self.spool, entry)
            if not entry.endswith(".json"):
                continue
            with open(path) as fh:
                state = json.load(fh)
            os.unlink(path)
            for field in ("calls", "busy", "self_s", "layer_busy"):
                totals = getattr(self, field)
                for key, value in state[field].items():
                    totals[key] += value
            for key, value in state["counters"].items():
                self.worker_counters[key] += value

    # ------------------------------------------------------------------
    def layer_self(self, layer: str) -> float:
        prefix = layer + "."
        return sum(v for k, v in self.self_s.items() if k.startswith(prefix))
