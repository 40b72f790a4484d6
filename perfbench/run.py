"""The repository benchmark: one workload per invocation, one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cold-chip --seed 17 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seconds 15     # every workload

Workloads (see ``workloads.py``): ``cold-chip``, ``eco-warm``,
``corpus-small``, ``chip-parallel``; ``all`` runs them one after another
in this process, each with its own default seed and report.
``BENCHMARK.json`` declares ``cold-chip`` and ``corpus-small``, the two
whose figures stay steady from run to run on a shared two-CPU machine;
``eco-warm`` spends most of a run on its three cold base flows of
set-up, and ``chip-parallel`` needs both CPUs, so any other tenant's
work shifts it.  Each is a closed loop with one
client.  After set-up and an untimed reference computation the
workload's rounds run back to back until ``--seconds`` have passed;
every operation's output is checked against the reference.

``--trace 0`` measures untraced and prints the end-to-end metrics:

==================  =====  ============================================
flow_s              s      wall time of one operation -- a cold flow
                           (cold-chip, chip-parallel), an edit plus warm
                           flow (eco-warm), one scenario's flow
                           (corpus-small) -- as the median over the
                           run's distinct inputs of each input's best
                           time
setup_s             s      imports plus the median of three set-ups
                           (design build; for eco-warm also the edit
                           candidates and the cold base flow)
peak_rss_mb         MB     peak resident set of the benchmark process
conflicts           count  conflicts detected per operation (summed over
                           one corpus pass on corpus-small)
area_increase_pct   %      die-area increase of the correction
==================  =====  ============================================

``--trace 1`` alternates untraced and traced rounds.  Traced rounds run
with every layer function of ``layers.LAYERS`` wrapped from outside and
with a ``repro.obs`` tracer collecting counters; the per-layer metrics
are per-operation means over the traced operations, and the trace
overhead compares traced with untraced operations of the same run.

Operations on the same input do identical work, and noise from other
tenants of a shared machine only ever adds time, so each input's best
time estimates what the program costs; the median over inputs then
summarizes the workload.  The readable report also gives the plain
median over all operations and the tail percentiles that have at least
ten samples beyond them.

Lines before the last one are a readable report (per-function table,
environment fingerprint); the last line is the JSON result.  The run
refuses to measure when ``REPRO_KERNELS`` or ``REPRO_MATCHER`` is set,
because it measures the defaults users get.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent

WORKLOAD_NAMES = ["cold-chip", "eco-warm", "corpus-small", "chip-parallel"]
SETUP_REPEATS = 3
OVERRIDE_ENV = ("REPRO_KERNELS", "REPRO_MATCHER")

END_TO_END = {
    "flow_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "conflicts": "count",
    "area_increase_pct": "%",
}


class Result:
    """Accumulated outcome of one benchmark run."""

    def __init__(self) -> None:
        self.samples = []          # every operation, traced or not
        self.traced = []           # operations run under the layer tracer
        self.untraced = []
        self.rounds = 0

    @property
    def failed(self) -> int:
        return sum(1 for s in self.samples if s.failed)

    @property
    def known_failures(self) -> int:
        return sum(1 for s in self.samples if s.known_failure)


def median_seconds(samples) -> float:
    return statistics.median(s.seconds for s in samples)


def flow_seconds(samples) -> float:
    """Median over the distinct inputs of each input's best time."""
    best: Dict[object, float] = {}
    for s in samples:
        best[s.key] = min(best.get(s.key, s.seconds), s.seconds)
    return statistics.median(best.values())


def tail_line(samples) -> str:
    """p90 and p99 where at least ten samples lie beyond them."""
    values = sorted(s.seconds for s in samples)
    parts = []
    for pct in (90, 99):
        if len(values) * (100 - pct) / 100 >= 10:
            q = statistics.quantiles(values, n=100)[pct - 1]
            parts.append(f"p{pct} {q:.6f} s")
    return ", ".join(parts) or "no tail (fewer than ten samples beyond p90)"


def _spin() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i
    return time.perf_counter() - start


def pin_to_fastest_cpu(cpus) -> None:
    """Pin this process to the CPU that currently runs Python fastest.

    On a shared machine a CPU whose sibling hyperthread is busy with
    another tenant's work runs this single-threaded program up to half
    as fast as an idle one, and which CPU is disturbed changes over
    minutes.  Probing before every round keeps the serial workloads on
    the least disturbed CPU; the program's work is unchanged.
    """
    if len(cpus) < 2:
        return
    speed = {}
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        speed[cpu] = min(_spin() for _ in range(2))
    os.sched_setaffinity(0, {min(speed, key=speed.get)})


def peak_rss_mb(who: int) -> float:
    rss = resource.getrusage(who).ru_maxrss
    return rss / (1024 * 1024) if sys.platform == "darwin" else rss / 1024


# ----------------------------------------------------------------------
# Environment fingerprint
# ----------------------------------------------------------------------
def tree_digest() -> str:
    """sha256 over the measured source tree (``src/``), so results stay
    attributable in checkouts that are not git repositories."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git(*args: str) -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), *args],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def fingerprint() -> Dict[str, object]:
    import numpy

    from repro.geometry.kernels import get_kernel
    from repro.graph import get_matcher

    status = git("status", "--porcelain", "--", "src")
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git("rev-parse", "HEAD"),
        "dirty": None if status is None else bool(status),
        "src_sha256": tree_digest(),
        "kernel": get_kernel().name,
        "matcher": get_matcher().name,
        "env_overrides": {k: os.environ.get(k) for k in OVERRIDE_ENV},
    }


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
CACHE_KINDS = ("frontend", "tile", "stitch", "window", "coloring", "verify")

# Functions timed into the JSON result.  Each runs on every workload;
# the rest of layers.FUNCTIONS (the chip and cache layers, which the
# untiled corpus never enters, and the store-less phase functions) are
# reported by call count and in the printed table.
TIMED_FUNCTIONS = (
    "pipeline.stage_front_end", "pipeline.stage_detect",
    "pipeline.stage_correct", "pipeline.stage_verify",
    "pipeline.stage_assign",
    "shifters.generate_shifters", "shifters.find_overlap_pairs",
    "conflict.build_conflict_graph", "conflict.detect_conflicts",
    "graph.greedy_planarize", "graph.build_embedding", "graph.build_dual",
    "graph.build_gadget_graph", "graph.min_weight_perfect_matching",
    "graph.extract_tjoin", "graph.residual_conflicts",
    "correction.plan_correction", "correction.apply_cuts",
)
TIMED_LAYERS = ("pipeline", "shifters", "conflict", "graph", "correction",
                "phase")
COUNTERS = tuple(f"cache.{kind}.{what}" for kind in CACHE_KINDS
                 for what in ("hits", "misses", "bytes_written")) + (
    "matcher.components", "matcher.nodes", "matcher.phases",
    "executor.jobs", "frontend.monolithic_fallbacks")


def per_layer_units() -> Dict[str, str]:
    from layers import FUNCTIONS

    units: Dict[str, str] = {}
    for name in TIMED_FUNCTIONS:
        units[f"{name}.busy_s"] = "s"
        units[f"{name}.self_s"] = "s"
    for name in FUNCTIONS:
        units[f"{name}.calls"] = "count"
    for layer in TIMED_LAYERS:
        units[f"layer.{layer}.busy_s"] = "s"
        units[f"layer.{layer}.self_s"] = "s"
    for name in COUNTERS:
        units[f"obs.{name}"] = "bytes" if name.endswith("bytes_written") \
            else "count"
    for kind in CACHE_KINDS:
        units[f"obs.cache.{kind}.hit_ratio"] = "ratio"
    units.update({
        "trace.flow_s": "s",
        "trace.untraced_flow_s": "s",
        "trace.overhead_pct": "%",
        "trace.stage_share": "ratio",
        "executor.worker_rss_mb": "MB",
        "corpus.known_failures": "count",   # per round
    })
    return units


def per_layer_values(layer_tracer, counters: Dict[str, float],
                     result: Result) -> Dict[str, float]:
    from layers import FUNCTIONS

    ops = len(result.traced)
    op_seconds = sum(s.seconds for s in result.traced)
    values: Dict[str, float] = {}
    for name in TIMED_FUNCTIONS:
        values[f"{name}.busy_s"] = layer_tracer.busy[name] / ops
        values[f"{name}.self_s"] = layer_tracer.self_s[name] / ops
    for name in FUNCTIONS:
        values[f"{name}.calls"] = layer_tracer.calls[name] / ops
    for layer in TIMED_LAYERS:
        values[f"layer.{layer}.busy_s"] = layer_tracer.layer_busy[layer] / ops
        values[f"layer.{layer}.self_s"] = layer_tracer.layer_self(layer) / ops
    for name in COUNTERS:
        values[f"obs.{name}"] = counters.get(name, 0) / ops
    for kind in CACHE_KINDS:
        hits = counters.get(f"cache.{kind}.hits", 0)
        tries = hits + counters.get(f"cache.{kind}.misses", 0)
        values[f"obs.cache.{kind}.hit_ratio"] = hits / tries if tries else 0.0
    traced = flow_seconds(result.traced)
    untraced = flow_seconds(result.untraced)
    values.update({
        "trace.flow_s": traced,
        "trace.untraced_flow_s": untraced,
        "trace.overhead_pct": 100.0 * (traced / untraced - 1.0),
        "trace.stage_share": layer_tracer.layer_busy["pipeline"] / op_seconds,
        "executor.worker_rss_mb": peak_rss_mb(resource.RUSAGE_CHILDREN),
        "corpus.known_failures": result.known_failures / result.rounds,
    })
    return values


def trace_report(layer_tracer, counters: Dict[str, float],
                 result: Result) -> List[str]:
    """The readable traced-run report: every timed function, every
    counter, and how the traced run compares with the untraced one."""
    from layers import FUNCTIONS

    ops = len(result.traced)
    lines = [f"{'function':<42} {'busy_s/op':>12} {'self_s/op':>12} "
             f"{'calls/op':>10}"]
    for name in FUNCTIONS:
        lines.append(f"{name:<42} {layer_tracer.busy[name] / ops:>12.6f} "
                     f"{layer_tracer.self_s[name] / ops:>12.6f} "
                     f"{layer_tracer.calls[name] / ops:>10.2f}")
    for name, value in sorted(counters.items()):
        lines.append(f"counter {name:<34} {value / ops:>16.6f} per op")
    traced = flow_seconds(result.traced)
    untraced = flow_seconds(result.untraced)
    stages = layer_tracer.layer_busy["pipeline"]
    op_seconds = sum(s.seconds for s in result.traced)
    lines.append(f"tracing overhead: traced flow_s {traced:.6f} s vs "
                 f"untraced {untraced:.6f} s "
                 f"({100.0 * (traced / untraced - 1.0):+.2f}%); the five "
                 f"stages' busy_s cover {100.0 * stages / op_seconds:.1f}% "
                 f"of the traced operations' wall time")
    return lines


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------
def run(workload_name: str, seed: Optional[int], seconds: float,
        trace: bool, size: str = "full", out=sys.stdout) -> dict:
    """Run one workload and return the JSON result (also printed)."""
    overrides = [k for k in OVERRIDE_ENV if os.environ.get(k)]
    if overrides:
        raise SystemExit(f"refusing to measure: {', '.join(overrides)} set; "
                         "the benchmark measures the default backends")
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from repro.obs import Tracer, use_tracer
    import_s = time.perf_counter() - t0

    cls = workloads.WORKLOADS[workload_name]
    seed = cls.default_seed if seed is None else seed
    all_cpus = os.sched_getaffinity(0) \
        if hasattr(os, "sched_setaffinity") else set()
    pin_cpus = sorted(all_cpus) if cls.serial else []
    result = Result()
    layer_tracer = None
    spool = None
    counters: Dict[str, float] = {}
    if trace:
        from layers import LayerTracer

        spool = tempfile.mkdtemp(prefix=".perfbench-spool-", dir=os.getcwd())
        layer_tracer = LayerTracer(spool=spool)
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            pin_to_fastest_cpu(pin_cpus)
            workload = cls(seed, size=size)
            start = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - start)
        workload.prepare()
        start = time.perf_counter()
        while result.rounds < (2 if trace else 1) \
                or time.perf_counter() - start < seconds:
            traced = trace and result.rounds % 2 == 1
            pin_to_fastest_cpu(pin_cpus)
            if traced:
                obs = Tracer()
                layer_tracer.install()
                try:
                    with use_tracer(obs):
                        samples = workload.round()
                finally:
                    layer_tracer.uninstall()
                layer_tracer.collect_workers()
                for name, value in obs.metrics.as_dict()["counters"].items():
                    counters[name] = counters.get(name, 0) + value
                result.traced.extend(samples)
            else:
                samples = workload.round()
                result.untraced.extend(samples)
            result.samples.extend(samples)
            result.rounds += 1
    finally:
        if pin_cpus:
            os.sched_setaffinity(0, all_cpus)
        if spool is not None:
            shutil.rmtree(spool, ignore_errors=True)

    for name, value in (layer_tracer.worker_counters.items()
                        if layer_tracer else ()):
        counters[name] = counters.get(name, 0) + value
    attempted = len(result.samples)
    timed = result.untraced if trace else result.samples
    metrics: Dict[str, float]
    if trace:
        metrics = per_layer_values(layer_tracer, counters, result)
        units = per_layer_units()
    else:
        metrics = {
            "flow_s": flow_seconds(timed),
            "setup_s": import_s + statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb(resource.RUSAGE_SELF),
            "conflicts": workload.conflicts,
            "area_increase_pct": workload.area_increase_pct,
        }
        units = END_TO_END

    print(f"workload {workload_name} seed {seed} size {size}: "
          f"{attempted} operation(s) in {result.rounds} round(s), "
          f"{result.failed} failed, {result.known_failures} known "
          f"failure(s); fail_frac "
          f"{(result.failed + result.known_failures) / attempted:.6f}",
          file=out)
    print(f"all operations: median {median_seconds(timed):.6f} s, "
          f"{tail_line(timed)}; setup runs "
          + ", ".join(f"{t:.4f}" for t in setup_times)
          + f" s, imports {import_s:.4f} s", file=out)
    if len(timed) <= 50:
        print("op seconds: " + " ".join(f"{s.seconds:.4f}" for s in timed),
              file=out)
    for sample in result.samples:
        if sample.failed:
            print(f"FAILED: {sample.error}", file=out)
    if layer_tracer is not None:
        for line in trace_report(layer_tracer, counters, result):
            print(line, file=out)
    for name, value in metrics.items():
        print(f"{name:<44} {value:>16.6f} {units[name]}", file=out)
    print("env " + json.dumps(fingerprint(), sort_keys=True), file=out)
    report = {
        "correct": result.failed == 0,
        "attempted": attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(report), file=out)
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ["all"])
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="how long the closed loop runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOAD_NAMES if args.workload == "all" else [args.workload]
    for name in names:
        run(name, args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
