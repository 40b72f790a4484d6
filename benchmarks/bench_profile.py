#!/usr/bin/env python
"""Per-stage cProfile harness for the staged pipeline.

Unlike the ``bench_*.py`` pytest benches (which time whole runs), this
is a plain script that answers *where the time goes*: each pipeline
stage — shifters, detect, correct, verify, assign — runs under its own
:mod:`cProfile` and the top-N hot functions (by own time) are written
to a committed ``BENCH_profile_<design>.json`` snapshot, so profile
regressions show up in review as diffs of the hot-function list.

Run serially (``--jobs 1`` is forced): the profiler only sees this
process, so fanning tiles out to a pool would hide exactly the work
being profiled.  One untimed flow of the design runs first, on a
throwaway store, so the interpreter's one-time imports land there and
not in the first profiled stage.

Usage::

    PYTHONPATH=src python benchmarks/bench_profile.py --design D8
    PYTHONPATH=src python benchmarks/bench_profile.py --design D3 \
        -o bench-out/BENCH_profile_D3.json
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import subprocess
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.bench import build_design, design_names
from repro.cache import ArtifactCache
from repro.gcpause import gc_paused
from repro.layout import Technology
from repro.pipeline.runner import (
    PipelineConfig,
    run_pipeline,
    stage_assign,
    stage_correct,
    stage_detect,
    stage_front_end,
    stage_verify,
)

STAGE_ORDER = ("shifters", "detect", "correct", "verify", "assign")


def _function_label(key: Tuple[str, int, str]) -> str:
    """A stable ``path:function`` label (line numbers excluded so the
    committed snapshot does not churn on unrelated edits)."""
    filename, _line, func = key
    if filename == "~":
        return f"<built-in>:{func}"
    for marker, prefix in ((os.sep + "repro" + os.sep, "repro"),
                           (os.sep + "site-packages" + os.sep, ""),
                           (os.sep + "lib" + os.sep, "")):
        if marker in filename:
            tail = filename.split(marker, 1)[1]
            filename = (prefix + os.sep + tail) if prefix else tail
            break
    return f"{filename}:{func}"


def _merge_rows(profile: cProfile.Profile,
                into: Dict[str, Dict[str, Any]]) -> None:
    profile.create_stats()
    for key, (_cc, ncalls, tottime, cumtime, _callers) \
            in profile.stats.items():
        label = _function_label(key)
        row = into.setdefault(label, {"function": label, "ncalls": 0,
                                      "tottime": 0.0, "cumtime": 0.0})
        row["ncalls"] += ncalls
        row["tottime"] += tottime
        row["cumtime"] += cumtime


def _top(rows: Dict[str, Dict[str, Any]], limit: int) -> List[dict]:
    ordered = sorted(rows.values(),
                     key=lambda r: (-r["tottime"], r["function"]))
    return [{"function": r["function"], "ncalls": r["ncalls"],
             "tottime": round(r["tottime"], 4),
             "cumtime": round(r["cumtime"], 4)}
            for r in ordered[:limit]]


def profile_design(design: str, top: int = 15,
                   tiles: Optional[Tuple[int, int]] = None) -> dict:
    """Profile one design through the five stages; returns the report."""
    layout = build_design(design)
    tech = Technology.node_90nm()
    config = PipelineConfig(tiles=tiles, jobs=1, tiled=True,
                            executor="serial")
    # Warm-up: loads every module the stages import lazily.
    run_pipeline(layout, tech, config, cache=ArtifactCache(None))
    store = ArtifactCache(None)

    merged: Dict[str, Dict[str, Any]] = {}
    stages: Dict[str, dict] = {}

    def run(name: str, fn, *args):
        prof = cProfile.Profile()
        t0 = time.perf_counter()
        result = prof.runcall(fn, *args)
        seconds = time.perf_counter() - t0
        per_stage: Dict[str, Dict[str, Any]] = {}
        _merge_rows(prof, per_stage)
        _merge_rows(prof, merged)
        stages[name] = {"seconds": round(seconds, 4),
                        "top": _top(per_stage, top)}
        return result

    # The stages run under the same collector pause run_pipeline
    # applies, so the profile shows the work users' flows do.
    with gc_paused():
        wall0 = time.perf_counter()
        front = run("shifters", stage_front_end, layout, tech, config)
        detection = run("detect", stage_detect, front, tech, config, store)
        correction = run("correct", stage_correct, detection, tech, config)
        verification = run("verify", stage_verify, correction, tech, config,
                           front, store)
        phase = run("assign", stage_assign, verification, tech, config,
                    store)
        wall = time.perf_counter() - wall0

    grid = detection.chip
    return {
        "design": design,
        "polygons": layout.num_polygons,
        "tiles": [grid.nx, grid.ny] if grid is not None else None,
        "conflicts": detection.report.num_conflicts,
        "cuts": len(correction.report.cuts),
        "success": phase.success,
        "wall_seconds": round(wall, 4),
        "stage_seconds": {name: stages[name]["seconds"]
                          for name in STAGE_ORDER},
        "stages": stages,
        "top_functions": _top(merged, top),
    }


def _git_commit() -> str:
    """Short hash of HEAD, or ``unknown`` outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    if out.returncode != 0:
        return "unknown"
    return out.stdout.strip() or "unknown"


def append_trajectory(report: dict, path: str) -> dict:
    """Append one run's headline numbers to the trajectory log.

    ``BENCH_trajectory.json`` is a committed, append-only list — one
    entry per profile run — so stage-second history reads as a diff
    across commits instead of being overwritten by each snapshot.
    Entries carry ``"mode": "profiled"``: their seconds were measured
    under cProfile, which inflates this call-heavy code several times
    over, so they compare only with other profiled entries.
    """
    entry = {
        "commit": _git_commit(),
        "mode": "profiled",
        "design": report["design"],
        "wall_seconds": report["wall_seconds"],
        "stage_seconds": report["stage_seconds"],
    }
    history: List[dict] = []
    if os.path.exists(path):
        with open(path) as fh:
            history = json.load(fh)
    history.append(entry)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        json.dump(history, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return entry


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="cProfile the staged pipeline, one profile per "
                    "stage; write a BENCH_profile_<design>.json "
                    "hot-function snapshot")
    parser.add_argument("--design", choices=design_names(), default="D8")
    parser.add_argument("--top", type=int, default=15,
                        help="hot functions kept per list (default 15)")
    parser.add_argument("-o", "--output", default=None,
                        help="output path (default: "
                             "benchmarks/BENCH_profile_<design>.json)")
    parser.add_argument("--trajectory", default=None,
                        help="trajectory log path (default: "
                             "BENCH_trajectory.json beside the "
                             "snapshot); 'none' disables the append")
    args = parser.parse_args(argv)

    report = profile_design(args.design, top=args.top)
    out = args.output or os.path.join(
        os.path.dirname(os.path.abspath(__file__)),
        f"BENCH_profile_{args.design}.json")
    os.makedirs(os.path.dirname(out) or ".", exist_ok=True)
    with open(out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")

    if args.trajectory != "none":
        traj_path = args.trajectory or os.path.join(
            os.path.dirname(out) or ".", "BENCH_trajectory.json")
        entry = append_trajectory(report, traj_path)
        print(f"trajectory += {entry['commit']} {entry['design']} "
              f"-> {traj_path}")

    print(f"{args.design}: {report['wall_seconds']:.2f}s wall, "
          f"stage seconds "
          + ", ".join(f"{k}={v:.2f}"
                      for k, v in report["stage_seconds"].items()))
    print(f"top hot functions -> {out}")
    for row in report["top_functions"][:args.top]:
        print(f"  {row['tottime']:>8.3f}s {row['ncalls']:>8}x "
              f"{row['function']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
