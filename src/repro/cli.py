"""Command-line interface.

The tool a layout engineer would actually run::

    python -m repro detect  chip.gds           # list AAPSM conflicts
    python -m repro chip    chip.gds --tiles 4 --jobs 8
    python -m repro flow    chip.gds -o fixed.gds
    python -m repro flow    chip.gds --incremental --cache-dir .tiles
    python -m repro eco     base.gds edited.gds --cache-dir .tiles
    python -m repro bench   --subset small --json
    python -m repro fuzz    --strata all --count 3 --seed 0 --json
    python -m repro generate --design D3 --seed 7 -o d3.gds
    python -m repro table1                     # reproduce paper tables
    python -m repro table2

GDSII in, GDSII out; everything else is printed as aligned tables, or
as machine-readable JSON with ``--json`` (for CI and benchmarks).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import List, Optional, Tuple

from .bench import build_design, design_names, format_table, table1_row, table2_row
from .conflict import detect_conflicts
from .core import run_aapsm_flow
from .correction import ExactCoverTooLargeError
from .gdsii import GdsFormatError, gds_to_layout, layout_to_gds, read_gds, \
    write_gds
from .layout import Layout, Technology
from .obs import (
    NullTracer,
    Tracer,
    configure_logging,
    get_logger,
    span_tree_summary,
    telemetry_dict,
    use_tracer,
    write_chrome_trace,
    write_span_log,
)

TECH_PRESETS = {
    "90nm": Technology.node_90nm,
    "65nm": Technology.node_65nm,
}

_log = get_logger("cli")


def _load_layout(path: str) -> Layout:
    layout, skipped = gds_to_layout(read_gds(path))
    if skipped:
        _log.warning(f"skipped {len(skipped)} non-rectangle shapes")
    return layout


def _add_tech_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tech", choices=sorted(TECH_PRESETS),
                        default="90nm", help="technology rule preset")


def _parse_tiles(text: str) -> Tuple[int, int]:
    """Accept ``N`` (an NxN grid) or ``NxM`` / ``N,M``."""
    norm = text.lower().replace(",", "x")
    parts = norm.split("x")
    try:
        if len(parts) == 1:
            spec = (int(parts[0]),) * 2
        elif len(parts) == 2:
            spec = (int(parts[0]), int(parts[1]))
        else:
            spec = None
    except ValueError:
        spec = None
    if spec is None:
        raise argparse.ArgumentTypeError(
            f"expected N or NxM tile grid, got {text!r}")
    if spec[0] < 1 or spec[1] < 1:
        raise argparse.ArgumentTypeError(
            f"tile grid must be >= 1x1, got {text!r}")
    return spec


def _parse_executor(text: str) -> str:
    """Validate an executor backend name against the live registry —
    not a hardcoded list, so backends added via
    :func:`repro.chip.executor.register_executor` work from the CLI
    unchanged."""
    from .chip.executor import EXECUTOR_BACKENDS

    if text not in EXECUTOR_BACKENDS:
        raise argparse.ArgumentTypeError(
            f"unknown executor backend {text!r}; registered: "
            f"{', '.join(sorted(EXECUTOR_BACKENDS))}")
    return text


def _parse_design(text: str) -> str:
    """Validate a --designs entry: a suite name or a scenario spec
    (``scenario:<stratum>:<seed>``), resolved against the live
    registries so curriculum strata work from the CLI unchanged."""
    from .bench import resolve_spec

    try:
        resolve_spec(text)
    except KeyError as exc:
        raise argparse.ArgumentTypeError(exc.args[0]) from None
    return text


def _add_scale_arguments(parser: argparse.ArgumentParser) -> None:
    """The tiling/parallelism knobs shared by chip-scale commands."""
    parser.add_argument("--tiles", type=_parse_tiles, default=None,
                        metavar="N[xM]",
                        help="tile grid (default: sized from the "
                             "polygon count)")
    parser.add_argument("--jobs", type=int, default=os.cpu_count(),
                        help="worker processes (default: all cores)")
    parser.add_argument("--executor", type=_parse_executor,
                        metavar="BACKEND", default=None,
                        help="tile executor backend: serial, process, "
                             "or any registered backend (default: "
                             "serial for 1 job, process otherwise); "
                             "the report is identical under every "
                             "backend")
    parser.add_argument("--cache-dir",
                        help="persistent artifact store directory "
                             "(tile results, colorings, verify "
                             "verdicts)")
    parser.add_argument("--json", action="store_true",
                        help="print a machine-readable JSON report "
                             "(counts, timings, cache hit rate, "
                             "telemetry)")
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="write an execution trace here: Chrome "
                             "trace-event JSON (load in Perfetto or "
                             "chrome://tracing), or a JSON-lines span "
                             "log when PATH ends in .jsonl")
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="debug-level logging plus a span-tree "
                             "timing summary on stderr (with --trace "
                             "or --json)")


def _tracer_for(args: argparse.Namespace):
    """A live tracer when the run wants telemetry, else the disabled
    default (whose every call is a constant-time no-op)."""
    if getattr(args, "trace", None) or getattr(args, "json", False):
        return Tracer()
    return NullTracer()


def _attach_telemetry(out: dict, tracer) -> dict:
    """Add the ``telemetry`` block to a ``--json`` report."""
    if tracer.enabled:
        out["telemetry"] = telemetry_dict(tracer)
    return out


def _finish_trace(args: argparse.Namespace, tracer) -> None:
    """Write the ``--trace`` file and the verbose span summary."""
    if not tracer.enabled:
        return
    path = getattr(args, "trace", None)
    if path:
        if path.endswith(".jsonl"):
            write_span_log(tracer, path)
        else:
            write_chrome_trace(tracer, path)
        _note(args, f"wrote {path}")
    if getattr(args, "verbose", 0):
        print(span_tree_summary(tracer), file=sys.stderr)


def cmd_detect(args: argparse.Namespace) -> int:
    layout = _load_layout(args.gds)
    tech = TECH_PRESETS[args.tech]()
    report = detect_conflicts(layout, tech, kind=args.graph)
    print(f"design: {layout.name} ({report.num_features} polygons, "
          f"{report.num_shifters} shifters)")
    print(f"phase-assignable: {report.phase_assignable}")
    print(f"conflicts ({report.num_conflicts}):")
    for c in report.conflicts:
        print(f"  shifters {c.a} / {c.b}  (weight {c.weight})")
    if report.uncorrectable_features:
        print(f"uncorrectable feature constraints: "
              f"{report.uncorrectable_features}")
    return 0 if report.phase_assignable else 1


def cmd_chip(args: argparse.Namespace) -> int:
    """Tiled, parallel, cached full-chip conflict detection."""
    from .chip import run_chip_flow
    from .core import chip_report_dict

    layout = _load_layout(args.gds)
    tech = TECH_PRESETS[args.tech]()
    tracer = _tracer_for(args)
    with use_tracer(tracer):
        report = run_chip_flow(layout, tech, tiles=args.tiles,
                               jobs=args.jobs, cache_dir=args.cache_dir,
                               kind=args.graph, executor=args.executor)
    if args.json:
        print(json.dumps(_attach_telemetry(chip_report_dict(report),
                                           tracer),
                         indent=2, sort_keys=True))
        _finish_trace(args, tracer)
        return 0 if report.phase_assignable else 1
    print(report.summary())
    _finish_trace(args, tracer)
    if args.verbose:
        for stat in report.tile_stats:
            if stat.polygons:
                print(f"  tile[{stat.ix},{stat.iy}]: {stat.polygons} "
                      f"polygons, {stat.conflicts_reported} conflicts "
                      f"reported, {stat.seconds:.2f}s"
                      + (" (cached)" if stat.from_cache else ""))
    return 0 if report.phase_assignable else 1


def cmd_flow(args: argparse.Namespace) -> int:
    layout = _load_layout(args.gds)
    tech = TECH_PRESETS[args.tech]()
    if args.incremental and not args.cache_dir:
        _log.warning("--incremental without --cache-dir only caches "
                     "within this run")
    _warn_untiled_executor(args, tiled=bool(args.tiles)
                           or args.incremental)
    tracer = _tracer_for(args)
    with use_tracer(tracer):
        result = run_aapsm_flow(layout, tech, cover=args.cover,
                                tiles=args.tiles, jobs=args.jobs,
                                cache_dir=args.cache_dir,
                                incremental=args.incremental,
                                executor=args.executor)
    if args.json:
        from .core import flow_result_dict

        print(json.dumps(_attach_telemetry(flow_result_dict(result),
                                           tracer),
                         indent=2, sort_keys=True))
    else:
        print(result.summary())
    _finish_trace(args, tracer)
    if args.output:
        write_gds(layout_to_gds(result.corrected_layout), args.output)
        _note(args, f"wrote {args.output}")
    if args.report:
        from .core import save_flow_report

        save_flow_report(result, args.report)
        _note(args, f"wrote {args.report}")
    return 0 if result.success else 1


def cmd_eco(args: argparse.Namespace) -> int:
    """Incremental re-run: base layout warms the tile cache, the edited
    layout recomputes only dirty tiles."""
    from .cache import KIND_TILE
    from .core import eco_result_dict
    from .pipeline import PipelineConfig, run_eco_flow

    base = _load_layout(args.base_gds)
    edited = _load_layout(args.edited_gds)
    tech = TECH_PRESETS[args.tech]()
    if args.assume_warm and not args.cache_dir:
        _log.error("--assume-warm needs a warmed --cache-dir")
        return 2
    config = PipelineConfig(kind=args.graph, cover=args.cover,
                            tiles=args.tiles, jobs=args.jobs,
                            cache_dir=args.cache_dir,
                            executor=args.executor)
    tracer = _tracer_for(args)
    with use_tracer(tracer):
        eco = run_eco_flow(base, edited, tech, config=config,
                           warm_base=not args.assume_warm)
    tile_hits, _ = eco.result.detection.cache_delta.get(KIND_TILE, (0, 0))
    if args.assume_warm and eco.plan.num_clean and tile_hits == 0:
        _log.warning("no tile cache hits — was the cache warmed with "
                     "the same grid, tech, and graph settings?")
    if args.json:
        print(json.dumps(_attach_telemetry(eco_result_dict(eco), tracer),
                         indent=2, sort_keys=True))
    else:
        print(eco.summary())
    _finish_trace(args, tracer)
    if args.output:
        write_gds(layout_to_gds(eco.result.corrected_layout), args.output)
        _note(args, f"wrote {args.output}")
    return 0 if eco.result.success else 1


def cmd_bench(args: argparse.Namespace) -> int:
    """Run the named benchmark suite through the staged pipeline.

    Emits the same machine-readable per-design reports as ``repro
    flow --json`` (detection/correction/phases plus per-stage cache
    deltas), so CI and regression tooling consume one format across
    flow, chip, eco, and bench runs.

    With ``--cache-dir`` (or ``--incremental``) the whole suite runs
    over **one persistent artifact store**: every design's tile,
    coloring, and verifier artifacts land in the same
    content-addressed directory, so re-invoking the suite against
    the same ``--cache-dir`` is a warm-path run — the regression
    surface for incremental behaviour.  The aggregate per-kind
    counters are reported (``cache_kinds`` in ``--json``, a footer
    line otherwise).
    """
    from .core import flow_result_dict

    tech = TECH_PRESETS[args.tech]()
    names = args.designs or design_names(args.subset)
    # --cache-dir implies the incremental (tiled, store-backed) path:
    # a persistent store is meaningless to the untiled pipeline.
    incremental = args.incremental or bool(args.cache_dir)
    _warn_untiled_executor(args, tiled=bool(args.tiles) or incremental)
    store = None
    if incremental:
        from .cache import ArtifactCache

        store = ArtifactCache(args.cache_dir)
    tracer = _tracer_for(args)
    rows: List[dict] = []
    reports: List[dict] = []
    all_ok = True
    for name in names:
        layout = build_design(name)
        start = time.perf_counter()
        with use_tracer(tracer):
            result = run_aapsm_flow(layout, tech, cover=args.cover,
                                    tiles=args.tiles, jobs=args.jobs,
                                    cache_dir=args.cache_dir,
                                    cache=store,
                                    incremental=incremental,
                                    executor=args.executor)
        wall = time.perf_counter() - start
        all_ok &= result.success
        report = flow_result_dict(result)
        report["wall_seconds"] = wall
        reports.append(report)
        pipe = result.pipeline
        rows.append({
            "design": name,
            "polygons": layout.num_polygons,
            "conflicts": result.detection.num_conflicts,
            "cuts": result.correction.num_cuts,
            "windows": result.correction.num_windows,
            "success": result.success,
            "cache_hit_rate": round(pipe.cache_hit_rate, 2),
            "wall_s": round(wall, 2),
        })
        _note(args, f"{name}: {wall:.2f}s")
    if args.json:
        # --designs overrides --subset; don't mislabel explicit runs.
        out = {"subset": None if args.designs else args.subset,
               "selected": names, "designs": reports}
        if store is not None:
            out["cache_dir"] = args.cache_dir
            out["cache_kinds"] = {
                kind: {"hits": hits, "misses": misses}
                for kind, (hits, misses) in sorted(
                    store.counters().items())}
        print(json.dumps(_attach_telemetry(out, tracer), indent=2,
                         sort_keys=True))
    else:
        print(format_table(rows, "Benchmark suite — staged pipeline"))
        if store is not None:
            print(store.summary())
    _finish_trace(args, tracer)
    return 0 if all_ok else 1


def cmd_fuzz(args: argparse.Namespace) -> int:
    """Differential fuzzing over the stratified scenario curriculum.

    Builds the ``(strata, count, seed)`` corpus, runs every scenario
    through its invariant matrix (tiled/mono, eco/cold, executors,
    geometric oracle, dark-field parity), and — on any divergence —
    delta-debugs the scenario down to a minimal repro, printed as a
    paste-able pytest case.  ``--json`` emits the corpus report
    (per-check status + shrunk repros + telemetry) for CI artifact
    upload.  The test-only oracles (scalar kernel and graph core,
    networkx and brute matchers, whole-instance set cover) are
    compared in the tier-1 tests instead.
    """
    from .scenarios import (
        FuzzReport,
        build_corpus,
        invariant_names,
        run_scenario,
        shrink_scenario_failure,
        stratum_names,
    )

    tech = TECH_PRESETS[args.tech]()
    try:
        corpus = build_corpus(strata=args.strata, count=args.count,
                              seed=args.seed, tech=tech)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    if args.invariants:
        unknown = [n for n in args.invariants
                   if n not in invariant_names()]
        if unknown:
            print(f"error: unknown invariant(s) {unknown} (known: "
                  f"{', '.join(invariant_names())})", file=sys.stderr)
            return 2

    tracer = _tracer_for(args)
    report = FuzzReport()
    rows: List[dict] = []
    with use_tracer(tracer):
        for scenario in corpus:
            start = time.perf_counter()
            result = run_scenario(scenario, invariants=args.invariants)
            wall = time.perf_counter() - start
            statuses = {c.name: c.status for c in result.invariants}
            _note(args, f"{scenario.name}: "
                  f"{'ok' if result.ok else 'FAIL'} "
                  f"({', '.join(f'{k}:{v}' for k, v in statuses.items())})"
                  f" {wall:.2f}s")
            for failure in result.failures:
                _log.error("fuzz.divergence", scenario=scenario.name,
                           invariant=failure.name,
                           detail=failure.detail)
            if result.failures and not args.no_shrink:
                first = result.failures[0]
                outcome = shrink_scenario_failure(
                    scenario, first.name, detail=first.detail,
                    max_runs=args.max_shrink_runs)
                if outcome is not None:
                    result.shrunk = outcome.as_dict()
                    print(f"--- shrunk repro ({scenario.name}, "
                          f"{first.name}: {outcome.original_rects} -> "
                          f"{len(outcome.rects)} rects) ---\n"
                          f"{outcome.as_test_case()}", file=sys.stderr)
            report.results.append(result)
            rows.append({
                "scenario": scenario.name,
                "stratum": scenario.stratum,
                "seed": scenario.seed,
                "polygons": scenario.num_polygons,
                "ok": sum(c.status == "ok" for c in result.invariants),
                "fail": sum(c.status == "fail"
                            for c in result.invariants),
                "wall_s": round(wall, 2),
            })
    if args.json:
        out = report.as_dict()
        out["strata"] = args.strata or stratum_names()
        out["count"] = args.count
        out["seed"] = args.seed
        print(json.dumps(_attach_telemetry(out, tracer), indent=2,
                         sort_keys=True))
    else:
        print(format_table(rows, "Scenario curriculum — differential "
                                 "invariant matrix"))
        counts = report.counts()
        print(f"{counts['scenarios']} scenarios, {counts['checks']} "
              f"checks: {counts['ok']} ok, {counts['fail']} fail")
    _finish_trace(args, tracer)
    return 0 if report.ok else 1


def _note(args: argparse.Namespace, message: str) -> None:
    """Progress chatter — kept off stdout when it must stay pure JSON
    (routed through the structured logger, which writes stderr)."""
    if args.json:
        _log.info(message)
    else:
        print(message)


def _warn_untiled_executor(args: argparse.Namespace,
                           tiled: bool) -> None:
    """Only the tiled path has tile jobs to execute; say so instead of
    silently ignoring an explicit --executor."""
    if args.executor and not tiled:
        _log.warning(f"--executor {args.executor} has no effect on "
                     "the untiled path; pass --tiles or --incremental")


def cmd_generate(args: argparse.Namespace) -> int:
    layout = build_design(args.design, seed=args.seed)
    write_gds(layout_to_gds(layout), args.output)
    print(f"wrote {args.output} ({layout.num_polygons} polygons)")
    return 0


def cmd_table1(args: argparse.Namespace) -> int:
    tech = TECH_PRESETS[args.tech]()
    rows = [table1_row(build_design(name), tech,
                       time_gadgets=not args.no_timing)
            for name in design_names(args.subset)]
    print(format_table(rows, "Table 1 — AAPSM conflict detection"))
    return 0


def cmd_table2(args: argparse.Namespace) -> int:
    tech = TECH_PRESETS[args.tech]()
    rows = [table2_row(build_design(name), tech)
            for name in design_names(args.subset)]
    print(format_table(rows, "Table 2 — layout modification"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Bright-field AAPSM conflict detection and "
                    "correction (DATE 2005 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("detect", help="detect AAPSM conflicts in a GDS")
    p.add_argument("gds")
    p.add_argument("--graph", choices=["pcg", "fg"], default="pcg")
    _add_tech_argument(p)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("chip",
                       help="tiled parallel full-chip conflict detection")
    p.add_argument("gds")
    p.add_argument("--graph", choices=["pcg", "fg"], default="pcg")
    _add_scale_arguments(p)
    _add_tech_argument(p)
    p.set_defaults(func=cmd_chip)

    p = sub.add_parser("flow", help="detect + correct + verify a GDS")
    p.add_argument("gds")
    p.add_argument("-o", "--output", help="write corrected GDS here")
    p.add_argument("--report", help="write a JSON flow report here")
    p.add_argument("--cover", choices=["auto", "greedy", "exact"],
                   default="auto")
    p.add_argument("--incremental", action="store_true",
                   help="run tiled with the per-tile cache even without "
                        "--tiles; with a persistent --cache-dir, re-runs "
                        "after edits recompute only dirty tiles")
    _add_scale_arguments(p)
    _add_tech_argument(p)
    p.set_defaults(func=cmd_flow)

    p = sub.add_parser("eco",
                       help="incremental re-run of an edited GDS "
                            "against a base GDS (dirty tiles only)")
    p.add_argument("base_gds")
    p.add_argument("edited_gds")
    p.add_argument("-o", "--output",
                   help="write the corrected edited GDS here")
    p.add_argument("--graph", choices=["pcg", "fg"], default="pcg")
    p.add_argument("--cover", choices=["auto", "greedy", "exact"],
                   default="auto")
    p.add_argument("--assume-warm", action="store_true",
                   help="skip re-running the base layout; --cache-dir "
                        "must hold a previous run's tiles (no cold "
                        "baseline timing is reported)")
    _add_scale_arguments(p)
    _add_tech_argument(p)
    p.set_defaults(func=cmd_eco)

    p = sub.add_parser("bench",
                       help="run the benchmark suite through the "
                            "staged pipeline")
    p.add_argument("--subset", choices=["small", "medium", "large"],
                   default="small")
    p.add_argument("--designs", nargs="+", type=_parse_design,
                   metavar="NAME",
                   help="explicit designs to run (overrides --subset): "
                        "suite names (D1..D8) or scenario-curriculum "
                        "specs like scenario:oddcycle:3")
    p.add_argument("--cover", choices=["auto", "greedy", "exact"],
                   default="auto")
    p.add_argument("--incremental", action="store_true",
                   help="run tiled with the artifact cache (implied "
                        "by --cache-dir; the whole suite shares one "
                        "store, so a re-run against the same "
                        "--cache-dir exercises the warm path)")
    _add_scale_arguments(p)
    _add_tech_argument(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("fuzz",
                       help="differential fuzzing over the stratified "
                            "scenario curriculum")
    p.add_argument("--strata", nargs="+", metavar="NAME", default=None,
                   help="strata to fuzz: density, oddcycle, tjoin, "
                        "boundary, darkfield, duplicate, or 'all' "
                        "(default: all)")
    p.add_argument("--count", type=int, default=3,
                   help="seeds per stratum (default: 3)")
    p.add_argument("--seed", type=int, default=0,
                   help="base seed; stratum seeds run seed..seed+count-1")
    p.add_argument("--invariants", nargs="+", metavar="NAME",
                   default=None,
                   help="restrict the matrix: tiled, eco, executors, "
                        "oracle, darkfield (default: each scenario's "
                        "tags)")
    p.add_argument("--no-shrink", action="store_true",
                   help="report divergences without delta-debugging "
                        "them to a minimal repro")
    p.add_argument("--max-shrink-runs", type=int, default=200,
                   help="predicate-evaluation budget per shrink "
                        "(default: 200)")
    p.add_argument("--json", action="store_true",
                   help="print the machine-readable corpus report "
                        "(per-check status, shrunk repros, telemetry)")
    p.add_argument("--trace", metavar="PATH", default=None,
                   help="write an execution trace here (Chrome "
                        "trace-event JSON, or .jsonl span log)")
    p.add_argument("-v", "--verbose", action="count", default=0,
                   help="debug-level logging plus a span-tree timing "
                        "summary on stderr (with --trace or --json)")
    _add_tech_argument(p)
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser("generate",
                       help="write a benchmark-suite design as GDS")
    p.add_argument("--design", choices=design_names(), default="D2")
    p.add_argument("--seed", type=int, default=None,
                   help="deterministic generator seed override")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_generate)

    for name, fn, description in (
            ("table1", cmd_table1, "reproduce the paper's Table 1"),
            ("table2", cmd_table2, "reproduce the paper's Table 2")):
        p = sub.add_parser(name, help=description)
        p.add_argument("--subset", choices=["small", "medium", "large"],
                       default="small")
        if name == "table1":
            p.add_argument("--no-timing", action="store_true",
                           help="skip the gadget runtime columns")
        _add_tech_argument(p)
        p.set_defaults(func=fn)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    configure_logging(getattr(args, "verbose", 0))
    try:
        return args.func(args)
    except (ExactCoverTooLargeError, GdsFormatError) as exc:
        # --cover exact on a window past the solver's caps, or a
        # malformed GDS input: a usage error, reported in one line
        # (exit 1 means "ran, not phase-assignable").
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
