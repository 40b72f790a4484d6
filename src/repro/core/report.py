"""Machine-readable flow reports.

Turns a :class:`repro.core.FlowResult` into a plain JSON-serializable
dict (and back onto disk), so downstream tooling — regression tracking,
dashboards, CI assertions, the paper-table generators — can consume
flow outcomes without touching the object model.

Every builder takes ``timings=False`` to omit wall-clock fields: a
seeded design then serializes byte-identically across runs, which the
determinism regression suite asserts.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Tuple

from ..cache import KIND_COLORING, KIND_TILE, KIND_VERIFY
from .flow import FlowResult


def detection_dict(report, timings: bool = True) -> Dict[str, Any]:
    out = {
        "layout": report.layout_name,
        "graph_kind": report.graph_kind,
        "num_features": report.num_features,
        "num_critical": report.num_critical,
        "num_shifters": report.num_shifters,
        "num_overlap_pairs": report.num_overlap_pairs,
        "graph_nodes": report.graph_nodes,
        "graph_edges": report.graph_edges,
        "crossings_removed": report.crossings_removed,
        "step2_edges": report.step2_edges,
        "step2_weight": report.step2_weight,
        "step3_edges": report.step3_edges,
        "phase_assignable": report.phase_assignable,
        "conflicts": [[c.a, c.b] for c in report.conflicts],
        "tshape_conflicts": [[c.a, c.b] for c in report.tshape_conflicts],
        "tshape_features": list(report.tshape_features),
        "uncorrectable_features": list(report.uncorrectable_features),
    }
    if timings:
        out["detect_seconds"] = report.detect_seconds
    return out


def correction_dict(report, timings: bool = True) -> Dict[str, Any]:
    del timings  # no wall-clock fields yet; kept for signature symmetry
    return {
        "num_conflicts": report.num_conflicts,
        "corrected": [list(k) for k in report.corrected],
        "uncorrectable": [list(k) for k in report.uncorrectable],
        "cuts": [{"axis": c.axis, "position": c.position,
                  "width": c.width} for c in report.cuts],
        "num_grid_candidates": report.num_grid_candidates,
        "max_cover": report.max_cover,
        "cover_method": report.cover_method,
        "num_windows": report.num_windows,
        "largest_window": report.largest_window,
        "windows": [{"conflicts": [list(k) for k in w.conflicts],
                     "num_lines": w.num_lines}
                    for w in report.windows],
        "area_before": report.area_before,
        "area_after": report.area_after,
        "area_increase_pct": report.area_increase_pct,
        "stretched_critical": list(report.stretched_critical),
    }


def chip_report_dict(chip, timings: bool = True) -> Dict[str, Any]:
    """A :class:`repro.chip.ChipReport` as a JSON-serializable dict."""
    out: Dict[str, Any] = {
        "grid": {"nx": chip.nx, "ny": chip.ny, "halo": chip.halo},
        "jobs": chip.jobs,
        "executor": chip.executor,
        "num_tiles": chip.num_tiles,
        "clusters": chip.clusters,
        "boundary_duplicates_dropped": chip.boundary_duplicates_dropped,
        "unmapped_conflicts": chip.unmapped_conflicts,
        "cache": kind_dict(chip.cache_delta, KIND_TILE),
        "detection": detection_dict(chip.detection, timings=timings),
    }
    tiles = [{"ix": s.ix, "iy": s.iy, "polygons": s.polygons,
              "conflicts_reported": s.conflicts_reported,
              "from_cache": s.from_cache}
             for s in chip.tile_stats]
    if timings:
        out["wall_seconds"] = chip.wall_seconds
        out["tile_seconds"] = chip.tile_seconds
        for stat, row in zip(chip.tile_stats, tiles):
            row["seconds"] = stat.seconds
    out["tiles"] = tiles
    return out


def cache_dict(hits: int, misses: int) -> Dict[str, Any]:
    total = hits + misses
    return {
        "hits": hits,
        "misses": misses,
        "requests": total,
        "hit_rate": hits / total if total else 0.0,
    }


def kind_dict(delta: Dict[str, Tuple[int, int]],
              kind: str) -> Dict[str, Any]:
    """One kind of a per-kind store delta as a :func:`cache_dict`."""
    return cache_dict(*delta.get(kind, (0, 0)))


def pipeline_dict(pipe, timings: bool = True) -> Dict[str, Any]:
    """Stage-level accounting of a :class:`~repro.pipeline.PipelineResult`.

    Every hit/miss figure is one kind of a store delta: a stage's
    ``cache_delta`` per pass, ``artifact_cache_counts()`` for the whole
    run.  ``cache``/``detect_cache``/``verify_cache`` keep their
    historical tile-pass meaning; ``phase`` carries the coloring and
    verifier kinds, so a warm ECO's "only dirty work recomputed"
    property is assertable straight off the JSON report.
    """
    totals = pipe.artifact_cache_counts()
    verification = pipe.verification
    out: Dict[str, Any] = {
        "tiled": pipe.tiled,
        "front_reused_for_verify": verification.front_reused,
        "cache": cache_dict(*totals[KIND_TILE]),
        "detect_cache": kind_dict(pipe.detection.cache_delta, KIND_TILE),
        "verify_cache": kind_dict(verification.cache_delta, KIND_TILE),
        "phase": {
            "incremental": pipe.phase.incremental,
            "components": pipe.phase.components,
            "coloring": kind_dict(pipe.phase.cache_delta, KIND_COLORING),
            "verify": kind_dict(pipe.phase.cache_delta, KIND_VERIFY),
        },
    }
    if pipe.tiled:
        out["executor"] = pipe.detection.chip.executor
    if timings:
        out["stage_seconds"] = pipe.stage_seconds()
        out["wall_seconds"] = pipe.wall_seconds
    return out


def eco_result_dict(eco, timings: bool = True) -> Dict[str, Any]:
    """A :class:`repro.pipeline.EcoResult` as a JSON-serializable dict."""
    from .flow import flow_result_from_pipeline

    plan = eco.plan
    out: Dict[str, Any] = {
        "plan": {
            "grid": {"nx": plan.grid.nx, "ny": plan.grid.ny,
                     "halo": plan.grid.halo},
            "num_tiles": plan.num_tiles,
            "dirty": [list(t) for t in plan.dirty],
            "num_dirty": plan.num_dirty,
            "num_clean": plan.num_clean,
            "bbox_changed": plan.bbox_changed,
            "features_added": len(plan.diff.added),
            "features_removed": len(plan.diff.removed),
        },
        "flow": flow_result_dict(flow_result_from_pipeline(eco.result),
                                 timings=timings),
    }
    if timings:
        out["eco_seconds"] = eco.eco_seconds
        if eco.base_seconds:
            # Only meaningful when this invocation paid the cold base
            # run; with a pre-warmed cache there is no baseline.
            out["base_seconds"] = eco.base_seconds
            out["speedup"] = eco.speedup
    return out


def flow_result_dict(result: FlowResult,
                     timings: bool = True) -> Dict[str, Any]:
    """The whole flow outcome as one JSON-serializable dict."""
    out: Dict[str, Any] = {
        "design": result.layout.name,
        "success": result.success,
        "detection": detection_dict(result.detection, timings=timings),
        "correction": correction_dict(result.correction, timings=timings),
        "post_detection": detection_dict(result.post_detection,
                                         timings=timings),
    }
    if result.assignment is not None:
        out["phases"] = {str(k): v
                         for k, v in sorted(result.assignment.phases.items())}
    if result.pipeline is not None:
        out["pipeline"] = pipeline_dict(result.pipeline, timings=timings)
    return out


def save_flow_report(result: FlowResult, path: str,
                     timings: bool = True) -> None:
    """Write the flow outcome as pretty-printed JSON."""
    with open(path, "w") as f:
        json.dump(flow_result_dict(result, timings=timings), f,
                  indent=2, sort_keys=True)
        f.write("\n")


def load_flow_report(path: str) -> Dict[str, Any]:
    with open(path) as f:
        return json.load(f)
