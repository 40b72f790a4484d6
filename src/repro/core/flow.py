"""The end-to-end AAPSM flow: detect, correct, re-verify, assign.

This is the paper's proposed flow as a single call::

    result = run_aapsm_flow(layout, Technology.node_90nm())
    result.success          # phase-assignable after correction?
    result.assignment       # 0/180 phases per shifter
    result.correction.area_increase_pct

The flow *proves* its own result: after applying the end-to-end spaces
it regenerates shifters on the modified layout, re-runs detection, and
only reports success when the corrected layout is genuinely
phase-assignable and the geometric verifier accepts the assignment.

Since the staged-pipeline refactor this module is a thin compatibility
wrapper: the work happens in :func:`repro.pipeline.run_pipeline`
(explicit stages — shifter generation, tiled detection, window-scoped
correction, re-verification, phase assignment — over shared
artifacts), and :class:`FlowResult` is a flat view over its
:class:`~repro.pipeline.PipelineResult`, which rides along in
``result.pipeline`` for stage timings and cache accounting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..cache import KIND_TILE
from ..conflict import PCG, DetectionReport
from ..correction import CorrectionReport
from ..layout import Layout, Technology
from ..phase import PhaseAssignment
from ..pipeline import PipelineConfig, PipelineResult, run_pipeline


@dataclass
class FlowResult:
    """Everything a run of the full flow produced."""

    layout: Layout
    corrected_layout: Layout
    detection: DetectionReport
    correction: CorrectionReport
    post_detection: DetectionReport
    assignment: Optional[PhaseAssignment]
    success: bool
    pipeline: Optional[PipelineResult] = None

    def summary(self) -> str:
        """One-paragraph human-readable outcome."""
        lines = [
            f"design {self.layout.name}: {self.detection.num_features} "
            f"polygons, {self.detection.num_shifters} shifters",
            f"detected {self.detection.num_conflicts} conflicts "
            f"({self.detection.num_conflict_edges} deleted edges, "
            f"|P|={self.detection.crossings_removed})",
            f"correction: {self.correction.num_cuts} end-to-end spaces "
            f"in {self.correction.num_windows} window(s), "
            f"area +{self.correction.area_increase_pct:.2f}%",
            f"post-correction phase-assignable: "
            f"{self.post_detection.phase_assignable}",
            f"success: {self.success}",
        ]
        if self.correction.uncorrectable:
            lines.append(
                f"uncorrectable by spacing: "
                f"{len(self.correction.uncorrectable)} conflicts "
                "(mask splitting / widening territory)")
        if self.pipeline is not None and self.pipeline.tiled:
            hits, misses = self.pipeline.artifact_cache_counts()[KIND_TILE]
            lines.append(f"tile cache: {hits} hits / {misses} misses "
                         f"across both detection passes")
        return "\n".join(lines)


def flow_result_from_pipeline(pipe: PipelineResult) -> FlowResult:
    """Flatten a staged-pipeline result into the legacy shape."""
    return FlowResult(
        layout=pipe.layout,
        corrected_layout=pipe.corrected_layout,
        detection=pipe.detection.report,
        correction=pipe.correction.report,
        post_detection=pipe.post_detection,
        assignment=pipe.assignment,
        success=pipe.success,
        pipeline=pipe,
    )


def run_aapsm_flow(layout: Layout, tech: Technology,
                   kind: str = PCG,
                   cover: str = "auto",
                   tiles=None,
                   jobs: Optional[int] = None,
                   cache_dir: Optional[str] = None,
                   cache=None,
                   incremental: bool = False,
                   executor: Optional[str] = None) -> FlowResult:
    """Detect conflicts, insert spaces, verify, and assign phases.

    Args:
        layout: the input layout (poly layer as rectangles).
        tech: rule deck.
        kind: conflict-graph kind ("pcg", the paper's, or "fg").
        cover: set-cover solver ("auto"/"greedy"/"exact").
        tiles: tile grid spec; enables the tiled path.
        jobs: worker processes for tiled detection.
        cache_dir: directory for the persistent artifact store.
        cache: an existing store (overrides ``cache_dir``).
        incremental: run tiled (with a jobs-blind pinned auto grid)
            even when ``tiles`` is None.
        executor: executor backend name ("serial"/"process" or
            anything registered); None keeps the jobs heuristic.

    With ``tiles`` set (or ``incremental=True``), both detection
    passes run tile-scoped through the shared artifact store
    (``cache_dir``/``cache``; kind ``tile``, plus ``coloring``/
    ``verify`` downstream): tiles the correction leaves untouched are
    hits in the post-correction pass, and a persistent store makes a
    re-run after an edit re-detect only dirty tiles (see
    :mod:`repro.pipeline.eco`).

    Determinism guarantee: the domain outcome (conflicts, cuts,
    phases, area) is identical across every configuration of
    ``tiles``/``jobs``/``cache`` — the knobs trade wall-clock and
    reuse, never the answer.
    """
    if incremental and tiles is None:
        # Pin the auto grid jobs-blind, exactly as the ECO scheduler
        # does (resolve_eco_tiles): a warm run and a later `repro eco`
        # against the same cache must derive the same partition
        # regardless of worker count or machine.
        from ..chip.partition import auto_tile_grid

        tiles = auto_tile_grid(layout)
    config = PipelineConfig(kind=kind, cover=cover,
                            tiles=tiles, jobs=jobs, cache_dir=cache_dir,
                            tiled=True if incremental else None,
                            executor=executor)
    return flow_result_from_pipeline(
        run_pipeline(layout, tech, config, cache=cache))
