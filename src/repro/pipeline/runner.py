"""The staged AAPSM pipeline: explicit stages over shared artifacts.

The paper's flow — detect, correct, re-verify, assign — as five
explicit stages::

    shifters -> detect -> correct -> verify -> assign

Each stage is an ordinary function from artifacts to artifacts
(:mod:`repro.pipeline.artifacts`), so callers can run the whole thing
via :func:`run_pipeline` or drive stages individually (the ECO
scheduler re-enters the pipeline with a warm tile cache).  Compared to
the old monolithic ``run_aapsm_flow`` body:

* shifter generation runs **once per layout revision**, chip-wide,
  on either path, and is shared by detection, correction planning,
  stitching, and the phase verifier (previously regenerated up to
  four times); tiled detection hands every tile job its slice of that
  front end instead of regenerating it
  (:mod:`repro.shifters.frontend`);
* both detection passes can run tiled through
  :func:`repro.chip.run_chip_flow` over one shared
  :class:`~repro.cache.ArtifactCache`, and every stage that uses the
  store records the store's own hit/miss delta over its work
  (:func:`repro.cache.cache_delta`) — the accounting the dirty-tile
  ECO scheduler asserts on;
* correction is window-scoped: the weighted set cover is solved per
  independent conflict window and the cuts merged chip-wide
  (:mod:`repro.correction.windows`), matching the whole-instance
  result exactly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from ..cache import KIND_COLORING, KIND_TILE, KIND_VERIFY, ArtifactCache, \
    cache_delta
from ..chip import run_chip_flow
from ..chip.partition import TileSpec, partition_layout
from ..conflict import (
    PCG,
    build_layout_conflict_graph,
    detect_conflicts,
    layout_front_end,
)
from ..correction import apply_cuts, plan_correction
from ..gcpause import gc_paused
from ..layout import Layout, Technology, with_rect_columns
from ..obs import get_tracer
from ..phase import (
    assign_and_verify_incremental,
    assign_phases,
    verify_assignment,
)
from ..shifters import tiled_front_end
from .artifacts import (
    AssignmentArtifact,
    CorrectionArtifact,
    DetectionArtifact,
    FrontEnd,
    PipelineResult,
)

@dataclass
class PipelineConfig:
    """Everything that parameterises a pipeline run.

    ``tiled`` forces the tiled path even with an automatic grid
    (``tiles=None``); by default the pipeline tiles exactly when a
    grid spec is given, preserving ``run_aapsm_flow`` semantics.
    ``executor`` names a backend from the chip executor registry
    ("serial" / "process" / anything registered), resolved when a
    tiled stage runs; None keeps the historical jobs-count heuristic.
    The backend trades wall-clock only — the report is identical under
    every executor.  ``cache_dir`` backs the store a tiled run creates
    when it is given none.  The tiled path's capture halo is not a
    knob: the partition always uses
    :func:`~repro.chip.partition.default_halo`, the reach the tiled ==
    monolithic argument is made for.  No-cut regions are not a knob
    either; :func:`~repro.correction.plan_correction` takes them.
    """

    kind: str = PCG
    cover: str = "auto"
    tiles: TileSpec = None
    jobs: Optional[int] = None
    cache_dir: Optional[str] = None
    tiled: Optional[bool] = None
    executor: Optional[str] = None

    @property
    def is_tiled(self) -> bool:
        if self.tiled is not None:
            return self.tiled
        return self.tiles is not None


# ----------------------------------------------------------------------
# Stages
# ----------------------------------------------------------------------
def stage_front_end(layout: Layout, tech: Technology,
                    config: Optional[PipelineConfig] = None) -> FrontEnd:
    """Stage 1 — shifter generation for one layout revision.

    Every revision generates shifters and overlap pairs once,
    chip-wide (:func:`~repro.shifters.frontend.tiled_front_end` on a
    tiled ``config``).  A tiled stage also partitions the revision as
    the detect stage will (``config.tiles`` / ``jobs`` steer both
    identically); the grid rides along to the detect stage, which
    slices this front end into its tile jobs.  Every layout, empty or
    not, takes this route on a tiled config.

    Called with just ``(layout, tech)`` — the historical signature —
    or an untiled config, the stage is the plain monolithic front end.

    The artifact's layout is the revision with its feature columns
    converted (:func:`~repro.layout.with_rect_columns`), so the
    partition, the front end, detection and correction of this
    revision all read one conversion.
    """
    start = time.perf_counter()
    layout = with_rect_columns(layout)
    with get_tracer().span("shifters", cat="stage") as span:
        if config is not None and config.is_tiled:
            grid = partition_layout(layout, tech, tiles=config.tiles,
                                    jobs=config.jobs)
            shifters, pairs = tiled_front_end(layout, tech)
            span.set(tiled=True, shifters=len(shifters))
            return FrontEnd(layout=layout, shifters=shifters,
                            pairs=pairs, grid=grid, tiled=True,
                            seconds=time.perf_counter() - start)
        shifters, pairs = layout_front_end(layout, tech)
        span.set(tiled=False, shifters=len(shifters))
        return FrontEnd(layout=layout, shifters=shifters, pairs=pairs,
                        seconds=time.perf_counter() - start)


def stage_detect(front: FrontEnd, tech: Technology,
                 config: PipelineConfig,
                 cache: Optional[ArtifactCache] = None
                 ) -> DetectionArtifact:
    """Stage 2/4 — conflict detection on one layout revision.

    Tiled when the config says so (partition -> execute -> stitch with
    the shared cache); monolithic otherwise, reusing the front end for
    the graph build.  A front end that already carries a partition
    (the tiled front-end stage ran) hands its grid to the orchestrator
    so the layout is partitioned once per revision, not once per pass;
    the tiled path also hands over the front end itself, which the
    orchestrator slices into its tile jobs.
    """
    start = time.perf_counter()
    with get_tracer().span("detect", cat="stage") as span:
        if config.is_tiled:
            chip = run_chip_flow(front.layout, tech, tiles=config.tiles,
                                 jobs=config.jobs, cache=cache,
                                 kind=config.kind,
                                 front=(front.shifters, front.pairs),
                                 grid=front.grid,
                                 executor=config.executor)
            artifact = DetectionArtifact(
                report=chip.detection, front=front, chip=chip,
                cache_delta=chip.cache_delta,
                seconds=time.perf_counter() - start)
            span.set(tiled=True, conflicts=chip.detection.num_conflicts,
                     **_detect_counts(artifact))
            return artifact
        prebuilt = build_layout_conflict_graph(
            front.layout, tech, config.kind,
            front=(front.shifters, front.pairs))
        report = detect_conflicts(front.layout, tech, kind=config.kind,
                                  prebuilt=prebuilt)
        span.set(tiled=False, conflicts=report.num_conflicts)
        return DetectionArtifact(report=report, front=front,
                                 graph=prebuilt[0],
                                 seconds=time.perf_counter() - start)


def _detect_counts(artifact: DetectionArtifact) -> dict:
    """A detection pass's span attributes, read off its store delta."""
    hits, misses = artifact.cache_delta.get(KIND_TILE, (0, 0))
    return dict(cache_hits=hits, cache_misses=misses)


def stage_correct(detection: DetectionArtifact, tech: Technology,
                  config: PipelineConfig) -> CorrectionArtifact:
    """Stage 3 — window-scoped correction, cuts merged chip-wide.

    Every window is solved on every run; the stage uses no store.
    """
    start = time.perf_counter()
    with get_tracer().span("correct", cat="stage") as span:
        front = detection.front
        conflicts = [c.key for c in detection.report.conflicts]
        report = plan_correction(front.layout, tech, conflicts,
                                 shifters=front.shifters,
                                 cover=config.cover)
        corrected = apply_cuts(front.layout, report.cuts)
        span.set(cuts=len(report.cuts))
        return CorrectionArtifact(report=report, corrected_layout=corrected,
                                  seconds=time.perf_counter() - start)


def stage_verify(correction: CorrectionArtifact, tech: Technology,
                 config: PipelineConfig,
                 base_front: FrontEnd,
                 cache: Optional[ArtifactCache] = None
                 ) -> DetectionArtifact:
    """Stage 4 — re-detect on the corrected layout.

    When correction applied no cuts the geometry is untouched, so the
    base revision's shifter pass is reused instead of regenerated.
    """
    start = time.perf_counter()
    with get_tracer().span("verify", cat="stage") as span:
        if correction.unchanged:
            front = FrontEnd(layout=correction.corrected_layout,
                             shifters=base_front.shifters,
                             pairs=base_front.pairs, seconds=0.0,
                             grid=base_front.grid, tiled=base_front.tiled)
            reused = True
        else:
            front = stage_front_end(correction.corrected_layout, tech,
                                    config)
            reused = False
        artifact = stage_detect(front, tech, config, cache=cache)
        artifact.front_reused = reused
        artifact.seconds = time.perf_counter() - start
        span.set(front_reused=reused,
                 conflicts=artifact.report.num_conflicts,
                 **_detect_counts(artifact))
        return artifact


def stage_assign(verification: DetectionArtifact, tech: Technology,
                 config: PipelineConfig,
                 cache: Optional[ArtifactCache] = None
                 ) -> AssignmentArtifact:
    """Stage 5 — 0/180 assignment plus the geometric verifier.

    The conflict graph is the monolithic verify pass's own, with its
    planarization casualties restored; a tiled pass has none, so the
    stage builds the chip-wide graph.  Over a store, both run
    component-scoped: unchanged conflict-graph components replay their
    cached coloring and verifier verdict, and only components whose
    content an edit touched are recolored and geometrically re-checked.
    The outcome is identical to the cold chip-wide coloring + full-chip
    verification (canonical polarity pins the coloring; component
    scopes partition the checks exactly).
    """
    start = time.perf_counter()
    with get_tracer().span("assign", cat="stage") as span:
        artifact = AssignmentArtifact()
        if verification.report.phase_assignable:
            front = verification.front
            cg = verification.graph
            if cg is None:
                cg, _shifters, _pairs = build_layout_conflict_graph(
                    front.layout, tech, config.kind,
                    front=(front.shifters, front.pairs))
            else:
                for eid in cg.graph.removed_edge_ids():
                    cg.graph.restore_edge(eid)
            if cache is None:
                artifact.assignment = assign_phases(cg)
                if artifact.assignment is not None:
                    artifact.problems = verify_assignment(
                        front.shifters, artifact.assignment, tech,
                        pairs=front.pairs)
                    artifact.success = not artifact.problems
            else:
                with cache_delta(cache) as delta:
                    assignment, problems, components = \
                        assign_and_verify_incremental(
                            cg, tech, front.pairs, cache)
                artifact.assignment = assignment
                artifact.incremental = True
                artifact.components = components
                artifact.cache_delta = delta
                if assignment is not None:
                    artifact.problems = problems
                    artifact.success = not problems
        artifact.seconds = time.perf_counter() - start
        coloring_hits, recolored = artifact.cache_delta.get(KIND_COLORING,
                                                            (0, 0))
        verify_hits, verified = artifact.cache_delta.get(KIND_VERIFY, (0, 0))
        span.set(incremental=artifact.incremental,
                 components=artifact.components,
                 recolored=recolored,
                 coloring_hits=coloring_hits,
                 verified=verified,
                 verify_hits=verify_hits,
                 success=artifact.success)
        return artifact


# ----------------------------------------------------------------------
# Orchestration
# ----------------------------------------------------------------------
def run_pipeline(layout: Layout, tech: Technology,
                 config: Optional[PipelineConfig] = None,
                 cache: Optional[ArtifactCache] = None
                 ) -> PipelineResult:
    """Run the full staged pipeline on one layout.

    Args:
        layout: the layout revision to push through detect → correct
            → re-verify → assign.
        tech: rule deck.
        config: pipeline knobs (graph kind, set-cover solver, tile
            grid, workers, store directory, tiled switch, executor);
            defaults to the untiled monolithic configuration.
        cache: an :class:`~repro.cache.ArtifactCache` shared by
            every stage *and* across calls — pass the same store for a
            base and an edited run and only dirty tiles and graph
            components recompute (the ECO warm path).  A tiled
            config with no cache gets a fresh store at
            ``config.cache_dir``; an untiled, uncached run stays on
            the historical chip-wide code path.

    Cache behaviour: on the tiled path all three artifact kinds are
    exercised — per-tile detection results (``tile``), component
    colorings (``coloring``), and verifier verdicts (``verify``) — and
    each stage records the store's delta over its own work on its
    artifact (``cache_delta``).  Each stage touches only its own
    kinds, so the deltas add up to the store's counts for the run
    (``artifact_cache_counts()``).  The front end, stitch arbitration
    and the correction windows are recomputed on every run.

    Determinism guarantee: the result is a pure function of
    ``(layout, tech, config)`` — identical conflicts, cuts, and phase
    assignment whether run cold or warm, serial or parallel, tiled or
    monolithic (tie-free generic weights make the per-tile optimum
    view-independent; cached artifacts replay bit-exact).  Only
    wall-clock fields and work accounting differ between runs.

    Garbage collection: the run pauses CPython's cyclic garbage
    collector (:func:`repro.gcpause.gc_paused`) and re-enables it on
    return or raise.  The flow creates no reference cycles, so the
    pause holds back no memory.  A collector that is already disabled
    on entry stays disabled.
    """
    with gc_paused():
        config = config or PipelineConfig()
        start = time.perf_counter()
        if cache is None and config.is_tiled:
            cache = ArtifactCache(config.cache_dir)

        with get_tracer().span("flow", cat="flow", design=layout.name):
            front = stage_front_end(layout, tech, config)
            detection = stage_detect(front, tech, config, cache=cache)
            # Only the verify pass's conflict graph serves a later
            # stage.
            detection.graph = None
            correction = stage_correct(detection, tech, config)
            verification = stage_verify(correction, tech, config, front,
                                        cache=cache)
            # The partitions have served both detection passes; don't
            # pin their tile sub-layouts (halo-inflated duplicates of
            # the chip geometry) through the assign stage, or on
            # artifacts a caller may keep alive long after the run.
            front.grid = None
            verification.front.grid = None
            phase = stage_assign(verification, tech, config, cache=cache)
            verification.graph = None

        return PipelineResult(
            layout=layout,
            front=front,
            detection=detection,
            correction=correction,
            verification=verification,
            phase=phase,
            wall_seconds=time.perf_counter() - start,
        )
