"""Full-chip tiled detection: partition -> execute -> stitch -> report.

:func:`run_chip_flow` is the scale-out entry point of the reproduction:
it cuts the chip into haloed tiles, pushes per-tile conflict detection
— each tile job carrying its slice of the revision's front end —
through a pluggable executor (serial in-process or a multiprocessing
pool) with content-hash result caching, and
stitches the owned per-tile conflicts back into a chip-level
:class:`~repro.conflict.DetectionReport` in the global shifter
numbering — drop-in compatible with the monolithic
``detect_conflicts`` for everything downstream (correction, phase
assignment, tables).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from ..cache import KIND_TILE, ArtifactCache, cache_delta
from ..conflict import PCG, DetectionReport
from ..gcpause import gc_paused
from ..layout import Layout, Technology, with_rect_columns
from ..obs import get_tracer
from ..shifters import (
    FrontEndSlicer,
    OverlapPair,
    ShifterSet,
    find_overlap_pairs,
    generate_shifters,
)
from .cache import tile_cache_key
from .executor import TileResult, detect_tile, make_jobs, \
    resolve_executor
from .partition import TileGrid, TileSpec, partition_layout
from .stitch import stitch_results


@dataclass
class TileStat:
    """One row of the chip report's per-tile table."""

    ix: int
    iy: int
    polygons: int
    conflicts_reported: int
    seconds: float
    from_cache: bool


@dataclass
class ChipReport:
    """Everything a tiled full-chip detection run produced.

    ``cache_delta`` is the run's own store work per artifact kind,
    ``{kind: (hits, misses)}`` (:func:`repro.cache.cache_delta`): the
    ``tile`` kind counts tile results replayed vs detected.
    """

    detection: DetectionReport
    nx: int
    ny: int
    halo: int
    jobs: int
    executor: str = "serial"
    wall_seconds: float = 0.0
    tile_seconds: float = 0.0
    clusters: int = 0
    boundary_duplicates_dropped: int = 0
    cache_delta: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    tile_stats: List[TileStat] = field(default_factory=list)
    unmapped_conflicts: int = 0

    # Convenience passthroughs so a ChipReport reads like a report.
    @property
    def num_conflicts(self) -> int:
        return self.detection.num_conflicts

    @property
    def conflicts(self):
        return self.detection.conflicts

    @property
    def phase_assignable(self) -> bool:
        return self.detection.phase_assignable

    @property
    def num_tiles(self) -> int:
        return self.nx * self.ny

    def summary(self) -> str:
        d = self.detection
        hits, misses = self.cache_delta.get(KIND_TILE, (0, 0))
        lines = [
            f"design {d.layout_name}: {d.num_features} polygons, "
            f"{d.num_shifters} shifters, {d.num_overlap_pairs} "
            f"overlap pairs",
            f"tiling: {self.nx}x{self.ny} grid, halo {self.halo} nm, "
            f"{self.jobs} job(s)",
            f"detected {d.num_conflicts} conflicts in {self.clusters} "
            f"clusters ({len(d.tshape_conflicts)} routed to "
            f"widening/splitting); phase-assignable: {d.phase_assignable}",
            f"wall {self.wall_seconds:.2f}s, tile work "
            f"{self.tile_seconds:.2f}s, cache {hits}/{hits + misses} hits",
        ]
        if self.boundary_duplicates_dropped:
            lines.append(f"boundary duplicates dropped: "
                         f"{self.boundary_duplicates_dropped}")
        if self.unmapped_conflicts:
            lines.append(f"WARNING: {self.unmapped_conflicts} cached "
                         "conflicts no longer map to layout geometry")
        return "\n".join(lines)


def run_chip_flow(layout: Layout, tech: Technology,
                  tiles: TileSpec = None,
                  jobs: Optional[int] = None,
                  cache_dir: Optional[str] = None,
                  cache: Optional[ArtifactCache] = None,
                  kind: str = PCG,
                  front: Optional[Tuple[ShifterSet,
                                        List[OverlapPair]]] = None,
                  grid: Optional[TileGrid] = None,
                  executor: Optional[str] = None) -> ChipReport:
    """Tiled, parallel, cached full-chip conflict detection.

    Deterministic by construction: the partition, per-tile detection
    (tie-free generic weights), and cluster-arbitrated stitching are
    all pure functions of ``(layout, tech, tiles, kind)``, so
    two runs — serial or parallel, cold or cached, any executor
    backend — produce the identical chip-level report.  The capture
    halo is the partition's own
    (:func:`~repro.chip.partition.default_halo`).

    Args:
        layout: the chip layout.
        tech: rule deck.
        tiles: grid spec (``n``, ``(nx, ny)``, or None for automatic).
        jobs: worker count; with no ``executor`` named, None/1 runs
            serially in-process and n > 1 fans out over n processes.
        cache_dir: directory for a fresh persistent artifact store;
            None keeps caching in-memory only (pass ``cache`` to share
            one across calls, e.g. between the pre- and post-correction
            runs).
        cache: an existing :class:`~repro.cache.ArtifactCache` to use;
            overrides ``cache_dir``.  It holds the tile results (kind
            ``tile``).
        kind: conflict-graph kind ("pcg"/"fg").
        front: the revision's chip front end ``(shifters, pairs)``,
            e.g. the pipeline's front-end stage output.  Every tile job
            the store cannot replay is handed its slice of it, so no
            tile regenerates shifters, and the stitcher numbers the
            report by its shifters.  None computes the chip front end
            here, once: shifters always (the stitcher needs them),
            overlap pairs only when some tile must be detected.
        grid: an already-computed partition of ``layout`` (e.g. the
            tiled front-end stage's); must have been produced with the
            same ``tiles``/``jobs`` arguments.  None partitions here.
        executor: executor backend name from the registry ("serial",
            "process", or anything registered via
            :func:`repro.chip.executor.register_executor`); None keeps
            the historical jobs-count heuristic.

    Returns:
        A :class:`ChipReport`; ``report.detection`` is a chip-level
        :class:`DetectionReport` in global shifter ids.
        ``report.cache_delta`` is the store's count of this run's work
        (kind ``tile``), so a store shared across passes reports each
        pass separately.

    Garbage collection: the run pauses CPython's cyclic garbage
    collector (:func:`repro.gcpause.gc_paused`) and re-enables it on
    return or raise; a collector already disabled on entry stays
    disabled.  Process-executor workers forked during the run inherit
    the pause and exit when the map ends.  The detection code creates
    no reference cycles, so the pause holds back no memory.
    """
    with gc_paused():
        start = time.perf_counter()
        tracer = get_tracer()
        layout = with_rect_columns(layout)
        if cache is None:
            cache = ArtifactCache(cache_dir)
        with tracer.span("chip", cat="chip", design=layout.name) as chip_span, \
                cache_delta(cache) as delta:
            if grid is None:
                with tracer.span("partition", cat="chip"):
                    grid = partition_layout(layout, tech, tiles=tiles,
                                            jobs=jobs)
            runner = resolve_executor(jobs, executor)
            workers = max(int(getattr(runner, "jobs", 1) or 1), 1)

            if front is None:
                shifters, pairs = generate_shifters(layout, tech), None
            else:
                shifters, pairs = front

            jobs_all = make_jobs(grid.tiles, tech, kind=kind)
            with tracer.span("execute", cat="chip") as exec_span:
                keys = [tile_cache_key(job) for job in jobs_all]
                results: List[Optional[TileResult]] = [
                    cache.get(KIND_TILE, k) for k in keys]

                pending = [(i, job) for i, (job, res)
                           in enumerate(zip(jobs_all, results)) if res is None]
                map_started = time.time()
                if pending:
                    if pairs is None:
                        pairs = find_overlap_pairs(shifters, tech)
                    slicer = FrontEndSlicer(shifters, pairs,
                                            layout.num_polygons)
                    # Each slice is built as its job is drawn, so a
                    # serial run never holds them all at once.
                    work = (replace(job, front=slicer.slice(job.feature_ids))
                            for _, job in pending)
                    fresh = runner.map(detect_tile, work)
                    for (i, _job), result in zip(pending, fresh):
                        cache.put(KIND_TILE, keys[i], result)
                        results[i] = result
                # Merge the workers' own measurements back as child spans:
                # every executor backend (serial, process) yields the
                # same trace structure, and computed tiles land on worker
                # lanes at their true wall-clock position so parallel runs
                # show genuinely overlapping tile spans.
                for lane, (i, _job) in enumerate(pending):
                    r = results[i]
                    started = getattr(r, "started_unix", 0.0)
                    queued = max(0.0, started - map_started) if started else 0.0
                    tracer.record(
                        "tile", r.seconds, cat="tile",
                        cpu=getattr(r, "cpu_seconds", 0.0),
                        start_unix=started or None,
                        tid=1 + lane % workers,
                        tile=[r.ix, r.iy], cached=False,
                        conflicts=len(r.conflicts))
                    tracer.count("executor.run_seconds", r.seconds)
                    tracer.count("executor.queue_seconds", queued)
                tracer.count("executor.jobs", len(pending))
                for r in results:
                    if r is not None and r.from_cache:
                        tracer.record("tile", 0.0, cat="tile",
                                      tile=[r.ix, r.iy], cached=True,
                                      conflicts=len(r.conflicts))
                tracer.gauge("executor.workers", workers)
                exec_span.set(executor=getattr(runner, "name",
                                               type(runner).__name__),
                              workers=workers, computed=len(pending),
                              cached=len(results) - len(pending))

            final: List[TileResult] = [r for r in results if r is not None]
            with tracer.span("stitch", cat="chip") as stitch_span:
                detection, stats = stitch_results(layout, kind, grid,
                                                  final, shifters)
                stitch_span.set(clusters=stats.clusters)
        # ``delta`` is filled as its block exits; the chip span takes
        # its cache figures from it.
        hits, misses = delta.get(KIND_TILE, (0, 0))
        chip_span.set(tiles=grid.nx * grid.ny, cache_hits=hits,
                      cache_misses=misses, conflicts=detection.num_conflicts)

        report = ChipReport(
            detection=detection,
            nx=grid.nx, ny=grid.ny, halo=grid.halo,
            jobs=getattr(runner, "jobs", 1),
            executor=getattr(runner, "name", type(runner).__name__),
            tile_seconds=stats.tile_seconds,
            clusters=stats.clusters,
            boundary_duplicates_dropped=stats.boundary_duplicates_dropped,
            cache_delta=delta,
            tile_stats=[TileStat(ix=r.ix, iy=r.iy,
                                 polygons=r.report.num_features,
                                 conflicts_reported=len(r.conflicts),
                                 seconds=r.seconds,
                                 from_cache=r.from_cache)
                        for r in final],
            unmapped_conflicts=len(stats.unmapped_conflicts),
        )
        report.wall_seconds = time.perf_counter() - start
        # The chip detection's end-to-end time is the orchestration wall
        # clock, not the sum of tile work (which can exceed it under
        # parallel execution).
        detection.detect_seconds = report.wall_seconds
        return report
