"""Dirty-tile ECO scheduling on top of the staged pipeline.

An engineering change order (ECO) edits a few polygons of a chip that
has already been through the flow.  Because per-tile detection results
are content-addressed (:func:`repro.chip.cache.tile_cache_key` hashes
exactly the geometry a tile captured), re-running the pipeline on the
edited layout with the base run's cache re-detects *only* the tiles
whose capture window intersects the edit; every clean tile's cached
detection result is stitched back into the chip-level view unchanged.
The front end (one chip-wide pass), stitch arbitration and the
correction windows are cheap and recomputed on every run.

:func:`plan_eco` predicts that dirty set by diffing the two layouts'
partitions — the same comparison the cache keys make — so the ECO
report can assert the warm run did exactly the expected work, and
:func:`run_eco_flow` executes base + edited runs over one shared cache
and packages the accounting.

Equivalence is structural, not approximate: the cache key covers every
input a tile result depends on, and correction/assignment always run
on the full stitched report, so an ECO run is byte-for-byte the cold
run on the edited layout, minus the clean tiles' work.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..cache import KIND_COLORING, KIND_TILE, KIND_VERIFY, ArtifactCache
from ..chip.partition import TileGrid, TileSpec, auto_tile_grid, \
    normalize_tile_spec, partition_layout
from ..gcpause import gc_paused
from ..layout import Layout, Technology
from .artifacts import PipelineResult
from .runner import PipelineConfig, run_pipeline

RectTuple = Tuple[int, int, int, int]


@dataclass(frozen=True)
class LayoutDiff:
    """Multiset difference of two layouts' poly features."""

    added: Tuple[RectTuple, ...]
    removed: Tuple[RectTuple, ...]

    @property
    def num_changed(self) -> int:
        return len(self.added) + len(self.removed)

    @property
    def unchanged(self) -> bool:
        return not self.added and not self.removed


def diff_layouts(base: Layout, edited: Layout) -> LayoutDiff:
    """Geometry diff: which feature rectangles appeared/disappeared."""
    before = Counter((r.x1, r.y1, r.x2, r.y2) for r in base.features)
    after = Counter((r.x1, r.y1, r.x2, r.y2) for r in edited.features)
    added = sorted((after - before).elements())
    removed = sorted((before - after).elements())
    return LayoutDiff(added=tuple(added), removed=tuple(removed))


@dataclass
class EcoPlan:
    """Which tiles an edit dirties, predicted from geometry alone.

    ``dirty`` tiles are exactly those whose cache key changes between
    the base and edited layouts: a different captured-geometry multiset
    or (after a bounding-box change) different grid cut lines.  A warm
    run re-detects exactly ``dirty`` and replays exactly ``clean`` —
    the accounting :meth:`EcoResult.summary` and the ECO test suite
    assert.
    """

    grid: TileGrid                      # partition of the edited layout
    diff: LayoutDiff
    dirty: List[Tuple[int, int]] = field(default_factory=list)
    clean: List[Tuple[int, int]] = field(default_factory=list)
    bbox_changed: bool = False

    @property
    def num_tiles(self) -> int:
        return self.grid.num_tiles

    @property
    def num_dirty(self) -> int:
        return len(self.dirty)

    @property
    def num_clean(self) -> int:
        return len(self.clean)


def plan_eco(base: Layout, edited: Layout, tech: Technology,
             tiles: TileSpec = None) -> EcoPlan:
    """Predict the dirty-tile set for an edit.

    With ``tiles=None`` the grid is auto-sized **from the base layout**
    so both revisions share one partition even when the edit changes
    the polygon count; the halo is the partition's own
    (:func:`~repro.chip.partition.default_halo`), as in the pipeline.
    Only the edited layout is partitioned: with an unchanged bounding
    box the grids coincide, so a tile's captured multiset (its cache
    key) changes exactly when some added/removed rectangle touches its
    capture window.  A bounding-box change moves the grid cut lines
    under every key — full recompute.
    """
    spec = resolve_eco_tiles(base, tiles)
    grid = partition_layout(edited, tech, tiles=spec)
    plan = EcoPlan(grid=grid, diff=diff_layouts(base, edited))
    base_box = base.bbox()
    plan.bbox_changed = grid.bbox != (
        None if base_box is None
        else (base_box.x1, base_box.y1, base_box.x2, base_box.y2))
    changed = plan.diff.added + plan.diff.removed
    for tile in grid.tiles:
        bx1, by1, bx2, by2 = tile.bounds
        dirty = plan.bbox_changed or any(
            x1 <= bx2 and bx1 <= x2 and y1 <= by2 and by1 <= y2
            for x1, y1, x2, y2 in changed)
        (plan.dirty if dirty else plan.clean).append((tile.ix, tile.iy))
    return plan


def resolve_eco_tiles(base: Layout, tiles: TileSpec) -> Tuple[int, int]:
    """Pin the grid spec from the base revision — a pure function of
    the base layout, so warming and re-running always agree on the
    partition (an edited polygon count, or a different worker count,
    must not re-size the grid under the cache)."""
    return normalize_tile_spec(tiles) or auto_tile_grid(base)


def isolated_interior_features(layout: Layout,
                               tech: Technology) -> List[int]:
    """Features whose shifters overlap nothing and whose rect is
    strictly inside the die bbox.

    Editing such a feature is *conflict-neutral*: shifter ids, overlap
    pairs, and hence the detected conflict set are provably unchanged,
    and the die bbox (the tile grid's frame) stays put.  The ECO tests,
    benchmarks, and CI smoke all derive their single-polygon edit from
    this set so the dirty-tile assertions are exact.
    """
    from ..conflict import layout_front_end
    from ..shifters import pair_columns

    shifters, pairs = layout_front_end(layout, tech)
    involved = set(shifters.feature_column()[
        pair_columns(pairs)[:, :2]].ravel().tolist())
    box = layout.bbox()
    if box is None:
        return []
    return [i for i, r in enumerate(layout.features)
            if i not in involved
            and r.x1 > box.x1 and r.y1 > box.y1
            and r.x2 < box.x2 and r.y2 < box.y2]


def perturb_feature(layout: Layout, index: int, delta: int = 2) -> Layout:
    """Copy the layout with one feature's length shrunk by ``delta``.

    Shrinking (never growing) an isolated feature cannot create new
    shifter interactions, so the edit stays conflict-neutral.
    """
    from ..geometry import Rect

    edited = layout.copy(name=f"{layout.name}+eco")
    r = edited.features[index]
    if r.height >= r.width:
        new = Rect(r.x1, r.y1, r.x2, max(r.y1 + 1, r.y2 - delta))
    else:
        new = Rect(r.x1, r.y1, max(r.x1 + 1, r.x2 - delta), r.y2)
    edited.features[index] = new
    return edited


def propose_eco_edit(layout: Layout, tech: Technology,
                     delta: int = 2,
                     candidate: int = 0) -> Tuple[Layout, int]:
    """A deterministic single-polygon ECO edit of the layout.

    Returns ``(edited layout, edited feature index)``; ``candidate``
    selects among the isolated interior features when the first choice
    is unsuitable (e.g. its edges interfere with cut snapping).
    """
    isolated = isolated_interior_features(layout, tech)
    if not isolated:
        raise ValueError(
            f"{layout.name}: no isolated interior feature to edit")
    index = isolated[candidate % len(isolated)]
    return perturb_feature(layout, index, delta=delta), index


@dataclass
class EcoResult:
    """Outcome of an incremental (warm-cache) pipeline run."""

    plan: EcoPlan
    result: PipelineResult              # pipeline run on the edited layout
    base: Optional[PipelineResult] = None   # present when warmed here
    base_seconds: float = 0.0           # cold/base run wall-clock
    eco_seconds: float = 0.0            # warm run wall-clock

    @property
    def speedup(self) -> float:
        """Cold wall-clock over warm wall-clock.

        0.0 when no meaningful cold baseline exists (pre-warmed cache,
        or a cold run so fast the timer resolution swallowed it) —
        never a division-by-near-zero artifact.
        """
        if self.base_seconds < 1e-9:
            return 0.0
        return self.base_seconds / max(self.eco_seconds, 1e-9)

    def stage_rows(self) -> List[Tuple[str, int, int]]:
        """Warm-path (stage, replayed, recomputed) deltas — one row
        per store-backed stage, read off the run's per-kind store
        counts (both passes summed where a stage runs twice).
        ``phase`` sums the coloring and verifier artifacts of the
        assign stage."""
        counts = self.result.artifact_cache_counts()
        coloring, verify = counts[KIND_COLORING], counts[KIND_VERIFY]
        return [
            ("detect", *counts[KIND_TILE]),
            ("phase", coloring[0] + verify[0], coloring[1] + verify[1]),
        ]

    def _stage_seconds(self, pipe: PipelineResult, stage: str) -> float:
        """Map a summary-table row to pipeline stage wall-clock;
        ``detect`` covers both detection passes."""
        from .artifacts import STAGE_ASSIGN, STAGE_DETECT, STAGE_VERIFY

        secs = pipe.stage_seconds()
        return {
            "detect": secs[STAGE_DETECT] + secs[STAGE_VERIFY],
            "phase": secs[STAGE_ASSIGN],
        }[stage]

    def summary(self) -> str:
        r = self.result
        tiles_line = (f"tiles: {self.plan.num_dirty} dirty / "
                      f"{self.plan.num_clean} clean of "
                      f"{self.plan.num_tiles}"
                      + (" (bbox changed: full recompute)"
                         if self.plan.bbox_changed else ""))
        lines = [
            f"ECO on {r.layout.name}: {self.plan.diff.num_changed} "
            f"feature(s) changed "
            f"(+{len(self.plan.diff.added)}/-{len(self.plan.diff.removed)})",
            tiles_line,
        ]
        with_secs = self.base is not None
        header = f"  {'stage':<10} {'replayed':>9} {'recomputed':>11}"
        if with_secs:
            header += f" {'base_s':>8} {'eco_s':>8}"
        lines.append(header)
        for stage, replayed, recomputed in self.stage_rows():
            row = f"  {stage:<10} {replayed:>9} {recomputed:>11}"
            if with_secs:
                row += (f" {self._stage_seconds(self.base, stage):>8.2f}"
                        f" {self._stage_seconds(r, stage):>8.2f}")
            lines.append(row)
        lines.append(
            f"result: {r.post_detection.num_conflicts} residual "
            f"conflicts, {r.correction.report.num_cuts} cuts, "
            f"success: {r.success}")
        if self.base_seconds:
            lines.append(f"wall: base {self.base_seconds:.2f}s, "
                         f"eco {self.eco_seconds:.2f}s "
                         f"({self.speedup:.1f}x)")
        return "\n".join(lines)


def run_eco_flow(base: Layout, edited: Layout, tech: Technology,
                 config: Optional[PipelineConfig] = None,
                 cache: Optional[ArtifactCache] = None,
                 warm_base: bool = True) -> EcoResult:
    """Run the edited layout through the pipeline, reusing every clean
    tile result, and component coloring and verdict, of the base run.

    Args:
        base: the already-flowed reference revision.
        edited: the revision to re-run incrementally.
        tech: rule deck (must match the warming run's, or every
            content key misses).
        config: pipeline knobs; the tile grid is pinned from the base
            layout so both revisions partition identically.
        cache: an artifact store already warmed by a previous base
            run; a fresh store is created (at ``config.cache_dir``)
            otherwise.
        warm_base: run the base layout first when True — the cold run
            that both warms the cache and provides the baseline
            timing.  Pass False with a pre-warmed ``cache`` to skip it.

    Returns:
        An :class:`EcoResult`; ``result`` is a full
        :class:`~repro.pipeline.artifacts.PipelineResult` on the edited
        layout, indistinguishable from a cold run's.

    Determinism guarantee: equivalence is structural, not timed-out —
    every cache key covers every input its artifact depends on, so the
    warm result equals the cold result byte for byte; the accounting
    (``plan`` dirty set, per-stage hit/miss deltas) proves how little
    was recomputed (on the canonical single-feature edit: detection
    recomputes for dirty tiles only, zero recolors).

    Garbage collection: the run pauses CPython's cyclic garbage
    collector (:func:`repro.gcpause.gc_paused`) for the base and the
    edited flow together and re-enables it on return or raise; a
    collector already disabled on entry stays disabled.
    """
    with gc_paused():
        config = config or PipelineConfig()
        spec = resolve_eco_tiles(base, config.tiles)
        from dataclasses import replace

        from ..obs import get_tracer

        config = replace(config, tiles=spec, tiled=True)
        if cache is None:
            cache = ArtifactCache(config.cache_dir)

        tracer = get_tracer()
        with tracer.span("eco", cat="eco", design=edited.name,
                         warm_base=warm_base) as eco_span:
            with tracer.span("plan", cat="eco") as plan_span:
                plan = plan_eco(base, edited, tech, tiles=spec)
                plan_span.set(dirty=len(plan.dirty), clean=len(plan.clean),
                              bbox_changed=plan.bbox_changed)

            base_result: Optional[PipelineResult] = None
            base_seconds = 0.0
            if warm_base:
                t0 = time.perf_counter()
                base_result = run_pipeline(base, tech, config, cache=cache)
                base_seconds = time.perf_counter() - t0

            t0 = time.perf_counter()
            result = run_pipeline(edited, tech, config, cache=cache)
            eco_seconds = time.perf_counter() - t0
            eco_span.set(dirty_tiles=len(plan.dirty),
                         clean_tiles=len(plan.clean),
                         base_seconds=round(base_seconds, 6),
                         eco_seconds=round(eco_seconds, 6))

        return EcoResult(plan=plan, result=result, base=base_result,
                         base_seconds=base_seconds, eco_seconds=eco_seconds)
