"""Layout-modification flow (paper §3.2, steps 3-4).

Grid-lines come from the endpoints of the per-conflict correction
intervals; each grid-line is a candidate set covering every conflict
whose interval contains it, weighted by the largest space any of those
conflicts needs.  A weighted set cover picks the cut positions; the cuts
are then snapped within their legal bands to avoid widening critical
features, and applied as end-to-end spaces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..geometry import Interval
from ..geometry.rect import rect_columns
from ..layout import Layout, Technology, critical_mask
from ..shifters import ShifterSet, generate_shifters
from .options import AXIS_X, AXIS_Y, CorrectionOption, conflict_options
from .spacer import SpaceCut, apply_cuts, stretched_feature_mask
from .windows import CorrectionWindow, solve_cover_windows

ConflictKey = Tuple[int, int]


@dataclass(frozen=True)
class CutRestrictions:
    """Regions where end-to-end cuts may not run.

    The paper's future work: "extensions of the layout modification
    scheme to handle standard-cell blocks, that can restrict the
    insertion of cuts to certain regions and exploit the white-space
    inherent in the layout".  A vertical cut at position x is banned
    when x falls in any ``forbidden_x`` interval (e.g. the x-extent of
    a hard macro), and symmetrically for horizontal cuts.
    """

    forbidden_x: Tuple[Interval, ...] = ()
    forbidden_y: Tuple[Interval, ...] = ()

    def allows(self, axis: str, position: int) -> bool:
        bands = self.forbidden_x if axis == AXIS_X else self.forbidden_y
        return all(position not in band for band in bands)

    @staticmethod
    def protect_rects(rects, margin: int = 0) -> "CutRestrictions":
        """Forbid cuts through the given blocks (plus a margin)."""
        return CutRestrictions(
            forbidden_x=tuple(
                Interval(r.x1 - margin, r.x2 + margin) for r in rects),
            forbidden_y=tuple(
                Interval(r.y1 - margin, r.y2 + margin) for r in rects),
        )


@dataclass(frozen=True)
class GridLine:
    """A candidate cut position and the conflicts it can correct."""

    axis: str
    position: int
    covers: Tuple[ConflictKey, ...]
    width: int  # max `need` over the covered conflicts


@dataclass
class CorrectionReport:
    """Outcome of the layout-modification step (Table 2 material)."""

    layout_name: str
    num_conflicts: int
    corrected: List[ConflictKey] = field(default_factory=list)
    uncorrectable: List[ConflictKey] = field(default_factory=list)
    cuts: List[SpaceCut] = field(default_factory=list)
    num_grid_candidates: int = 0
    max_cover: int = 0              # Table 2 "Max" column
    area_before: int = 0
    area_after: int = 0
    cover_method: str = "greedy"
    stretched_critical: List[int] = field(default_factory=list)
    windows: List[CorrectionWindow] = field(default_factory=list)

    @property
    def num_windows(self) -> int:
        return len(self.windows)

    @property
    def largest_window(self) -> int:
        return max((w.num_conflicts for w in self.windows), default=0)

    @property
    def num_cuts(self) -> int:
        return len(self.cuts)

    @property
    def area_increase_pct(self) -> float:
        if self.area_before == 0:
            return 0.0
        return 100.0 * (self.area_after - self.area_before) / self.area_before


def build_grid_lines(options: Dict[ConflictKey, List[CorrectionOption]]
                     ) -> List[GridLine]:
    """Paper step 3: a grid from the interval endpoints.

    Every interval endpoint is a candidate position on its axis (any
    optimal single-axis cover can be shifted to an endpoint without
    losing coverage, so endpoints suffice).  A sweep over the sorted
    endpoints keeps the active-interval set incrementally, so the cost
    is proportional to the lines produced rather than positions x
    options.
    """
    import heapq

    per_axis: Dict[str, List[CorrectionOption]] = {AXIS_X: [], AXIS_Y: []}
    for opts in options.values():
        for opt in opts:
            per_axis[opt.axis].append(opt)

    lines: List[GridLine] = []
    for axis, opts in per_axis.items():
        positions: Set[int] = set()
        for opt in opts:
            positions.add(opt.interval.lo)
            positions.add(opt.interval.hi)
        by_lo = sorted(opts, key=lambda o: o.interval.lo)
        active: List[Tuple[int, int, CorrectionOption]] = []  # heap on hi
        i = 0
        for pos in sorted(positions):
            while i < len(by_lo) and by_lo[i].interval.lo <= pos:
                opt = by_lo[i]
                heapq.heappush(active, (opt.interval.hi, i, opt))
                i += 1
            while active and active[0][0] < pos:
                heapq.heappop(active)
            if not active:
                continue
            lines.append(GridLine(
                axis=axis,
                position=pos,
                covers=tuple(sorted({o.conflict for _, _, o in active})),
                width=max(o.need for _, _, o in active),
            ))
    return lines


class _SnapIndex:
    """Sorted-edge indexes answering cut-snapping queries in O(log n).

    Built once per correction plan, as sorted int64 columns of the
    layout's rect columns: every feature edge coordinate per axis,
    deduplicated, and the low and high edges of the features a cut on
    each axis would widen (vertical ones for x, horizontal ones for y).
    """

    def __init__(self, layout: Layout):
        import numpy as np

        x1, y1, x2, y2 = rect_columns(layout.features)
        vertical = y2 - y1 >= x2 - x1
        horizontal = ~vertical
        self._edges = {AXIS_X: _edge_column(np, x1, x2),
                       AXIS_Y: _edge_column(np, y1, y2)}
        self._lo = {AXIS_X: np.sort(x1[vertical], kind="stable"),
                    AXIS_Y: np.sort(y1[horizontal], kind="stable")}
        self._hi = {AXIS_X: np.sort(x2[vertical], kind="stable"),
                    AXIS_Y: np.sort(y2[horizontal], kind="stable")}

    def edges_in(self, axis: str, band: Interval) -> List[int]:
        """Feature edge coordinates on this axis within the band."""
        edges = self._edges[axis]
        i = edges.searchsorted(band.lo, side="left")
        j = edges.searchsorted(band.hi, side="right")
        return edges[i:j].tolist()

    def stretched_count(self, axis: str, position: int) -> int:
        """How many critical-axis features a cut here would widen."""
        return int(self._lo[axis].searchsorted(position, side="left")
                   - self._hi[axis].searchsorted(position, side="right"))


def _edge_column(np, lo, hi):
    """Every low and high edge coordinate, ascending, each once."""
    values = np.concatenate((lo, hi))
    values.sort(kind="stable")
    keep = np.ones(len(values), dtype=bool)
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def _snap_cut(layout: Layout, line: GridLine,
              options: Dict[ConflictKey, List[CorrectionOption]],
              restrictions: Optional[CutRestrictions] = None,
              index: Optional[_SnapIndex] = None) -> SpaceCut:
    """Snap a chosen grid-line within its legal band so the cut widens
    as few critical features as possible while still covering the same
    conflicts."""
    band: Optional[Interval] = None
    for key in line.covers:
        for opt in options[key]:
            if opt.axis == line.axis and line.position in opt.interval:
                band = opt.interval if band is None else band.intersection(
                    opt.interval)
    assert band is not None and line.position in band

    if index is None:
        index = _SnapIndex(layout)
    candidates: Set[int] = {band.lo, band.hi, line.position}
    candidates.update(index.edges_in(line.axis, band))
    if restrictions is not None:
        candidates = {c for c in candidates
                      if restrictions.allows(line.axis, c)}

    def badness(pos: int) -> Tuple[int, int]:
        return (index.stretched_count(line.axis, pos), pos)

    best = min(candidates, key=badness)
    return SpaceCut(axis=line.axis, position=best, width=line.width)


def plan_correction(layout: Layout, tech: Technology,
                    conflicts: Sequence[ConflictKey],
                    shifters: Optional[ShifterSet] = None,
                    cover: str = "auto",
                    restrictions: Optional[CutRestrictions] = None
                    ) -> CorrectionReport:
    """Choose end-to-end cuts correcting the given conflicts.

    The set cover is solved per independent conflict window (see
    :mod:`repro.correction.windows`) and the chosen cuts are merged
    chip-wide.

    Args:
        cover: "greedy", "exact", or "auto" (exact when the instance is
            small enough to finish instantly, greedy otherwise).
        restrictions: optional no-cut regions (hard macros etc.);
            conflicts only fixable inside them become uncorrectable.

    Raises:
        ExactCoverTooLargeError: ``cover="exact"`` and some window is
            past the exact solver's caps (checked before any solve).
    """
    if shifters is None:
        shifters = generate_shifters(layout, tech)
    # One bbox serves both areas (die_area() would fold it again).
    box = layout.bbox()
    report = CorrectionReport(layout_name=layout.name,
                              num_conflicts=len(conflicts),
                              area_before=box.area if box is not None else 0)
    report.area_after = report.area_before

    options = conflict_options(list(conflicts), shifters, tech)
    correctable = {k for k, opts in options.items() if opts}

    lines = build_grid_lines({k: options[k] for k in correctable})
    if restrictions is not None:
        lines = [line for line in lines
                 if restrictions.allows(line.axis, line.position)]
        correctable = {key for line in lines for key in line.covers}

    report.uncorrectable = sorted(set(conflicts) - correctable)
    if not correctable:
        return report

    report.num_grid_candidates = len(lines)
    report.max_cover = max(len(line.covers) for line in lines)

    chosen, report.cover_method, report.windows = \
        solve_cover_windows(correctable, lines, cover=cover)

    snap_index = _SnapIndex(layout)
    for set_id in chosen:
        report.cuts.append(_snap_cut(layout, lines[set_id], options,
                                     restrictions, index=snap_index))
    report.corrected = sorted(correctable)

    total_x = sum(c.width for c in report.cuts if c.axis == AXIS_X)
    total_y = sum(c.width for c in report.cuts if c.axis == AXIS_Y)
    if box is not None:
        report.area_after = (box.width + total_x) * (box.height + total_y)
    report.stretched_critical = _stretched_critical(layout, tech,
                                                    report.cuts)
    return report


def _stretched_critical(layout: Layout, tech: Technology,
                        cuts: Sequence[SpaceCut]) -> List[int]:
    """Critical features the cuts widen, ascending: two masks over the
    layout's columns."""
    import numpy as np

    cols = rect_columns(layout.features)
    return np.flatnonzero(stretched_feature_mask(*cols, cuts)
                          & critical_mask(*cols, tech)).tolist()


def correct_layout(layout: Layout, tech: Technology,
                   conflicts: Sequence[ConflictKey],
                   shifters: Optional[ShifterSet] = None,
                   cover: str = "auto",
                   restrictions: Optional[CutRestrictions] = None
                   ) -> Tuple[Layout, CorrectionReport]:
    """Plan and apply the correction; returns the modified layout."""
    report = plan_correction(layout, tech, conflicts, shifters, cover,
                             restrictions)
    modified = apply_cuts(layout, report.cuts)
    return modified, report
