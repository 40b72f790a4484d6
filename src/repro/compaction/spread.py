"""Conflict-driven spreading via constraint-graph compaction.

The alternative corrector: instead of full-die end-to-end spaces, push
individual features apart just enough to separate each conflict's
shifters, propagating through a 1-D constraint graph per axis (x pass,
then y pass).  This is our reconstruction of the compaction-based
school of phase-conflict correction (Ooi et al.) that the paper's
scheme competes with, and the ablation bench compares their area costs.

Safety model: *spread-only* — every feature's new coordinate is lower
bounded by its original one, and every ordered pair of features that
interacts along the axis keeps at least its original gap, so existing
spacings never shrink (same invariant as the end-to-end spacer, tested
the same way).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from ..geometry import Rect
from ..layout import Layout, Technology
from ..shifters import ShifterSet, generate_shifters
from .constraints import ConstraintGraph

ConflictKey = Tuple[int, int]

# How far (in nm) two features can sit apart and still interact through
# shifter geometry; pairs beyond this need no ordering constraint.
_INTERACTION_WINDOW = 2500

# Cross-axis distance within which an ordered pair still gets an
# ordering constraint even when its cross-axis projections are disjoint
# (diagonal neighbours): generously above every spacing rule, so no
# rule-relevant separation can ever shrink.
_CROSS_MARGIN = 700


@dataclass
class SpreadResult:
    """Outcome of conflict-driven spreading."""

    layout: Layout
    moved_features: int = 0
    area_before: int = 0
    area_after: int = 0
    resolved: List[ConflictKey] = field(default_factory=list)
    unresolved: List[ConflictKey] = field(default_factory=list)

    @property
    def area_increase_pct(self) -> float:
        if self.area_before == 0:
            return 0.0
        return 100.0 * (self.area_after - self.area_before) / \
            self.area_before


def _axis_views(rect: Rect, axis: str) -> Tuple[int, int, int, int]:
    """(lo, hi, other_lo, other_hi) of a rect along an axis."""
    if axis == "x":
        return rect.x1, rect.x2, rect.y1, rect.y2
    return rect.y1, rect.y2, rect.x1, rect.x2


def _one_axis_pass(layout: Layout, tech: Technology,
                   conflict_needs: Dict[ConflictKey, int],
                   shifters: ShifterSet, axis: str) -> Layout:
    """Spread features along one axis to honour the conflict needs."""
    feats = layout.features
    graph = ConstraintGraph()
    for i, rect in enumerate(feats):
        lo, _hi, _olo, _ohi = _axis_views(rect, axis)
        graph.add_node(i, lo)

    # Ordering constraints: keep every interacting ordered pair at
    # least as far apart as it is now.
    order = sorted(range(len(feats)),
                   key=lambda i: _axis_views(feats[i], axis)[0])
    active: List[int] = []
    for i in order:
        lo_i, _hi_i, olo_i, ohi_i = _axis_views(feats[i], axis)
        active = [j for j in active
                  if _axis_views(feats[j], axis)[1]
                  >= lo_i - _INTERACTION_WINDOW]
        for j in active:
            lo_j, hi_j, olo_j, ohi_j = _axis_views(feats[j], axis)
            cross_gap = max(olo_i - ohi_j, olo_j - ohi_i)
            if cross_gap < _CROSS_MARGIN and hi_j <= lo_i:
                # j entirely before i, close enough in the cross axis
                # (overlapping or diagonal): keep the current delta.
                graph.add_constraint(j, i, lo_i - lo_j)
        active.append(i)

    # Conflict constraints: original delta plus the missing spacing.
    for key, need in conflict_needs.items():
        fa = shifters[key[0]].feature_index
        fb = shifters[key[1]].feature_index
        if fa == fb:
            continue
        lo_a = _axis_views(feats[fa], axis)[0]
        lo_b = _axis_views(feats[fb], axis)[0]
        first, second = (fa, fb) if lo_a <= lo_b else (fb, fa)
        delta = abs(lo_b - lo_a)
        graph.add_constraint(first, second, delta + need)

    pos = graph.solve()
    out = layout.copy(name=layout.name)
    for i, rect in enumerate(feats):
        lo = _axis_views(rect, axis)[0]
        shift = pos[i] - lo
        if shift:
            out.features[i] = (rect.translated(shift, 0) if axis == "x"
                               else rect.translated(0, shift))
    return out


def spread_conflicts(layout: Layout, tech: Technology,
                     conflicts: Sequence[ConflictKey]) -> SpreadResult:
    """Resolve conflicts by constraint-graph spreading (x then y).

    Each conflict is assigned the axis where it needs the smaller push
    (falling back to whichever is feasible); conflicts with no feasible
    axis are reported unresolved, mirroring the spacing corrector.
    """
    from ..correction import conflict_options

    shifters = generate_shifters(layout, tech)
    options_of = conflict_options(list(conflicts), shifters, tech)
    needs = {"x": {}, "y": {}}
    unresolved: List[ConflictKey] = []
    for key in conflicts:
        options = {opt.axis: opt.need for opt in options_of[key]}
        if not options:
            unresolved.append(key)
            continue
        axis = min(options, key=lambda a: (options[a], a))
        needs[axis][key] = options[axis]

    result = SpreadResult(layout=layout, area_before=layout.die_area())
    current = layout
    if needs["x"]:
        current = _one_axis_pass(current, tech, needs["x"], shifters, "x")
    if needs["y"]:
        # Re-generate shifters: x positions moved.
        shifters_y = generate_shifters(current, tech)
        current = _one_axis_pass(current, tech, needs["y"], shifters_y,
                                 "y")

    result.layout = current
    result.area_after = current.die_area()
    result.moved_features = sum(
        1 for a, b in zip(layout.features, current.features) if a != b)
    result.resolved = sorted(set(conflicts) - set(unresolved))
    result.unresolved = sorted(unresolved)
    return result
