"""Phase assignment: the 0/180 coloring itself.

Once a layout is phase-assignable (its conflict graph is bipartite),
the actual 0/180 assignment is a 2-coloring of the shifter nodes.  The
geometric verifier lives in :mod:`repro.phase.verify`; the
component-scoped incremental driver in :mod:`repro.phase.incremental`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..graph import parity_labelling
from ..layout import (
    Layout,
    SHIFTER_0_LAYER,
    SHIFTER_180_LAYER,
    Technology,
)
from ..shifters import ShifterSet
from .verify import verify_assignment

PHASE_0 = 0
PHASE_180 = 180


@dataclass
class PhaseAssignment:
    """Phases per shifter id."""

    phases: Dict[int, int] = field(default_factory=dict)

    def phase(self, shifter_id: int) -> int:
        return self.phases[shifter_id]

    def annotate_layout(self, layout: Layout,
                        shifters: ShifterSet) -> Layout:
        """Copy the layout with shifters drawn on phase layers."""
        out = layout.copy(name=f"{layout.name}+phases")
        for s in shifters:
            layer = (SHIFTER_0_LAYER if self.phases[s.id] == PHASE_0
                     else SHIFTER_180_LAYER)
            out.add_shape(layer, s.rect)
        return out


def assignment_from_colors(conflict_graph, colors) -> PhaseAssignment:
    """Project a node coloring onto shifter phases.

    ``colors`` is a color column indexed by node.  Works for both PCG
    and FG: shifter ``s`` is node ``s`` by construction; auxiliary node
    colors are discarded.
    """
    count = len(conflict_graph.shifters)
    return PhaseAssignment(phases=dict(zip(
        range(count),
        [PHASE_180 if c else PHASE_0 for c in colors[:count].tolist()])))


def assign_phases(conflict_graph) -> Optional[PhaseAssignment]:
    """2-color a conflict graph; None when it is not bipartite."""
    labelling = parity_labelling(conflict_graph.graph)
    if labelling.odd:
        return None
    return assignment_from_colors(conflict_graph, labelling.color)


def assign_and_verify(layout: Layout, tech: Technology
                      ) -> Optional[PhaseAssignment]:
    """Convenience: build the PCG, assign, verify; None if unassignable.

    Raises if the graph said "assignable" but geometry disagrees —
    that would falsify Theorem 1 and means a bug.
    """
    from ..conflict import build_layout_conflict_graph

    cg, shifters, _pairs = build_layout_conflict_graph(layout, tech)
    assignment = assign_phases(cg)
    if assignment is None:
        return None
    problems = verify_assignment(shifters, assignment, tech)
    if problems:
        raise AssertionError(
            "Theorem 1 violated — bipartite graph but invalid phases: "
            + "; ".join(problems[:5]))
    return assignment
