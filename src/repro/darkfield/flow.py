"""Dark-field AAPSM conflict detection and correction.

The system the paper builds on (Kahng–Mantik–Markov–Zelikovsky, TCAD
1999, the paper's reference [5]): in *dark-field* AAPSM the critical
features themselves are the clear apertures, so each critical feature
carries a single phase and any two critical features closer than the
interaction distance ``B`` must take **opposite** phases.  The conflict
graph is therefore directly on features — one node per critical
feature, one "must differ" edge per close pair — and the layout is
phase-assignable iff that graph is bipartite.

Everything downstream is shared with the bright-field flow: greedy
planarization of the straight-line drawing, optimal bipartization via
the dual T-join, residual-conflict recheck, and end-to-end-space
correction (a conflict is fixed by separating the two *features* to at
least ``B``).  Having both variants side by side lets the benches
compare conflict densities across the two mask styles on identical
layouts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import repeat
from typing import Dict, List, Optional, Tuple

from ..correction.flow import CorrectionReport
from ..correction.options import rect_pair_options
from ..correction.spacer import SpaceCut, apply_cuts
from ..correction.windows import solve_cover_windows
from ..geometry.interval import batch_gap
from ..geometry.kernels import get_kernel
from ..geometry.rect import batch_separation_sq, rect_columns
from ..graph import (
    GeomGraph,
    greedy_planarize,
    optimal_planar_bipartization,
    residual_conflicts,
)
from ..layout import Layout, Technology, critical_mask

FeaturePair = Tuple[int, int]


def interaction_distance(tech: Technology) -> int:
    """Default dark-field interaction distance B.

    Two clear features interfere when their separation is below the
    shifter-spacing rule plus the optical margin the shifter extension
    models; this keeps the two variants' rule decks comparable.
    """
    return tech.shifter_spacing + 2 * tech.shifter_extension


@dataclass
class DarkFieldGraph:
    """Dark-field conflict graph plus feature bookkeeping."""

    graph: GeomGraph
    features: List[int]                   # critical feature indices
    node_feature: Dict[int, int]          # graph node -> feature index
    edge_pair: Dict[int, FeaturePair]     # edge id -> feature-index pair


def build_darkfield_graph(layout: Layout, tech: Technology,
                          distance: Optional[int] = None
                          ) -> DarkFieldGraph:
    """One node per critical feature, one edge per interacting pair.

    Built in column passes over the critical features' rect columns
    (the critical mask the shifter generator reads): the pairs come
    from the kernel's sweep, in ``(i, j)`` order, and each edge weighs
    ``1 + max(0, distance - separation)`` with the separation truncated
    to an integer.
    """
    import numpy as np

    if distance is None:
        distance = interaction_distance(tech)
    x1, y1, x2, y2 = rect_columns(layout.features)
    critical = np.flatnonzero(critical_mask(x1, y1, x2, y2, tech))
    x1, y1, x2, y2 = x1[critical], y1[critical], x2[critical], y2[critical]
    graph = GeomGraph(name="darkfield")
    graph.add_node_columns(2 * (x1 + x2), 2 * (y1 + y2))
    i, j = get_kernel().neighbor_pair_arrays(x1, y1, x2, y2, distance)
    sep = np.sqrt(batch_separation_sq(
        batch_gap(x1[i], x2[i], x1[j], x2[j]),
        batch_gap(y1[i], y2[i], y1[j], y2[j]))).astype(np.int64)
    index = critical.tolist()
    keys = list(zip(critical[i].tolist(), critical[j].tolist()))
    eids = graph.add_edge_columns(
        i, j, (1 + np.maximum(0, distance - sep)).tolist(),
        list(zip(repeat("pair"), keys)))
    return DarkFieldGraph(graph=graph, features=index,
                          node_feature=dict(enumerate(index)),
                          edge_pair=dict(zip(eids, keys)))


@dataclass
class DarkFieldReport:
    """Outcome of dark-field detection."""

    layout_name: str
    num_critical: int
    num_edges: int
    phase_assignable: bool
    crossings_removed: int
    conflicts: List[FeaturePair] = field(default_factory=list)
    phases: Optional[Dict[int, int]] = None  # feature index -> 0/180
    detect_seconds: float = 0.0


def detect_darkfield_conflicts(layout: Layout, tech: Technology,
                               distance: Optional[int] = None
                               ) -> DarkFieldReport:
    """Dark-field analogue of :func:`repro.conflict.detect_conflicts`."""
    start = time.perf_counter()
    df = build_darkfield_graph(layout, tech, distance)
    graph = df.graph
    report = DarkFieldReport(
        layout_name=layout.name,
        num_critical=len(df.features),
        num_edges=graph.num_edges(),
        phase_assignable=False,
        crossings_removed=0,
    )

    potential = greedy_planarize(graph)
    report.crossings_removed = len(potential)
    bip = optimal_planar_bipartization(graph)
    # One labelling of G - P - D0, as in the bright-field flow: step 3,
    # the assignability of G, and the phases of G - P - D0.
    labelling = bip.labelling
    extra = residual_conflicts(graph, bip.removed, potential,
                               base=labelling)
    report.phase_assignable = not extra \
        and not labelling.insert(bip.removed)
    removed = sorted(set(bip.removed) | set(extra))
    report.conflicts = sorted({df.edge_pair[eid] for eid in removed})

    colors = labelling.colors()
    report.phases = {df.node_feature[n]: (0 if c == 0 else 180)
                     for n, c in colors.items()
                     if n in df.node_feature}
    report.detect_seconds = time.perf_counter() - start
    return report


def correct_darkfield_conflicts(layout: Layout, tech: Technology,
                                conflicts: List[FeaturePair],
                                distance: Optional[int] = None
                                ) -> Tuple[Layout, CorrectionReport]:
    """Separate conflicting *feature* pairs with end-to-end spaces.

    Same grid/set-cover machinery as the bright-field corrector, but
    intervals come from feature (not shifter) geometry and the target
    separation is the interaction distance.
    """
    import numpy as np

    if distance is None:
        distance = interaction_distance(tech)
    report = CorrectionReport(layout_name=layout.name,
                              num_conflicts=len(conflicts),
                              area_before=layout.die_area())
    report.area_after = report.area_before

    options = rect_pair_options(
        conflicts, np.stack(rect_columns(layout.features)), distance)
    correctable = {k for k, opts in options.items() if opts}
    report.uncorrectable = sorted(set(conflicts) - correctable)
    if not correctable:
        return layout.copy(), report

    from ..correction.flow import build_grid_lines

    lines = build_grid_lines({k: options[k] for k in correctable})
    report.num_grid_candidates = len(lines)
    report.max_cover = max(len(line.covers) for line in lines)
    chosen, report.cover_method, report.windows = solve_cover_windows(
        correctable, lines, cover="greedy")
    report.cuts = [SpaceCut(axis=lines[i].axis,
                            position=lines[i].position,
                            width=lines[i].width)
                   for i in sorted(chosen)]
    report.corrected = sorted(correctable)

    total_x = sum(c.width for c in report.cuts if c.axis == "x")
    total_y = sum(c.width for c in report.cuts if c.axis == "y")
    box = layout.bbox()
    if box is not None:
        report.area_after = (box.width + total_x) * (box.height + total_y)
    return apply_cuts(layout, report.cuts), report
