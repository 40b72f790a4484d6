"""AAPSM conflict detection — the paper's flow, §3 steps 1-3.

1. Build a conflict graph from the layout (PCG by default, FG for the
   baseline comparison).
2. Greedily planarize the straight-line drawing; the removed edges form
   the *potential* conflict set P.
3. Optimally bipartize the embedded planar remainder via the dual
   T-join (generalized-gadget matching): removed edge set D0.
4. Re-examine P with the parity structure of G - D0: edges that would
   close an odd cycle join the final set D (paper step 3).

One parity labelling of G - P - D0, computed by the bipartization
check, serves three uses: it is that check, it seeds step 3 (only the
|P| casualties are inserted, into a parity union-find over its
component roots), and it decides whether the layout was
phase-assignable before any correction (G is bipartite exactly when
step 3 finds nothing and D0's edges also insert without
contradiction).

The report records everything Table 1 needs: the step-2-only count (the
paper's NP column), the final count (PCG / FG columns), and the mapping
from deleted graph edges back to shifter pairs for the correction step.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..graph import (
    greedy_planarize,
    optimal_planar_bipartization,
    residual_conflicts,
)
from ..layout import Layout, Technology
from ..shifters import (
    OverlapPair,
    ShifterSet,
    find_overlap_pairs,
    generate_shifters,
)
from .graphs import PCG, ConflictGraph, build_conflict_graph
from .weights import GENERIC_SCALE, WeightModel, make_generic, \
    space_needed_weight


@dataclass(frozen=True)
class Conflict:
    """One AAPSM conflict selected for correction: a shifter pair whose
    same-phase requirement must be broken by separating the shifters."""

    a: int
    b: int
    weight: int

    @property
    def key(self) -> Tuple[int, int]:
        return (self.a, self.b)


@dataclass
class DetectionReport:
    """Everything the detection flow learned about a layout."""

    layout_name: str
    graph_kind: str
    num_features: int
    num_critical: int
    num_shifters: int
    num_overlap_pairs: int
    graph_nodes: int
    graph_edges: int
    crossings_removed: int          # |P|
    step2_edges: int                # |D0| — the paper's NP count (for PCG)
    step3_edges: int                # odd-cycle survivors of P
    step2_weight: int = 0           # optimal bipartization cost
    conflicts: List[Conflict] = field(default_factory=list)
    uncorrectable_features: List[int] = field(default_factory=list)
    tshape_features: List[int] = field(default_factory=list)
    tshape_conflicts: List[Conflict] = field(default_factory=list)
    removed_edge_ids: List[int] = field(default_factory=list)
    removed_weight: int = 0
    detect_seconds: float = 0.0
    phase_assignable: bool = False  # before any correction

    @property
    def num_conflict_edges(self) -> int:
        """Edge-deletion count, the unit of the paper's Table 1."""
        return self.step2_edges + self.step3_edges

    @property
    def num_conflicts(self) -> int:
        """Deduplicated shifter pairs to separate."""
        return len(self.conflicts)


def layout_front_end(layout: Layout, tech: Technology
                     ) -> Tuple[ShifterSet, List[OverlapPair]]:
    """Shifter generation: the flow's first stage, pure geometry.

    The returned (shifters, pairs) front end is reusable across every
    stage that works on the same layout revision — conflict-graph
    builds, correction planning, stitching, phase verification — so
    the pipeline generates shifters once per revision instead of once
    per consumer.
    """
    shifters = generate_shifters(layout, tech)
    pairs = find_overlap_pairs(shifters, tech)
    return shifters, pairs


def build_layout_conflict_graph(
        layout: Layout, tech: Technology, kind: str = PCG,
        weight_model: Optional[WeightModel] = None,
        front: Optional[Tuple[ShifterSet, List[OverlapPair]]] = None
        ) -> Tuple[ConflictGraph, ShifterSet, List[OverlapPair]]:
    """Shared front end: shifters, Condition-2 pairs, conflict graph.

    The weight model is refined with :func:`make_generic` so the graph
    carries tie-free weights and the minimum bipartization is unique —
    a view-independence property the tiled chip flow relies on.
    Reported weights are divided back to base scale.

    ``front`` supplies a pre-computed :func:`layout_front_end` for this
    layout, skipping shifter regeneration (graphs are consumed by
    detection, so repeat callers rebuild only the graph).
    """
    if front is not None:
        shifters, pairs = front
    else:
        shifters, pairs = layout_front_end(layout, tech)
    model = make_generic(weight_model or space_needed_weight)
    cg = build_conflict_graph(kind, shifters, pairs, tech, model)
    return cg, shifters, pairs


def detect_conflicts(layout: Layout, tech: Technology,
                     kind: str = PCG,
                     weight_model: Optional[WeightModel] = None,
                     prebuilt: Optional[Tuple[ConflictGraph, ShifterSet,
                                              List[OverlapPair]]] = None
                     ) -> DetectionReport:
    """Run the full detection flow on a layout.

    ``prebuilt`` lets callers that already ran
    :func:`build_layout_conflict_graph` (the tiled chip flow reuses the
    shifters and pairs for stitching) skip rebuilding the front end.
    Note the graph is consumed: planarization soft-removes its edges.
    """
    start = time.perf_counter()
    if prebuilt is not None:
        cg, shifters, pairs = prebuilt
        if cg.kind != kind:
            raise ValueError(
                f"prebuilt graph kind {cg.kind!r} != requested {kind!r}")
    else:
        cg, shifters, pairs = build_layout_conflict_graph(
            layout, tech, kind, weight_model)
    graph = cg.graph
    report = DetectionReport(
        layout_name=layout.name,
        graph_kind=kind,
        num_features=layout.num_polygons,
        num_critical=shifters.num_critical(),
        num_shifters=len(shifters),
        num_overlap_pairs=len(pairs),
        graph_nodes=graph.num_nodes(),
        graph_edges=graph.num_edges(),
        crossings_removed=0,
        step2_edges=0,
        step3_edges=0,
    )

    # Step 1(b): planarize; P = potential conflicts.
    potential = greedy_planarize(graph)
    report.crossings_removed = len(potential)

    # Step 2: optimal bipartization of the embedded planar remainder.
    bip = optimal_planar_bipartization(graph)
    report.step2_edges = len(bip.removed)
    report.step2_weight = _base_weight(graph, bip.removed)

    # Step 3: which planarization casualties close odd cycles?  The
    # bipartization check labelled G - P - D0; P goes in heaviest
    # first, then D0 decides whether G itself was bipartite.
    labelling = bip.labelling
    extra = residual_conflicts(graph, bip.removed, potential,
                               base=labelling)
    report.step3_edges = len(extra)
    report.phase_assignable = not extra \
        and not labelling.insert(bip.removed)

    removed = sorted(set(bip.removed) | set(extra))
    report.removed_edge_ids = removed
    report.removed_weight = _base_weight(graph, removed)

    pair_keys, feature_indices = cg.classify_edges(removed)
    # Both edges of an overlap pair carry the pair's weight.
    split = cg.num_overlap_edges
    weight_of = {cg.pair_key(eid): graph.edge_weight(eid) // GENERIC_SCALE
                 for eid in removed if eid < split}
    all_conflicts = [
        Conflict(a=a, b=b, weight=weight_of[(a, b)])
        for a, b in sorted(pair_keys)
    ]
    report.uncorrectable_features = sorted(feature_indices)

    # Paper §4: conflicts touching T-shaped (perpendicularly abutting)
    # features cannot be solved by spacing — they are reported
    # separately and routed to feature widening / mask splitting.
    from ..layout import tshape_feature_indices

    tshapes = tshape_feature_indices(layout)
    report.tshape_features = sorted(tshapes)
    feature = shifters.feature_column()
    for conflict in all_conflicts:
        if feature[conflict.a] in tshapes or feature[conflict.b] in tshapes:
            report.tshape_conflicts.append(conflict)
        else:
            report.conflicts.append(conflict)
    report.detect_seconds = time.perf_counter() - start
    return report


def _base_weight(graph, edge_ids) -> int:
    """Total base-scale weight of edges carrying refined weights."""
    weight = graph.edge_weight
    return sum(weight(eid) // GENERIC_SCALE for eid in edge_ids)
