"""Conflict-graph construction: the paper's PCG and the baseline FG.

Both graphs have the property (paper Theorem 1) that the layout is
phase-assignable iff the graph is bipartite:

* every edge means "endpoints take different phases";
* a Condition-2 pair ("same phase") becomes an even-length path through
  an auxiliary node, so its constraint composes to equality;
* a Condition-1 pair ("opposite phase") becomes an odd-length path.

**Phase conflict graph (PCG, §3.1.1).**  One *edge-shifter node* per
shifter at the shifter centre; per overlapping pair an *overlap node* at
the midpoint of the segment joining the two shifter nodes (so the 2-edge
path renders as a single straight line); per critical feature one direct
edge between its two shifters.

**Feature graph (FG, baseline).**  The paper cites it without defining
it; per the stated differences (Fig. 2 discussion) we build: per
overlapping pair a *conflict node* at the centre of the geometric
overlap *region* (a bent path — the "detour" that causes extra
crossings), and per feature a 3-edge path through two *feature nodes*
near the feature centre (odd parity preserved, extra nodes/edges as the
paper observes).

Node coordinates are layout nanometres times 4, so midpoints of doubled
rectangle centres stay integral and the FG's feature-node pair can be
offset by quarter-nanometre nudges without colliding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..geometry.kernels import get_kernel
from ..geometry.rect import rect_columns
from ..graph import GeomGraph
from ..layout import Technology
from ..shifters import OverlapPair, ShifterSet
from .weights import WeightModel, feature_edge_weight, space_needed_weight

PCG = "pcg"
FG = "fg"

FEATURE_TAG = "feature"
OVERLAP_TAG = "overlap"


@dataclass
class ConflictGraph:
    """A conflict graph plus the maps back into shifter-land.

    Attributes:
        graph: the geometric graph (nodes placed at 4x layout coords).
        kind: "pcg" or "fg".
        shifters: the shifter set the graph was built from.
        shifter_node: shifter id -> graph node id.
        edge_pair: overlap-edge id -> (shifter a, shifter b).
        edge_feature: feature-edge id -> feature index.
        pairs: the overlap pairs by key.
    """

    graph: "GeomGraph"
    kind: str
    shifters: ShifterSet
    shifter_node: Dict[int, int]
    edge_pair: Dict[int, Tuple[int, int]] = field(default_factory=dict)
    edge_feature: Dict[int, int] = field(default_factory=dict)
    pairs: Dict[Tuple[int, int], OverlapPair] = field(default_factory=dict)

    def classify_edges(self, edge_ids) -> Tuple[List[Tuple[int, int]],
                                                List[int]]:
        """Split removed edge ids into (overlap pairs, feature indices).

        Overlap pairs are deduplicated: deleting either edge of a
        same-phase path breaks the constraint, and correction always
        separates the *pair*.
        """
        pairs: List[Tuple[int, int]] = []
        features: List[int] = []
        seen = set()
        for eid in edge_ids:
            if eid in self.edge_pair:
                key = self.edge_pair[eid]
                if key not in seen:
                    seen.add(key)
                    pairs.append(key)
            elif eid in self.edge_feature:
                fi = self.edge_feature[eid]
                if ("f", fi) not in seen:
                    seen.add(("f", fi))
                    features.append(fi)
        return pairs, features


def _base_graph(kind: str, shifters: ShifterSet) -> ConflictGraph:
    graph = GeomGraph(name=kind)
    # Shifter ids are dense insertion indices, so the node map is the
    # identity — built off the rect column, no Shifter objects.
    shifter_node: Dict[int, int] = {i: i for i in range(len(shifters))}
    # Shifter centres in 4x coordinates, off the set's memoized int64
    # rect columns; tolist() hands back Python ints.
    x1, y1, x2, y2 = rect_columns(shifters.rects)
    graph.add_nodes(shifter_node, zip((2 * (x1 + x2)).tolist(),
                                      (2 * (y1 + y2)).tolist()))
    return ConflictGraph(graph=graph, kind=kind, shifters=shifters,
                         shifter_node=shifter_node)


def _pair_weights(pairs: List[OverlapPair], shifters: ShifterSet,
                  tech: Technology,
                  weight_model: WeightModel) -> Tuple[List[int], int]:
    weights = [weight_model(p, shifters, tech) for p in pairs]
    for w in weights:
        if w <= 0:
            raise ValueError("weight model must return positive weights")
    return weights, feature_edge_weight(weights)


def build_phase_conflict_graph(
        shifters: ShifterSet,
        pairs: List[OverlapPair],
        tech: Technology,
        weight_model: WeightModel = space_needed_weight) -> ConflictGraph:
    """The paper's phase conflict graph."""
    cg = _base_graph(PCG, shifters)
    graph = cg.graph
    weights, inf_weight = _pair_weights(pairs, shifters, tech, weight_model)

    # Buffered bulk build: node ids and edge rows accumulate in the
    # same sequence the per-call loop used, so ids and iteration order
    # are identical — only the per-edge call overhead is gone.
    next_node = len(shifters)
    node_ids: List[int] = []
    node_coords: List[Tuple[int, int]] = []
    rows: List[Tuple[int, int, int, Tuple]] = []
    for pair, weight in zip(pairs, weights):
        na = cg.shifter_node[pair.a]
        nb = cg.shifter_node[pair.b]
        ax, ay = graph.coord(na)
        bx, by = graph.coord(nb)
        overlap_node = next_node
        next_node += 1
        # Midpoint of the segment between the two shifter nodes: the
        # 2-edge same-phase path draws as one straight line (the PCG's
        # key geometric advantage).
        node_ids.append(overlap_node)
        node_coords.append(((ax + bx) // 2, (ay + by) // 2))
        for endpoint, half in ((na, 0), (nb, 1)):
            rows.append((endpoint, overlap_node, weight,
                         (OVERLAP_TAG, pair.key, half)))
        cg.pairs[pair.key] = pair
    graph.add_nodes(node_ids, node_coords)

    n_overlap = len(rows)
    for sa, sb in shifters.feature_pairs():
        rows.append((cg.shifter_node[sa.id], cg.shifter_node[sb.id],
                     inf_weight, (FEATURE_TAG, sa.feature_index)))
    eids = graph.add_edge_rows(rows)
    start = eids.start
    for k in range(n_overlap):
        cg.edge_pair[start + k] = rows[k][3][1]
    for k in range(n_overlap, len(rows)):
        cg.edge_feature[start + k] = rows[k][3][1]
    return cg


def build_feature_graph(
        shifters: ShifterSet,
        pairs: List[OverlapPair],
        tech: Technology,
        weight_model: WeightModel = space_needed_weight) -> ConflictGraph:
    """The baseline feature graph (our reading of ASP-DAC'01)."""
    cg = _base_graph(FG, shifters)
    graph = cg.graph
    weights, inf_weight = _pair_weights(pairs, shifters, tech, weight_model)

    next_node = len(shifters)
    centers2 = get_kernel().region_centers2(shifters.rects,
                                            [p.key for p in pairs])
    node_ids: List[int] = []
    node_coords: List[Tuple[int, int]] = []
    rows: List[Tuple[int, int, int, Tuple]] = []
    for pair, weight, (cx2, cy2) in zip(pairs, weights, centers2):
        na = cg.shifter_node[pair.a]
        nb = cg.shifter_node[pair.b]
        conflict_node = next_node
        next_node += 1
        # Detour through the centre of the overlap *region* — in general
        # off the straight line between the shifter nodes.
        node_ids.append(conflict_node)
        node_coords.append((2 * cx2, 2 * cy2))
        for endpoint, half in ((na, 0), (nb, 1)):
            rows.append((endpoint, conflict_node, weight,
                         (OVERLAP_TAG, pair.key, half)))
        cg.pairs[pair.key] = pair
    graph.add_nodes(node_ids, node_coords)

    n_overlap = len(rows)
    node_ids = []
    node_coords = []
    for sa, sb in shifters.feature_pairs():
        fi = sa.feature_index
        cx, cy = _node_coord_center(shifters, fi)
        # Two feature nodes, nudged a quarter-nm apart along the feature
        # axis: the 3-edge path keeps the constraint's odd parity.
        vertical = sa.side in ("left", "right")
        d = (0, 1) if vertical else (1, 0)
        f1 = next_node
        f2 = next_node + 1
        next_node += 2
        node_ids.extend((f1, f2))
        node_coords.extend(((cx - d[0], cy - d[1]),
                            (cx + d[0], cy + d[1])))
        for u, v in ((cg.shifter_node[sa.id], f1), (f1, f2),
                     (f2, cg.shifter_node[sb.id])):
            rows.append((u, v, inf_weight, (FEATURE_TAG, fi)))
    graph.add_nodes(node_ids, node_coords)
    eids = graph.add_edge_rows(rows)
    start = eids.start
    for k in range(n_overlap):
        cg.edge_pair[start + k] = rows[k][3][1]
    for k in range(n_overlap, len(rows)):
        cg.edge_feature[start + k] = rows[k][3][1]
    return cg


def _node_coord_center(shifters: ShifterSet, feature_index: int
                       ) -> Tuple[int, int]:
    """4x coordinate of the feature centre, inferred from its shifters.

    The midpoint between the two flanking shifter centres *is* the
    feature centre, which saves the graph builders from needing the
    layout object.
    """
    sa, sb = shifters.of_feature(feature_index)
    # A doubled centre is half the 4x coordinate, so the sum of the
    # two doubled centres is the 4x midpoint.
    (ax, ay), (bx, by) = sa.center2, sb.center2
    return (ax + bx, ay + by)


def build_conflict_graph(kind: str, shifters: ShifterSet,
                         pairs: List[OverlapPair], tech: Technology,
                         weight_model: Optional[WeightModel] = None
                         ) -> ConflictGraph:
    """Dispatch on graph kind ("pcg" or "fg")."""
    model = weight_model or space_needed_weight
    if kind == PCG:
        return build_phase_conflict_graph(shifters, pairs, tech, model)
    if kind == FG:
        return build_feature_graph(shifters, pairs, tech, model)
    raise ValueError(f"unknown conflict graph kind {kind!r}")
