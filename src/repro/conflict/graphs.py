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

from dataclasses import dataclass
from itertools import chain
from typing import Any, List, Optional, Tuple

from ..geometry.kernels import get_kernel
from ..graph import GeomGraph
from ..layout import Technology
from ..shifters import LEFT, RIGHT, SIDE_CODE, OverlapPair, ShifterSet, \
    pair_columns
from .weights import WeightModel, feature_edge_weight, space_needed_weight

PCG = "pcg"
FG = "fg"

FEATURE_TAG = "feature"
OVERLAP_TAG = "overlap"


@dataclass(eq=False)
class ConflictGraph:
    """A conflict graph plus the columns back into shifter-land.

    Shifter ``s`` is graph node ``s``.  Edges come in two runs: two per
    overlap pair, shifter ``a`` then ``b`` to the pair's node (edges
    ``2k`` and ``2k + 1`` for pair ``k``), then the feature edges.  So
    an edge id finds its pair or feature by arithmetic, with no
    per-edge map.

    Attributes:
        graph: the geometric graph (nodes placed at 4x layout coords).
        kind: "pcg" or "fg".
        shifters: the shifter set the graph was built from.
        pair_ends: ``(P, 2)`` int64, the shifter ids ``a, b`` of each
            overlap pair, pair order.
        edge_features: int64, the feature index of each feature edge,
            edge order.
    """

    graph: "GeomGraph"
    kind: str
    shifters: ShifterSet
    pair_ends: Any
    edge_features: Any

    @property
    def num_overlap_edges(self) -> int:
        """Edges ``0 .. num_overlap_edges - 1`` are overlap edges."""
        return 2 * len(self.pair_ends)

    def pair_key(self, edge_id: int) -> Tuple[int, int]:
        """The ``(a, b)`` shifter pair of an overlap edge."""
        a, b = self.pair_ends[edge_id >> 1].tolist()
        return a, b

    def classify_edges(self, edge_ids) -> Tuple[List[Tuple[int, int]],
                                                List[int]]:
        """Split removed edge ids into (overlap pairs, feature indices).

        Both lists keep first-seen order.  Overlap pairs are
        deduplicated: deleting either edge of a same-phase path breaks
        the constraint, and correction always separates the *pair*.
        """
        import numpy as np

        eids = np.asarray(edge_ids, dtype=np.int64)
        split = self.num_overlap_edges
        overlap = eids < split
        pairs = dict.fromkeys(map(tuple, self.pair_ends[
            eids[overlap] >> 1].tolist()))
        features = dict.fromkeys(
            self.edge_features[eids[~overlap] - split].tolist())
        return list(pairs), list(features)


class ConflictEdgeTags:
    """The tag maker of a conflict graph's edges: ``(OVERLAP_TAG,
    (a, b), half)`` for half ``0``/``1`` of a pair's path,
    ``(FEATURE_TAG, feature index)`` for a feature edge.

    It holds the graph's two columns, not the graph, so a graph that
    carries it holds no reference cycle.
    """

    __slots__ = ("pair_ends", "edge_features")

    def __init__(self, pair_ends, edge_features) -> None:
        self.pair_ends = pair_ends
        self.edge_features = edge_features

    def __call__(self, edge_id: int):
        split = 2 * len(self.pair_ends)
        if edge_id < split:
            a, b = self.pair_ends[edge_id >> 1].tolist()
            return OVERLAP_TAG, (a, b), edge_id & 1
        return FEATURE_TAG, int(self.edge_features[edge_id - split])


def _overlap_weights(pairs: List[OverlapPair], shifters: ShifterSet,
                     tech: Technology, weight_model: WeightModel
                     ) -> Tuple[List[int], int]:
    """The model's overlap-edge weights as Python ints, and the
    feature-edge weight (exact: summed in Python ints)."""
    import numpy as np

    weights = np.asarray(weight_model(pairs, shifters, tech))
    if weights.shape != (len(pairs),):
        raise ValueError("weight model must return one weight per pair")
    if len(weights) and weights.min() <= 0:
        raise ValueError("weight model must return positive weights")
    weights = weights.tolist()
    return weights, feature_edge_weight(weights)


def _assemble(kind: str, shifters: ShifterSet, pairs: List[OverlapPair],
              tech: Technology, weight_model: WeightModel,
              aux_x, aux_y, feature_u, feature_v, feature_index
              ) -> ConflictGraph:
    """A conflict graph from columns, in one bulk append each for
    nodes and edges.

    Nodes: one per shifter, at its centre (ids ``0..S-1``), then the
    auxiliary nodes at ``aux_x`` / ``aux_y``: one per overlap pair
    (ids ``S..S+P-1``), then any feature nodes.  Edges: two per overlap
    pair, shifter ``a`` then ``b`` to the pair's node, then the feature
    edges ``feature_u[k]``–``feature_v[k]`` tagged with
    ``feature_index[k]``.  Ids, orders, weights and tags are those of a
    per-pair loop of :meth:`~repro.graph.GeomGraph.add_edge` calls;
    the tags are made on demand (:class:`ConflictEdgeTags`).
    """
    import numpy as np

    weights, inf_weight = _overlap_weights(pairs, shifters, tech,
                                           weight_model)
    graph = GeomGraph(name=kind)
    # Shifter centres in 4x coordinates.
    x1, y1, x2, y2 = shifters.box
    graph.add_node_columns(np.concatenate((2 * (x1 + x2), aux_x)),
                           np.concatenate((2 * (y1 + y2), aux_y)))
    ends = pair_columns(pairs)[:, :2]
    features = np.asarray(feature_index, dtype=np.int64)
    graph.add_edge_columns(
        np.concatenate((ends.ravel(), feature_u)),
        np.concatenate((np.repeat(len(shifters) + np.arange(len(ends)), 2),
                        feature_v)),
        list(chain.from_iterable(zip(weights, weights)))
        + [inf_weight] * len(features),
        ConflictEdgeTags(ends, features))
    return ConflictGraph(graph=graph, kind=kind, shifters=shifters,
                         pair_ends=ends, edge_features=features)


def build_phase_conflict_graph(
        shifters: ShifterSet,
        pairs: List[OverlapPair],
        tech: Technology,
        weight_model: WeightModel = space_needed_weight) -> ConflictGraph:
    """The paper's phase conflict graph, built in column passes."""
    import numpy as np

    x1, y1, x2, y2 = shifters.box
    cols = pair_columns(pairs)
    a, b = cols[:, 0], cols[:, 1]
    # Each overlap node sits at the midpoint of the segment between its
    # two shifter nodes, so the 2-edge same-phase path draws as one
    # straight line (the PCG's key geometric advantage).  Shifter
    # nodes are at twice the doubled centres.
    cx, cy = x1 + x2, y1 + y2
    first, second = shifters.feature_pair_ids()
    return _assemble(PCG, shifters, pairs, tech, weight_model,
                     cx[a] + cx[b], cy[a] + cy[b], first, second,
                     shifters.feature_column()[first])


def build_feature_graph(
        shifters: ShifterSet,
        pairs: List[OverlapPair],
        tech: Technology,
        weight_model: WeightModel = space_needed_weight) -> ConflictGraph:
    """The baseline feature graph (our reading of ASP-DAC'01)."""
    import numpy as np

    cols = pair_columns(pairs)
    # Detour through the centre of the overlap *region* — in general
    # off the straight line between the shifter nodes.
    rx2, ry2 = get_kernel().region_center_arrays(*shifters.box,
                                                 cols[:, 0], cols[:, 1])
    # Two feature nodes per critical feature, nudged a quarter-nm apart
    # along the feature axis around its centre (the midpoint of its two
    # shifter centres): the 3-edge path keeps the constraint's odd
    # parity.
    x1, y1, x2, y2 = shifters.box
    first, second = shifters.feature_pair_ids()
    cx = (x1 + x2)[first] + (x1 + x2)[second]
    cy = (y1 + y2)[first] + (y1 + y2)[second]
    code = shifters.code_column()[first]
    dy = ((code == SIDE_CODE[LEFT]) | (code == SIDE_CODE[RIGHT])) \
        .astype(np.int64)
    dx = 1 - dy
    f1 = len(shifters) + len(cols) + 2 * np.arange(len(first))
    feature = shifters.feature_column()
    return _assemble(
        FG, shifters, pairs, tech, weight_model,
        np.concatenate((2 * rx2, np.stack((cx - dx, cx + dx),
                                          axis=1).ravel())),
        np.concatenate((2 * ry2, np.stack((cy - dy, cy + dy),
                                          axis=1).ravel())),
        np.stack((first, f1, f1 + 1), axis=1).ravel(),
        np.stack((f1, f1 + 1, second), axis=1).ravel(),
        np.repeat(feature[first], 3))


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
