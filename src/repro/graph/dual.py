"""Geometric dual graphs.

The minimum-weight bipartization of an embedded planar graph equals a
minimum-weight T-join on its geometric dual, where T is the set of
odd-length faces (paper §2, after Kahng et al. TCAD'99): deleting a
primal edge merges its two faces, and a set of deletions kills all odd
faces iff its dual edges form a T-join.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, List, Set, Tuple

from .embedding import PlanarEmbedding
from .geomgraph import GeomGraph

PRIMAL_TAG = "primal"


@dataclass
class DualGraph:
    """Dual multigraph plus the odd-face T set.

    Dual nodes are face indices of the embedding.  Every live primal
    edge becomes one dual edge carrying the primal weight; a primal
    bridge becomes a dual self-loop (which no minimum T-join ever uses,
    since w >= 0 and a self-loop cannot change degree parity).
    """

    graph: GeomGraph
    tset: Set[int]
    primal_of: Dict[int, int]  # dual edge id -> primal edge id

    def primal_edges(self, dual_edge_ids) -> List[int]:
        return sorted(self.primal_of[eid] for eid in dual_edge_ids)


def build_dual(embedding: PlanarEmbedding) -> DualGraph:
    """Construct the dual of an embedded planar graph.

    Bulk build off the embedding's edge-face columns: dual edge ``k``
    corresponds to the ``k``-th live primal edge, so ids and iteration
    order match the historical per-edge construction exactly.
    """
    dual = GeomGraph(name=f"{embedding.graph.name}#dual")
    dual.add_nodes(range(embedding.num_faces))

    primal_ids, left, right = embedding.edge_face_columns()
    weight = embedding.graph.edge_weight
    ids = dual.add_edge_rows(
        [(f1, f2, weight(eid), (PRIMAL_TAG, eid))
         for eid, f1, f2 in zip(primal_ids, left, right)])
    primal_of = dict(zip(ids, primal_ids))

    return DualGraph(graph=dual, tset=set(embedding.odd_faces()),
                     primal_of=primal_of)


def simple_dual(dual: DualGraph) -> DualGraph:
    """The dual's simple T-join instance.

    Same faces and T set, no self-loop, and one edge per face pair: the
    lightest, ties to the lowest primal edge id.  Weights compare as
    Python ints, since the Condition-1 feature-edge weight has no int64
    bound.  Kept edges keep their orientation and come in primal id
    order, the raw dual's order; ``primal_of`` maps each to its primal
    edge.

    Exact for a minimum T-join under non-negative weights: a self-loop
    changes no degree parity, and two edges of one face pair change the
    same two parities, so some minimum T-join uses no self-loop and at
    most one edge of each pair, and that edge can be the pair's
    lightest.  The planarized conflict graph draws each overlap pair as
    a two-edge path of one weight, so a pair that lies on a cycle comes
    as two parallel dual edges, and every bridge is a self-loop.
    """
    graph = dual.graph
    primal_of = dual.primal_of
    best: Dict[Tuple[int, int], Tuple[int, int, int, int]] = {}
    for eid, u, v, w in graph.live_edge_rows():
        if u == v:
            continue
        pair = (u, v) if u < v else (v, u)
        row = (w, primal_of[eid], u, v)
        kept = best.get(pair)
        if kept is None or row < kept:
            best[pair] = row
    rows = sorted(best.values(), key=itemgetter(1))
    simple = GeomGraph(name=f"{graph.name}#simple")
    simple.add_nodes(graph.nodes)
    ids = simple.add_edge_rows([(u, v, w, (PRIMAL_TAG, primal))
                                for w, primal, u, v in rows])
    return DualGraph(graph=simple, tset=dual.tset,
                     primal_of=dict(zip(ids, map(itemgetter(1), rows))))
