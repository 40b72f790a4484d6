"""Geometric dual graphs.

The minimum-weight bipartization of an embedded planar graph equals a
minimum-weight T-join on its geometric dual, where T is the set of
odd-length faces (paper §2, after Kahng et al. TCAD'99): deleting a
primal edge merges its two faces, and a set of deletions kills all odd
faces iff its dual edges form a T-join.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import itemgetter
from typing import Dict, List, Set, Tuple

from ..obs import get_tracer
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


@dataclass
class ReducedDual:
    """A dual T-join instance with every degree-2 face eliminated.

    ``graph`` holds the faces and edges left and ``tset`` their
    terminals.  Edge ``k`` of ``graph`` is row ``rows[k]`` of the
    elimination: row ``r < m`` is edge ``r`` of ``source.graph`` (``m``
    edges), and row ``m + i`` is the edge that stands for its two
    child rows ``merged[i]``.  The ``forced`` rows are in every join.
    """

    graph: GeomGraph
    tset: Set[int]
    source: DualGraph
    rows: List[int]
    merged: List[Tuple[int, int]]
    forced: List[int]

    def primal_edges(self, dual_edge_ids) -> List[int]:
        """The primal edges of the source join that a join of
        ``graph`` expands to, ascending.

        One parity bit per row: a row is in the join when it is used
        an odd number of times, and a used merged row uses both its
        children.  Children are older rows, so one pass from the
        newest row down settles every bit.
        """
        m = self.source.graph.num_edges()
        merged = self.merged
        parity = bytearray(m + len(merged))
        rows = self.rows
        for eid in dual_edge_ids:
            parity[rows[eid]] ^= 1
        for row in self.forced:
            parity[row] ^= 1
        for i in range(len(merged) - 1, -1, -1):
            if parity[m + i]:
                a, b = merged[i]
                parity[a] ^= 1
                parity[b] ^= 1
        return self.source.primal_edges(compress(range(m), parity))


def eliminate_degree_two(dual: DualGraph) -> ReducedDual:
    """Remove every degree-2 face of a T-join instance, exactly.

    Repeats two rules until no face has two neighbours, each exact for
    a minimum T-join under non-negative weights:

    * a non-terminal face ``f`` with edges ``(f, a, w1)`` and
      ``(f, b, w2)`` has join-degree 0 or 2, so its two edges are used
      together or not at all: both become one edge ``(a, b, w1 + w2)``;
    * a terminal face ``t`` with edges ``e1 = (t, a, w1)`` and
      ``e2 = (t, b, w2)``, ``w1 <= w2`` with ties to the lower row,
      has join-degree 1, so every T-join uses exactly one of them:
      ``e1`` is forced into the join, ``t`` goes and ``a`` flips its
      terminal membership, and a new edge ``(a, b, w2 - w1)`` stands
      for swapping ``e1`` for ``e2``.

    A new edge parallel to an existing one keeps the lighter of the
    two, ties to the existing edge.  The instance so stays simple: a
    degree-2 face always has two distinct neighbours, and no new edge
    is a self-loop.  Input self-loops and parallel edges are resolved
    the same way on loading, so a raw dual is accepted too (one with
    no removed edge, as :func:`build_dual` and :func:`simple_dual`
    build them).  Faces of degree 0 or 1 are left to the engine.  A
    minimum T-join of the result, expanded by
    :meth:`ReducedDual.primal_edges`, is a minimum T-join of ``dual``.
    """
    graph = dual.graph
    nodes = graph.nodes
    adj: Dict[int, Dict[int, int]] = {node: {} for node in nodes}
    eu: List[int] = []
    ev: List[int] = []
    weight: List[int] = []
    for eid, u, v, w in graph.live_edge_rows():
        eu.append(u)
        ev.append(v)
        weight.append(w)
        kept = adj[u].get(v)
        if u != v and (kept is None or w < weight[kept]):
            adj[u][v] = adj[v][u] = eid
    m = len(weight)
    tset = set(dual.tset)
    merged: List[Tuple[int, int]] = []
    forced: List[int] = []
    stack = [node for node in reversed(nodes) if len(adj[node]) == 2]
    while stack:
        f = stack.pop()
        edges = adj.get(f)
        if edges is None or len(edges) != 2:
            continue
        (a, e1), (b, e2) = edges.items()
        del adj[f], adj[a][f], adj[b][f]
        w1, w2 = weight[e1], weight[e2]
        if f in tset:
            if (w2, e2) < (w1, e1):
                a, e1, w1, b, e2, w2 = b, e2, w2, a, e1, w1
            tset.remove(f)
            tset ^= {a}
            forced.append(e1)
            w = w2 - w1
        else:
            w = w1 + w2
        kept = adj[a].get(b)
        if kept is None or w < weight[kept]:
            adj[a][b] = adj[b][a] = m + len(merged)
            eu.append(a)
            ev.append(b)
            weight.append(w)
            merged.append((e1, e2))
        if len(adj[a]) == 2:
            stack.append(a)
        if len(adj[b]) == 2:
            stack.append(b)

    live = bytearray(len(weight))
    for edges in adj.values():
        for row in edges.values():
            live[row] = 1
    rows = list(compress(range(len(weight)), live))
    reduced = GeomGraph(name=f"{graph.name}#reduced")
    reduced.add_nodes(node for node in nodes if node in adj)
    reduced.add_edge_rows([(eu[row], ev[row], weight[row], None)
                           for row in rows])
    tracer = get_tracer()
    if tracer.enabled:
        tracer.count("tjoin.eliminated", len(nodes) - len(adj))
        tracer.count("tjoin.forced", len(forced))
    return ReducedDual(graph=reduced, tset=tset, source=dual, rows=rows,
                       merged=merged, forced=forced)
