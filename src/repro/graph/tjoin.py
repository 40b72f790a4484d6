"""Minimum-weight T-join (reference solver).

A *T-join* of a weighted graph G = (V, E, w) and an even-sized node set
T is an edge set J such that a node has odd J-degree iff it is in T.
With non-negative weights, the classic Edmonds–Johnson reduction solves
it optimally: compute shortest paths between all T nodes, find a
minimum-weight perfect matching on the complete graph over T with those
distances, and take the symmetric difference of the matched paths.

This module is the reference against which the paper's gadget reduction
(:mod:`repro.graph.gadgets`) is property-tested; both must return
T-joins of identical total weight.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .geomgraph import GeomGraph
from .matching import min_weight_perfect_matching


class TJoinInfeasibleError(ValueError):
    """Raised when some component contains an odd number of T nodes."""


def is_tjoin(graph: GeomGraph, edge_ids: Sequence[int], tset: Set[int]
             ) -> bool:
    """Validator: J-degree parity matches membership in T."""
    degree: Dict[int, int] = {}
    for eid in set(edge_ids):
        e = graph.edge(eid)
        if e.is_self_loop:
            degree[e.u] = degree.get(e.u, 0) + 2
        else:
            degree[e.u] = degree.get(e.u, 0) + 1
            degree[e.v] = degree.get(e.v, 0) + 1
    for node in graph.nodes:
        odd = degree.get(node, 0) % 2 == 1
        if odd != (node in tset):
            return False
    return True


def _dijkstra(graph: GeomGraph, source: int
              ) -> Tuple[Dict[int, int], Dict[int, int]]:
    """Multigraph Dijkstra; returns (dist, predecessor edge id)."""
    dist: Dict[int, int] = {source: 0}
    pred: Dict[int, int] = {}
    heap: List[Tuple[int, int]] = [(0, source)]
    done: Set[int] = set()
    while heap:
        d, node = heapq.heappop(heap)
        if node in done:
            continue
        done.add(node)
        for e in graph.incident(node):
            if e.is_self_loop:
                continue
            nxt = e.other(node)
            nd = d + e.weight
            if nxt not in dist or nd < dist[nxt]:
                dist[nxt] = nd
                pred[nxt] = e.id
                heapq.heappush(heap, (nd, nxt))
    return dist, pred


def _path_edges(graph: GeomGraph, pred: Dict[int, int],
                source: int, target: int) -> List[int]:
    edges: List[int] = []
    node = target
    while node != source:
        eid = pred[node]
        edges.append(eid)
        node = graph.edge(eid).other(node)
    return edges


def check_feasible(graph: GeomGraph, tset: Set[int],
                   components: Optional[List[List[int]]] = None) -> None:
    """Raise unless every component holds an even number of T nodes.

    ``components`` is ``graph.connected_components()`` when the caller
    already has it."""
    if components is None:
        components = graph.connected_components()
    for comp in components:
        if len(tset.intersection(comp)) % 2 == 1:
            raise TJoinInfeasibleError(
                f"component with odd |T|: {sorted(set(comp) & tset)}")


def min_tjoin_shortest_paths(graph: GeomGraph,
                             tset: Set[int]) -> List[int]:
    """Minimum-weight T-join via the shortest-path/matching reduction.

    Requires non-negative weights: a negative edge raises
    :class:`ValueError` naming the first one, before any shortest-path
    search (Dijkstra would relax into finished nodes and could leave a
    predecessor cycle).  Self-loops never enter a minimum T-join (they
    cannot change parity) and are ignored.
    """
    for eid, u, v, weight in graph.live_edge_rows():
        if weight < 0:
            raise ValueError(f"edge {eid} ({u}-{v}) has negative weight "
                             f"{weight}; the shortest-path T-join needs "
                             "non-negative weights")
    check_feasible(graph, tset)
    terminals = sorted(tset)
    if not terminals:
        return []

    dists: Dict[int, Dict[int, int]] = {}
    preds: Dict[int, Dict[int, int]] = {}
    for t in terminals:
        dists[t], preds[t] = _dijkstra(graph, t)

    # Complete graph over T; node ids are positions in `terminals`.
    complete = GeomGraph(name="tjoin-complete")
    for i in range(len(terminals)):
        complete.add_node(i)
    for i, ti in enumerate(terminals):
        for j in range(i + 1, len(terminals)):
            tj = terminals[j]
            if tj in dists[ti]:
                complete.add_edge(i, j, weight=dists[ti][tj])

    matched = min_weight_perfect_matching(complete)

    join: Set[int] = set()
    for eid in matched:
        e = complete.edge(eid)
        source = terminals[e.u]
        target = terminals[e.v]
        for primal_eid in _path_edges(graph, preds[source], source, target):
            join.symmetric_difference_update({primal_eid})
    return sorted(join)


def min_tjoin_brute_force(graph: GeomGraph, tset: Set[int],
                          max_edges: int = 18) -> Optional[List[int]]:
    """Exhaustive minimum T-join (tests only)."""
    edges = [e for e in graph.edges() if not e.is_self_loop]
    if len(edges) > max_edges:
        raise ValueError(f"too many edges for brute force: {len(edges)}")
    best_cost: Optional[int] = None
    best: Optional[List[int]] = None
    for mask in range(1 << len(edges)):
        subset = [edges[i].id for i in range(len(edges)) if mask >> i & 1]
        cost = graph.total_weight(subset)
        if best_cost is not None and cost >= best_cost:
            continue
        if is_tjoin(graph, subset, tset):
            best_cost = cost
            best = subset
    return sorted(best) if best is not None else None
