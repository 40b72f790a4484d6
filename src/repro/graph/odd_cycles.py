"""Odd-cycle utilities and the Moniwa-style iterative baseline.

Moniwa et al. (JJAP'95, the paper's reference [4]) eliminate phase
conflicts by enumerating odd cycles and deleting edges one at a time.
We implement the spirit of that heuristic — repeatedly find a shortest
odd cycle and delete its cheapest edge — as a historical baseline for
the ablation benches, plus the odd-cycle search primitives the tests
use to characterise workloads.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .geomgraph import GeomGraph


def shortest_odd_cycle(graph: GeomGraph) -> Optional[List[int]]:
    """Edge ids of a minimum-edge-count odd cycle, or None if bipartite.

    BFS on the bipartite double cover from every node: reaching
    ``(start, parity=1)`` certifies an odd closed walk through
    ``start``; the shortest such walk is an odd cycle.  O(V * E) —
    plenty for workload characterisation.
    """
    best: Optional[List[int]] = None
    for start in sorted(graph.nodes):
        cycle = _odd_walk_from(graph, start)
        if cycle is not None and (best is None or len(cycle) < len(best)):
            best = cycle
            if len(best) == 1:
                break
    return best


def _odd_walk_from(graph: GeomGraph, start: int) -> Optional[List[int]]:
    # State: (node, parity); parent pointers reconstruct the walk.
    parent: Dict[Tuple[int, int], Tuple[Tuple[int, int], int]] = {}
    source = (start, 0)
    parent[source] = (source, -1)
    frontier = [source]
    while frontier:
        nxt_frontier = []
        for node, parity in frontier:
            for e in graph.incident(node):
                if e.is_self_loop:
                    if node == start:
                        return [e.id]
                    continue
                state = (e.other(node), parity ^ 1)
                if state not in parent:
                    parent[state] = ((node, parity), e.id)
                    if state == (start, 1):
                        return _walk_edges(parent, state)
                    nxt_frontier.append(state)
        frontier = nxt_frontier
    return None


def _walk_edges(parent, state) -> List[int]:
    edges: List[int] = []
    while parent[state][1] != -1:
        prev, eid = parent[state]
        edges.append(eid)
        state = prev
    return edges


def moniwa_iterative_bipartization(graph: GeomGraph) -> List[int]:
    """Historical baseline: delete the cheapest edge of a shortest odd
    cycle until the graph is bipartite.  Returns removed edge ids
    (operates on a scratch copy; the input graph is untouched)."""
    scratch = GeomGraph(name=f"{graph.name}#moniwa")
    for node in graph.nodes:
        scratch.add_node(node, None)
    id_map: Dict[int, int] = {}
    for e in graph.edges():
        new = scratch.add_edge(e.u, e.v, e.weight)
        id_map[new.id] = e.id
    removed: List[int] = []
    while True:
        cycle = shortest_odd_cycle(scratch)
        if cycle is None:
            return sorted(removed)
        victim = min(cycle, key=lambda eid: (scratch.edge(eid).weight, eid))
        scratch.remove_edge(victim)
        removed.append(id_map[victim])
