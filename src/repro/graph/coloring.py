"""Two-coloring and parity bookkeeping.

Every edge of a phase conflict graph means "endpoints take different
colors" (overlap constraints are expanded into two such edges through
the overlap node), so phase assignment is exactly 2-coloring.  The
parity union-find here also powers the greedy bipartization baseline and
step 3 of the detection flow.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .geomgraph import GeomGraph


class ParityDSU:
    """Union-find where every element knows its color parity to the root."""

    def __init__(self) -> None:
        self._parent: Dict[int, int] = {}
        self._parity: Dict[int, int] = {}
        self._rank: Dict[int, int] = {}

    def add(self, x: int) -> None:
        if x not in self._parent:
            self._parent[x] = x
            self._parity[x] = 0
            self._rank[x] = 0

    def find(self, x: int) -> Tuple[int, int]:
        """Returns (root, parity of x relative to root)."""
        self.add(x)
        path: List[int] = []
        while self._parent[x] != x:
            path.append(x)
            x = self._parent[x]
        parity = 0
        for node in reversed(path):
            parity ^= self._parity[node]
            self._parent[node] = x
            self._parity[node] = parity
        return x, self._parity[path[0]] if path else 0

    def union_unequal(self, a: int, b: int) -> bool:
        """Record "a and b have different colors".

        Returns False (and changes nothing) if that contradicts the
        constraints recorded so far, i.e. the edge would close an odd
        cycle.
        """
        ra, pa = self.find(a)
        rb, pb = self.find(b)
        if ra == rb:
            return pa != pb
        if self._rank[ra] < self._rank[rb]:
            ra, rb = rb, ra
            pa, pb = pb, pa
        self._parent[rb] = ra
        self._parity[rb] = pa ^ pb ^ 1
        if self._rank[ra] == self._rank[rb]:
            self._rank[ra] += 1
        return True


def color_component(graph: GeomGraph, start: int,
                    skip_edges: Iterable[int] = ()
                    ) -> Optional[Dict[int, int]]:
    """2-color the connected component containing ``start``.

    The canonical polarity rule of the whole coloring stack: the
    traversal root gets color 0.  Returns colors for every node
    reachable from ``start`` over live edges minus ``skip_edges``, or
    None when that component is not bipartite.

    Runs straight on the graph's CSR adjacency: a proper 2-coloring is
    unique per component up to the pinned root polarity, so traversal
    order is free and the flat arrays are walked without materializing
    :class:`~repro.graph.geomgraph.Edge` objects (this is the verify
    stage's hottest loop on chip-scale layouts).
    """
    skip = skip_edges if isinstance(skip_edges, set) else set(skip_edges)
    return _color_from(graph, start, _blocked_edges(graph, skip))


def _blocked_edges(graph: GeomGraph, skip: Set[int]) -> Set[int]:
    """The edge ids a traversal must not cross: removed plus skipped."""
    removed = graph._removed
    if not removed:
        return skip
    if not skip:
        return removed
    return removed | skip


def _color_from(graph: GeomGraph, start: int,
                blocked: Set[int]) -> Optional[Dict[int, int]]:
    """:func:`color_component` over a prebuilt blocked-edge set."""
    csr = graph.csr()
    indptr = csr.indptr
    neighbors = csr.neighbors
    edge_ids = csr.edge_ids
    index = graph._node_index
    colors: Dict[int, int] = {start: 0}
    queue = [start]
    pop = queue.pop
    push = queue.append
    get = colors.get
    while queue:
        node = pop()
        color = colors[node]
        i = index.get(node)
        if i is None:        # unknown start label: colored, no edges
            continue
        for k in range(indptr[i], indptr[i + 1]):
            if blocked and edge_ids[k] in blocked:
                continue
            nxt = neighbors[k]
            if nxt == node:      # self-loop: never 2-colorable
                return None
            seen = get(nxt)
            if seen is None:
                colors[nxt] = color ^ 1
                push(nxt)
            elif seen == color:
                return None
    return colors


def two_color(graph: GeomGraph,
              skip_edges: Iterable[int] = ()) -> Optional[Dict[int, int]]:
    """Proper 2-coloring of the live graph minus ``skip_edges``.

    Returns node -> {0, 1}, or None when the remaining graph is not
    bipartite.  Deterministic, one component at a time: each
    component's root is its minimum node id and is colored 0 — the
    same polarity :mod:`repro.graph.components` replays from cache, so
    incremental recoloring reproduces this function bit for bit.  The
    blocked-edge set is built once per call, so the cost is linear in
    the graph, however many components it has.
    """
    blocked = _blocked_edges(graph, set(skip_edges))
    colors: Dict[int, int] = {}
    for start in sorted(graph.nodes):
        if start in colors:
            continue
        component = _color_from(graph, start, blocked)
        if component is None:
            return None
        colors.update(component)
    return colors


def is_bipartite(graph: GeomGraph,
                 skip_edges: Iterable[int] = ()) -> bool:
    return two_color(graph, skip_edges) is not None


def residual_conflicts(graph: GeomGraph, deleted: Sequence[int],
                       candidates: Sequence[int]) -> List[int]:
    """Step 3 of the paper flow: which planarization casualties matter?

    Colors the graph without ``deleted`` and ``candidates``, then re-adds
    the candidate edges — heaviest first, so expensive edges are kept
    whenever the parity structure allows — returning those that would
    close an odd cycle (the endpoints already have equal colors).  A
    parity union-find generalizes the paper's single 2-coloring: it also
    handles candidates that reconnect separate components, which a fixed
    coloring would misclassify.
    """
    deleted_set = set(deleted)
    candidate_set = set(candidates)
    dsu = ParityDSU()
    for node in graph.nodes:
        dsu.add(node)
    for eid, u, v, _w in graph.live_edge_rows():
        if eid in deleted_set or eid in candidate_set:
            continue
        if not dsu.union_unequal(u, v):
            raise ValueError(
                "graph minus deleted edges is not bipartite; "
                "bipartization output is inconsistent")

    weight = graph.edge_weight
    ordered = sorted(candidate_set, key=lambda eid: (-weight(eid), eid))
    conflicts: List[int] = []
    for eid in ordered:
        e = graph.edge(eid)
        if not dsu.union_unequal(e.u, e.v):
            conflicts.append(eid)
    return sorted(conflicts)
