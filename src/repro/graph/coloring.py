"""Two-coloring and parity bookkeeping.

Every edge of a phase conflict graph means "endpoints take different
colors" (overlap constraints are expanded into two such edges through
the overlap node), so phase assignment is exactly 2-coloring.

Every 2-coloring here reads one *parity labelling*
(:func:`parity_labelling`): min-label hooking with pointer jumping
over the live edges, carrying one parity bit per hook.  It gives every
node its component root and its side, in column passes over the
graph's flat arrays.  An edge is odd exactly when both ends share a
side, so the labelling is at once the bipartiteness check, the
coloring (the component's minimum node label takes color 0) and the
seed of step 3: :func:`residual_conflicts` inserts only the
planarization casualties, heaviest first, into a parity union-find
over component roots (:meth:`ParityLabelling.insert`).
:class:`ParityDSU` is that union-find; the greedy bipartization
baseline uses it on nodes directly.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .geomgraph import GeomGraph, _numpy, _parity_roots


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

    def union(self, a: int, b: int, parity: int) -> bool:
        """Record "the colors of a and b differ by ``parity``" (0 or 1).

        Returns False (and changes nothing) if that contradicts the
        constraints recorded so far.
        """
        ra, pa = self.find(a)
        rb, pb = self.find(b)
        if ra == rb:
            return pa ^ pb == parity
        if self._rank[ra] < self._rank[rb]:
            ra, rb = rb, ra
            pa, pb = pb, pa
        self._parent[rb] = ra
        self._parity[rb] = pa ^ pb ^ parity
        if self._rank[ra] == self._rank[rb]:
            self._rank[ra] += 1
        return True

    def union_unequal(self, a: int, b: int) -> bool:
        """Record "a and b have different colors".

        Returns False (and changes nothing) if that contradicts the
        constraints recorded so far, i.e. the edge would close an odd
        cycle.
        """
        return self.union(a, b, 1)


class ParityLabelling:
    """The parity labelling of a graph's live edges minus a skip set.

    Attributes:
        graph: the labelled graph.
        root: int64 per dense node index, the index of the node's
            component root (the component's smallest dense index).
        color: int64 per dense node index, a proper 2-coloring of every
            bipartite component in which the component's minimum node
            label takes color 0 — the canonical polarity of the whole
            coloring stack.
        odd: ids of the labelled edges whose ends share a color, in id
            order; empty exactly when the labelled graph is bipartite.

    :meth:`insert` extends the labelling edge by edge through a parity
    union-find over component roots, so a caller can test edges the
    labelling left out without labelling again.
    """

    __slots__ = ("graph", "root", "color", "odd", "_dsu")

    def __init__(self, graph: GeomGraph, root, color,
                 odd: List[int]) -> None:
        self.graph = graph
        self.root = root
        self.color = color
        self.odd = odd
        self._dsu = ParityDSU()

    def colors(self) -> Optional[Dict[int, int]]:
        """Node -> color of the whole graph; None unless bipartite."""
        if self.odd:
            return None
        return dict(zip(self.graph._labels, self.color.tolist()))

    def component_colors(self, nodes: Sequence[int]
                         ) -> Optional[Dict[int, int]]:
        """The colors of one whole component's nodes; None when the
        component holds an odd edge."""
        graph = self.graph
        index = list(nodes) if graph._dense_labels \
            else list(map(graph._node_index.__getitem__, nodes))
        if self.odd:
            ui, _vi = graph._dense_endpoints(_numpy())
            if (self.root[ui[self.odd]] == self.root[index[0]]).any():
                return None
        return dict(zip(nodes, self.color[index].tolist()))

    def insert(self, edge_ids: Sequence[int]) -> List[int]:
        """Offer edges, in order, to a parity union-find over component
        roots; returns the ids of those that would close an odd cycle.

        Accepted edges stay inserted, so a later call tests its edges
        against the labelling plus every edge accepted so far.
        """
        if not len(edge_ids):
            return []
        np = _numpy()
        ui, vi = self.graph._dense_endpoints(np)
        eids = np.asarray(edge_ids, dtype=np.int64)
        u, v = ui[eids], vi[eids]
        root, color = self.root, self.color
        union = self._dsu.union
        return [eid for eid, ru, rv, parity in zip(
                    eids.tolist(), root[u].tolist(), root[v].tolist(),
                    (color[u] ^ color[v] ^ 1).tolist())
                if not union(ru, rv, parity)]


def parity_labelling(graph: GeomGraph,
                     skip_edges: Iterable[int] = ()) -> ParityLabelling:
    """Label the live graph minus ``skip_edges`` in column passes.

    Components and sides come from :func:`_parity_roots`; the odd edges
    are those whose ends share a side.  The side of a node is its color
    relative to its root; one flip per component moves color 0 to the
    component's minimum node label (the root itself when labels are
    dense, as on conflict graphs).
    """
    np = _numpy()
    n = len(graph._labels)
    ui, vi = graph._dense_endpoints(np)
    blocked = set(skip_edges)
    blocked |= graph._removed
    if blocked:
        live = np.ones(len(ui), dtype=bool)
        live[np.fromiter(blocked, dtype=np.int64,
                         count=len(blocked))] = False
        eids = np.flatnonzero(live)
        u, v = ui[live], vi[live]
    else:
        eids = None
        u, v = ui, vi
    root, side = _parity_roots(np, n, u, v)
    odd = np.flatnonzero(side[u] == side[v])
    odd = (odd if eids is None else eids[odd]).tolist()
    if not graph._dense_labels and n:
        label = np.array(graph._labels, dtype=np.int64)
        low = np.full(n, np.iinfo(np.int64).max, dtype=np.int64)
        np.minimum.at(low, root, label)
        anchor = label == low[root]
        flip = np.zeros(n, dtype=np.int64)
        flip[root[anchor]] = side[anchor]
        side = side ^ flip[root]
    return ParityLabelling(graph, root, side, odd)


def color_component(graph: GeomGraph, start: int,
                    skip_edges: Iterable[int] = ()
                    ) -> Optional[Dict[int, int]]:
    """2-color the connected component containing ``start``.

    Returns colors for every node reachable from ``start`` over live
    edges minus ``skip_edges``, with ``start`` colored 0, or None when
    that component is not bipartite.
    """
    np = _numpy()
    i = graph._index_of(start)
    if i is None:        # unknown start label: colored, no edges
        return {start: 0}
    labelling = parity_labelling(graph, skip_edges)
    members = np.flatnonzero(labelling.root == labelling.root[i])
    nodes = graph._label_array(np)[members].tolist()
    colors = labelling.component_colors(nodes)
    if colors is None:
        return None
    flip = colors[start]
    return {node: color ^ flip for node, color in colors.items()}


def two_color(graph: GeomGraph,
              skip_edges: Iterable[int] = ()) -> Optional[Dict[int, int]]:
    """Proper 2-coloring of the live graph minus ``skip_edges``.

    Returns node -> {0, 1}, or None when the remaining graph is not
    bipartite.  Each component's minimum node id is colored 0 — the
    same polarity :mod:`repro.graph.components` replays from cache, so
    incremental recoloring reproduces this function bit for bit.
    """
    return parity_labelling(graph, skip_edges).colors()


def is_bipartite(graph: GeomGraph,
                 skip_edges: Iterable[int] = ()) -> bool:
    return not parity_labelling(graph, skip_edges).odd


def residual_conflicts(graph: GeomGraph, deleted: Sequence[int],
                       candidates: Sequence[int],
                       base: Optional[ParityLabelling] = None
                       ) -> List[int]:
    """Step 3 of the paper flow: which planarization casualties matter?

    Labels the graph without ``deleted`` and ``candidates``, then
    re-adds the candidate edges — heaviest first, so expensive edges
    are kept whenever the parity structure allows — returning, sorted
    by id, those that would close an odd cycle.  The re-adding runs
    through a parity union-find over the labelling's component roots,
    which also handles candidates that reconnect separate components
    (a fixed 2-coloring would misclassify those).

    ``base`` is the :func:`parity_labelling` of the graph minus
    ``deleted`` and ``candidates`` when the caller already has it (the
    detection flow takes it from the bipartization check); it is
    computed otherwise.  The accepted candidates stay inserted in it.
    Raises ValueError when that labelling is not bipartite.
    """
    candidate_set = set(candidates)
    if base is None:
        base = parity_labelling(graph, candidate_set.union(deleted))
    if base.odd:
        raise ValueError(
            "graph minus deleted edges is not bipartite; "
            "bipartization output is inconsistent")
    weight = graph.edge_weight
    ordered = sorted(candidate_set, key=lambda eid: (-weight(eid), eid))
    return sorted(base.insert(ordered))
