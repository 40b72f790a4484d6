"""Gadget reductions from the T-join problem to perfect matching.

This is the paper's §3.1.2 contribution.  Each node ``v`` of the T-join
instance becomes a *gadget*: one matching-graph node per incident edge,
flagged *true* (edge assigned to ``v``) or *ghost* (assigned to the other
endpoint).  The assignment is chosen so that every node is assigned a
number of edges with the parity of its T-membership.  Gadget nodes are
pairwise connected with weights

    true-true: 0      ghost-true: w(ghost's edge)
    ghost-ghost: w(e) + w(e')

and each edge's true and ghost node are joined through a 0-weight dummy
node.  A perfect matching must match every dummy to one side; the edge is
in the T-join iff the dummy takes the *true* side (equivalently: the
ghost is matched inside its gadget, paying w(e) exactly once).

Correctness sketch (proved in the tests against the shortest-path
reduction in ``tests/oracles.py``): inside gadget ``v`` every node is
either dummy-matched or intra-matched and the intra-matched count is
even, so

    deg_J(v) = #(assigned, dummy-matched) + #(unassigned, intra-matched)
             = a_v - #(assigned, intra) + #(unassigned, intra)
             = a_v + #intra  (mod 2)  =  a_v  (mod 2)  =  [v in T],

and the matching weight is exactly the total weight of intra-matched
ghosts, i.e. w(J).

Two details the paper leaves implicit:

* An assignment with ``a_v = [v in T] (mod 2)`` exists iff the component
  satisfies ``|E| = |T| (mod 2)`` (the assigned counts sum to |E|).
  Since |T| is always even per component, we add a 0-weight *pendant*
  edge to components with an odd edge count; the pendant's ghost gadget
  has no intra partner, so the pendant can never enter the T-join.
  (The paper instead allows assigning an edge "to both endpoints".)
* The *divide-node decomposition* (paper Fig. 4) splits a size-k gadget
  clique into chunks chained by divide-node *pairs* joined by a 0-weight
  edge: matching the pair to itself carries nothing across the boundary
  and matching each member into its side carries one intra-pairing
  across, which suffices because intra-pair cost only depends on which
  nodes are intra-matched, not on who pairs with whom.  A chunk size of
  1 reproduces the ASP-DAC'01 *optimized gadgets* (cliques of size <= 3);
  ``None`` keeps one clique per gadget — the paper's generalized gadget
  in its most node-frugal form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .geomgraph import GeomGraph
from .matching import min_weight_perfect_matching


class TJoinInfeasibleError(ValueError):
    """Raised when some component contains an odd number of T nodes."""


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


@dataclass(frozen=True)
class _InternalEdge:
    """Edge of the (pendant-augmented) T-join instance."""

    index: int
    u: int
    v: int
    weight: int
    orig_id: Optional[int]  # None for pendant edges


@dataclass
class GadgetGraph:
    """The matching instance produced by the reduction."""

    matching_graph: GeomGraph
    # Per internal edge: (original edge id, dummy node, assigned-side node).
    selectors: List[Tuple[Optional[int], int, int]]
    num_divide_nodes: int

    @property
    def num_nodes(self) -> int:
        return self.matching_graph.num_nodes()

    @property
    def num_edges(self) -> int:
        return self.matching_graph.num_edges()


def _internal_edges(graph: GeomGraph, components: List[List[int]]
                    ) -> List[_InternalEdge]:
    """Collect non-self-loop edges and add pendants for odd components
    (``components`` is ``graph.connected_components()``)."""
    edges: List[_InternalEdge] = []
    for eid, u, v, w in graph.live_edge_rows():
        if u != v:
            edges.append(_InternalEdge(len(edges), u, v, w, eid))

    synthetic = max(graph.nodes, default=0) + 1
    comp_edges: Dict[int, int] = {}
    comp_anchor: Dict[int, int] = {}
    comp_of: Dict[int, int] = {}
    for ci, comp in enumerate(components):
        for node in comp:
            comp_of[node] = ci
        comp_anchor[ci] = comp[0]
        comp_edges[ci] = 0
    for e in edges:
        comp_edges[comp_of[e.u]] += 1
    for ci, count in sorted(comp_edges.items()):
        if count % 2 == 1:
            edges.append(_InternalEdge(len(edges), comp_anchor[ci],
                                       synthetic, 0, None))
            synthetic += 1
    return edges


def _assign_edges(edges: Sequence[_InternalEdge], tset: Set[int]
                  ) -> List[int]:
    """Assign each edge to one endpoint so a_v = [v in T] (mod 2).

    Spanning-forest sweep: non-tree edges go to their ``u`` endpoint;
    tree edges are then fixed bottom-up so each non-root node reaches
    its target parity; the pendant augmentation guarantees the root
    works out.  Returns the assigned endpoint per edge index.
    """
    adj: Dict[int, List[int]] = {}
    for e in edges:
        adj.setdefault(e.u, []).append(e.index)
        adj.setdefault(e.v, []).append(e.index)

    assigned: List[Optional[int]] = [None] * len(edges)
    parent_edge: Dict[int, Optional[int]] = {}
    order: List[int] = []
    visited: Set[int] = set()
    tree_edges: Set[int] = set()
    for root in sorted(adj):
        if root in visited:
            continue
        visited.add(root)
        parent_edge[root] = None
        stack = [root]
        while stack:
            node = stack.pop()
            order.append(node)
            for eidx in adj[node]:
                e = edges[eidx]
                nxt = e.v if e.u == node else e.u
                if nxt not in visited:
                    visited.add(nxt)
                    parent_edge[nxt] = eidx
                    tree_edges.add(eidx)
                    stack.append(nxt)

    for e in edges:
        if e.index not in tree_edges:
            assigned[e.index] = e.u

    count: Dict[int, int] = {v: 0 for v in adj}
    for e in edges:
        if assigned[e.index] is not None:
            count[assigned[e.index]] += 1

    for node in reversed(order):
        eidx = parent_edge[node]
        if eidx is None:
            target = 1 if node in tset else 0
            if count[node] % 2 != target:
                raise AssertionError(
                    "root parity violated; pendant augmentation is broken")
            continue
        target = 1 if node in tset else 0
        e = edges[eidx]
        other = e.v if e.u == node else e.u
        if count[node] % 2 != target:
            assigned[eidx] = node
            count[node] += 1
        else:
            assigned[eidx] = other
            count[other] += 1
    if any(a is None for a in assigned):
        raise AssertionError("unassigned edge after spanning-forest sweep")
    return assigned  # type: ignore[return-value]


def build_gadget_graph(graph: GeomGraph, tset: Set[int],
                       max_clique_size: Optional[int] = None,
                       components: Optional[List[List[int]]] = None
                       ) -> GadgetGraph:
    """Construct the matching instance for a T-join problem.

    Args:
        graph: T-join instance (non-negative weights).
        tset: nodes that must have odd join-degree.
        max_clique_size: chunk size of the divide-node decomposition;
            ``None`` = one clique per gadget (generalized gadget),
            ``1`` = ASP-DAC'01 optimized gadgets (cliques <= 3).
        components: ``graph.connected_components()``, when the caller
            already has it; computed here otherwise.  The feasibility
            check runs either way.
    """
    if components is None:
        components = graph.connected_components()
    check_feasible(graph, tset, components)
    if max_clique_size is not None and max_clique_size < 1:
        raise ValueError("max_clique_size must be >= 1 or None")
    edges = _internal_edges(graph, components)
    assigned = _assign_edges(edges, tset)

    # Nodes are dense sequential ints and edges are appended in one
    # deterministic order, so the whole graph is buffered and built
    # through the bulk add_nodes/add_edge_rows paths — same ids, same
    # iteration order, a fraction of the construction cost (this
    # builder runs once per odd cycle chip-wide).
    mg = GeomGraph(name=f"{graph.name}#gadget")
    rows: List[Tuple[int, int, int, str]] = []
    next_node = 0

    def new_node() -> int:
        nonlocal next_node
        next_node += 1
        return next_node - 1

    # Per-edge gadget members: (edge index, endpoint) -> matching node.
    member: Dict[Tuple[int, int], int] = {}
    cost: Dict[int, int] = {}

    incident: Dict[int, List[int]] = {}
    for e in edges:
        incident.setdefault(e.u, []).append(e.index)
        incident.setdefault(e.v, []).append(e.index)

    num_divide = 0
    for node in sorted(incident):
        locals_: List[int] = []
        for eidx in incident[node]:
            m = new_node()
            member[(eidx, node)] = m
            cost[m] = 0 if assigned[eidx] == node else edges[eidx].weight
            locals_.append(m)

        if max_clique_size is None:
            chunks = [locals_]
        else:
            chunks = [locals_[i:i + max_clique_size]
                      for i in range(0, len(locals_), max_clique_size)]

        prev_carry: Optional[int] = None
        for ci, chunk in enumerate(chunks):
            clique = list(chunk)
            if prev_carry is not None:
                clique.append(prev_carry)
            if ci + 1 < len(chunks):
                d_out = new_node()
                d_in = new_node()
                cost[d_out] = 0
                cost[d_in] = 0
                num_divide += 2
                rows.append((d_out, d_in, 0, "divide-pair"))
                clique.append(d_out)
                prev_carry = d_in
            else:
                prev_carry = None
            for i, a in enumerate(clique):
                for b in clique[i + 1:]:
                    rows.append((a, b, cost[a] + cost[b], "intra"))

    selectors: List[Tuple[Optional[int], int, int]] = []
    for e in edges:
        dummy = new_node()
        cost[dummy] = 0
        mu = member[(e.index, e.u)]
        mv = member[(e.index, e.v)]
        rows.append((dummy, mu, 0, "dummy"))
        rows.append((dummy, mv, 0, "dummy"))
        assigned_node = mu if assigned[e.index] == e.u else mv
        selectors.append((e.orig_id, dummy, assigned_node))

    mg.add_nodes(range(next_node))
    mg.add_edge_rows(rows)
    return GadgetGraph(matching_graph=mg, selectors=selectors,
                       num_divide_nodes=num_divide)


def extract_tjoin(gadget: GadgetGraph, matched_edge_ids: Sequence[int]
                  ) -> List[int]:
    """Read the T-join off a perfect matching of the gadget graph."""
    mate: Dict[int, int] = {}
    mg = gadget.matching_graph
    for eid in matched_edge_ids:
        e = mg.edge(eid)
        mate[e.u] = e.v
        mate[e.v] = e.u
    join: List[int] = []
    for orig_id, dummy, assigned_node in gadget.selectors:
        if mate.get(dummy) == assigned_node and orig_id is not None:
            join.append(orig_id)
    return sorted(join)


def min_tjoin_gadget(graph: GeomGraph, tset: Set[int],
                     max_clique_size: Optional[int] = None) -> List[int]:
    """Minimum-weight T-join via the gadget/perfect-matching reduction.

    Components containing no T node contribute nothing to a minimum
    T-join (weights are non-negative), so the gadget is only built over
    the T-bearing components — on conflict-sparse layouts this shrinks
    the matching instance by orders of magnitude.

    The components are computed once per solve.  The T-bearing ones
    are exactly the components of the induced subgraph: each is a
    sorted node list, and the subgraph inserts its nodes in sorted
    order, so its own labelling would list them by smallest node.
    """
    if not tset:
        return []
    components = graph.connected_components()
    check_feasible(graph, tset, components)
    bearing = sorted(comp for comp in components
                     if not tset.isdisjoint(comp))
    relevant: Set[int] = set().union(*bearing)
    sub = graph.subgraph(relevant)
    gadget = build_gadget_graph(sub, tset & relevant, max_clique_size,
                                components=bearing)
    matched = min_weight_perfect_matching(gadget.matching_graph)
    sub_join = extract_tjoin(gadget, matched)
    return sorted(sub.edge(eid).tag[1] for eid in sub_join)
