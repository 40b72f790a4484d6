"""Graph bipartization algorithms.

Three families, matching the paper's Table 1 columns:

* :func:`optimal_planar_bipartization` — the paper's *Bipartize*:
  embedded planar graph → geometric dual, reduced to a simple graph
  with no degree-2 face → minimum T-join (via the generalized-gadget
  matching reduction) → minimum-weight edge set whose removal kills
  every odd face, hence every odd cycle.  Only the components that
  hold an odd cycle are embedded.
* :func:`greedy_spanning_tree_bipartization` — the paper's GB baseline,
  implemented literally: keep a maximum-weight spanning forest, report
  every leftover edge as a conflict.
* :func:`greedy_odd_cycle_bipartization` — a fairer greedy (our
  ablation): keep any edge that does not close an odd cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from .coloring import ParityDSU, ParityLabelling, parity_labelling
from .dual import build_dual, eliminate_degree_two, simple_dual
from .embedding import build_embedding
from .gadgets import min_tjoin_gadget
from .geomgraph import GeomGraph, _numpy


@dataclass
class BipartizationResult:
    """Outcome of a bipartization run.

    Attributes:
        removed: primal edge ids whose deletion makes the graph bipartite.
        weight: total weight of the removed edges.
        method: algorithm identifier for reporting.
        labelling: the parity labelling of the graph minus ``removed``
            that the bipartization check computed (None for the greedy
            baselines); the detection flow's step 3 starts from it.
    """

    removed: List[int]
    weight: int
    method: str
    labelling: Optional[ParityLabelling] = field(
        default=None, compare=False, repr=False)

    @property
    def num_conflicts(self) -> int:
        return len(self.removed)


def optimal_planar_bipartization(graph: GeomGraph) -> BipartizationResult:
    """Minimum-weight bipartization of an embedded planar graph.

    ``graph`` must be a crossing-free straight-line drawing (run
    :func:`repro.graph.crossings.greedy_planarize` first).  The
    generalized gadget (:func:`~repro.graph.gadgets.min_tjoin_gadget`)
    solves the T-join on the dual's simple instance
    (:func:`~repro.graph.dual.simple_dual`) with its degree-2 faces
    eliminated (:func:`~repro.graph.dual.eliminate_degree_two`), which
    has the same minimum T-join weight, and the join is expanded back
    to primal edge ids.

    The problem splits over the components of the live graph, and a
    bipartite component has only even faces, so it adds no terminal to
    the T-join.  One parity labelling of the live graph finds the
    components that hold an odd edge, and only those are embedded,
    dualized and joined.  A bipartite graph returns at once: that
    labelling is the check of the graph minus an empty edge set.
    """
    labelling = parity_labelling(graph)
    if not labelling.odd:
        return BipartizationResult(removed=[], weight=0, method="gadget",
                                   labelling=labelling)
    embedding = build_embedding(graph, _odd_component_edges(graph,
                                                            labelling))
    dual = eliminate_degree_two(simple_dual(build_dual(embedding)))
    join = min_tjoin_gadget(dual.graph, dual.tset)
    removed = dual.primal_edges(join)
    labelling = parity_labelling(graph, skip_edges=removed)
    if labelling.odd:
        raise AssertionError(
            "bipartization invariant violated: residual graph has an "
            "odd cycle")
    return BipartizationResult(
        removed=removed,
        weight=graph.total_weight(removed),
        method="gadget",
        labelling=labelling,
    )


def _odd_component_edges(graph: GeomGraph,
                         labelling: ParityLabelling) -> List[int]:
    """The live edge ids, ascending, of the components of ``graph``
    that hold an odd edge of its ``labelling``."""
    np = _numpy()
    ui, _vi = graph._dense_endpoints(np)
    odd = np.zeros(graph.num_nodes(), dtype=bool)
    odd[labelling.root[ui[labelling.odd]]] = True
    keep = odd[labelling.root[ui]]
    if graph._removed:
        keep[list(graph._removed)] = False
    return np.flatnonzero(keep).tolist()


def greedy_spanning_tree_bipartization(graph: GeomGraph
                                       ) -> BipartizationResult:
    """The paper's GB baseline, taken at its word.

    Builds a maximum-weight spanning forest by greedily accepting the
    heaviest edge that joins two trees; *every* leftover edge — whether
    or not it closes an odd cycle — is reported as a conflict.  This
    over-reports massively on dense layouts, which is exactly the
    paper's point in Table 1.
    """
    parent = {v: v for v in graph.nodes}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    removed: List[int] = []
    ordered = sorted(graph.live_edge_rows(),
                     key=lambda row: (-row[3], row[0]))
    for eid, u, v, _w in ordered:
        ra, rb = find(u), find(v)
        if ra == rb:
            removed.append(eid)
        else:
            parent[ra] = rb
    removed.sort()
    return BipartizationResult(
        removed=removed,
        weight=graph.total_weight(removed),
        method="greedy-spanning-tree",
    )


def greedy_odd_cycle_bipartization(graph: GeomGraph) -> BipartizationResult:
    """Greedy bipartization that only rejects odd-cycle-closing edges.

    Edges are offered heaviest-first to a parity union-find; an edge is
    a conflict only when the structure proves its endpoints must share a
    color.  Still suboptimal (greedy), but a far stronger baseline than
    the literal spanning-tree GB — reported as an ablation.
    """
    dsu = ParityDSU()
    for node in graph.nodes:
        dsu.add(node)
    removed: List[int] = []
    ordered = sorted(graph.live_edge_rows(),
                     key=lambda row: (-row[3], row[0]))
    for eid, u, v, _w in ordered:
        if u == v or not dsu.union_unequal(u, v):
            removed.append(eid)
    removed.sort()
    return BipartizationResult(
        removed=removed,
        weight=graph.total_weight(removed),
        method="greedy-odd-cycle",
    )
