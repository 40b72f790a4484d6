"""Connected components with content-derived ids, and incremental
2-coloring on top of them.

Phase assignment is a 2-coloring of the conflict graph, and a
2-coloring never crosses a component boundary — so the component is
the natural unit of incremental recoloring.  Each component gets a
*content id*: a hash of its geometry-anchored node set and live edge
structure that is independent of node numbering (node identity is the
node's coordinate, not its integer id).  An ECO edit that leaves a
component's geometry untouched therefore leaves its content id — and
its cached coloring — valid, even when every shifter id on the chip
shifted under it.

Colorings are cached in *canonical form*: colors listed in canonical
node order, normalized so the first canonical node has color 0.
Replay re-anchors the canonical vector onto the current node ids and
flips it so the component's minimum node id takes color 0 — exactly
the polarity :func:`repro.graph.coloring.two_color` produces (the
parity labelling gives every component's minimum node id color 0).
Within a connected component a proper 2-coloring is unique up to that
flip, so a cache replay is *identical* to a cold chip-wide coloring,
not merely equivalent.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Dict, List, Optional, Sequence, Tuple

from .coloring import parity_labelling
from .geomgraph import GeomGraph, _numpy, _parity_roots

# Bump when the canonical coloring encoding or the content-id encoding
# changes so stale cache directories self-invalidate.  Format 2: content
# ids hash int64 node and edge rows (:func:`_content_ids`).
COMPONENT_FORMAT = 2

# The value stored for a component whose subgraph is not 2-colorable.
ODD_COMPONENT = "odd"


@dataclass(frozen=True, slots=True)
class GraphComponent:
    """One connected component of a graph's live-edge structure.

    Attributes:
        index: dense component index (ordered by minimum node id).
        nodes: the component's node ids, ascending.
        order: the same nodes in *canonical* order — sorted by
            coordinate when the graph has coordinates (so the order
            survives node renumbering), by id otherwise.
        content_id: hex digest of the component's content (canonical
            node keys plus edge multiset), independent of node ids
            whenever coordinates exist.
    """

    index: int
    nodes: Tuple[int, ...]
    order: Tuple[int, ...]
    content_id: str

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def min_node(self) -> int:
        return self.nodes[0]


def decompose(graph: GeomGraph) -> List[GraphComponent]:
    """The graph's live-edge components with content ids.

    Deterministic: components are ordered by minimum node id, so the
    decomposition of a given graph is reproducible across runs and
    processes.  Everything is column passes over the graph's flat
    arrays — no per-node or per-edge Python loop, and no
    :class:`~repro.graph.geomgraph.Edge` objects (this runs once per
    assign stage over chip-scale graphs):

    * components by min-label hooking with pointer jumping over the
      live edges (:func:`~repro.graph.geomgraph._parity_roots`, whose
      sides the coloring reads);
    * each component's nodes ascending, and its canonical order — by
      coordinate, ties by id, when every node of the component has
      one; by id otherwise — from one lexsort each.  Coordinate order
      is what keeps content ids stable under renumbering: the front
      end renumbers shifter and auxiliary nodes monotonically, so
      equal-coordinate ties resolve the same way in every revision
      that leaves the geometry alone;
    * content ids (:func:`_content_ids`) from the canonical node rows
      and the sorted canonical edge rows, hashed per component.

    Edge weights enter the content ids as int64, so a live edge's
    weight must lie in the int64 range; a larger one raises
    ValueError.  The flow's largest weight, the Condition-1
    feature-edge weight, grows with the chip: about 4e15 on D7 and
    2e16 on D8, 460 times below the limit.
    """
    np = _numpy()
    labels = graph._labels
    n = len(labels)
    if not n:
        return []
    label = np.array(labels, dtype=np.int64)
    ui, vi = graph._dense_endpoints(np)
    live = np.ones(len(ui), dtype=bool)
    if graph._removed:
        live[np.fromiter(graph._removed, dtype=np.int64,
                         count=len(graph._removed))] = False
    u, v = ui[live], vi[live]
    try:
        weight = np.fromiter(graph._ew, dtype=np.int64,
                             count=len(ui))[live]
    except OverflowError:
        raise ValueError(
            f"graph {graph.name!r}: an edge weight exceeds int64, the "
            "range component content ids encode") from None

    # Components, indexed by their minimum node label.
    root, _side = _parity_roots(np, n, u, v)
    roots = np.flatnonzero(root == np.arange(n, dtype=np.int64))
    low = np.full(n, np.iinfo(np.int64).max, dtype=np.int64)
    np.minimum.at(low, root, label)
    index = np.empty(n, dtype=np.int64)
    index[roots[np.argsort(low[roots], kind="stable")]] = \
        np.arange(len(roots), dtype=np.int64)
    comp = index[root]
    sizes = np.bincount(comp, minlength=len(roots))
    ends = np.cumsum(sizes)
    starts = ends - sizes

    # Node rows: (0, x, y) for a node with a coordinate, (1, id, 0)
    # without.  Coordinates order a component only when it has them
    # all.
    coords = graph._coords
    has = np.fromiter(map(coords.__contains__, labels), dtype=bool,
                      count=n)
    xy = np.fromiter(chain.from_iterable(map(coords.get, labels,
                                             repeat((0, 0), n))),
                     dtype=np.int64, count=2 * n).reshape(-1, 2)
    node_rows = np.stack((np.where(has, 0, 1),
                          np.where(has, xy[:, 0], label),
                          np.where(has, xy[:, 1], 0)), axis=1)
    full = np.bincount(comp, weights=~has, minlength=len(roots)) == 0
    sort_x = np.where(full[comp], xy[:, 0], 0)
    sort_y = np.where(full[comp], xy[:, 1], 0)
    by_id = np.lexsort((label, comp))
    canonical = np.lexsort((label, sort_y, sort_x, comp))
    rank = np.empty(n, dtype=np.int64)
    rank[canonical] = np.arange(n, dtype=np.int64) - starts[comp[canonical]]

    # Canonical edge rows (rank u, rank v, weight), u <= v, sorted
    # within each component.
    ru, rv = rank[u], rank[v]
    edge_rows = np.stack((np.minimum(ru, rv), np.maximum(ru, rv), weight),
                         axis=1)
    edge_comp = comp[u]
    edge_order = np.lexsort((edge_rows[:, 2], edge_rows[:, 1],
                             edge_rows[:, 0], edge_comp))

    content = _content_ids(node_rows[canonical], sizes,
                           edge_rows[edge_order],
                           np.bincount(edge_comp, minlength=len(roots)))
    nodes = label[by_id].tolist()
    order = label[canonical].tolist()
    return [GraphComponent(index=i, nodes=tuple(nodes[a:b]),
                           order=tuple(order[a:b]), content_id=cid)
            for i, (a, b, cid) in enumerate(zip(starts.tolist(),
                                                ends.tolist(), content))]


def _content_ids(node_rows, sizes, edge_rows, edge_sizes) -> List[str]:
    """Hex sha256 per component of its canonical content.

    A component's content is little-endian int64 triples: the header
    ``(COMPONENT_FORMAT, nodes, edges)``, its node rows in canonical
    order, then its sorted canonical edge rows.  Nodes are coordinates
    (or raw ids without one) and edges are ranks in the canonical
    order, so the id is independent of node ids whenever coordinates
    exist; the edge rows are a sorted multiset, which keeps parallel
    edges and self-loops.  ``node_rows`` and ``edge_rows`` come grouped
    by component; every component's content is scattered into one
    buffer, then hashed slice by slice.
    """
    np = _numpy()
    count = len(sizes)
    span = 1 + sizes + edge_sizes
    ends = np.cumsum(span)
    starts = ends - span
    buf = np.empty((int(ends[-1]) if count else 0, 3), dtype="<i8")
    buf[starts] = np.stack((np.full(count, COMPONENT_FORMAT), sizes,
                            edge_sizes), axis=1)
    for rows, lengths, skip in ((node_rows, sizes, 1),
                                (edge_rows, edge_sizes, 1 + sizes)):
        owner = np.repeat(np.arange(count), lengths)
        offset = np.arange(len(rows)) - np.repeat(
            np.cumsum(lengths) - lengths, lengths)
        buf[(starts + skip)[owner] + offset] = rows
    data = memoryview(buf).cast("B")
    sha256 = hashlib.sha256
    return [sha256(data[24 * a:24 * b]).hexdigest()
            for a, b in zip(starts.tolist(), ends.tolist())]


# ----------------------------------------------------------------------
# Canonical coloring codec
# ----------------------------------------------------------------------
def encode_coloring(component: GraphComponent,
                    colors: Dict[int, int]) -> Tuple[int, ...]:
    """A component's colors as a canonical vector (first canonical
    node normalized to color 0)."""
    base = colors[component.order[0]]
    return tuple(colors[n] ^ base for n in component.order)


def decode_coloring(component: GraphComponent,
                    canonical: Sequence[int]) -> Dict[int, int]:
    """Re-anchor a canonical color vector onto current node ids.

    The polarity flip puts color 0 on the component's minimum node id,
    matching a cold :func:`~repro.graph.coloring.two_color` exactly.
    """
    colors = dict(zip(component.order, canonical))
    flip = colors[component.min_node]
    if flip:
        return {n: c ^ 1 for n, c in colors.items()}
    return colors


# ----------------------------------------------------------------------
# Incremental recoloring
# ----------------------------------------------------------------------
def two_color_incremental(graph: GeomGraph, store,
                          components: Optional[
                              Sequence[GraphComponent]] = None,
                          ) -> Optional[Dict[int, int]]:
    """Per-component 2-coloring that only recolors changed components.

    ``store`` is a :class:`repro.cache.ArtifactCache`; colorings are
    cached under the ``coloring`` kind keyed by component content id.
    A component whose node/edge content is unchanged since any earlier
    run (this process or a persisted cache directory) replays its
    canonical coloring instead of being recolored.  The store counts
    one ``coloring`` get per component: a hit replayed, a miss
    recolored.  The first miss labels the whole graph once
    (:func:`~repro.graph.coloring.parity_labelling`), and every missed
    component reads its colors from that labelling.

    Returns colors matching :func:`~repro.graph.coloring.two_color`
    exactly, or None when some component is not bipartite.  Unlike the
    cold path, every component is processed even after a failure so
    the cache warms completely.
    """
    from ..cache import KIND_COLORING
    from ..obs import get_tracer

    tracer = get_tracer()
    colors: Dict[int, int] = {}
    failed = False
    labelling = None
    for component in components if components is not None \
            else decompose(graph):
        canonical = store.get(KIND_COLORING, component.content_id)
        if canonical is None:
            # Only recomputed components get spans — replays are pure
            # cache lookups already counted by the store's metrics, and
            # span-per-replay would balloon warm full-chip traces.
            with tracer.span("component", cat="component", op="recolor",
                             component=component.content_id[:12],
                             nodes=len(component.nodes)):
                if labelling is None:
                    labelling = parity_labelling(graph)
                fresh = labelling.component_colors(component.nodes)
                canonical = (ODD_COMPONENT if fresh is None
                             else encode_coloring(component, fresh))
            store.put(KIND_COLORING, component.content_id, canonical)
            # A fresh coloring gives the minimum node color 0, which is
            # exactly the polarity a decode would restore.
            if fresh is None:
                failed = True
            elif not failed:
                colors.update(fresh)
        elif canonical == ODD_COMPONENT:
            failed = True
        elif not failed:
            colors.update(decode_coloring(component, canonical))
    return None if failed else colors
