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

Colorings are cached in *canonical form*: one byte per node, the
colors in canonical node order, normalized so the first canonical node
has color 0.  Replay scatters every replayed code back onto the
current node indices at once and flips each component so its minimum
node label takes color 0 — exactly the polarity
:func:`repro.graph.coloring.two_color` produces (the parity labelling
gives every component's minimum node label color 0).  Within a
connected component a proper 2-coloring is unique up to that flip, so
a cache replay is *identical* to a cold chip-wide coloring, not merely
equivalent.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, List, Optional

from .geomgraph import GeomGraph, _numpy, _parity_roots

# Bump when the canonical coloring encoding or the content-id encoding
# changes so stale cache directories self-invalidate.  Format 2: content
# ids hash int64 node and edge rows (:func:`_content_ids`).  Format 3:
# colorings are stored as bytes, one per canonical node.
COMPONENT_FORMAT = 3

# The code stored for a component whose subgraph is not 2-colorable (a
# real code has one byte per node, and every component has a node).
ODD_COMPONENT = b""


@dataclass(frozen=True)
class Decomposition:
    """A graph's live-edge components, as columns over dense node
    indices.

    Components are indexed in order of their minimum node label.

    Attributes:
        comp: int64 per node, the index of its component.
        order: int64, every node in *canonical* order, grouped by
            component: component ``i`` is ``order[bounds[i]:bounds[i +
            1]]``, sorted by coordinate when all its nodes have one (so
            the order survives node renumbering), ties and the rest by
            label.
        bounds: int64, one more entry than there are components.
        content_ids: hex digest per component of its content (canonical
            node keys plus edge multiset), independent of node labels
            whenever coordinates exist.
        anchor: int64 per component, the node with its minimum label.
        color: int64 per node, the parity labelling's 2-coloring, each
            anchor colored 0 (proper on every component not ``odd``).
        odd: bool per component, whether it holds an odd cycle.
    """

    comp: Any
    order: Any
    bounds: Any
    content_ids: List[str]
    anchor: Any
    color: Any
    odd: Any

    def __len__(self) -> int:
        return len(self.content_ids)


def decompose(graph: GeomGraph) -> Decomposition:
    """The graph's live-edge components with content ids.

    Deterministic: components are ordered by minimum node label, so the
    decomposition of a given graph is reproducible across runs and
    processes.  Everything is column passes over the graph's flat
    arrays — no per-node, per-edge or per-component Python loop besides
    hashing, and no :class:`~repro.graph.geomgraph.Edge` objects (this
    runs once per assign stage over chip-scale graphs):

    * components and the 2-coloring by min-label hooking with pointer
      jumping over the live edges
      (:func:`~repro.graph.geomgraph._parity_roots`);
    * each component's canonical order — by coordinate, ties by label,
      when every node of the component has one; by label otherwise —
      from one lexsort.  Coordinate order is what keeps content ids
      stable under renumbering: the front end renumbers shifter and
      auxiliary nodes monotonically, so equal-coordinate ties resolve
      the same way in every revision that leaves the geometry alone;
    * content ids (:func:`_content_ids`) from the canonical node rows
      and the sorted canonical edge rows, hashed per component.

    Edge weights enter the content ids as int64, so a live edge's
    weight must lie in the int64 range; a larger one raises
    ValueError.  The flow's largest weight, the Condition-1
    feature-edge weight, grows with the chip: about 4e15 on D7 and
    2e16 on D8, 460 times below the limit.
    """
    np = _numpy()
    n = graph.num_nodes()
    empty = np.zeros(0, dtype=np.int64)
    if not n:
        return Decomposition(empty, empty, np.zeros(1, dtype=np.int64), [],
                             empty, empty, np.zeros(0, dtype=bool))
    label = graph._label_array(np)
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

    comp, anchor, color, odd = _components(np, label, u, v)
    sizes = np.bincount(comp, minlength=len(anchor))
    bounds = np.concatenate(([0], np.cumsum(sizes)))

    # Coordinates order a component only when it has them all.
    has, xs, ys = graph._coord_columns(np)
    full = np.bincount(comp, weights=~has, minlength=len(anchor)) == 0
    canonical = np.lexsort((label, np.where(full[comp], ys, 0),
                            np.where(full[comp], xs, 0), comp))
    content = _content_ids(np, (has, xs, ys, label), canonical, bounds,
                           comp, u, v, weight)
    return Decomposition(comp=comp, order=canonical, bounds=bounds,
                         content_ids=content, anchor=anchor, color=color,
                         odd=odd)


def _components(np, label, u, v):
    """``(comp, anchor, color, odd)`` of the live edges ``u``-``v``.

    Components are indexed by their minimum node label and anchored at
    that node; the parity sides flip per component so the anchor takes
    color 0, and an edge whose ends share a side closes an odd cycle.
    """
    n = len(label)
    root, side = _parity_roots(np, n, u, v)
    roots = np.flatnonzero(root == np.arange(n, dtype=np.int64))
    low = np.full(n, np.iinfo(np.int64).max, dtype=np.int64)
    np.minimum.at(low, root, label)
    index = np.empty(n, dtype=np.int64)
    index[roots[np.argsort(low[roots], kind="stable")]] = \
        np.arange(len(roots), dtype=np.int64)
    comp = index[root]
    anchored = np.flatnonzero(label == low[root])
    anchor = np.empty(len(roots), dtype=np.int64)
    anchor[comp[anchored]] = anchored
    color = side ^ side[anchor][comp]
    odd = np.zeros(len(roots), dtype=bool)
    odd[comp[u[side[u] == side[v]]]] = True
    return comp, anchor, color, odd


#: Components hashed together by :func:`_content_ids`: their rows are
#: the only content in memory at a time.
CONTENT_CHUNK = 512


def _content_ids(np, node_columns, canonical, bounds, comp, u, v,
                 weight) -> List[str]:
    """Hex sha256 per component of its canonical content.

    A component's content is little-endian int64 triples: the header
    ``(COMPONENT_FORMAT, nodes, edges)``, its node rows in canonical
    order, then its sorted canonical edge rows.  A node row is ``(0, x,
    y)`` for a node with a coordinate and ``(1, label, 0)`` without
    (``node_columns`` is ``(has, xs, ys, label)``); an edge row is
    ``(rank u, rank v, weight)``, ``u <= v``, ranks in the canonical
    order.  So the id is independent of node labels whenever
    coordinates exist; the edge rows are a sorted multiset, which keeps
    parallel edges and self-loops.  The rows are built and hashed
    :data:`CONTENT_CHUNK` components at a time.
    """
    n = len(canonical)
    rank = np.empty(n, dtype=np.int64)
    rank[canonical] = np.arange(n, dtype=np.int64) - bounds[comp[canonical]]
    ru, rv = rank[u], rank[v]
    del rank
    lo, hi = np.minimum(ru, rv), np.maximum(ru, rv)
    del ru, rv
    edge_comp = comp[u]
    edge_order = np.lexsort((weight, hi, lo, edge_comp))
    edge_bounds = np.concatenate(
        ([0], np.cumsum(np.bincount(edge_comp, minlength=len(bounds) - 1))))
    del edge_comp

    has, xs, ys, label = node_columns
    sha256 = hashlib.sha256
    ids: List[str] = []
    for c0 in range(0, len(bounds) - 1, CONTENT_CHUNK):
        c1 = min(c0 + CONTENT_CHUNK, len(bounds) - 1)
        nodes = canonical[bounds[c0]:bounds[c1]]
        placed = has[nodes]
        node_rows = np.stack((np.where(placed, 0, 1),
                              np.where(placed, xs[nodes], label[nodes]),
                              np.where(placed, ys[nodes], 0)), axis=1)
        edges = edge_order[edge_bounds[c0]:edge_bounds[c1]]
        edge_rows = np.stack((lo[edges], hi[edges], weight[edges]), axis=1)
        sizes = np.diff(bounds[c0:c1 + 1])
        edge_sizes = np.diff(edge_bounds[c0:c1 + 1])
        span = 1 + sizes + edge_sizes
        ends = np.cumsum(span)
        starts = ends - span
        buf = np.empty((int(ends[-1]), 3), dtype="<i8")
        buf[starts] = np.stack((np.full(c1 - c0, COMPONENT_FORMAT), sizes,
                                edge_sizes), axis=1)
        for rows, lengths, skip in ((node_rows, sizes, 1),
                                    (edge_rows, edge_sizes, 1 + sizes)):
            owner = np.repeat(np.arange(c1 - c0), lengths)
            offset = np.arange(len(rows)) - np.repeat(
                np.cumsum(lengths) - lengths, lengths)
            buf[(starts + skip)[owner] + offset] = rows
        data = memoryview(buf).cast("B")
        ids += [sha256(data[24 * a:24 * b]).hexdigest()
                for a, b in zip(starts.tolist(), ends.tolist())]
    return ids


# ----------------------------------------------------------------------
# Incremental recoloring
# ----------------------------------------------------------------------
def two_color_incremental(graph: GeomGraph, store,
                          parts: Optional[Decomposition] = None):
    """Per-component 2-coloring that only recolors changed components.

    ``store`` is a :class:`repro.cache.ArtifactCache`; colorings are
    cached under the ``coloring`` kind keyed by component content id
    (``parts``, the graph's :func:`decompose`, when the caller has it).
    A component whose node/edge content is unchanged since any earlier
    run (this process or a persisted cache directory) replays its
    canonical code instead of being recolored.  The store counts one
    ``coloring`` get per component, in component order: a hit
    replayed, a miss recolored from the decomposition's labelling and
    put.  Every code, replayed or fresh, is decoded in one scatter.
    One ``recolor`` span covers the pass, with the component count and
    how many were recomputed and replayed.

    Returns the color of every node as an int64 column over dense node
    indices, equal to :func:`~repro.graph.coloring.two_color`, or None
    when some component is not bipartite.  Unlike the cold path, every
    component is processed even after a failure so the cache warms
    completely.
    """
    from ..cache import KIND_COLORING
    from ..obs import get_tracer

    np = _numpy()
    if parts is None:
        parts = decompose(graph)
    order, bounds = parts.order, parts.bounds
    # Every component's fresh code: its colors in canonical order,
    # relative to its first canonical node.
    first = order[bounds[:-1]]
    fresh = (parts.color[order] ^ np.repeat(parts.color[first],
                                            np.diff(bounds))) \
        .astype(np.uint8).tobytes()
    get, put = store.get, store.put
    codes: List[bytes] = []
    recomputed = 0
    ends = bounds.tolist()
    with get_tracer().span("recolor", cat="component",
                           components=len(parts)) as span:
        for cid, a, b, odd in zip(parts.content_ids, ends, ends[1:],
                                  parts.odd.tolist()):
            code = get(KIND_COLORING, cid)
            if code is None:
                code = ODD_COMPONENT if odd else fresh[a:b]
                put(KIND_COLORING, cid, code)
                recomputed += 1
            codes.append(code)
        span.set(recomputed=recomputed, replayed=len(codes) - recomputed)
        if ODD_COMPONENT in codes:
            return None
        # Replay: the codes, concatenated in component order, line up
        # with the canonical order; then each component flips so its
        # anchor takes color 0.
        color = np.empty(len(order), dtype=np.int64)
        color[order] = np.frombuffer(b"".join(codes), dtype=np.uint8)
        return color ^ color[parts.anchor][parts.comp]
