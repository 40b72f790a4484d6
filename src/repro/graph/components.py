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
the polarity :func:`repro.graph.coloring.two_color` produces (its
BFS roots are component-minimum node ids and are always colored 0).
Within a connected component a proper 2-coloring is unique up to that
flip, so a cache replay is *identical* to a cold chip-wide coloring,
not merely equivalent.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .coloring import color_component
from .geomgraph import GeomGraph

# Bump when the canonical coloring encoding changes so stale cache
# directories self-invalidate.
COMPONENT_FORMAT = 1

# The value stored for a component whose subgraph is not 2-colorable.
ODD_COMPONENT = "odd"


@dataclass(frozen=True)
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
    processes.  Component discovery and the per-component edge lists
    both read the graph's flat arrays directly — no
    :class:`~repro.graph.geomgraph.Edge` objects on this path (it runs
    once per assign/verify stage over chip-scale graphs).
    """
    components = sorted(graph.connected_components(),
                        key=lambda comp: comp[0])
    node_comp: Dict[int, int] = {}
    for i, comp in enumerate(components):
        for node in comp:
            node_comp[node] = i
    edges: List[List[Tuple[int, int, int]]] = [[] for _ in components]
    for _eid, u, v, w in graph.live_edge_rows():
        edges[node_comp[u]].append((u, v, w))

    out: List[GraphComponent] = []
    for i, comp in enumerate(components):
        order = canonical_order(graph, comp)
        content = component_content_id(graph, order, edges[i])
        out.append(GraphComponent(index=i, nodes=tuple(comp),
                                  order=tuple(order), content_id=content))
    return out


def canonical_order(graph: GeomGraph, nodes: Sequence[int]) -> List[int]:
    """Nodes in content order: by coordinate (ties by id) when every
    node has one, by id otherwise.

    Coordinate order is what makes component content ids stable under
    renumbering: shifter and auxiliary nodes are renumbered
    monotonically by the front end, so equal-coordinate ties resolve
    the same way in every revision that leaves the geometry alone.
    """
    try:
        keyed = [((graph.coord(n)), n) for n in nodes]
    except KeyError:
        return sorted(nodes)
    keyed.sort()
    return [n for _, n in keyed]


def component_content_id(graph: GeomGraph, order: Sequence[int],
                         comp_edges: Sequence[Tuple[int, int, int]]
                         ) -> str:
    """Hash of a component's content in canonical-node terms.

    Nodes contribute their coordinate (or raw id without one); edges
    contribute ``(canonical u, canonical v, weight)`` as a sorted
    multiset, which preserves parallel edges and self-loops.
    """
    rank = {n: i for i, n in enumerate(order)}
    # The digest is fed in chunked sections (header, nodes, edges)
    # straight off the component's arrays: sha256 of a concatenation is
    # byte-identical however it is chunked, and this function runs once
    # per component per stage (tens of thousands of times on chip-scale
    # runs).  Coordinates are plain tuples straight off the graph's
    # dict — no dataclass introspection on this path.
    coords = graph._coords
    h = hashlib.sha256()
    h.update(f"component-format:{COMPONENT_FORMAT}".encode())
    h.update("".join(
        repr(c) if (c := coords.get(n)) is not None else f"node:{n}"
        for n in order).encode())
    keys: List[Tuple[int, int, int]] = []
    for u, v, w in comp_edges:
        ru = rank[u]
        rv = rank[v]
        keys.append((ru, rv, w) if ru <= rv else (rv, ru, w))
    keys.sort()
    h.update("".join(f"e:{a},{b},{w}" for a, b, w in keys).encode())
    return h.hexdigest()


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
    canonical coloring instead of re-running BFS.  The store counts
    one ``coloring`` get per component: a hit replayed, a miss
    recolored.

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
                fresh = color_component(graph, component.min_node)
                canonical = (ODD_COMPONENT if fresh is None
                             else encode_coloring(component, fresh))
            store.put(KIND_COLORING, component.content_id, canonical)
        if canonical == ODD_COMPONENT:
            failed = True
        elif not failed:
            colors.update(decode_coloring(component, canonical))
    return None if failed else colors
