"""Reference oracles for the production geometry kernel, matcher and
set cover.

The flow ships one geometry kernel (the numpy sweep), one matcher (the
certified integer blossom) and one set-cover planner (window by
window).  The independent implementations the differential tests
compare them with live here:

* :class:`ScalarKernel` — the pure-Python bucket-grid sweep
  (:class:`GridIndex`, :func:`grid_neighbor_pairs`) with per-pair
  ``Rect`` arithmetic and :func:`region_center2`;
* :class:`NetworkxMatcher` — networkx's blossom (needs networkx);
* :class:`BruteMatcher` and :func:`brute_force_perfect_matching` —
  exponential exact search;
* :class:`RecordingMatcher` — the production matcher, recording the
  component instances it is handed (their sizes are the brute
  oracle's budget gate);
* :func:`dict_perfect_matching` — the matching driver's dict
  collapse of parallel edges and per-node union-find, which the
  driver's column passes must reproduce instance for instance;
* :func:`min_tjoin_shortest_paths` — the Edmonds–Johnson
  shortest-path reduction of Berman et al. (Dijkstra from every
  terminal, a perfect matching over the terminals, the symmetric
  difference of the matched paths), the reference the generalized
  gadget is tested against; :func:`min_tjoin_brute_force` and the
  validator :func:`is_tjoin` check small instances exhaustively;
* :func:`whole_graph_bipartization` — bipartization that embeds,
  dualizes and T-joins every live edge, not only the components that
  hold an odd cycle;
* :func:`whole_instance_cover` — the unwindowed set cover, one solve
  over every candidate grid line;
* :func:`scalar_crossing_pairs` — planarization's crossing search with
  the scalar segment predicate run on every candidate pair;
* :func:`extract_critical_features` (with :class:`CriticalFeature`),
  :func:`shifter_rects_for_feature` and :func:`scalar_generate_shifters`
  — shifter generation feature by feature, one :class:`Rect` per
  shifter, which ``generate_shifters``' column pass (the critical mask
  and the flanking rects by arithmetic) must reproduce exactly;
* :func:`scalar_partition` (with :func:`rect_digest`),
  :func:`scalar_owned_front_end` and :func:`scalar_decompose` — the
  tiled path's per-rect, per-feature
  and per-component loops (bisect routing with a ``Rect.hull`` bbox;
  the owned feature and pair indices of one owner window; BFS
  components with per-component canonical orders and content ids, as
  :class:`GraphComponent` objects), which the column passes of
  ``partition_layout``, the executor's ownership test and
  ``decompose`` must reproduce exactly;
* :func:`object_two_color_incremental` and
  :func:`object_assign_and_verify` (with :func:`encode_coloring` /
  :func:`decode_coloring`) — the store-backed assign component by
  component, which the column assign must match answer for answer,
  hit for hit and entry for entry; ``fmt=2`` writes the format-2
  entries older stores hold;
* :func:`color_from` / :func:`scalar_two_color` (the per-node BFS
  2-coloring), :func:`scalar_residual_conflicts` (step 3 seeded node
  by node), :func:`scalar_phase_conflict_graph` /
  :func:`scalar_feature_graph` (the per-pair graph builders, with the
  per-edge maps of :class:`ScalarConflictGraph` that the column
  graph's arithmetic lookups replaced),
  :data:`SCALAR_MODELS` with :func:`pair_tie_breaker` and
  :func:`scalar_make_generic` (the per-pair weight models) and
  :func:`scalar_canonical_tile` (``detect_tile``'s per-conflict
  canonicalization) — the routines the detector's parity labelling,
  column graph build, column weight models and column
  canonicalization replaced;
* :func:`scalar_connected_components` — the per-node DFS that
  ``GeomGraph.connected_components``' hooking pass replaced;
* :func:`to_networkx` — a graph's lossy networkx export for
  cross-checks, and :func:`node_coords`, its coordinates read node by
  node through either registry form;
* :func:`scalar_apply_cuts` (with :func:`transform_rect`) — space
  insertion rect by rect, two bisects per axis, which ``apply_cuts``'
  column pass must reproduce exactly;
* :func:`axis_option` (with :func:`isqrt_ceil`),
  :func:`scalar_rect_pair_options` and :func:`scalar_conflict_options`
  — correction options pair by pair from two ``Rect`` objects;
  :class:`ScalarSnapIndex` — the snap index's sorted lists by a loop
  over the features; :func:`scalar_stretched_feature_indices` — one
  bisect per feature; :func:`is_tshape` / :func:`scalar_find_tshapes`
  — the T-shape test pair by pair.  The correct stage's column passes
  and ``find_tshapes`` must reproduce them exactly.
  :func:`between_region` is :func:`region_center2`'s gap box.

:func:`use_kernel` / :func:`use_matcher` run the flow on an oracle by
swapping it in behind the production accessors ``get_kernel`` /
``get_matcher``; :func:`use_whole_instance_cover` swaps the unwindowed
cover in behind ``solve_cover_windows``; :func:`use_paths_engine`
swaps :func:`min_tjoin_shortest_paths` in behind the gadget's
``min_tjoin_gadget``; :func:`use_unreduced_dual`
solves every T-join on the dual's simple instance with its degree-2
faces kept, and :func:`use_raw_dual` on the raw dual, self-loops,
parallel edges and degree-2 faces kept.  The graph core's other
scalar oracles live with their differential suite in
``tests/graph/test_geomgraph_flat.py``.
"""

from __future__ import annotations

import hashlib
import heapq
import importlib
import struct
import sys
import zlib
from bisect import bisect_left, bisect_right
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import (Callable, Dict, Generic, Iterable, Iterator, List,
                    Optional, Sequence, Set, Tuple, TypeVar)

from repro.chip.partition import (
    OPEN,
    _boundaries,
    auto_tile_grid,
    default_halo,
    normalize_tile_spec,
)
from repro.core.flow import run_aapsm_flow
from repro.correction import (
    AXIS_X,
    AXIS_Y,
    CorrectionOption,
    SpaceCut,
    plan_correction,
)
from repro.correction.setcover import (
    EXACT_CAP_ELEMENTS,
    EXACT_CAP_SETS,
    CoverSet,
    exact_weighted_set_cover,
    greedy_weighted_set_cover,
    use_exact_cover,
)
from repro.geometry import Interval, Rect, segment_bbox, segments_conflict
from repro.geometry.kernels import GeometryKernel, PairRow, get_kernel
from repro.graph import (
    BipartizationResult,
    GeomGraph,
    build_dual,
    build_embedding,
    min_tjoin_gadget,
    min_weight_perfect_matching,
    parity_labelling,
)
from repro.graph.components import COMPONENT_FORMAT
from repro.graph.dual import eliminate_degree_two, simple_dual
from repro.graph.gadgets import check_feasible
from repro.graph.matching import BlossomMatcher, LocalEdge, \
    MatcherBackend, NoPerfectMatchingError
from repro.layout import Layout, Technology
from repro.shifters import (
    BOTTOM,
    LEFT,
    RIGHT,
    SIDE_CODE,
    SIDES,
    TOP,
    OverlapPair,
    ShifterSet,
)

T = TypeVar("T")


@contextmanager
def _rebind(module_name: str, attr: str, replacement) -> Iterator:
    """Make every loaded ``repro`` binding of ``module_name.attr`` be
    ``replacement`` inside the block.

    Modules bind by name, so each binding is patched.
    ``repro.pipeline`` (which imports every such module) is loaded
    first, so no module binds the original for good by being imported
    inside the block.  Forked process-pool workers inherit the swap.
    """
    importlib.import_module("repro.pipeline")
    original = getattr(importlib.import_module(module_name), attr)
    patched = [m for m in list(sys.modules.values())
               if getattr(m, "__name__", "").startswith("repro")
               and m.__dict__.get(attr) is original]
    for m in patched:
        setattr(m, attr, replacement)
    try:
        yield
    finally:
        for m in patched:
            setattr(m, attr, original)


@contextmanager
def _swap_accessor(module_name: str, attr: str, impl) -> Iterator:
    """Make the accessor ``module_name.attr`` return ``impl`` inside
    the block; ``impl=None`` keeps the current implementation."""
    if impl is None:
        yield getattr(importlib.import_module(module_name), attr)()
        return
    with _rebind(module_name, attr, lambda: impl):
        yield impl


def use_kernel(kernel: Optional[GeometryKernel]):
    """Run the block's geometry on ``kernel`` (None: unchanged)."""
    return _swap_accessor("repro.geometry.kernels", "get_kernel", kernel)


def use_matcher(matcher: Optional[MatcherBackend]):
    """Run the block's matching on ``matcher`` (None: unchanged)."""
    return _swap_accessor("repro.graph.matching", "get_matcher", matcher)


# ----------------------------------------------------------------------
# The scalar geometry kernel
# ----------------------------------------------------------------------
class GridIndex(Generic[T]):
    """Bucket grid mapping cells to the items whose bbox touches them."""

    def __init__(self, cell_size: int):
        if cell_size <= 0:
            raise ValueError("cell_size must be positive")
        self.cell_size = cell_size
        self._cells: Dict[Tuple[int, int], List[T]] = defaultdict(list)
        self._bboxes: Dict[T, Tuple[int, int, int, int]] = {}

    def __len__(self) -> int:
        return len(self._bboxes)

    def __contains__(self, item: T) -> bool:
        return item in self._bboxes

    def _cells_for(self, x1: int, y1: int, x2: int, y2: int
                   ) -> Iterator[Tuple[int, int]]:
        cs = self.cell_size
        for cx in range(x1 // cs, x2 // cs + 1):
            for cy in range(y1 // cs, y2 // cs + 1):
                yield (cx, cy)

    def insert(self, item: T, bbox: Tuple[int, int, int, int]) -> None:
        if item in self._bboxes:
            raise KeyError(f"duplicate item {item!r}")
        self._bboxes[item] = bbox
        for cell in self._cells_for(*bbox):
            self._cells[cell].append(item)

    def insert_rect(self, item: T, rect: Rect) -> None:
        self.insert(item, (rect.x1, rect.y1, rect.x2, rect.y2))

    def remove(self, item: T) -> None:
        bbox = self._bboxes.pop(item)
        for cell in self._cells_for(*bbox):
            bucket = self._cells[cell]
            bucket.remove(item)
            if not bucket:
                del self._cells[cell]

    def query(self, x1: int, y1: int, x2: int, y2: int) -> Set[T]:
        """Items whose bbox overlaps the query window."""
        out: Set[T] = set()
        for cell in self._cells_for(x1, y1, x2, y2):
            for item in self._cells.get(cell, ()):
                bx1, by1, bx2, by2 = self._bboxes[item]
                if bx1 <= x2 and x1 <= bx2 and by1 <= y2 and y1 <= by2:
                    out.add(item)
        return out

    def query_rect(self, rect: Rect, margin: int = 0) -> Set[T]:
        return self.query(rect.x1 - margin, rect.y1 - margin,
                          rect.x2 + margin, rect.y2 + margin)

    def items(self) -> Iterable[T]:
        return self._bboxes.keys()


def grid_neighbor_pairs(rects: Sequence[Rect], dist: int
                        ) -> List[Tuple[int, int]]:
    """Sorted ``(i, j), i < j`` pairs with separation < ``dist``, by a
    bucket grid sized to the typical shape plus the distance."""
    if not rects:
        return []
    avg_dim = max(1, sum(r.max_dimension for r in rects) // len(rects))
    index: GridIndex[int] = GridIndex(cell_size=max(avg_dim + dist, 1))
    for i, r in enumerate(rects):
        index.insert_rect(i, r)
    pairs: List[Tuple[int, int]] = []
    for i, r in enumerate(rects):
        for j in index.query_rect(r, margin=dist):
            if j > i and rects[j].within_distance(r, dist):
                pairs.append((i, j))
    pairs.sort()
    return pairs


def between_region(ra: Rect, rb: Rect) -> Optional[Rect]:
    """The open region separating two disjoint rects, if box-like.

    For two rects whose x-projections overlap with positive length but
    whose y-projections are strictly apart, the rectangle spanning the
    y-gap over the common x-range (and symmetrically).  None for
    corner-to-corner, touching or intersecting configurations.
    """
    xi = ra.xspan.intersection(rb.xspan)
    yi = ra.yspan.intersection(rb.yspan)
    if xi is not None and yi is None and xi.length > 0:
        lo, hi = (ra, rb) if ra.y2 <= rb.y1 else (rb, ra)
        if lo.y2 < hi.y1:
            return Rect(xi.lo, lo.y2, xi.hi, hi.y1)
        return None
    if yi is not None and xi is None and yi.length > 0:
        lo, hi = (ra, rb) if ra.x2 <= rb.x1 else (rb, ra)
        if lo.x2 < hi.x1:
            return Rect(lo.x2, yi.lo, hi.x1, yi.hi)
        return None
    return None


def region_center2(ra: Rect, rb: Rect) -> Tuple[int, int]:
    """Doubled centre of the overlap region of two rects: of the
    intersection when they overlap, of the gap box
    (:func:`between_region`) when they are separated along one axis,
    of the hull for corner cases."""
    inter = ra.intersection(rb)
    if inter is not None:
        return inter.center2
    between = between_region(ra, rb)
    if between is not None:
        return between.center2
    return ra.hull(rb).center2


class ScalarKernel(GeometryKernel):
    """Grid sweep plus per-pair ``Rect`` arithmetic, one pair at a time."""

    name = "scalar"

    def neighbor_pairs(self, rects: Sequence, dist: int
                       ) -> List[Tuple[int, int]]:
        return grid_neighbor_pairs(rects, dist)

    def overlap_rows(self, rects: Sequence, dist: int,
                     groups: Optional[Sequence[int]] = None
                     ) -> List[PairRow]:
        rows: List[PairRow] = []
        for i, j in self.neighbor_pairs(rects, dist):
            if groups is not None and groups[i] == groups[j]:
                continue
            ri, rj = rects[i], rects[j]
            rows.append((i, j, ri.separation_sq(rj),
                         ri.x_gap(rj), ri.y_gap(rj)))
        return rows

    def region_centers2(self, rects: Sequence,
                        pairs: Sequence[Tuple[int, int]]
                        ) -> List[Tuple[int, int]]:
        return [region_center2(rects[i], rects[j]) for i, j in pairs]


def node_coords(graph: GeomGraph) -> Dict[int, Tuple[int, int]]:
    """Label -> coordinate of every placed node, read one node at a
    time through ``GeomGraph.coord`` (either registry form)."""
    coords = {}
    for node in graph.nodes:
        try:
            coords[node] = graph.coord(node)
        except KeyError:
            pass
    return coords


# ----------------------------------------------------------------------
# Crossing search
# ----------------------------------------------------------------------
def scalar_crossing_pairs(graph: GeomGraph) -> List[Tuple[int, int]]:
    """:func:`repro.graph.find_crossing_pairs` one pair at a time:
    candidates from the kernel over +1-padded segment boxes, each
    decided by the scalar :func:`segments_conflict`."""
    coords = node_coords(graph)
    eids: List[int] = []
    segs: List[Tuple[Tuple[int, int], Tuple[int, int]]] = []
    for eid, u, v, _w in graph.live_edge_rows():
        if u == v:
            continue
        eids.append(eid)
        segs.append((coords[u], coords[v]))
    if not eids:
        return []
    boxes = []
    for a, b in segs:
        x1, y1, x2, y2 = segment_bbox(a, b)
        boxes.append(Rect(x1, y1, x2 + 1, y2 + 1))
    pairs: List[Tuple[int, int]] = []
    for i, j in get_kernel().neighbor_pairs(boxes, 1):
        a, b = segs[i]
        c, d = segs[j]
        if segments_conflict(a, b, c, d):
            pairs.append((eids[i], eids[j]))
    return pairs


# ----------------------------------------------------------------------
# Matching oracles
# ----------------------------------------------------------------------
class NetworkxMatcher(MatcherBackend):
    """networkx's max-weight matching on the transformed weights."""

    name = "networkx"

    def match(self, nvertex: int, edges: Sequence[LocalEdge],
              transform: int) -> Tuple[List[int], int]:
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(nvertex))
        for pos, (u, v, w) in enumerate(edges):
            g.add_edge(u, v, weight=transform - w, pos=pos)
        mate = nx.max_weight_matching(g, maxcardinality=True)
        return sorted(g[u][v]["pos"] for u, v in mate), 0


def _brute_min_matching(nodes: Iterable[int],
                        adj: Dict[int, List[Tuple[int, int, int]]]
                        ) -> Optional[List[int]]:
    """Branch and bound over the lowest uncovered node's partners;
    ``adj[v]`` lists ``(neighbour, weight, label)``.  The sorted labels
    of a minimum-weight perfect matching, or None."""
    best_cost: List[Optional[int]] = [None]
    best: List[List[int]] = [[]]

    def solve(remaining: frozenset, cost: int, chosen: List[int]) -> None:
        if not remaining:
            if best_cost[0] is None or cost < best_cost[0]:
                best_cost[0] = cost
                best[0] = list(chosen)
            return
        if best_cost[0] is not None and cost >= best_cost[0]:
            return
        v = min(remaining)
        for u, w, label in adj[v]:
            if u in remaining and u != v:
                chosen.append(label)
                solve(remaining - {v, u}, cost + w, chosen)
                chosen.pop()

    solve(frozenset(nodes), 0, [])
    return None if best_cost[0] is None else sorted(best[0])


class BruteMatcher(MatcherBackend):
    """Exponential exact search, one component at a time."""

    name = "brute"

    def match(self, nvertex: int, edges: Sequence[LocalEdge],
              transform: int) -> Tuple[List[int], int]:
        adj: Dict[int, List[Tuple[int, int, int]]] = {
            v: [] for v in range(nvertex)}
        for pos, (u, v, w) in enumerate(edges):
            adj[u].append((v, w, pos))
            adj[v].append((u, w, pos))
        return _brute_min_matching(range(nvertex), adj) or [], 0


def brute_force_perfect_matching(graph: GeomGraph) -> Optional[List[int]]:
    """Edge ids of a min-weight perfect matching of a whole graph by
    exhaustive search, or None when there is none (~12 nodes at most)."""
    nodes = sorted(graph.nodes)
    if len(nodes) % 2 == 1:
        return None
    adj: Dict[int, List[Tuple[int, int, int]]] = {v: [] for v in nodes}
    for e in graph.edges():
        if e.is_self_loop:
            continue
        adj[e.u].append((e.v, e.weight, e.id))
        adj[e.v].append((e.u, e.weight, e.id))
    return _brute_min_matching(nodes, adj)


class RecordingMatcher(BlossomMatcher):
    """The production matcher, recording every component it is handed:
    its node count in ``sizes``, and ``(nvertex, edges, transform)`` in
    ``instances``."""

    def __init__(self) -> None:
        self.sizes: List[int] = []
        self.instances: List[Tuple[int, List[LocalEdge], int]] = []

    def match(self, nvertex: int, edges: Sequence[LocalEdge],
              transform: int) -> Tuple[List[int], int]:
        self.sizes.append(nvertex)
        self.instances.append((nvertex, list(edges), transform))
        return super().match(nvertex, edges, transform)


def dict_perfect_matching(graph: GeomGraph) -> List[int]:
    """``min_weight_perfect_matching`` with the dict collapse and the
    per-node union-find, on the active matcher: the lightest edge of
    each node pair (ties to the first id) in order of the pair's first
    edge, components in order of their first node, nodes in insertion
    order."""
    backend = importlib.import_module("repro.graph.matching").get_matcher()
    n = graph.num_nodes()
    if n % 2 == 1:
        raise NoPerfectMatchingError(f"odd node count {n}")
    if n == 0:
        return []
    best: Dict[Tuple[int, int], Tuple[int, int]] = {}
    for eid, u, v, w in graph.live_edge_rows():
        if u == v:
            continue
        key = (u, v) if u < v else (v, u)
        prev = best.get(key)
        if prev is None or w < prev[0]:
            best[key] = (w, eid)
    parent: Dict[int, int] = {v: v for v in graph.nodes}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for (u, v) in best:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[rv] = ru
    comp_nodes: Dict[int, List[int]] = {}
    for v in graph.nodes:
        comp_nodes.setdefault(find(v), []).append(v)
    comp_edges: Dict[int, List[Tuple[int, int, int, int]]] = {}
    for (u, v), (w, eid) in best.items():
        comp_edges.setdefault(find(u), []).append((u, v, w, eid))
    transform = (max(w for w, _ in best.values()) + 1) if best else 1
    matched: List[int] = []
    for root, members in comp_nodes.items():
        if len(members) % 2 == 1:
            raise NoPerfectMatchingError(
                f"odd component of {len(members)} nodes")
        local = {v: i for i, v in enumerate(members)}
        rows = comp_edges.get(root, [])
        positions, _phases = backend.match(
            len(members), [(local[u], local[v], w) for u, v, w, _ in rows],
            transform)
        if 2 * len(positions) != len(members):
            raise NoPerfectMatchingError(
                f"matched {2 * len(positions)} of {len(members)} nodes "
                "in a component")
        matched.extend(rows[pos][3] for pos in positions)
    return sorted(matched)


# ----------------------------------------------------------------------
# The shortest-path T-join, and bipartization of the whole graph
# ----------------------------------------------------------------------
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
    """Exhaustive minimum T-join over every edge subset."""
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


def use_paths_engine():
    """Solve the block's T-joins with :func:`min_tjoin_shortest_paths`
    wherever the flow calls :func:`repro.graph.gadgets.min_tjoin_gadget`
    (bipartization's engine)."""
    return _rebind("repro.graph.gadgets", "min_tjoin_gadget",
                   min_tjoin_shortest_paths)


def whole_graph_bipartization(
        graph: GeomGraph,
        engine: Callable[[GeomGraph, Set[int]], List[int]] = min_tjoin_gadget
        ) -> BipartizationResult:
    """``optimal_planar_bipartization`` over the embedding of every
    live edge, bipartite components included, checked by one labelling
    of the graph minus the join.  ``engine(graph, tset)`` solves the
    T-join; the result is labelled as the flow labels its own."""
    embedding = build_embedding(graph)
    dual = eliminate_degree_two(simple_dual(build_dual(embedding)))
    removed = dual.primal_edges(engine(dual.graph, dual.tset))
    labelling = parity_labelling(graph, skip_edges=removed)
    if labelling.odd:
        raise AssertionError(
            "bipartization invariant violated: residual graph has an "
            "odd cycle")
    return BipartizationResult(
        removed=removed, weight=graph.total_weight(removed),
        method="gadget", labelling=labelling)


# ----------------------------------------------------------------------
# The whole-instance set cover
# ----------------------------------------------------------------------
# Largest conflict count the whole-instance *exact* cover is asked to
# cross-check (the solver caps out at 64 elements/sets; staying well
# under keeps the branch-and-bound instant).
EXACT_COVER_BUDGET = 16


def whole_instance_cover(universe, lines: Sequence, cover: str = "auto"
                         ) -> Tuple[List[int], str, list]:
    """One set-cover solve over every candidate line, windows ignored.

    Same contract as :func:`repro.correction.solve_cover_windows`:
    ``(sorted chosen line ids, method, windows)``, with no windows.
    The exact-vs-greedy ``auto`` policy is the shared
    :func:`use_exact_cover`.
    """
    sets = [CoverSet(id=i, elements=frozenset(line.covers),
                     weight=line.width)
            for i, line in enumerate(lines)]
    if use_exact_cover(cover, len(universe), len(sets)):
        chosen = exact_weighted_set_cover(universe, sets,
                                          max_elements=EXACT_CAP_ELEMENTS,
                                          max_sets=EXACT_CAP_SETS)
        return sorted(chosen), "exact", []
    return sorted(greedy_weighted_set_cover(universe, sets)), "greedy", []


def use_whole_instance_cover():
    """Plan the block's corrections with :func:`whole_instance_cover`."""
    return _rebind("repro.correction.windows", "solve_cover_windows",
                   whole_instance_cover)


def cover_oracle_divergence(layout: Layout, tech: Technology
                            ) -> Optional[str]:
    """Where window-scoped correction departs from the whole-instance
    cover on a layout's monolithic flow, or None.

    Greedy: identical cuts and corrected set.  Exact, at most
    :data:`EXACT_COVER_BUDGET` conflicts: identical corrected set and
    total cut width (ties may pick different, equally optimal cuts).
    """
    detection = run_aapsm_flow(layout, tech).pipeline.detection
    front = detection.front
    conflicts = [c.key for c in detection.report.conflicts]

    def plans(cover: str):
        windowed = plan_correction(front.layout, tech, conflicts,
                                   shifters=front.shifters, cover=cover)
        with use_whole_instance_cover():
            whole = plan_correction(front.layout, tech, conflicts,
                                    shifters=front.shifters, cover=cover)
        return windowed, whole

    win, whole = plans("greedy")
    cuts = lambda r: [(c.axis, c.position, c.width) for c in r.cuts]
    if cuts(win) != cuts(whole):
        return f"greedy windowed cuts {cuts(win)} != whole {cuts(whole)}"
    if win.corrected != whole.corrected:
        return (f"greedy windowed corrected {win.corrected} != "
                f"whole {whole.corrected}")
    if len(conflicts) <= EXACT_COVER_BUDGET:
        win, whole = plans("exact")
        if win.corrected != whole.corrected:
            return (f"exact windowed corrected {win.corrected} != "
                    f"whole {whole.corrected}")
        width = lambda r: sum(c.width for c in r.cuts)
        if width(win) != width(whole):
            return (f"exact windowed total cut width {width(win)} != "
                    f"whole {width(whole)}")
    return None


# ----------------------------------------------------------------------
# The tiled path's scalar routines
# ----------------------------------------------------------------------
def scalar_partition(layout: Layout, tech: Technology, tiles=None,
                     jobs=None):
    """The partition as a per-rect bisect loop over a ``Rect.hull``
    bbox: ``(bbox, xs, ys, tiles)``, each tile a dict of ``ix``,
    ``iy``, ``core``, ``owner``, ``bounds``, ``feature_ids`` and
    ``features`` (the sub-layout's rects, in order)."""
    nx, ny = normalize_tile_spec(tiles) or auto_tile_grid(layout, jobs=jobs)
    halo = default_halo(tech)
    if not layout.features:
        return None, [], [], []
    box = layout.features[0]
    for rect in layout.features[1:]:
        box = box.hull(rect)
    xs = _boundaries(box.x1, box.x2, nx)
    ys = _boundaries(box.y1, box.y2, ny)
    out = []
    for iy in range(ny):
        for ix in range(nx):
            core = (xs[ix], ys[iy], xs[ix + 1], ys[iy + 1])
            out.append(dict(
                ix=ix, iy=iy, core=core,
                owner=(-OPEN if ix == 0 else core[0],
                       -OPEN if iy == 0 else core[1],
                       OPEN if ix == nx - 1 else core[2],
                       OPEN if iy == ny - 1 else core[3]),
                bounds=(core[0] - halo, core[1] - halo,
                        core[2] + halo, core[3] + halo),
                feature_ids=[], features=[]))

    def span_lo(cuts, lo):
        return max(0, bisect_left(cuts, lo) - 1)

    def span_hi(cuts, hi, n):
        return min(n - 1, max(0, bisect_right(cuts, hi) - 1))

    for gi, rect in enumerate(layout.features):
        for iy in range(span_lo(ys, rect.y1 - halo),
                        span_hi(ys, rect.y2 + halo, ny) + 1):
            for ix in range(span_lo(xs, rect.x1 - halo),
                            span_hi(xs, rect.x2 + halo, nx) + 1):
                tile = out[iy * nx + ix]
                tile["features"].append(rect)
                tile["feature_ids"].append(gi)
    return (box.x1, box.y1, box.x2, box.y2), xs, ys, out


@dataclass(frozen=True)
class CriticalFeature:
    """A poly feature that requires phase shifting.

    Attributes:
        index: index of the rectangle in ``layout.features``.
        rect: the feature geometry.
        vertical: True when the feature runs vertically, i.e. its
            critical dimension is the x-extent and shifters go to its
            left and right.
    """

    index: int
    rect: Rect
    vertical: bool


def extract_critical_features(layout: Layout,
                              tech: Technology) -> List[CriticalFeature]:
    """All critical features of a layout, in feature-index order, one
    object per feature; a square sub-threshold feature is vertical."""
    out: List[CriticalFeature] = []
    for index, rect in enumerate(layout.features):
        if tech.is_critical_width(rect.min_dimension):
            out.append(CriticalFeature(
                index=index,
                rect=rect,
                vertical=rect.height >= rect.width,
            ))
    return out


def shifter_rects_for_feature(rect: Rect, vertical: bool,
                              tech: Technology):
    """The two flanking shifter rects of one critical feature, as
    ``((side, rect), (side, rect))``: left/right for a vertical feature,
    bottom/top for a horizontal one."""
    w = tech.shifter_width
    e = tech.shifter_extension
    if vertical:
        left = Rect(rect.x1 - w, rect.y1 - e, rect.x1, rect.y2 + e)
        right = Rect(rect.x2, rect.y1 - e, rect.x2 + w, rect.y2 + e)
        return ((LEFT, left), (RIGHT, right))
    bottom = Rect(rect.x1 - e, rect.y1 - w, rect.x2 + e, rect.y1)
    top = Rect(rect.x1 - e, rect.y2, rect.x2 + e, rect.y2 + w)
    return ((BOTTOM, bottom), (TOP, top))


def shifter_set(rows: Iterable[Tuple[int, str, Rect]]) -> ShifterSet:
    """A :class:`ShifterSet` of ``(feature index, side, rect)`` rows,
    ids in row order."""
    import numpy as np

    rows = list(rows)
    return ShifterSet(
        np.array([r[0] for r in rows], dtype=np.int64),
        np.array([SIDE_CODE[r[1]] for r in rows], dtype=np.int64),
        np.array([(r[2].x1, r[2].y1, r[2].x2, r[2].y2) for r in rows],
                 dtype=np.int64).reshape(-1, 4).T.copy())


def scalar_generate_shifters(layout: Layout,
                             tech: Technology) -> ShifterSet:
    """``generate_shifters`` feature by feature: the critical features
    in index order, each one's two flanking rects in side order."""
    return shifter_set(
        (feat.index, side, rect)
        for feat in extract_critical_features(layout, tech)
        for side, rect in shifter_rects_for_feature(feat.rect,
                                                    feat.vertical, tech))


def rect_digest(rects: Sequence[Rect]) -> str:
    """A rect multiset's digest computed on its own: sha256 of the
    rects sorted by ``(x1, y1, x2, y2)``, as little-endian int64 rows.
    The partition derives every tile's ``digest`` from one chip-wide
    sort; it must equal this on the tile's sub-layout."""
    rows = sorted((r.x1, r.y1, r.x2, r.y2) for r in rects)
    return hashlib.sha256(b"".join(struct.pack("<4q", *row)
                                   for row in rows)).hexdigest()


def scalar_owned_front_end(layout: Layout, shifters: ShifterSet,
                           pairs: Sequence[OverlapPair], owner
                           ) -> Tuple[List[int], List[int]]:
    """What one owner window owns of a front end, one item at a time.

    ``(features, pairs)``: the indices of the critical features whose
    rect centre lies in ``owner`` and of the pairs whose overlap
    region's centre (:func:`region_center2`) does, both ascending,
    under the half-open test ``2 * lo <= p2 < 2 * hi`` on doubled
    points.
    """
    ox1, oy1, ox2, oy2 = owner

    def owns(px2, py2):
        return 2 * ox1 <= px2 < 2 * ox2 and 2 * oy1 <= py2 < 2 * oy2

    feats = layout.features
    features = [sa.feature_index for sa, _sb in shifters.feature_pairs()
                if owns(*feats[sa.feature_index].center2)]
    owned = [k for k, p in enumerate(pairs)
             if owns(*region_center2(shifters.rect_of(p.a),
                                     shifters.rect_of(p.b)))]
    return features, owned


def to_networkx(graph: GeomGraph):
    """A graph's lossy networkx export for cross-checks: live edges
    only, self-loops dropped, and the lightest of parallel edges
    kept."""
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(graph.nodes)
    for eid, u, v, w in graph.live_edge_rows():
        if u == v:
            continue
        if g.has_edge(u, v):
            if g[u][v]["weight"] <= w:
                continue
        g.add_edge(u, v, weight=w, eid=eid)
    return g


def scalar_connected_components(graph: GeomGraph) -> List[List[int]]:
    """``GeomGraph.connected_components`` as a per-node DFS over the
    CSR adjacency: components over live edges, each sorted, in the
    order of their first inserted node, isolated nodes included."""
    csr = graph.csr()
    index = {node: i for i, node in enumerate(graph.nodes)}
    removed = graph._removed
    seen: Set[int] = set()
    components: List[List[int]] = []
    for start in graph.nodes:
        if start in seen:
            continue
        seen.add(start)
        stack = [start]
        comp: List[int] = []
        while stack:
            node = stack.pop()
            comp.append(node)
            i = index[node]
            for k in range(csr.indptr[i], csr.indptr[i + 1]):
                if csr.edge_ids[k] in removed:
                    continue
                nxt = csr.neighbors[k]
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        components.append(sorted(comp))
    return components


@dataclass(frozen=True)
class GraphComponent:
    """One connected component of a graph's live-edge structure, as the
    object decomposition held it.

    ``index`` is the dense component index (ordered by minimum node
    label), ``nodes`` the node labels ascending, ``order`` the same
    nodes in canonical order and ``content_id`` the hex digest of the
    component's content.
    """

    index: int
    nodes: Tuple[int, ...]
    order: Tuple[int, ...]
    content_id: str

    @property
    def min_node(self) -> int:
        return self.nodes[0]


def scalar_decompose(graph: GeomGraph, fmt: int = COMPONENT_FORMAT
                     ) -> List[GraphComponent]:
    """``decompose`` as :class:`GraphComponent` objects, from a per-node
    DFS, a per-component canonical sort and a per-node, per-edge
    content encoding (``struct.pack`` of the same int64 rows the
    production digest hashes).  ``fmt`` is the format number hashed
    into the header (2 gives the content ids older stores were keyed
    by)."""
    comps = sorted(scalar_connected_components(graph), key=lambda c: c[0])
    comp_of = {n: i for i, comp in enumerate(comps) for n in comp}
    edges = [[] for _ in comps]
    for _eid, u, v, w in graph.live_edge_rows():
        edges[comp_of[u]].append((u, v, w))
    coords = node_coords(graph)
    out = []
    for i, comp in enumerate(comps):
        if all(n in coords for n in comp):
            order = [n for _, n in sorted((coords[n], n) for n in comp)]
        else:
            order = sorted(comp)
        rank = {n: k for k, n in enumerate(order)}
        rows = sorted((min(rank[u], rank[v]), max(rank[u], rank[v]), w)
                      for u, v, w in edges[i])
        payload = struct.pack("<3q", fmt, len(order), len(rows))
        for n in order:
            c = coords.get(n)
            payload += struct.pack("<3q", *((0, *c) if c is not None
                                            else (1, n, 0)))
        for row in rows:
            payload += struct.pack("<3q", *row)
        out.append(GraphComponent(i, tuple(comp), tuple(order),
                                  hashlib.sha256(payload).hexdigest()))
    return out


def decomposition_components(graph: GeomGraph, parts
                             ) -> List[GraphComponent]:
    """A column :class:`~repro.graph.Decomposition` read back as
    :class:`GraphComponent` objects, for comparison with
    :func:`scalar_decompose`."""
    labels = graph.nodes
    comp = parts.comp.tolist()
    nodes: List[List[int]] = [[] for _ in range(len(parts))]
    for i, c in enumerate(comp):
        nodes[c].append(labels[i])
    order = [labels[i] for i in parts.order.tolist()]
    bounds = parts.bounds.tolist()
    return [GraphComponent(i, tuple(sorted(nodes[i])),
                           tuple(order[bounds[i]:bounds[i + 1]]), cid)
            for i, cid in enumerate(parts.content_ids)]


def encode_coloring(component: GraphComponent,
                    colors: Dict[int, int]) -> Tuple[int, ...]:
    """A component's colors as a canonical vector (first canonical
    node normalized to color 0)."""
    base = colors[component.order[0]]
    return tuple(colors[n] ^ base for n in component.order)


def decode_coloring(component: GraphComponent,
                    canonical: Sequence[int]) -> Dict[int, int]:
    """Re-anchor a canonical color vector onto current node labels,
    flipped so the component's minimum node takes color 0."""
    colors = dict(zip(component.order, canonical))
    flip = colors[component.min_node]
    if flip:
        return {n: c ^ 1 for n, c in colors.items()}
    return colors


# The format-2 code of an odd component.
ODD_TUPLE = "odd"


def _component_colorer(graph: GeomGraph):
    """``nodes -> colors`` of one whole component from one parity
    labelling of the graph (None when the component holds an odd
    edge), with the labelling's roots, colors and odd roots read into
    Python once for all the components it answers."""
    import numpy as np

    labelling = parity_labelling(graph)
    ui, _vi = graph._dense_endpoints(np)
    root, color = labelling.root.tolist(), labelling.color.tolist()
    odd_roots = set(labelling.root[ui[labelling.odd]].tolist())
    index_of = graph._index_of

    def component_colors(nodes: Sequence[int]) -> Optional[Dict[int, int]]:
        index = [index_of(node) for node in nodes]
        if root[index[0]] in odd_roots:
            return None
        return dict(zip(nodes, map(color.__getitem__, index)))

    return component_colors


def object_two_color_incremental(graph: GeomGraph, store,
                                 fmt: int = COMPONENT_FORMAT):
    """``two_color_incremental`` component by component over
    :class:`GraphComponent` objects: one ``coloring`` get per
    component, a miss recolored from one parity labelling and put.
    Codes are bytes (format 3); ``fmt=2`` keys by format-2 content ids
    and stores the tuple codes (``"odd"`` for an odd component) that
    format used.  Returns node -> color, or None when a component is
    odd."""
    from repro.cache import KIND_COLORING
    from repro.graph.components import ODD_COMPONENT

    odd_code = ODD_TUPLE if fmt == 2 else ODD_COMPONENT
    colors: Dict[int, int] = {}
    failed = False
    component_colors = None
    for component in scalar_decompose(graph, fmt):
        canonical = store.get(KIND_COLORING, component.content_id)
        if canonical is None:
            if component_colors is None:
                component_colors = _component_colorer(graph)
            fresh = component_colors(component.nodes)
            if fresh is None:
                canonical = odd_code
            else:
                canonical = encode_coloring(component, fresh)
                if fmt != 2:
                    canonical = bytes(canonical)
            store.put(KIND_COLORING, component.content_id, canonical)
            if fresh is None:
                failed = True
            elif not failed:
                colors.update(fresh)
        elif canonical == odd_code:
            failed = True
        elif not failed:
            colors.update(decode_coloring(component, tuple(canonical)))
    return None if failed else colors


def object_assign_and_verify(conflict_graph, tech, pairs, store,
                             fmt: int = COMPONENT_FORMAT):
    """``assign_and_verify_incremental`` component by component: the
    object recoloring above, then per component one ``verify`` get
    and, on a miss, its Condition-1 and Condition-2 problems from the
    scalar verifier scoped to the component (Condition 1 in feature
    order, then Condition 2 in pair order) and a put."""
    from repro.cache import KIND_VERIFY
    from repro.phase import PHASE_0, PHASE_180, PhaseAssignment, verify_key

    graph = conflict_graph.graph
    components = scalar_decompose(graph, fmt)
    colors = object_two_color_incremental(graph, store, fmt)
    if colors is None:
        return None, [], len(components)
    shifters = conflict_graph.shifters
    assignment = PhaseAssignment(phases={
        s: PHASE_180 if colors[s] else PHASE_0 for s in range(len(shifters))})
    problems: List[str] = []
    for component in components:
        key = verify_key(component.content_id, tech)
        verdict = store.get(KIND_VERIFY, key)
        if verdict is None:
            scope = set(component.nodes)
            verdict = tuple(scalar_verify_assignment(shifters, assignment,
                                                     pairs, scope))
            store.put(KIND_VERIFY, key, verdict)
        problems.extend(verdict)
    return assignment, problems, len(components)


# ----------------------------------------------------------------------
# 2-coloring, step 3, conflict-graph builds, weights and tile
# canonicalization: the per-node, per-pair and per-conflict routines
# the column passes replaced.
# ----------------------------------------------------------------------
def color_from(graph: GeomGraph, start: int,
               blocked: Set[int]) -> Optional[Dict[int, int]]:
    """BFS 2-coloring of ``start``'s component over the CSR adjacency,
    crossing no edge in ``blocked`` (nor a soft-removed one); ``start``
    gets color 0.  None when the component is not bipartite."""
    blocked = blocked | graph._removed
    csr = graph.csr()
    colors: Dict[int, int] = {start: 0}
    queue = [start]
    while queue:
        node = queue.pop()
        color = colors[node]
        i = graph._index_of(node)
        if i is None:        # unknown start label: colored, no edges
            continue
        for k in range(csr.indptr[i], csr.indptr[i + 1]):
            if csr.edge_ids[k] in blocked:
                continue
            nxt = csr.neighbors[k]
            if nxt == node:      # self-loop: never 2-colorable
                return None
            seen = colors.get(nxt)
            if seen is None:
                colors[nxt] = color ^ 1
                queue.append(nxt)
            elif seen == color:
                return None
    return colors


def scalar_two_color(graph: GeomGraph,
                     skip_edges: Iterable[int] = ()
                     ) -> Optional[Dict[int, int]]:
    """``two_color`` as one BFS per component, each rooted (color 0)
    at its minimum node id."""
    blocked = set(skip_edges)
    colors: Dict[int, int] = {}
    for start in sorted(graph.nodes):
        if start in colors:
            continue
        component = color_from(graph, start, blocked)
        if component is None:
            return None
        colors.update(component)
    return colors


def scalar_residual_conflicts(graph: GeomGraph, deleted: Sequence[int],
                              candidates: Sequence[int]) -> List[int]:
    """Step 3 seeded node by node: every live edge outside ``deleted``
    and ``candidates`` goes through a node-level parity union-find,
    then the candidates, heaviest first."""
    from repro.graph import ParityDSU

    skip = set(deleted) | set(candidates)
    dsu = ParityDSU()
    for node in graph.nodes:
        dsu.add(node)
    for eid, u, v, _w in graph.live_edge_rows():
        if eid not in skip and not dsu.union_unequal(u, v):
            raise ValueError("graph minus deleted edges is not bipartite")
    ordered = sorted(set(candidates),
                     key=lambda eid: (-graph.edge_weight(eid), eid))
    return sorted(eid for eid in ordered
                  if not dsu.union_unequal(graph.edge(eid).u,
                                           graph.edge(eid).v))


GENERIC_SCALE = 1 << 32


def pair_tie_breaker(pair: OverlapPair, shifters: ShifterSet) -> int:
    """CRC-32 of the pair's two shifter rects packed as ``<8q``."""
    ra = shifters[pair.a].rect
    rb = shifters[pair.b].rect
    payload = struct.pack("<8q", ra.x1, ra.y1, ra.x2, ra.y2,
                          rb.x1, rb.y1, rb.x2, rb.y2)
    return zlib.crc32(payload) % GENERIC_SCALE


def scalar_make_generic(model):
    """``make_generic`` for a per-pair model, in Python ints."""

    def generic(pair, shifters, tech):
        return (model(pair, shifters, tech) * GENERIC_SCALE
                + pair_tie_breaker(pair, shifters))

    return generic


def scalar_uniform_weight(pair, shifters, tech) -> int:
    return 1


def scalar_space_needed_weight(pair, shifters, tech) -> int:
    sep = int(pair.separation_sq ** 0.5)
    return 1 + max(0, tech.shifter_spacing - sep)


def scalar_facing_span_weight(pair, shifters, tech) -> int:
    ra = shifters[pair.a].rect
    rb = shifters[pair.b].rect
    xi = ra.xspan.intersection(rb.xspan)
    yi = ra.yspan.intersection(rb.yspan)
    return 1 + max(xi.length if xi else 0, yi.length if yi else 0)


# The per-pair model of each :data:`repro.conflict.NAMED_MODELS` entry.
SCALAR_MODELS = {
    "uniform": scalar_uniform_weight,
    "space": scalar_space_needed_weight,
    "span": scalar_facing_span_weight,
}


@dataclass
class ScalarConflictGraph:
    """A conflict graph with the per-edge maps the column
    :class:`~repro.conflict.ConflictGraph` replaced by arithmetic:
    shifter id -> node, overlap-edge id -> pair key, feature-edge id
    -> feature index."""

    graph: GeomGraph
    kind: str
    shifters: ShifterSet
    shifter_node: Dict[int, int]
    edge_pair: Dict[int, Tuple[int, int]]
    edge_feature: Dict[int, int]

    def classify_edges(self, edge_ids):
        """The dict lookups of ``ConflictGraph.classify_edges``."""
        pairs: List[Tuple[int, int]] = []
        features: List[int] = []
        seen = set()
        for eid in edge_ids:
            if eid in self.edge_pair:
                key = self.edge_pair[eid]
                if key not in seen:
                    seen.add(key)
                    pairs.append(key)
            elif eid in self.edge_feature:
                fi = self.edge_feature[eid]
                if ("f", fi) not in seen:
                    seen.add(("f", fi))
                    features.append(fi)
        return pairs, features


def _scalar_graph_base(kind: str, shifters: ShifterSet, pairs, tech,
                       model):
    from repro.conflict import feature_edge_weight

    graph = GeomGraph(name=kind)
    shifter_node = {s.id: s.id for s in shifters}
    graph.add_nodes(shifter_node,
                    [(2 * s.center2[0], 2 * s.center2[1])
                     for s in shifters])
    weights = [model(p, shifters, tech) for p in pairs]
    if any(w <= 0 for w in weights):
        raise ValueError("weight model must return positive weights")
    cg = ScalarConflictGraph(graph=graph, kind=kind, shifters=shifters,
                             shifter_node=shifter_node, edge_pair={},
                             edge_feature={})
    return cg, weights, feature_edge_weight(weights)


def _scalar_finish(cg, rows, n_overlap) -> None:
    eids = cg.graph.add_edge_rows(rows)
    for k, eid in enumerate(eids):
        if k < n_overlap:
            cg.edge_pair[eid] = rows[k][3][1]
        else:
            cg.edge_feature[eid] = rows[k][3][1]


def scalar_phase_conflict_graph(shifters: ShifterSet, pairs, tech,
                                model=scalar_space_needed_weight):
    """The PCG built pair by pair and feature by feature over
    :class:`~repro.shifters.Shifter` objects."""
    from repro.conflict import FEATURE_TAG, OVERLAP_TAG, PCG

    cg, weights, inf_weight = _scalar_graph_base(PCG, shifters, pairs,
                                                 tech, model)
    graph = cg.graph
    next_node = len(shifters)
    rows = []
    for pair, weight in zip(pairs, weights):
        (ax, ay), (bx, by) = graph.coord(pair.a), graph.coord(pair.b)
        graph.add_node(next_node, ((ax + bx) // 2, (ay + by) // 2))
        for endpoint, half in ((pair.a, 0), (pair.b, 1)):
            rows.append((endpoint, next_node, weight,
                         (OVERLAP_TAG, pair.key, half)))
        next_node += 1
    n_overlap = len(rows)
    for sa, sb in shifters.feature_pairs():
        rows.append((sa.id, sb.id, inf_weight,
                     (FEATURE_TAG, sa.feature_index)))
    _scalar_finish(cg, rows, n_overlap)
    return cg


def scalar_feature_graph(shifters: ShifterSet, pairs, tech,
                         model=scalar_space_needed_weight):
    """The FG built pair by pair and feature by feature over
    :class:`~repro.shifters.Shifter` objects."""
    from repro.conflict import FEATURE_TAG, FG, OVERLAP_TAG

    cg, weights, inf_weight = _scalar_graph_base(FG, shifters, pairs,
                                                 tech, model)
    graph = cg.graph
    next_node = len(shifters)
    rows = []
    for pair, weight in zip(pairs, weights):
        cx2, cy2 = region_center2(shifters[pair.a].rect,
                                  shifters[pair.b].rect)
        graph.add_node(next_node, (2 * cx2, 2 * cy2))
        for endpoint, half in ((pair.a, 0), (pair.b, 1)):
            rows.append((endpoint, next_node, weight,
                         (OVERLAP_TAG, pair.key, half)))
        next_node += 1
    n_overlap = len(rows)
    for sa, sb in shifters.feature_pairs():
        fi = sa.feature_index
        cx = sa.center2[0] + sb.center2[0]
        cy = sa.center2[1] + sb.center2[1]
        dx, dy = (0, 1) if sa.side in ("left", "right") else (1, 0)
        f1, f2 = next_node, next_node + 1
        next_node += 2
        graph.add_node(f1, (cx - dx, cy - dy))
        graph.add_node(f2, (cx + dx, cy + dy))
        for u, v in ((sa.id, f1), (f1, f2), (f2, sb.id)):
            rows.append((u, v, inf_weight, (FEATURE_TAG, fi)))
    _scalar_finish(cg, rows, n_overlap)
    return cg


def conflict_graph_columns(cg):
    """Everything a conflict graph holds, for exact comparison, read
    through the graph's accessors: node labels and coordinates, edge
    columns (weights with their Python types), tags, removed ids, and
    the maps back to shifters — the column graph's arithmetic lookups
    (shifter ``s`` is node ``s``; ``pair_key``; ``edge_features``) or
    a :class:`ScalarConflictGraph`'s dicts."""
    g = cg.graph
    n_edges = len(g._eu)
    if isinstance(cg, ScalarConflictGraph):
        maps = (dict(cg.shifter_node), dict(cg.edge_pair),
                dict(cg.edge_feature))
    else:
        split = cg.num_overlap_edges
        maps = ({s: s for s in range(len(cg.shifters))},
                {eid: cg.pair_key(eid) for eid in range(split)},
                dict(zip(range(split, n_edges), cg.edge_features.tolist())))
    return (cg.kind, g.name, g.nodes, node_coords(g), list(g._eu),
            list(g._ev), [(type(w), w) for w in g._ew],
            [g.edge(eid).tag for eid in range(n_edges)],
            g.removed_edge_ids(), *maps)


def scalar_canonical_tile(job, shifters: ShifterSet, pairs, report):
    """``detect_tile``'s canonicalization per conflict and per feature:
    ``(conflicts, owned_pairs, owned_uncorrectable,
    owned_tshape_features)`` as a union-find over pair features, a
    witness scan per conflict and a point test per pair and feature."""
    from repro.chip.executor import CanonicalConflict
    from repro.chip.partition import interaction_distance

    feats = job.layout.features
    feature = shifters.feature_column().tolist()
    side = [SIDES[code] for code in shifters.code_column().tolist()]
    ox1, oy1, ox2, oy2 = job.owner

    def owns(px2, py2):
        return 2 * ox1 <= px2 < 2 * ox2 and 2 * oy1 <= py2 < 2 * oy2

    def tup(r):
        return (r.x1, r.y1, r.x2, r.y2)

    parent: Dict[int, int] = {}

    def find(x: int) -> int:
        parent.setdefault(x, x)
        while parent[x] != x:
            x = parent[x]
        return x

    for p in pairs:
        ra, rb = find(feature[p.a]), find(feature[p.b])
        if ra != rb:
            parent[rb] = ra
    members: Dict[int, List[int]] = {}
    for fi in list(parent):
        members.setdefault(find(fi), []).append(fi)
    reach = 2 * (2 * interaction_distance(job.tech))
    tagged = ([(c, False) for c in report.conflicts]
              + [(c, True) for c in report.tshape_conflicts])
    conflicts = []
    for conflict, tshape in tagged:
        px2, py2 = region_center2(shifters.rect_of(conflict.a),
                                  shifters.rect_of(conflict.b))
        witness = []
        for fi in members.get(find(feature[conflict.a]), ()):
            r = feats[fi]
            dx = max(2 * r.x1 - px2, px2 - 2 * r.x2, 0)
            dy = max(2 * r.y1 - py2, py2 - 2 * r.y2, 0)
            if dx * dx + dy * dy <= reach * reach:
                witness.append(tup(r))
        ka, kb = sorted(((tup(feats[feature[conflict.a]]), side[conflict.a]),
                         (tup(feats[feature[conflict.b]]), side[conflict.b])))
        conflicts.append(CanonicalConflict(
            a=ka, b=kb, weight=conflict.weight, ref2=(px2, py2),
            tshape=tshape, witness=tuple(witness)))
    owned_pairs = sum(owns(*region_center2(shifters.rect_of(p.a),
                                           shifters.rect_of(p.b)))
                      for p in pairs)
    owned = [owns(*r.center2) for r in feats]
    return (conflicts, owned_pairs,
            [tup(feats[fi]) for fi in report.uncorrectable_features
             if owned[fi]],
            [tup(feats[fi]) for fi in report.tshape_features
             if owned[fi]])


def scalar_darkfield_graph(layout: Layout, tech: Technology,
                           distance: Optional[int] = None):
    """``build_darkfield_graph`` node by node and pair by pair."""
    from repro.darkfield import DarkFieldGraph, interaction_distance
    from repro.geometry import neighbor_pairs

    if distance is None:
        distance = interaction_distance(tech)
    features = extract_critical_features(layout, tech)
    graph = GeomGraph(name="darkfield")
    node_feature = {}
    for node, feat in enumerate(features):
        cx2, cy2 = feat.rect.center2
        graph.add_node(node, (2 * cx2, 2 * cy2))
        node_feature[node] = feat.index
    edge_pair = {}
    rects = [f.rect for f in features]
    for i, j in neighbor_pairs(rects, distance):
        sep = int(rects[i].separation_sq(rects[j]) ** 0.5)
        key = (features[i].index, features[j].index)
        edge = graph.add_edge(i, j, weight=1 + max(0, distance - sep),
                              tag=("pair", key))
        edge_pair[edge.id] = key
    return DarkFieldGraph(graph=graph,
                          features=[f.index for f in features],
                          node_feature=node_feature, edge_pair=edge_pair)


def scalar_verify_assignment(shifters: ShifterSet, assignment, pairs,
                             scope: Optional[Set[int]] = None) -> List[str]:
    """``verify_assignment`` over :class:`~repro.shifters.Shifter`
    pairs and :class:`OverlapPair` objects, messages included."""
    phases = assignment.phases
    problems = []
    for sa, sb in shifters.feature_pairs():
        if scope is not None and sa.id not in scope and sb.id not in scope:
            continue
        if phases[sa.id] == phases[sb.id]:
            problems.append(
                f"condition1: feature {sa.feature_index} shifters "
                f"{sa.id}/{sb.id} share phase {phases[sa.id]}")
    for p in pairs:
        if scope is not None and p.a not in scope and p.b not in scope:
            continue
        if phases[p.a] != phases[p.b]:
            problems.append(f"condition2: overlapping shifters "
                            f"{p.a}/{p.b} have opposite phases")
    return problems


# ----------------------------------------------------------------------
# The T-join on the raw dual, and per-rect space insertion
# ----------------------------------------------------------------------
def use_unreduced_dual():
    """Solve the block's T-joins on the dual's simple instance with its
    degree-2 faces kept: the identity in for
    :func:`repro.graph.dual.eliminate_degree_two`."""
    return _rebind("repro.graph.dual", "eliminate_degree_two",
                   lambda dual: dual)


@contextmanager
def use_raw_dual():
    """Solve the block's T-joins on the raw dual: every self-loop,
    parallel edge and degree-2 face kept, as the Table 1 harness solves
    it, instead of the instance :func:`repro.graph.dual.simple_dual`
    and :func:`repro.graph.dual.eliminate_degree_two` give."""
    with _rebind("repro.graph.dual", "simple_dual", lambda dual: dual), \
            use_unreduced_dual():
        yield


class _AxisShift:
    """Prefix-sum shifter for one axis, one bisect per coordinate."""

    def __init__(self, cuts: Iterable[SpaceCut]):
        items = sorted((c.position, c.width) for c in cuts)
        self.positions = [p for p, _ in items]
        self.prefix = [0]
        for _, w in items:
            self.prefix.append(self.prefix[-1] + w)

    def shift_low(self, coord: int) -> int:
        """Total width of cuts at positions <= coord (moves low edges)."""
        return self.prefix[bisect_right(self.positions, coord)]

    def shift_high(self, coord: int) -> int:
        """Total width of cuts at positions < coord (moves high edges,
        stretching anything that spans a cut)."""
        return self.prefix[bisect_left(self.positions, coord)]


def transform_rect(rect: Rect, xshift: _AxisShift,
                   yshift: _AxisShift) -> Rect:
    return Rect(
        rect.x1 + xshift.shift_low(rect.x1),
        rect.y1 + yshift.shift_low(rect.y1),
        rect.x2 + xshift.shift_high(rect.x2),
        rect.y2 + yshift.shift_high(rect.y2),
    )


def scalar_apply_cuts(layout: Layout, cuts: Sequence[SpaceCut]) -> Layout:
    """``apply_cuts`` rect by rect through :func:`transform_rect`."""
    xshift = _AxisShift(c for c in cuts if c.axis == "x")
    yshift = _AxisShift(c for c in cuts if c.axis == "y")
    out = Layout(name=f"{layout.name}+spaced")
    for layer, rects in layout.layers.items():
        out.layers[layer] = [transform_rect(r, xshift, yshift)
                             for r in rects]
    return out


# ----------------------------------------------------------------------
# Correction options, cut snapping, stretched features and T-shapes,
# one object at a time
# ----------------------------------------------------------------------
def isqrt_ceil(n: int) -> int:
    """Smallest integer ``x`` with ``x * x >= n`` (0 for ``n <= 0``)."""
    if n <= 0:
        return 0
    x = int(n ** 0.5)
    while x * x >= n:
        x -= 1
    while x * x < n:
        x += 1
    return x


def axis_option(conflict: Tuple[int, int], ra: Rect, rb: Rect,
                axis: str, rule: int) -> Optional[CorrectionOption]:
    """One pair's option on one axis, from two :class:`Rect` objects."""
    if axis == AXIS_X:
        span_a, span_b = ra.xspan, rb.xspan
        other_gap = ra.y_gap(rb)
    else:
        span_a, span_b = ra.yspan, rb.yspan
        other_gap = ra.x_gap(rb)

    if span_b.lo >= span_a.hi:
        interval = Interval(span_a.hi, span_b.lo)
    elif span_a.lo >= span_b.hi:
        interval = Interval(span_b.hi, span_a.lo)
    else:
        return None  # projections overlap: a cut cannot separate them

    gap = interval.length
    other = max(0, other_gap)
    if other >= rule:
        return None  # already legal; not a real conflict on this axis
    need = isqrt_ceil(rule * rule - other * other) - gap
    if need <= 0:
        return None
    return CorrectionOption(conflict=conflict, axis=axis,
                            interval=interval, need=need)


def scalar_rect_pair_options(keyed_rects, rule: int
                             ) -> Dict[Tuple[int, int],
                                       List[CorrectionOption]]:
    """``rect_pair_options`` pair by pair: ``keyed_rects`` maps each key
    to its two :class:`Rect` objects."""
    out: Dict[Tuple[int, int], List[CorrectionOption]] = {}
    for key, (ra, rb) in keyed_rects.items():
        out[key] = [opt for opt in (axis_option(key, ra, rb, axis, rule)
                                    for axis in (AXIS_X, AXIS_Y))
                    if opt is not None]
    return out


def scalar_conflict_options(conflicts, shifters: ShifterSet,
                            tech: Technology):
    """``conflict_options`` with two ``rect_of`` rects per conflict."""
    keyed = {key: (shifters.rect_of(key[0]), shifters.rect_of(key[1]))
             for key in conflicts}
    return scalar_rect_pair_options(keyed, tech.shifter_spacing)


class ScalarSnapIndex:
    """The snap index as sorted lists built by a loop over the
    features, queried with bisect (``_SnapIndex``' interface)."""

    def __init__(self, layout: Layout):
        xs: List[int] = []
        ys: List[int] = []
        vx1: List[int] = []
        vx2: List[int] = []
        hy1: List[int] = []
        hy2: List[int] = []
        for rect in layout.features:
            xs += (rect.x1, rect.x2)
            ys += (rect.y1, rect.y2)
            if rect.height >= rect.width:
                vx1.append(rect.x1)
                vx2.append(rect.x2)
            else:
                hy1.append(rect.y1)
                hy2.append(rect.y2)
        self._edges = {AXIS_X: sorted(set(xs)), AXIS_Y: sorted(set(ys))}
        self._lo = {AXIS_X: sorted(vx1), AXIS_Y: sorted(hy1)}
        self._hi = {AXIS_X: sorted(vx2), AXIS_Y: sorted(hy2)}

    def edges_in(self, axis: str, band: Interval) -> List[int]:
        edges = self._edges[axis]
        return edges[bisect_left(edges, band.lo):
                     bisect_right(edges, band.hi)]

    def stretched_count(self, axis: str, position: int) -> int:
        return (bisect_left(self._lo[axis], position)
                - bisect_right(self._hi[axis], position))


def scalar_stretched_feature_indices(layout: Layout,
                                     cuts: Sequence[SpaceCut]
                                     ) -> List[int]:
    """``stretched_feature_indices`` with one bisect per feature."""
    x_cuts = sorted(c.position for c in cuts if c.axis == "x")
    y_cuts = sorted(c.position for c in cuts if c.axis == "y")

    def any_inside(positions: List[int], lo: int, hi: int) -> bool:
        i = bisect_right(positions, lo)
        return i < len(positions) and positions[i] < hi

    offenders: List[int] = []
    for index, rect in enumerate(layout.features):
        if rect.height >= rect.width:
            if any_inside(x_cuts, rect.x1, rect.x2):
                offenders.append(index)
        elif any_inside(y_cuts, rect.y1, rect.y2):
            offenders.append(index)
    return offenders


def is_tshape(stem: Rect, bar: Rect) -> bool:
    """Does ``stem`` end on (touch or overlap) a long side of ``bar``?"""
    if not stem.intersects(bar):
        return False
    if stem.is_vertical == bar.is_vertical:
        return False  # parallel abutment is a butt joint, not a T
    if stem.is_vertical:
        return bar.xspan.strictly_overlaps(stem.xspan)
    return bar.yspan.strictly_overlaps(stem.yspan)


def scalar_find_tshapes(layout: Layout) -> List[Tuple[int, int]]:
    """``find_tshapes``' ``(stem, bar)`` keys, :func:`is_tshape` pair by
    pair over the touching pairs."""
    feats = list(layout.features)
    out: List[Tuple[int, int]] = []
    for i, j in grid_neighbor_pairs(feats, 1):
        for stem, bar in ((i, j), (j, i)):
            if is_tshape(feats[stem], feats[bar]):
                out.append((stem, bar))
    return sorted(out)
