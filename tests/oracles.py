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
  component sizes it is handed (the brute oracle's budget gate);
* :func:`whole_instance_cover` — the unwindowed set cover, one solve
  over every candidate grid line;
* :func:`scalar_crossing_pairs` — planarization's crossing search with
  the scalar segment predicate run on every candidate pair;
* :func:`scalar_partition` (with :func:`rect_digest`),
  :func:`scalar_owned_front_end` and :func:`scalar_decompose` — the
  tiled path's per-rect, per-feature
  and per-component loops (bisect routing with a ``Rect.hull`` bbox;
  one tuple per owned feature and pair, sorted per tile; BFS
  components with per-component canonical orders and content ids),
  which the column passes of ``partition_layout``, the front end's
  ownership cut and ``decompose`` must reproduce exactly.

:func:`use_kernel` / :func:`use_matcher` run the flow on an oracle by
swapping it in behind the production accessors ``get_kernel`` /
``get_matcher``; :func:`use_whole_instance_cover` swaps the unwindowed
cover in behind ``solve_cover_windows``.  The graph core's scalar
oracles live with their differential suite in
``tests/graph/test_geomgraph_flat.py``.
"""

from __future__ import annotations

import hashlib
import importlib
import struct
import sys
from bisect import bisect_left, bisect_right
from collections import defaultdict
from contextlib import contextmanager
from typing import (Dict, Generic, Iterable, Iterator, List, Optional,
                    Sequence, Set, Tuple, TypeVar)

from repro.chip.partition import (
    OPEN,
    _boundaries,
    auto_tile_grid,
    default_halo,
    normalize_tile_spec,
)
from repro.core.flow import run_aapsm_flow
from repro.correction import plan_correction
from repro.correction.setcover import (
    EXACT_CAP_ELEMENTS,
    EXACT_CAP_SETS,
    CoverSet,
    exact_weighted_set_cover,
    greedy_weighted_set_cover,
    use_exact_cover,
)
from repro.geometry import Rect, segment_bbox, segments_conflict
from repro.geometry.kernels import GeometryKernel, PairRow, get_kernel
from repro.graph import GeomGraph
from repro.graph.components import COMPONENT_FORMAT
from repro.graph.matching import BlossomMatcher, LocalEdge, MatcherBackend
from repro.layout import Layout, Technology
from repro.shifters import OverlapPair, ShifterSet
from repro.shifters.frontend import SIDES, TileFrontEnd

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


def region_center2(ra: Rect, rb: Rect) -> Tuple[int, int]:
    """Doubled centre of the overlap region of two rects: of the
    intersection when they overlap, of the gap box when they are
    separated along one axis, of the hull for corner cases."""
    inter = ra.intersection(rb)
    if inter is not None:
        return inter.center2
    between = ra.between_region(rb)
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


# ----------------------------------------------------------------------
# Crossing search
# ----------------------------------------------------------------------
def scalar_crossing_pairs(graph: GeomGraph) -> List[Tuple[int, int]]:
    """:func:`repro.graph.find_crossing_pairs` one pair at a time:
    candidates from the kernel over +1-padded segment boxes, each
    decided by the scalar :func:`segments_conflict`."""
    coords = graph._coords
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
    """The production matcher, recording every component's node count."""

    def __init__(self) -> None:
        self.sizes: List[int] = []

    def match(self, nvertex: int, edges: Sequence[LocalEdge],
              transform: int) -> Tuple[List[int], int]:
        self.sizes.append(nvertex)
        return super().match(nvertex, edges, transform)


# ----------------------------------------------------------------------
# The whole-instance set cover
# ----------------------------------------------------------------------
# Largest conflict count the whole-instance *exact* cover is asked to
# cross-check (the solver caps out at 64 elements/sets; staying well
# under keeps the branch-and-bound instant).
EXACT_COVER_BUDGET = 16


def whole_instance_cover(universe, lines: Sequence, cover: str = "auto",
                         store=None) -> Tuple[List[int], str, list]:
    """One set-cover solve over every candidate line, windows ignored.

    Same contract as :func:`repro.correction.solve_cover_windows`:
    ``(sorted chosen line ids, method, windows)``, with no windows and
    ``store`` unused.  The exact-vs-greedy ``auto`` policy is the
    shared :func:`use_exact_cover`.
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


def rect_digest(rects: Sequence[Rect]) -> str:
    """A rect multiset's digest computed on its own: sha256 of the
    rects sorted by ``(x1, y1, x2, y2)``, as little-endian int64 rows.
    The partition derives every tile's ``digest`` from one chip-wide
    sort; it must equal this on the tile's sub-layout."""
    rows = sorted((r.x1, r.y1, r.x2, r.y2) for r in rects)
    return hashlib.sha256(b"".join(struct.pack("<4q", *row)
                                   for row in rows)).hexdigest()


def scalar_owned_front_end(layout: Layout, shifters: ShifterSet,
                           pairs: Sequence[OverlapPair], owner):
    """One owner window's front-end artifact as sorted tuples.

    ``features``: ``(rect, ((side, rect), (side, rect)))`` per owned
    critical feature (centre in ``owner``), sorted; ``pairs``:
    ``(key a, key b, separation_sq, x_gap, y_gap)`` per owned pair
    (region centre in ``owner``), keys ``(feature rect, side)`` with
    ``a < b``, sorted.  Compare with :func:`front_end_tuples`.
    """
    ox1, oy1, ox2, oy2 = owner

    def owns(px2, py2):
        return 2 * ox1 <= px2 < 2 * ox2 and 2 * oy1 <= py2 < 2 * oy2

    def tup(r):
        return (r.x1, r.y1, r.x2, r.y2)

    feats = layout.features
    features = []
    for sa, sb in shifters.feature_pairs():
        rect = feats[sa.feature_index]
        if owns(*rect.center2):
            features.append((tup(rect), ((sa.side, tup(sa.rect)),
                                         (sb.side, tup(sb.rect)))))
    centers = get_kernel().region_centers2(shifters.rects,
                                           [p.key for p in pairs])
    owned = []
    for p, center in zip(pairs, centers):
        if not owns(*center):
            continue
        ka = (tup(feats[shifters[p.a].feature_index]), shifters[p.a].side)
        kb = (tup(feats[shifters[p.b].feature_index]), shifters[p.b].side)
        if kb < ka:
            ka, kb = kb, ka
        owned.append((ka, kb, p.separation_sq, p.x_gap, p.y_gap))
    return tuple(sorted(features)), tuple(sorted(owned))


def front_end_tuples(front: TileFrontEnd):
    """A :class:`TileFrontEnd`'s rows in :func:`scalar_owned_front_end`
    form."""
    features = tuple(
        (tuple(r[:4]), ((SIDES[r[4]], tuple(r[5:9])),
                        (SIDES[r[9]], tuple(r[10:14]))))
        for r in front.features.tolist())
    pairs = tuple(
        ((tuple(r[:4]), SIDES[r[4]]), (tuple(r[5:9]), SIDES[r[9]]),
         r[10], r[11], r[12])
        for r in front.pairs.tolist())
    return features, pairs


def scalar_decompose(graph: GeomGraph):
    """Components as ``(index, nodes, order, content_id)`` tuples from
    a per-node BFS, a per-component canonical sort and a per-node,
    per-edge content encoding (``struct.pack`` of the same int64
    rows the production digest hashes)."""
    comps = sorted(graph.connected_components(), key=lambda c: c[0])
    comp_of = {n: i for i, comp in enumerate(comps) for n in comp}
    edges = [[] for _ in comps]
    for _eid, u, v, w in graph.live_edge_rows():
        edges[comp_of[u]].append((u, v, w))
    coords = graph._coords
    out = []
    for i, comp in enumerate(comps):
        if all(n in coords for n in comp):
            order = [n for _, n in sorted((coords[n], n) for n in comp)]
        else:
            order = sorted(comp)
        rank = {n: k for k, n in enumerate(order)}
        rows = sorted((min(rank[u], rank[v]), max(rank[u], rank[v]), w)
                      for u, v, w in edges[i])
        payload = struct.pack("<3q", COMPONENT_FORMAT, len(order),
                              len(rows))
        for n in order:
            c = coords.get(n)
            payload += struct.pack("<3q", *((0, *c) if c is not None
                                            else (1, n, 0)))
        for row in rows:
            payload += struct.pack("<3q", *row)
        out.append((i, tuple(comp), tuple(order),
                    hashlib.sha256(payload).hexdigest()))
    return out
