"""Weighted geometric multigraphs on flat arrays.

The conflict-detection flow manipulates graphs whose nodes carry exact
integer coordinates (doubled layout coordinates so rectangle centres stay
integral) and whose edges are straight segments.  The same structure,
minus the coordinates, also represents the dual graphs and gadget graphs,
so it supports parallel edges and self-loops with stable integer edge
ids.

Storage is struct-of-arrays: edges live in parallel endpoint / weight /
tag columns and adjacency is a CSR table (``indptr`` / ``neighbors`` /
``edge_ids``) built lazily in one vectorized numpy pass instead of
per-edge adjacency list appends.  A dense-labelled graph filled by
:meth:`GeomGraph.add_node_columns` (conflict and dark-field graphs)
keeps its node registry and coordinates as int64 columns, with no
label -> index dict and no coordinate tuples; registering a node those
columns do not hold converts them to dicts once.  Edge tags may be
made on demand by a tag maker instead of stored per edge.
:class:`Edge` objects are materialized on demand and memoized, so bulk
construction and array-level consumers (coloring, components,
embedding) never pay for them.  The id-stability contract:
node iteration order is insertion order, edge ids are assigned
sequentially, and a node's incident edges enumerate in ascending edge
id — exactly the orders the incremental cache keys and component ids
were derived from, however the graph was built.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat
from typing import Any, Callable, Dict, Iterable, Iterator, List, \
    Optional, Sequence, Set, Tuple

Point = Tuple[int, int]

_np: Any = None  # numpy, imported on first use


def _numpy():
    """The numpy module, imported on first use so that importing the
    graph core does not load it."""
    global _np
    if _np is None:
        import numpy
        _np = numpy
    return _np


def _parity_roots(np, n: int, u, v):
    """Each node's component root and its side relative to that root.

    Min-label hooking with pointer jumping, one parity bit per pointer:
    every round hooks the larger root of each edge under the smaller,
    with the parity that puts the edge's two ends on opposite sides,
    then flattens every node onto its root, composing parities on the
    way, until no edge joins two roots.  Where several edges hook one
    root in a round, the smallest ``2 * target + parity`` wins.
    Pointers only ever decrease, so the final root is the component's
    smallest dense index, with side 0.  An edge whose ends end up on
    one side closes an odd cycle: the labelling is a spanning forest's
    2-coloring, which every edge of a bipartite component respects.
    """
    parent = np.arange(n, dtype=np.int64)
    side = np.zeros(n, dtype=np.int64)
    while len(u):
        pu, pv = parent[u], parent[v]
        join = pu != pv
        if not join.any():
            break
        pu, pv = pu[join], pv[join]
        hook = 2 * np.minimum(pu, pv) + (side[u[join]] ^ side[v[join]] ^ 1)
        key = 2 * parent + side
        np.minimum.at(key, np.maximum(pu, pv), hook)
        parent = key >> 1
        side = key & 1
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            side = side ^ side[parent]
            parent = jumped
        keep = parent[u] != parent[v]
        u, v = u[keep], v[keep]
    return parent, side


@dataclass(frozen=True, slots=True)
class Edge:
    """An undirected weighted edge with a stable id and an opaque tag."""

    id: int
    u: int
    v: int
    weight: int
    tag: Any = None

    def other(self, node: int) -> int:
        if node == self.u:
            return self.v
        if node == self.v:
            return self.u
        raise ValueError(f"node {node} not an endpoint of edge {self.id}")

    @property
    def is_self_loop(self) -> bool:
        return self.u == self.v


class _CSR:
    """Adjacency of every edge (removed included) in flat arrays.

    ``indptr[i]:indptr[i+1]`` slices the darts of the node at dense
    index ``i``; ``edge_ids`` holds ascending edge ids per node and
    ``neighbors`` the opposite endpoint *labels*.  Removal is a query-
    time filter, so soft remove/restore never invalidates the table.
    ``eid_buf`` keeps the numpy array behind ``edge_ids`` so
    :meth:`GeomGraph.incident_edge_ids` can hand out zero-copy views.
    """

    __slots__ = ("indptr", "neighbors", "edge_ids", "eid_buf")

    def __init__(self, indptr: List[int], neighbors: List[int],
                 edge_ids: List[int], eid_buf) -> None:
        self.indptr = indptr
        self.neighbors = neighbors
        self.edge_ids = edge_ids
        self.eid_buf = eid_buf


class GeomGraph:
    """Undirected multigraph with optional node coordinates.

    Nodes are integers.  Edge removal is *soft* (edges keep their ids and
    are flagged removed) so flows can report exactly which edges each
    stage deleted.
    """

    def __init__(self, name: str = "graph") -> None:
        self.name = name
        # The node registry takes one of two forms.  Dict form: label ->
        # dense index in insertion order (dense index == insertion
        # position), the labels, and a coordinate tuple per placed
        # label.  Column form (a dense-labelled graph filled by
        # add_node_columns): the labels are range(n), the coordinates
        # the int64 columns ``_xy``, and both dicts are None.
        self._node_index: Optional[Dict[int, int]] = {}
        self._labels: Sequence[int] = []
        self._coords: Optional[Dict[int, Point]] = {}
        self._xy: Optional[Tuple[Any, Any]] = None
        # Edge columns, indexed by edge id.  Inside a range appended
        # with a tag maker, ``_etags`` holds None and the maker makes
        # the tag on demand.
        self._eu: List[int] = []
        self._ev: List[int] = []
        self._ew: List[int] = []
        self._etags: List[Any] = []
        self._tag_makers: List[Tuple[int, int, Callable[[int], Any]]] = []
        self._removed: Set[int] = set()
        # True while node labels are exactly 0..n-1 in insertion order
        # (conflict/dual/gadget graphs) — lets the CSR builder skip the
        # label -> index translation.
        self._dense_labels = True
        # Lazy caches, all keyed on the mutation epoch.
        self._csr: Optional[_CSR] = None
        self._edge_cache: Dict[int, Edge] = {}
        self._array_cache: Dict[str, Tuple[int, Any]] = {}
        self._epoch = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _holds(self, node: int) -> bool:
        """Column form: whether ``node`` is one of the columns' labels."""
        return 0 <= node < len(self._labels)

    def _to_dicts(self) -> None:
        """Convert the column form to the dict form (once)."""
        n = len(self._labels)
        xs, ys = self._xy
        self._node_index = dict(zip(range(n), range(n)))
        self._labels = list(range(n))
        self._coords = dict(zip(range(n), zip(xs.tolist(), ys.tolist())))
        self._xy = None

    def _register(self, node: int) -> None:
        index = self._node_index
        if index is None:
            if self._holds(node):
                return
            self._to_dicts()
            index = self._node_index
        if node not in index:
            if node != len(self._labels):
                self._dense_labels = False
            index[node] = len(self._labels)
            self._labels.append(node)

    def _dirty(self) -> None:
        self._epoch += 1
        self._csr = None

    def _set_coord(self, node: int, coord: Point) -> None:
        """Place a registered node."""
        if self._xy is None:
            self._coords[node] = coord
        else:
            self._xy[0][node], self._xy[1][node] = coord

    def add_node(self, node: int, coord: Optional[Point] = None) -> int:
        self._register(node)
        if coord is not None:
            self._set_coord(node, coord)
        self._dirty()
        return node

    def add_edge(self, u: int, v: int, weight: int = 1,
                 tag: Any = None) -> Edge:
        self._register(u)
        self._register(v)
        eid = len(self._eu)
        self._eu.append(u)
        self._ev.append(v)
        self._ew.append(weight)
        self._etags.append(tag)
        self._dirty()
        edge = Edge(eid, u, v, weight, tag)
        self._edge_cache[eid] = edge
        return edge

    def add_nodes(self, nodes: Iterable[int],
                  coords: Optional[Iterable[Optional[Point]]] = None
                  ) -> None:
        """Bulk :meth:`add_node`: same registration semantics, one
        call.  ``coords`` (when given) pairs positionally with
        ``nodes``; ``None`` entries leave a node coordinate-free."""
        register = self._register
        if coords is None:
            for node in nodes:
                register(node)
        else:
            place = self._set_coord
            for node, coord in zip(nodes, coords):
                register(node)
                if coord is not None:
                    place(node, coord)
        self._dirty()

    def add_edge_rows(self, rows: Iterable[Tuple[int, int, int, Any]]
                      ) -> range:
        """Bulk edge append over ``(u, v, weight, tag)`` rows.

        The array-native fast path: ids are assigned sequentially in
        row order and endpoints register in per-row ``u``-then-``v``
        order — byte-identical ids and iteration order to the
        equivalent loop of :meth:`add_edge` calls — but no :class:`Edge`
        objects are built.  Returns the ``range`` of assigned ids.
        """
        rows = rows if isinstance(rows, (list, tuple)) else list(rows)
        start = len(self._eu)
        if not rows:
            return range(start, start)
        holds = self._holds
        if self._node_index is not None or not all(
                holds(row[0]) and holds(row[1]) for row in rows):
            if self._node_index is None:
                self._to_dicts()
            index = self._node_index
            register = self._register
            for row in rows:
                u = row[0]
                if u not in index:
                    register(u)
                v = row[1]
                if v not in index:
                    register(v)
        us, vs, ws, tags = zip(*rows)
        self._eu.extend(us)
        self._ev.extend(vs)
        self._ew.extend(ws)
        self._etags.extend(tags)
        self._dirty()
        return range(start, len(self._eu))

    def add_node_columns(self, xs, ys) -> range:
        """Bulk-append nodes with coordinates from two int64 columns.

        The column counterpart of :meth:`add_nodes` for an empty graph
        or one whose nodes all came from this method: the new nodes
        take the next labels, ``num_nodes()`` onwards, in column order,
        and the registry stays in column form (labels ``range(n)``,
        coordinates int64 columns).  Returns that ``range``.
        """
        start = len(self._labels)
        if start and self._xy is None:
            raise ValueError(f"graph {self.name!r}: column appends need "
                             "an empty or column-form graph")
        np = _numpy()
        ids = range(start, start + len(xs))
        xs = np.array(xs, dtype=np.int64)
        ys = np.array(ys, dtype=np.int64)
        if start:
            xs = np.concatenate((self._xy[0], xs))
            ys = np.concatenate((self._xy[1], ys))
        self._node_index = self._coords = None
        self._labels = range(ids.stop)
        self._xy = (xs, ys)
        self._dirty()
        self._array_cache["coords"] = (self._epoch, self._xy)
        return ids

    def add_edge_columns(self, u, v, weights: Sequence[int],
                         tags: Any) -> range:
        """Bulk edge append over parallel columns.

        ``u`` and ``v`` are int64 arrays of existing node labels of a
        dense-labelled graph; ``weights`` is a per-edge list (Python
        ints).  ``tags`` is a per-edge list, or a tag maker: a callable
        that makes the tag of an appended edge id on demand, so no
        per-edge tag is stored (it must pickle with the graph and hold
        no reference back to it).  Ids are assigned sequentially in
        column order — the same ids, orders and values as the
        equivalent :meth:`add_edge_rows` call.  Returns the ``range``
        of assigned ids.
        """
        np = _numpy()
        n = len(self._labels)
        if not self._dense_labels or (len(u) and (
                min(u.min(), v.min()) < 0 or max(u.max(), v.max()) >= n)):
            raise ValueError(f"graph {self.name!r}: column edge endpoints "
                             "must be nodes of a dense-labelled graph")
        start = len(self._eu)
        coords = self._array_cache.get("coords")
        self._eu.extend(u.tolist())
        self._ev.extend(v.tolist())
        self._ew.extend(weights)
        if callable(tags):
            self._etags.extend(repeat(None, len(u)))
            self._tag_makers.append((start, len(self._eu), tags))
        else:
            self._etags.extend(tags)
        self._dirty()
        # Edges move no node: current coordinate columns stay valid.
        if coords is not None and coords[0] == self._epoch - 1:
            self._array_cache["coords"] = (self._epoch, coords[1])
        if not start:
            self._array_cache["endpoints"] = (
                self._epoch, (np.array(u, dtype=np.int64),
                              np.array(v, dtype=np.int64)))
        return range(start, len(self._eu))

    def add_edges(self, rows: Iterable[Tuple[int, int, int, Any]]
                  ) -> List[Edge]:
        """Bulk :meth:`add_edge` over ``(u, v, weight, tag)`` rows.

        Same id assignment as :meth:`add_edge_rows`, plus materialized
        :class:`Edge` objects for callers that want them.
        """
        return [self.edge(eid) for eid in self.add_edge_rows(rows)]

    def remove_edge(self, edge_id: int) -> None:
        """Soft-remove an edge (it stays addressable by id)."""
        self._removed.add(edge_id)

    def restore_edge(self, edge_id: int) -> None:
        self._removed.discard(edge_id)

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> List[int]:
        return list(self._labels)

    def num_nodes(self) -> int:
        return len(self._labels)

    def num_edges(self) -> int:
        """Count of live (non-removed) edges."""
        return len(self._eu) - len(self._removed)

    def coord(self, node: int) -> Point:
        if self._xy is None:
            return self._coords[node]
        if not self._holds(node):
            raise KeyError(node)
        return int(self._xy[0][node]), int(self._xy[1][node])

    def has_coords(self) -> bool:
        return self._xy is not None \
            or len(self._coords) == len(self._labels)

    def _coord_or_none(self, node: int) -> Optional[Point]:
        if self._xy is None:
            return self._coords.get(node)
        return self.coord(node) if self._holds(node) else None

    def _index_of(self, node: int) -> Optional[int]:
        """A node's dense index; None for an unknown label."""
        if self._node_index is None:
            return node if self._holds(node) else None
        return self._node_index.get(node)

    def _label_array(self, np):
        """int64 label per dense index."""
        if self._dense_labels:
            return np.arange(len(self._labels), dtype=np.int64)
        return np.array(self._labels, dtype=np.int64)

    def _coord_columns(self, np):
        """``(has, xs, ys)`` per dense index: whether the node has a
        coordinate, and its coordinate (0, 0 without one)."""
        n = len(self._labels)
        if self._xy is not None:
            return np.ones(n, dtype=bool), self._xy[0], self._xy[1]
        coords = self._coords
        labels = self._labels
        has = np.fromiter(map(coords.__contains__, labels), dtype=bool,
                          count=n)
        xy = np.fromiter(chain.from_iterable(map(coords.get, labels,
                                                 repeat((0, 0), n))),
                         dtype=np.int64, count=2 * n).reshape(-1, 2)
        return has, xy[:, 0], xy[:, 1]

    def _tag(self, edge_id: int) -> Any:
        tag = self._etags[edge_id]
        if tag is None:
            for start, stop, make in self._tag_makers:
                if start <= edge_id < stop:
                    return make(edge_id)
        return tag

    def edge(self, edge_id: int) -> Edge:
        edge = self._edge_cache.get(edge_id)
        if edge is None:
            edge = Edge(edge_id, self._eu[edge_id], self._ev[edge_id],
                        self._ew[edge_id], self._tag(edge_id))
            self._edge_cache[edge_id] = edge
        return edge

    def edge_weight(self, edge_id: int) -> int:
        """Weight column lookup, no :class:`Edge` materialization."""
        return self._ew[edge_id]

    def is_removed(self, edge_id: int) -> bool:
        return edge_id in self._removed

    def removed_edge_ids(self) -> List[int]:
        """The soft-removed edge ids, ascending."""
        return sorted(self._removed)

    def edges(self, include_removed: bool = False) -> Iterator[Edge]:
        removed = self._removed
        edge = self.edge
        for eid in range(len(self._eu)):
            if include_removed or eid not in removed:
                yield edge(eid)

    def live_edge_rows(self) -> Iterator[Tuple[int, int, int, int]]:
        """``(id, u, v, weight)`` of every live edge, in id order.

        The Edge-free counterpart of :meth:`edges` for array-level
        consumers (components, gadgets, matching conversion).
        """
        removed = self._removed
        eu, ev, ew = self._eu, self._ev, self._ew
        if removed:
            for eid in range(len(eu)):
                if eid not in removed:
                    yield eid, eu[eid], ev[eid], ew[eid]
        else:
            yield from zip(range(len(eu)), eu, ev, ew)

    def incident(self, node: int, include_removed: bool = False
                 ) -> Iterator[Edge]:
        csr = self._csr or self._build_csr()
        i = self._index_of(node)
        if i is None:
            return
        removed = self._removed
        edge_ids = csr.edge_ids
        edge = self.edge
        for k in range(csr.indptr[i], csr.indptr[i + 1]):
            eid = edge_ids[k]
            if include_removed or eid not in removed:
                yield edge(eid)

    def incident_edge_ids(self, node: int) -> Sequence[int]:
        """Zero-copy view of a node's incident edge ids, ascending.

        Soft-removed edges are included (filter with
        :meth:`is_removed`); the returned object is a numpy slice *view*
        of the CSR buffer, never a freshly built list, so repeated
        queries allocate no per-edge garbage.
        """
        csr = self._csr or self._build_csr()
        i = self._index_of(node)
        if i is None:
            return ()
        return csr.eid_buf[csr.indptr[i]:csr.indptr[i + 1]]

    def degree(self, node: int) -> int:
        """Degree counting self-loops twice (graph-theoretic degree)."""
        csr = self._csr or self._build_csr()
        i = self._index_of(node)
        if i is None:
            return 0
        removed = self._removed
        neighbors = csr.neighbors
        edge_ids = csr.edge_ids
        d = 0
        for k in range(csr.indptr[i], csr.indptr[i + 1]):
            if edge_ids[k] in removed:
                continue
            d += 2 if neighbors[k] == node else 1
        return d

    def segment(self, edge_id: int) -> Tuple[Point, Point]:
        return self.coord(self._eu[edge_id]), self.coord(self._ev[edge_id])

    def total_weight(self, edge_ids: Iterable[int]) -> int:
        ew = self._ew
        return sum(ew[eid] for eid in edge_ids)

    # ------------------------------------------------------------------
    # CSR adjacency
    # ------------------------------------------------------------------
    def _dense_endpoints(self, np):
        """Cached int64 arrays of dense endpoint indices per edge."""
        cached = self._array_cache.get("endpoints")
        if cached is not None and cached[0] == self._epoch:
            return cached[1]
        n_edges = len(self._eu)
        if self._dense_labels:
            ui = np.array(self._eu, dtype=np.int64)
            vi = np.array(self._ev, dtype=np.int64)
        else:
            get = self._node_index.__getitem__
            ui = np.fromiter(map(get, self._eu), dtype=np.int64,
                             count=n_edges)
            vi = np.fromiter(map(get, self._ev), dtype=np.int64,
                             count=n_edges)
        self._array_cache["endpoints"] = (self._epoch, (ui, vi))
        return ui, vi

    def coord_arrays(self, np):
        """Cached int64 coordinate columns per dense node index.

        Raises KeyError when any node lacks a coordinate (same contract
        as :meth:`coord`).
        """
        if self._xy is not None:
            return self._xy
        cached = self._array_cache.get("coords")
        if cached is not None and cached[0] == self._epoch:
            return cached[1]
        coords = self._coords
        n = len(self._labels)
        xs = np.fromiter((coords[lab][0] for lab in self._labels),
                         dtype=np.int64, count=n)
        ys = np.fromiter((coords[lab][1] for lab in self._labels),
                         dtype=np.int64, count=n)
        self._array_cache["coords"] = (self._epoch, (xs, ys))
        return xs, ys

    def _build_csr(self) -> _CSR:
        """One vectorized pass: lexsort darts by (node, edge id)."""
        np = _numpy()
        n = len(self._labels)
        ui, vi = self._dense_endpoints(np)
        n_edges = len(self._eu)
        eids = np.arange(n_edges, dtype=np.int64)
        nonloop = ui != vi
        # Self-loops contribute a single dart, like the historical
        # adjacency lists.
        node_keys = np.concatenate([ui, vi[nonloop]])
        dart_eids = np.concatenate([eids, eids[nonloop]])
        others = np.concatenate([vi, ui[nonloop]])
        order = np.lexsort((dart_eids, node_keys))
        eid_sorted = dart_eids[order]
        other_sorted = others[order]
        counts = np.bincount(node_keys, minlength=n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        if self._dense_labels:
            neighbor_labels = other_sorted
        else:
            labels_arr = np.array(self._labels, dtype=np.int64)
            neighbor_labels = labels_arr[other_sorted]
        # Python-int mirrors for the traversal loops (plain ints hash
        # faster than numpy scalars and can never leak into reports);
        # the numpy buffer stays behind for zero-copy views.
        self._csr = _CSR(indptr.tolist(), neighbor_labels.tolist(),
                         eid_sorted.tolist(), eid_sorted)
        return self._csr

    def csr(self) -> _CSR:
        """The (lazily built) CSR adjacency table."""
        return self._csr or self._build_csr()

    # ------------------------------------------------------------------
    # Structure queries
    # ------------------------------------------------------------------
    def connected_components(self) -> List[List[int]]:
        """Components over live edges, each sorted; includes isolated
        nodes.

        Components come in the order of their smallest dense index
        (the first inserted node), from one min-label hooking pass
        (:func:`_parity_roots`) over the endpoint columns.
        """
        np = _numpy()
        n = len(self._labels)
        ui, vi = self._dense_endpoints(np)
        if self._removed:
            live = np.ones(len(ui), dtype=bool)
            live[np.fromiter(self._removed, dtype=np.int64,
                             count=len(self._removed))] = False
            ui, vi = ui[live], vi[live]
        root, _side = _parity_roots(np, n, ui, vi)
        if self._dense_labels:
            members = np.argsort(root, kind="stable").tolist()
        else:
            label = np.array(self._labels, dtype=np.int64)
            members = label[np.lexsort((label, root))].tolist()
        sizes = np.bincount(root, minlength=n)
        ends = np.cumsum(sizes[sizes > 0]).tolist()
        return [members[start:end]
                for start, end in zip([0] + ends, ends)]

    def subgraph(self, nodes: Iterable[int]) -> "GeomGraph":
        """Live-edge induced subgraph (edge ids are re-numbered; original
        ids preserved in each edge's tag as ``("orig", id, tag)``)."""
        node_set = set(nodes)
        out = GeomGraph(name=f"{self.name}#sub")
        ordered = sorted(node_set)
        out.add_nodes(ordered, list(map(self._coord_or_none, ordered)))
        tag = self._tag
        rows = [(u, v, w, ("orig", eid, tag(eid)))
                for eid, u, v, w in self.live_edge_rows()
                if u in node_set and v in node_set]
        out.add_edge_rows(rows)
        return out

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"GeomGraph(name={self.name!r}, nodes={len(self._labels)}, "
                f"edges={len(self._eu)}, removed={len(self._removed)})")

    def __getstate__(self):
        # Caches are cheap to rebuild; strip them so pickled graphs in
        # the store carry only the columns.
        state = self.__dict__.copy()
        state["_csr"] = None
        state["_edge_cache"] = {}
        state["_array_cache"] = {}
        return state
