"""Differential suite for the flat-array graph core.

The graph core has one implementation: a numpy CSR build and a numpy
batch embedding.  Its oracles live here:

* :class:`RefGraph`, an in-test dict-of-lists reference reproducing the
  historical GeomGraph semantics (per-edge adjacency appends, per-node
  comparison-sorted rotations);
* :func:`scalar_csr` and :func:`scalar_rotation_arrays`, pure-Python
  builders of the CSR table and the rotation arrays, swapped in behind
  the production builders by :func:`use_graph_core`.

The randomized cases assert the numpy implementation matches them on
node/edge ids, iteration order, incidence order, components, and
embedding rotation systems and faces, across >= 50 seeds; the
duplicate-stratum case covers zero-length darts.  Components are also
checked against the per-node DFS in ``tests/oracles.py`` on flow
graphs: planarized PCGs, raw and simple duals, sparse-label dual
subgraphs and gadget graphs.
"""

from __future__ import annotations

import functools
import random

import pytest

from repro.conflict import build_layout_conflict_graph
from repro.graph import (GeomGraph, build_dual, build_embedding,
                         build_gadget_graph, decompose)
from repro.graph import embedding as embedding_mod
from repro.graph.crossings import greedy_planarize
from repro.graph.dual import simple_dual
from repro.graph.geomgraph import _CSR
from repro.scenarios import build_scenario, stratum_names

from ..oracles import scalar_connected_components

np = pytest.importorskip("numpy")

SEEDS = list(range(60))


# ----------------------------------------------------------------------
# Reference implementation (historical dict-of-lists semantics)
# ----------------------------------------------------------------------
def half(dx, dy):
    """0 for directions in [0, pi), 1 for [pi, 2*pi) — exact.  The zero
    direction of a zero-length dart takes 1."""
    if dy > 0 or (dy == 0 and dx > 0):
        return 0
    return 1


def direction_cmp(d1, d2):
    """Exact counter-clockwise comparison of two directions."""
    h1 = half(*d1)
    h2 = half(*d2)
    if h1 != h2:
        return -1 if h1 < h2 else 1
    cross = d1[0] * d2[1] - d1[1] * d2[0]
    if cross > 0:
        return -1
    if cross < 0:
        return 1
    return 0


def ccw_sort(darts, dirs):
    """Sort ``darts`` in place into CCW order of ``dirs[dart]``."""
    darts.sort(key=functools.cmp_to_key(
        lambda a, b: direction_cmp(dirs[a], dirs[b])))


class RefGraph:
    """Append-order adjacency lists: the pre-flat-core behaviour."""

    def __init__(self):
        self.nodes = []
        self.node_set = set()
        self.coords = {}
        self.edges = []            # (id, u, v, w)
        self.adjacency = {}        # node -> [edge id] in append order
        self.removed = set()

    @classmethod
    def of(cls, graph):
        """The reference twin of an existing graph."""
        ref = cls()
        for node in graph.nodes:
            ref.add_node(node, graph.coord(node))
        for e in graph.edges(include_removed=True):
            ref.add_edge(e.u, e.v, e.weight)
            if graph.is_removed(e.id):
                ref.removed.add(e.id)
        return ref

    def add_node(self, node, coord=None):
        if node not in self.node_set:
            self.node_set.add(node)
            self.nodes.append(node)
            self.adjacency[node] = []
        if coord is not None:
            self.coords[node] = coord

    def add_edge(self, u, v, w):
        self.add_node(u)
        self.add_node(v)
        eid = len(self.edges)
        self.edges.append((eid, u, v, w))
        self.adjacency[u].append(eid)
        if u != v:
            self.adjacency[v].append(eid)
        return eid

    def incident_ids(self, node):
        return [eid for eid in self.adjacency[node]
                if eid not in self.removed]

    def components(self):
        seen = set()
        out = []
        for start in self.nodes:
            if start in seen:
                continue
            seen.add(start)
            stack = [start]
            comp = []
            while stack:
                node = stack.pop()
                comp.append(node)
                for eid in self.incident_ids(node):
                    _, u, v, _w = self.edges[eid]
                    nxt = v if u == node else u
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
            out.append(sorted(comp))
        return out

    def rotations(self, live_only=True):
        """Per-node CCW dart order via the historical cmp sort."""
        rot = {}
        for node in self.nodes:
            darts = []
            dirs = {}
            ox, oy = self.coords[node]
            for eid in self.incident_ids(node):
                _, u, v, _w = self.edges[eid]
                dart = (eid, 0 if u == node else 1)
                other = v if u == node else u
                tx, ty = self.coords[other]
                darts.append(dart)
                dirs[dart] = (tx - ox, ty - oy)
            ccw_sort(darts, dirs)
            rot[node] = darts
        return rot


# ----------------------------------------------------------------------
# Scalar oracles for the production builders
# ----------------------------------------------------------------------
def scalar_csr(graph):
    """Pure-Python CSR build: per-node adjacency appends in edge-id
    order, self-loops contributing one dart."""
    n = graph.num_nodes()
    index = graph._node_index
    adj_eids = [[] for _ in range(n)]
    adj_nbrs = [[] for _ in range(n)]
    for eid, (u, v) in enumerate(zip(graph._eu, graph._ev)):
        i = index[u]
        adj_eids[i].append(eid)
        adj_nbrs[i].append(v)
        if u != v:
            j = index[v]
            adj_eids[j].append(eid)
            adj_nbrs[j].append(u)
    indptr = [0]
    edge_ids = []
    neighbors = []
    for eids, nbrs in zip(adj_eids, adj_nbrs):
        edge_ids.extend(eids)
        neighbors.extend(nbrs)
        indptr.append(len(edge_ids))
    return _CSR(indptr, neighbors, edge_ids,
                np.array(edge_ids, dtype=np.int64))


def scalar_rotation_arrays(graph, live):
    """Per-node comparison sort of each node's darts, taken in
    ascending edge-id order; same contract as the batch builder."""
    eu, ev = graph._eu, graph._ev
    index = graph._node_index
    coords = graph._coords

    incident = [[] for _ in range(graph.num_nodes())]
    for k, eid in enumerate(live):
        incident[index[eu[eid]]].append(2 * k)
        incident[index[ev[eid]]].append(2 * k + 1)

    rot = []
    rot_indptr = [0]
    pos = [0] * (2 * len(live))
    dart_origin = [0] * (2 * len(live))
    for node in graph.nodes:
        i = index[node]
        darts = incident[i]
        ox, oy = coords[node]
        dirs = {}
        for d in darts:
            eid = live[d >> 1]
            tx, ty = coords[ev[eid] if d & 1 == 0 else eu[eid]]
            dirs[d] = (tx - ox, ty - oy)
            dart_origin[d] = i
        ccw_sort(darts, dirs)
        for d in darts:
            pos[d] = len(rot)
            rot.append(d)
        rot_indptr.append(len(rot))

    next_dart = [0] * (2 * len(live))
    for d in range(2 * len(live)):
        reverse = d ^ 1
        ring_start = rot_indptr[dart_origin[reverse]]
        ring_len = rot_indptr[dart_origin[reverse] + 1] - ring_start
        local = pos[reverse] - ring_start
        next_dart[d] = rot[ring_start + (local - 1) % ring_len]
    return rot, rot_indptr, next_dart


def _build_scalar_csr(graph):
    graph._csr = scalar_csr(graph)
    return graph._csr


def use_graph_core(monkeypatch, mode):
    """"scalar": swap both scalar oracles in behind the production
    builders; "numpy": leave the production builders in place."""
    if mode == "scalar":
        monkeypatch.setattr(GeomGraph, "_build_csr", _build_scalar_csr)
        monkeypatch.setattr(embedding_mod, "_rotation_arrays",
                            scalar_rotation_arrays)


def random_graph(seed, n_nodes=None, with_coords=True, allow_remove=True):
    """A random multigraph built through mixed scalar/bulk calls.

    Construction order is randomized per seed so id assignment is
    exercised across interleavings of add_node / add_edge /
    add_nodes / add_edge_rows.
    """
    rng = random.Random(seed)
    n = n_nodes or rng.randint(2, 40)
    g = GeomGraph(name=f"fuzz-{seed}")
    ref = RefGraph()
    coords = {}
    for node in range(n):
        # Distinct coordinates keep embeddings well-defined.
        coords[node] = (rng.randint(0, 500) * 2 * n + 2 * node,
                        rng.randint(0, 500) * 2 * n + 2 * node)

    pending = []
    for node in rng.sample(range(n), n):
        c = coords[node] if with_coords else None
        if rng.random() < 0.5:
            g.add_node(node, c)
            ref.add_node(node, c)
        else:
            pending.append((node, c))
    if pending:
        g.add_nodes([p[0] for p in pending], [p[1] for p in pending])
        for node, c in pending:
            ref.add_node(node, c)

    n_edges = rng.randint(0, 3 * n)
    rows = []
    for _ in range(n_edges):
        u = rng.randrange(n)
        v = rng.randrange(n)
        w = rng.randint(1, 1 << 40)
        if rng.random() < 0.6:
            rows.append((u, v, w, None))
        else:
            if rows:
                for ru, rv, rw, _t in rows:
                    ref.add_edge(ru, rv, rw)
                g.add_edge_rows(rows)
                rows = []
            g.add_edge(u, v, w)
            ref.add_edge(u, v, w)
    if rows:
        for ru, rv, rw, _t in rows:
            ref.add_edge(ru, rv, rw)
        g.add_edge_rows(rows)

    if allow_remove and ref.edges:
        for eid in rng.sample(range(len(ref.edges)),
                              rng.randint(0, len(ref.edges) // 3)):
            g.remove_edge(eid)
            ref.removed.add(eid)
    return g, ref


# ----------------------------------------------------------------------
# Ids, iteration order, incidence, components
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("mode", ["scalar", "numpy"])
def test_ids_incidence_components_match_reference(seed, mode, monkeypatch):
    use_graph_core(monkeypatch, mode)
    g, ref = random_graph(seed)

    assert g.nodes == ref.nodes
    assert [(e.id, e.u, e.v, e.weight) for e in g.edges()] == \
        [e for e in ref.edges if e[0] not in ref.removed]
    assert list(g.live_edge_rows()) == \
        [e for e in ref.edges if e[0] not in ref.removed]
    for node in ref.nodes:
        assert [e.id for e in g.incident(node)] == ref.incident_ids(node)
        live = ref.incident_ids(node)
        view_ids = [eid for eid in g.incident_edge_ids(node)
                    if not g.is_removed(eid)]
        assert view_ids == live
    assert g.connected_components() == ref.components()


@pytest.mark.parametrize("seed", SEEDS[:20])
def test_scalar_and_numpy_csr_identical(seed):
    g1, _ = random_graph(seed)
    g2, _ = random_graph(seed)
    csr1 = scalar_csr(g1)
    csr2 = g2.csr()
    assert csr1.indptr == csr2.indptr
    assert csr1.neighbors == csr2.neighbors
    assert csr1.edge_ids == csr2.edge_ids
    # Traversal mirrors must be plain Python ints, never numpy scalars.
    assert all(type(x) is int for x in csr2.neighbors)
    assert all(type(x) is int for x in csr2.edge_ids)


@pytest.mark.parametrize("seed", SEEDS[:20])
def test_components_decomposition_matches_reference(seed):
    g, ref = random_graph(seed)
    parts = decompose(g)
    comps = [[] for _ in range(len(parts))]
    for node, comp in zip(g.nodes, parts.comp.tolist()):
        comps[comp].append(node)
    assert [sorted(c) for c in comps] == \
        sorted(ref.components(), key=lambda c: c[0])


def flow_graphs(stratum, seed):
    """A scenario's planarized PCG (soft-removed crossing edges), its
    raw and simple duals, the T-bearing dual subgraph (sparse labels)
    and that subgraph's gadget graph."""
    s = build_scenario(stratum, seed)
    cg, _s, _p = build_layout_conflict_graph(s.layout, s.tech)
    greedy_planarize(cg.graph)
    dual = build_dual(build_embedding(cg.graph))
    out = [cg.graph, dual.graph, simple_dual(dual).graph]
    relevant = {n for comp in scalar_connected_components(dual.graph)
                if dual.tset.intersection(comp) for n in comp}
    if relevant:
        sub = dual.graph.subgraph(relevant)
        out += [sub, build_gadget_graph(sub, dual.tset).matching_graph]
    return out


@pytest.mark.parametrize("stratum", stratum_names())
def test_components_match_dfs_oracle_on_flow_graphs(stratum):
    for seed in range(3):
        for g in flow_graphs(stratum, seed):
            assert g.connected_components() == \
                scalar_connected_components(g)
            # Soft-remove every third live edge on top.
            for eid, *_row in list(g.live_edge_rows())[::3]:
                g.remove_edge(eid)
            assert g.connected_components() == \
                scalar_connected_components(g)


def test_flow_graphs_cover_removed_edges_and_sparse_labels():
    assert flow_graphs("duplicate", 0)[0]._removed
    assert not flow_graphs("boundary", 0)[3]._dense_labels


@pytest.mark.parametrize("seed", SEEDS)
def test_components_match_dfs_oracle_on_random_graphs(seed):
    g, _ref = random_graph(seed)
    rng = random.Random(seed)
    # Sparse, unordered labels: nodes inserted far from 0..n-1.
    sparse = GeomGraph()
    for node in rng.sample(range(-50, 500), rng.randint(1, 30)):
        sparse.add_node(node)
    labels = sparse.nodes
    sparse.add_edge_rows([(rng.choice(labels), rng.choice(labels), 1, None)
                          for _ in range(rng.randint(0, 40))])
    for eid in rng.sample(range(len(sparse._eu)), len(sparse._eu) // 4):
        sparse.remove_edge(eid)
    for graph in (g, sparse):
        assert graph.connected_components() == \
            scalar_connected_components(graph)


def test_components_of_edge_cases():
    assert GeomGraph().connected_components() == []
    g = GeomGraph()
    g.add_nodes([4, 1, 9])
    g.add_edge(9, 1)
    g.add_edge(4, 4)
    assert g.connected_components() == [[4], [1, 9]] == \
        scalar_connected_components(g)
    g.remove_edge(0)
    assert g.connected_components() == [[4], [1], [9]] == \
        scalar_connected_components(g)


# ----------------------------------------------------------------------
# Embedding rotation systems
# ----------------------------------------------------------------------
def planar_case(seed):
    """A planarized random drawing plus its reference twin."""
    g, ref = random_graph(seed, allow_remove=False)
    # Embeddings reject self-loops: drop them the same way on both.
    for eid, u, v, _w in list(g.live_edge_rows()):
        if u == v:
            g.remove_edge(eid)
            ref.removed.add(eid)
    for eid in greedy_planarize(g):
        ref.removed.add(eid)
    return g, ref


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("mode", ["scalar", "numpy"])
def test_embedding_rotations_match_reference(seed, mode, monkeypatch):
    use_graph_core(monkeypatch, mode)
    g, ref = planar_case(seed)
    emb = build_embedding(g)
    assert emb.rotations == ref.rotations()


@pytest.mark.parametrize("seed", SEEDS[:25])
def test_embedding_scalar_numpy_identical(seed, monkeypatch):
    g, _ = planar_case(seed)
    vector = build_embedding(g)
    use_graph_core(monkeypatch, "scalar")
    scalar = build_embedding(g)
    assert scalar.rotations == vector.rotations
    assert scalar.faces == vector.faces
    assert scalar.face_of == vector.face_of
    live = [eid for eid, _u, _v, _w in g.live_edge_rows()]
    for eid in live:
        assert scalar.edge_faces(eid) == vector.edge_faces(eid)
    assert scalar.odd_faces() == vector.odd_faces()
    assert scalar.euler_check() and vector.euler_check()


def side_by_side(graphs):
    """One graph holding every input graph as its own components:
    labels offset, coordinates, edge order and removals kept."""
    out = GeomGraph(name="side-by-side")
    offset = 0
    for g in graphs:
        out.add_nodes([offset + n for n in g.nodes],
                      [g.coord(n) for n in g.nodes])
        edges = list(g.edges(include_removed=True))
        ids = out.add_edge_rows([(offset + e.u, offset + e.v, e.weight,
                                  None) for e in edges])
        for e, eid in zip(edges, ids):
            if g.is_removed(e.id):
                out.remove_edge(eid)
        offset += max(g.nodes, default=-1) + 1
    return out


def test_zero_length_darts_match_reference():
    """Duplicate rects put coincident shifter nodes, and so zero-length
    edges, into the planarized conflict graph.  The batch embedding
    must order those darts exactly as the reference sort does: the
    zero direction takes the lower half-plane key.  The stratum's
    graphs are embedded side by side, as one batch."""
    graphs = []
    for seed in list(range(3)) + list(range(1000, 1058)):
        s = build_scenario("duplicate", seed)
        cg, _shifters, _pairs = build_layout_conflict_graph(s.layout,
                                                            s.tech)
        greedy_planarize(cg.graph)
        graphs.append(cg.graph)
    g = side_by_side(graphs)
    assert any(g.coord(u) == g.coord(v)
               for _eid, u, v, _w in g.live_edge_rows())
    assert build_embedding(g).rotations == RefGraph.of(g).rotations()


# ----------------------------------------------------------------------
# Satellite: incident_edge_ids hands out zero-copy views
# ----------------------------------------------------------------------
def test_incident_edge_ids_zero_copy():
    g, _ = random_graph(7, n_nodes=30)
    node = g.nodes[0]
    view = g.incident_edge_ids(node)
    # A numpy slice view shares the CSR buffer.
    assert isinstance(view, np.ndarray)
    assert view.base is g.csr().eid_buf


def test_incident_edge_ids_allocation_bound():
    """Repeated incidence queries allocate view-sized garbage only."""
    import tracemalloc

    g, _ = random_graph(11, n_nodes=60)
    nodes = g.nodes
    g.csr()  # build outside the measured window
    for node in nodes:
        g.incident_edge_ids(node)

    tracemalloc.start()
    before = tracemalloc.take_snapshot()
    for _ in range(50):
        for node in nodes:
            g.incident_edge_ids(node)
    after = tracemalloc.take_snapshot()
    tracemalloc.stop()
    added = sum(s.size_diff for s in after.compare_to(before, "lineno")
                if s.size_diff > 0)
    # 3000 queries of list-building would allocate megabytes; views keep
    # the residual footprint within a small fixed overhead.
    assert added < 64 * 1024


def test_getstate_strips_unpicklable_caches():
    import pickle

    g, _ = random_graph(3)
    for node in g.nodes:
        g.incident_edge_ids(node)  # builds the CSR cache
    clone = pickle.loads(pickle.dumps(g))
    assert clone._csr is None
    assert clone.nodes == g.nodes
    assert list(clone.live_edge_rows()) == list(g.live_edge_rows())
    assert clone.connected_components() == g.connected_components()
