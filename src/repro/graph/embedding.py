"""Planar embedding of a crossing-free straight-line drawing.

After greedy planarization the graph drawing is a plane straight-line
graph, so its combinatorial embedding is simply the angular order of
edges around every node.  Faces are the orbits of the classic
next-dart permutation; the geometric dual and the odd-face set T fall
out of the face table.

All angle comparisons are exact (integer cross products), so the face
structure is deterministic and independent of floating-point behaviour.

The builder is array-native: darts are dense integers ``2*k + bit``
over the live-edge list, rotations come from one numpy batch
half-plane-key + integer-cross-product ranking over *all* darts at
once, and the face walk runs over a flat next-dart permutation.  The
dict/tuple views (``rotations`` / ``faces`` / ``face_of``) materialize
lazily for consumers that want them; the hot consumers (the dual
builder) read the flat arrays.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..obs import get_tracer
from .geomgraph import GeomGraph, _numpy, _parity_roots

# A dart is a directed copy of an edge: (edge_id, 0) runs u -> v,
# (edge_id, 1) runs v -> u.
Dart = Tuple[int, int]


class PlanarEmbedding:
    """Rotation system + face table of a plane straight-line graph.

    Backed by flat dart arrays; the mapping-shaped attributes of the
    historical implementation (``rotations``, ``faces``, ``face_of``)
    are materialized on first access and cached.

    Attributes:
        graph: the underlying (crossing-free) geometric graph.
        rotations: per node, incident darts in CCW angular order.
        faces: list of faces, each a list of darts forming the boundary
            walk; a bridge contributes both of its darts to the same
            face.
        face_of: face index of every dart.
    """

    def __init__(self, graph: GeomGraph, live_edges: List[int],
                 rot: List[int], rot_indptr: List[int],
                 next_dart: List[int], dart_face: List[int],
                 face_lens: List[int], face_seeds: List[int]) -> None:
        self.graph = graph
        # Dart d encodes (live_edges[d >> 1], d & 1).
        self._live_edges = live_edges
        self._rot = rot                  # darts grouped by node, CCW
        self._rot_indptr = rot_indptr    # per dense node index
        self._next = next_dart           # face-walk successor per dart
        self._dart_face = dart_face      # face index per dart
        self._face_lens = face_lens
        self._face_seeds = face_seeds    # first dart of each face
        self._edge_pos: Optional[Dict[int, int]] = None
        self._rotations: Optional[Dict[int, List[Dart]]] = None
        self._faces: Optional[List[List[Dart]]] = None
        self._face_of: Optional[Dict[Dart, int]] = None

    # ------------------------------------------------------------------
    # Array-level queries (no dict materialization)
    # ------------------------------------------------------------------
    @property
    def num_faces(self) -> int:
        return len(self._face_lens)

    def face_length(self, face_index: int) -> int:
        return self._face_lens[face_index]

    def odd_faces(self) -> List[int]:
        """Faces with an odd boundary walk — the T set for the dual T-join.

        A (component of a) plane graph is bipartite iff it has no odd
        face, because face boundaries generate the cycle space over
        GF(2) and a bridge appears twice in its face walk (contributing
        even length).
        """
        return [i for i, n in enumerate(self._face_lens) if n % 2 == 1]

    def edge_faces(self, edge_id: int) -> Tuple[int, int]:
        """The two (possibly equal) faces bordering an edge."""
        pos = self._edge_pos
        if pos is None:
            pos = {eid: k for k, eid in enumerate(self._live_edges)}
            self._edge_pos = pos
        k = pos[edge_id]
        return (self._dart_face[2 * k], self._dart_face[2 * k + 1])

    def edge_face_columns(self) -> Tuple[List[int], List[int], List[int]]:
        """``(live edge ids, left faces, right faces)`` columns, id order.

        The dual builder's fast path: column ``k`` is
        ``edge_faces(live_edge_ids[k])`` without the per-edge lookups.
        """
        return (self._live_edges, self._dart_face[0::2],
                self._dart_face[1::2])

    def euler_check(self) -> bool:
        """F == E - V + 2C over the embedded edges (Euler's formula).

        V counts the nodes those edges touch and C their components:
        each component has its own unbounded face in our per-component
        face accounting, and a node no embedded edge touches has none.
        """
        np = _numpy()
        ui, vi = self.graph._dense_endpoints(np)
        edges = np.asarray(self._live_edges, dtype=np.int64)
        u, v = ui[edges], vi[edges]
        root, _side = _parity_roots(np, self.graph.num_nodes(), u, v)
        touched = np.union1d(u, v)
        components = len(np.unique(root[touched]))
        return len(self._face_lens) == \
            len(edges) - len(touched) + 2 * components

    # ------------------------------------------------------------------
    # Materialized views (lazy, for tests and exploratory callers)
    # ------------------------------------------------------------------
    @property
    def rotations(self) -> Dict[int, List[Dart]]:
        if self._rotations is None:
            indptr = self._rot_indptr
            rot = self._rot
            live = self._live_edges
            self._rotations = {
                node: [(live[d >> 1], d & 1)
                       for d in rot[indptr[i]:indptr[i + 1]]]
                for i, node in enumerate(self.graph.nodes)}
        return self._rotations

    @property
    def faces(self) -> List[List[Dart]]:
        if self._faces is None:
            nxt = self._next
            live = self._live_edges
            faces: List[List[Dart]] = []
            for seed in self._face_seeds:
                walk = [(live[seed >> 1], seed & 1)]
                cur = nxt[seed]
                while cur != seed:
                    walk.append((live[cur >> 1], cur & 1))
                    cur = nxt[cur]
                faces.append(walk)
            self._faces = faces
        return self._faces

    @property
    def face_of(self) -> Dict[Dart, int]:
        if self._face_of is None:
            live = self._live_edges
            self._face_of = {
                (live[d >> 1], d & 1): f
                for d, f in enumerate(self._dart_face)}
        return self._face_of


def build_embedding(graph: GeomGraph,
                    edges: Optional[Sequence[int]] = None
                    ) -> PlanarEmbedding:
    """Compute rotations and faces of a crossing-free drawing.

    Requires coordinates on every node and no self-loops; callers run
    :func:`repro.graph.crossings.greedy_planarize` first, which also
    guarantees no two darts at a node share a direction.

    ``edges`` embeds only those live edge ids, ascending; None embeds
    every live edge.  When they are whole components of the live graph,
    every face is a face of the whole embedding: face orbits never
    leave a component, and faces and darts keep their relative order.
    Counts the darts walked (``embedding.darts``) on the active tracer.
    """
    if edges is None:
        removed = graph._removed
        n_edges = len(graph._eu)
        if removed:
            live = [eid for eid in range(n_edges) if eid not in removed]
        else:
            live = list(range(n_edges))
    else:
        live = list(edges)
    get_tracer().count("embedding.darts", 2 * len(live))
    eu, ev = graph._eu, graph._ev
    for eid in live:
        if eu[eid] == ev[eid]:
            raise ValueError("embedding does not support self-loops")

    rot, rot_indptr, next_dart = _rotation_arrays(graph, live)

    # Face orbits.  Seeds scan the rotation array in order — nodes in
    # insertion order, darts CCW within a node — reproducing the
    # historical face enumeration (and with it every dual node id).
    dart_face = [-1] * (2 * len(live))
    face_lens: List[int] = []
    face_seeds: List[int] = []
    for seed in rot:
        if dart_face[seed] != -1:
            continue
        face = len(face_lens)
        face_seeds.append(seed)
        dart_face[seed] = face
        length = 1
        cur = next_dart[seed]
        while cur != seed:
            dart_face[cur] = face
            length += 1
            cur = next_dart[cur]
        face_lens.append(length)

    return PlanarEmbedding(graph=graph, live_edges=live, rot=rot,
                           rot_indptr=rot_indptr, next_dart=next_dart,
                           dart_face=dart_face, face_lens=face_lens,
                           face_seeds=face_seeds)


def _rotation_arrays(graph: GeomGraph, live: List[int]):
    """Batch CCW rotation build over all darts at once.

    Per-dart half-plane keys plus exact int64 cross products rank every
    dart within its origin's rotation in one vectorized pass (degrees
    in planarized conflict graphs are small, so the per-node all-pairs
    comparison count stays linear in practice); the next-dart
    permutation then falls out of pure array arithmetic.
    """
    np = _numpy()
    xs, ys = graph.coord_arrays(np)
    ui_all, vi_all = graph._dense_endpoints(np)
    le = np.array(live, dtype=np.int64)
    ui = ui_all[le]
    vi = vi_all[le]
    n_darts = 2 * len(live)

    # Dart d = 2*k + bit: origin/target dense node indices.
    origin = np.empty(n_darts, dtype=np.int64)
    target = np.empty(n_darts, dtype=np.int64)
    origin[0::2] = ui
    origin[1::2] = vi
    target[0::2] = vi
    target[1::2] = ui
    dx = xs[target] - xs[origin]
    dy = ys[target] - ys[origin]
    # Half-plane key: 0 for directions in [0, pi), 1 for [pi, 2*pi).
    # A zero-length dart (coincident endpoints — duplicate rects make
    # them) has direction (0, 0) and takes key 1.
    half = (~((dy > 0) | ((dy == 0) & (dx > 0)))).astype(np.int8)

    # Group darts by origin node.
    n_nodes = graph.num_nodes()
    counts = np.bincount(origin, minlength=n_nodes)
    indptr = np.zeros(n_nodes + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    order = np.argsort(origin, kind="stable")

    # All intra-node dart pairs (i < j in grouped position): the
    # blocked repeat/arange construction of the geometry kernels.
    grouped_origin = origin[order]
    local = np.arange(n_darts, dtype=np.int64) - indptr[grouped_origin]
    reps = counts[grouped_origin] - 1 - local
    pair_i = np.repeat(np.arange(n_darts, dtype=np.int64), reps)
    block_start = np.repeat(np.cumsum(reps) - reps, reps)
    pair_j = pair_i + 1 + (np.arange(len(pair_i), dtype=np.int64)
                           - block_start)

    gh = half[order]
    gdx = dx[order]
    gdy = dy[order]
    hi, hj = gh[pair_i], gh[pair_j]
    cross = gdx[pair_i] * gdy[pair_j] - gdy[pair_i] * gdx[pair_j]
    # "i before j" in CCW order.  Planarization leaves no two equal
    # directions at a node, so a tie (cross == 0, same half) only
    # arises against a zero-length dart; the earlier grouped dart
    # (lower edge id) goes first.
    i_first = (hi < hj) | ((hi == hj) & (cross >= 0))
    rank = np.bincount(np.where(i_first, pair_j, pair_i),
                       minlength=n_darts)

    # CCW rotation array: stable refinement of the origin grouping by
    # rank.  pos is its inverse permutation (global slot per dart).
    rot = order[np.lexsort((rank, grouped_origin))]
    pos = np.empty(n_darts, dtype=np.int64)
    pos[rot] = np.arange(n_darts, dtype=np.int64)

    # Face-walk successor: reverse the dart, then step clockwise in the
    # reverse dart's ring.
    reverse = np.arange(n_darts, dtype=np.int64) ^ 1
    head = origin[reverse]
    start = indptr[head]
    size = counts[head]
    next_dart = rot[start + (pos[reverse] - start - 1) % size]

    return rot.tolist(), indptr.tolist(), next_dart.tolist()

