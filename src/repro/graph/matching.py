"""Minimum-weight perfect matching for the T-join gadget reduction.

The gadget reduction hands this module its matching instances.  On
one traced cold-chip operation (seed 17) they hold 1,098 nodes in 162
components, and matching takes 15.5 ms of the 85 ms
``detect_conflicts`` is busy; before the T-join instance lost its
degree-2 faces they held 4,902 nodes in 182 components and took 73.0
of 157 ms, the detector's largest single cost.  The driver,
:func:`min_weight_perfect_matching`, collapses parallel edges, splits
the graph into connected components (both in column passes), and hands
each component to the matcher :func:`get_matcher` returns: the
dedicated integer-weight flat-array solver of :mod:`repro.graph.blossom`,
which checks an exact integer dual certificate on every component.

The detection flow's weights are tie-free, so each minimum-weight
perfect matching it asks for — and with it every T-join, flow report
and cached artifact — is unique: one certified exact solver is all the
detector needs.  The networkx and brute-force matchers it is checked
against are test oracles (``tests/oracles.py``), swapped in behind
:func:`get_matcher`.
"""

from __future__ import annotations

import time
from typing import List, Sequence, Tuple

from ..obs import get_tracer
from .blossom import MatchingCertificateError, max_weight_matching
from .geomgraph import GeomGraph, _numpy, _parity_roots

#: One component's collapsed edge: (local u, local v, min-weight).
LocalEdge = Tuple[int, int, int]


class NoPerfectMatchingError(ValueError):
    """Raised when the graph admits no perfect matching."""


class MatcherBackend:
    """One exact minimum-weight perfect matching engine.

    The driver (:func:`min_weight_perfect_matching`) collapses
    parallel edges, splits the graph into connected components, and
    calls :meth:`match` once per component with dense local node ids.
    The contract is exactness: return *a* minimum-weight perfect
    matching of the component (on the tie-free graphs the flow
    produces it is the only one).
    """

    name = "abstract"

    def match(self, nvertex: int, edges: Sequence[LocalEdge],
              transform: int) -> Tuple[List[int], int]:
        """Match one connected component.

        Args:
            nvertex: local node ids are ``0..nvertex-1`` (even).
            edges: collapsed component edges ``(u, v, weight)``.
            transform: the constant ``C`` such that max-weight
                max-cardinality matching on ``C - weight`` equals
                min-weight perfect matching on ``weight`` (all perfect
                matchings have ``nvertex/2`` edges, so any ``C`` works;
                the driver picks ``global_max_weight + 1`` to keep
                transformed weights positive).

        Returns:
            ``(positions, phases)``: indices into ``edges`` of the
            matched edges, and a work counter (augmentation stages; 0
            when the matcher does not report one).  Return fewer than
            ``nvertex/2`` positions when no perfect matching exists —
            the driver raises :class:`NoPerfectMatchingError`.
        """
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<MatcherBackend {self.name}>"


class BlossomMatcher(MatcherBackend):
    """The native flat-array integer blossom solver (certified)."""

    name = "blossom"

    def match(self, nvertex: int, edges: Sequence[LocalEdge],
              transform: int) -> Tuple[List[int], int]:
        mate_edge, stages = max_weight_matching(
            nvertex, [(u, v, transform - w) for (u, v, w) in edges],
            maxcardinality=True, certify=True)
        positions = sorted({k for k in mate_edge if k != -1})
        return positions, stages


def get_matcher() -> MatcherBackend:
    """The matcher: the certified integer blossom solver."""
    return BlossomMatcher()


def min_weight_perfect_matching(graph: GeomGraph) -> List[int]:
    """Edge ids of a minimum-weight perfect matching.

    Parallel edges are collapsed to the cheapest representative (a more
    expensive parallel edge can never appear in a minimum matching) and
    self-loops are ignored (they can never be matched).  The problem
    decomposes over connected components, and blossom is super-linear,
    so each component is matched separately — a large win on the highly
    fragmented gadget graphs the detection flow produces.

    Both steps are column passes over the graph's endpoint columns: a
    sort groups the edges by node pair, a lexsort keeps the lightest of
    each pair (ties to the first edge id) when any pair has two, and
    :func:`_parity_roots` labels the components.  Components come in
    order of their first node, each with its nodes in insertion order
    and its pairs in order of their first edge, every pair oriented
    from its smaller node label.
    """
    n = graph.num_nodes()
    if n % 2 == 1:
        raise NoPerfectMatchingError(f"odd node count {n}")
    if n == 0:
        return []

    np = _numpy()
    backend = get_matcher()
    t0 = time.perf_counter()

    ui, vi = graph._dense_endpoints(np)
    live = ui != vi
    if graph._removed:
        live[list(graph._removed)] = False
    eids = np.flatnonzero(live)
    lo = np.minimum(ui[eids], vi[eids])
    hi = np.maximum(ui[eids], vi[eids])
    pair = lo * n + hi
    ew = graph._ew
    order = np.argsort(pair, kind="stable")
    head = np.flatnonzero(np.diff(pair[order], prepend=-1))
    first = order[head]                     # each pair's first edge
    kept = first
    if len(head) < len(order):
        # Parallel edges: the lightest of each pair, ties in id order,
        # weights compared as exact Python ints.
        weight = np.array(ew, dtype=object)[eids]
        kept = np.lexsort((weight, pair))[head]

    root, _side = _parity_roots(np, n, lo[kept], hi[kept])
    members = np.argsort(root, kind="stable")
    sizes = np.bincount(root, minlength=n)
    starts = np.cumsum(sizes) - sizes
    local = np.empty(n, dtype=np.int64)
    local[members] = np.arange(n, dtype=np.int64) - starts[root[members]]

    # List pairs component by component, in order of their first edge,
    # each oriented from its smaller label.
    by_comp = np.lexsort((first, root[lo[kept]]))
    kept = kept[by_comp]
    u, v = lo[kept], hi[kept]
    if not graph._dense_labels:
        label = np.array(graph._labels, dtype=np.int64)
        swap = label[u] > label[v]
        u, v = np.where(swap, v, u), np.where(swap, u, v)
    edge_ids = eids[kept].tolist()
    rows = list(zip(local[u].tolist(), local[v].tolist(),
                    map(ew.__getitem__, edge_ids)))
    edge_ends = np.cumsum(np.bincount(root[u], minlength=n)).tolist()

    # Any constant beats the max weight; +1 keeps transformed weights
    # positive.  Global (not per-component) to match the historical
    # reduction exactly.
    transform = max(map(ew.__getitem__, edge_ids)) + 1 if edge_ids else 1

    matched: List[int] = []
    phases = 0
    roots = np.flatnonzero(sizes).tolist()
    for comp_root, size in zip(roots, sizes[roots].tolist()):
        if size % 2 == 1:
            raise NoPerfectMatchingError(f"odd component of {size} nodes")
        lo_edge = edge_ends[comp_root - 1] if comp_root else 0
        hi_edge = edge_ends[comp_root]
        positions, comp_phases = backend.match(
            size, rows[lo_edge:hi_edge], transform)
        phases += comp_phases
        if 2 * len(positions) != size:
            raise NoPerfectMatchingError(
                f"matched {2 * len(positions)} of {size} nodes "
                "in a component")
        matched.extend(edge_ids[lo_edge + pos] for pos in positions)

    tracer = get_tracer()
    if tracer.enabled:
        tracer.count("matcher.components", len(roots))
        tracer.count("matcher.nodes", n)
        tracer.count("matcher.phases", phases)
        tracer.count("matcher.seconds", time.perf_counter() - t0)
    return sorted(matched)


def matching_weight(graph: GeomGraph, edge_ids: List[int]) -> int:
    return graph.total_weight(edge_ids)


def is_perfect_matching(graph: GeomGraph, edge_ids: List[int]) -> bool:
    """Validator: every node covered exactly once."""
    seen = set()
    for eid in edge_ids:
        e = graph.edge(eid)
        if e.u in seen or e.v in seen or e.is_self_loop:
            return False
        seen.add(e.u)
        seen.add(e.v)
    return len(seen) == graph.num_nodes()


__all__ = [
    "MatcherBackend",
    "MatchingCertificateError",
    "NoPerfectMatchingError",
    "BlossomMatcher",
    "get_matcher",
    "is_perfect_matching",
    "matching_weight",
    "min_weight_perfect_matching",
]
