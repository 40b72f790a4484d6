"""Straight-line crossing detection and greedy planarization.

Paper §3, step 1(b): the phase conflict graph "is converted to an
embedded planar graph by applying the planar embedding algorithm [a
straight-line drawing at the layout coordinates] and greedily removing
minimum weight edges that cross other edges.  These edges are added to a
potential set of AAPSM conflicts P."

Two edges *conflict* when their segments share any point that is not a
common endpoint: proper crossings, T-junctions and collinear overlaps —
see :func:`repro.geometry.segments_conflict`.  The predicate sees
coordinates only, never node identities: two distinct nodes drawn at the
same point count as one shared endpoint, so edges meeting there do not
conflict (node-aware planarization is ROADMAP item 2).  After
planarization no two segments cross, so face tracing by angular order
is exact.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Set, Tuple

from ..geometry import segments_conflict
from ..geometry.kernels import get_kernel
from .geomgraph import GeomGraph, _numpy

#: Coordinates at or beyond this magnitude send every candidate to the
#: scalar predicate.  Below it, differences stay under 2**31, so every
#: int64 orientation and dot product is exact.
EXACT_COORD_LIMIT = 1 << 30


def find_crossing_pairs(graph: GeomGraph) -> List[Tuple[int, int]]:
    """All conflicting live edge pairs ``(i, j), i < j``.

    Candidate pairs come from the geometry kernel's column sweep: two
    segments can only conflict when their (closed) bounding boxes
    intersect.  Segment boxes may be degenerate (axis-aligned
    segments), so each box's high corner is padded by +1 — a sweep at
    distance 1 then yields every pair whose original boxes have gap
    <= 1 on both axes: a superset of the touching pairs, never a miss.

    Candidates are decided in exact int64 arithmetic, one block of
    the kernel's ``SWEEP_BLOCK`` rows at a time, so the search holds
    no more than a block of temporaries beyond its columns:

    * both endpoints shared (identical or reversed segments): conflict;
    * exactly one endpoint shared: conflict iff the segments are
      collinear and point the same way from the shared end;
    * no endpoint shared: conflict on a proper crossing, none when one
      segment lies strictly on one side of the other's line.

    The rest — touching or collinear pairs with no shared endpoint, and
    every pair with a zero-length segment (distinct nodes drawn at one
    point) — go to the scalar :func:`~repro.geometry.segments_conflict`,
    as does every candidate when a coordinate reaches
    :data:`EXACT_COORD_LIMIT`.  The answer is the scalar predicate's on
    every candidate.
    """
    from ..geometry.kernels.numpy_kernel import SWEEP_BLOCK

    np = _numpy()
    ui, vi = graph._dense_endpoints(np)
    live = ui != vi
    if graph._removed:
        live[np.fromiter(graph._removed, dtype=np.int64,
                         count=len(graph._removed))] = False
    eids = np.flatnonzero(live)
    if not eids.size:
        return []
    xs, ys = graph.coord_arrays(np)
    ax, ay = xs[ui[eids]], ys[ui[eids]]
    bx, by = xs[vi[eids]], ys[vi[eids]]
    ii, jj = get_kernel().neighbor_pair_arrays(
        np.minimum(ax, bx), np.minimum(ay, by),
        np.maximum(ax, bx) + 1, np.maximum(ay, by) + 1, 1)

    coords = (ax, ay, bx, by)
    exact = max(max(int(c.max()), -int(c.min())) for c in coords) \
        < EXACT_COORD_LIMIT
    # Live ids ascend and the sweep's pairs are sorted with i < j, so
    # the mapped id pairs come out ascending too, block after block.
    pairs: List[Tuple[int, int]] = []
    for lo in range(0, ii.size, SWEEP_BLOCK):
        i, j = ii[lo:lo + SWEEP_BLOCK], jj[lo:lo + SWEEP_BLOCK]
        if exact:
            hit, ambiguous = _decide(np, *(c[i] for c in coords),
                                     *(c[j] for c in coords))
        else:
            hit = np.zeros(i.size, dtype=bool)
            ambiguous = ~hit
        for k in np.flatnonzero(ambiguous).tolist():
            p, q = i[k], j[k]
            hit[k] = segments_conflict((int(ax[p]), int(ay[p])),
                                       (int(bx[p]), int(by[p])),
                                       (int(ax[q]), int(ay[q])),
                                       (int(bx[q]), int(by[q])))
        pairs.extend(zip(eids[i[hit]].tolist(), eids[j[hit]].tolist()))
    return pairs


def _decide(np, ax, ay, bx, by, cx, cy, dx, dy):
    """Exact verdicts for candidate segment pairs ``ab`` / ``cd``.

    Returns ``(hit, ambiguous)`` boolean arrays: ``hit`` is the
    conflict verdict wherever ``ambiguous`` is False; ambiguous rows
    need the scalar predicate.  Coordinates must stay below
    :data:`EXACT_COORD_LIMIT`.
    """
    def orient(px, py, qx, qy, rx, ry):
        return np.sign((qx - px) * (ry - py) - (qy - py) * (rx - px))

    zero_length = ((ax == bx) & (ay == by)) | ((cx == dx) & (cy == dy))
    ac = (ax == cx) & (ay == cy)
    ad = (ax == dx) & (ay == dy)
    bc = (bx == cx) & (by == cy)
    bd = (bx == dx) & (by == dy)
    a_shared = ac | ad
    b_shared = bc | bd

    # Exactly one shared endpoint p: conflict iff the far ends a2, c2
    # are collinear with p and on the same side of it.
    a_end = a_shared & ~b_shared
    px, py = np.where(a_end, ax, bx), np.where(a_end, ay, by)
    a2x, a2y = np.where(a_end, bx, ax), np.where(a_end, by, ay)
    c_is_shared = ac | bc
    c2x, c2y = np.where(c_is_shared, dx, cx), np.where(c_is_shared, dy, cy)
    ux, uy = a2x - px, a2y - py
    wx, wy = c2x - px, c2y - py
    overlap = (ux * wy - uy * wx == 0) & (ux * wx + uy * wy > 0)

    # No shared endpoint: a proper crossing, or strictly apart.
    o1 = orient(ax, ay, bx, by, cx, cy)
    o2 = orient(ax, ay, bx, by, dx, dy)
    o3 = orient(cx, cy, dx, dy, ax, ay)
    o4 = orient(cx, cy, dx, dy, bx, by)
    crossing = (o1 * o2 < 0) & (o3 * o4 < 0)
    apart = (o1 * o2 > 0) | (o3 * o4 > 0)

    one = a_shared ^ b_shared
    none = ~(a_shared | b_shared)
    hit = (a_shared & b_shared) | (one & overlap) | (none & crossing)
    ambiguous = zero_length | (none & ~crossing & ~apart)
    return hit, ambiguous


def count_crossings(graph: GeomGraph) -> int:
    """Number of conflicting edge pairs in the current drawing."""
    return len(find_crossing_pairs(graph))


def greedy_planarize(graph: GeomGraph) -> List[int]:
    """Remove minimum-weight crossing edges until the drawing is planar.

    Mutates ``graph`` (soft removal) and returns the removed edge ids —
    the paper's potential-conflict set ``P``.  Greedy rule: while any
    conflicts remain, delete the minimum-weight edge involved in at
    least one conflict (ties broken by most conflicts, then by id, so
    runs are deterministic).
    """
    pairs = find_crossing_pairs(graph)
    if not pairs:
        return []
    conflicts: Dict[int, Set[int]] = defaultdict(set)
    for a, b in pairs:
        conflicts[a].add(b)
        conflicts[b].add(a)

    removed: List[int] = []
    weight = graph.edge_weight
    while conflicts:
        victim = min(
            conflicts,
            key=lambda eid: (weight(eid), -len(conflicts[eid]), eid),
        )
        graph.remove_edge(victim)
        removed.append(victim)
        for other in conflicts.pop(victim):
            peers = conflicts[other]
            peers.discard(victim)
            if not peers:
                del conflicts[other]
    return removed
