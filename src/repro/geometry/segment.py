"""Exact integer segment predicates.

The conflict-graph flow draws graphs with straight-line edges between
integer points (doubled layout coordinates, so centres of rectangles stay
integral).  Making the drawing *planar* means deleting edges until no two
segments intersect anywhere except at shared endpoints; the predicates
here are exact (no floating point) so the planarization step is
deterministic and the later face tracing never sees a hidden crossing.
"""

from __future__ import annotations

from typing import Tuple

Point = Tuple[int, int]


def orientation(a: Point, b: Point, c: Point) -> int:
    """Sign of the cross product (b-a) x (c-a): 1 ccw, -1 cw, 0 collinear."""
    v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    if v > 0:
        return 1
    if v < 0:
        return -1
    return 0


def on_segment(a: Point, b: Point, p: Point) -> bool:
    """True if collinear point ``p`` lies on the closed segment ``ab``."""
    return (min(a[0], b[0]) <= p[0] <= max(a[0], b[0]) and
            min(a[1], b[1]) <= p[1] <= max(a[1], b[1]))


def segments_intersect(a: Point, b: Point, c: Point, d: Point) -> bool:
    """Closed intersection test for segments ``ab`` and ``cd``."""
    o1 = orientation(a, b, c)
    o2 = orientation(a, b, d)
    o3 = orientation(c, d, a)
    o4 = orientation(c, d, b)
    if o1 != o2 and o3 != o4:
        return True
    if o1 == 0 and on_segment(a, b, c):
        return True
    if o2 == 0 and on_segment(a, b, d):
        return True
    if o3 == 0 and on_segment(c, d, a):
        return True
    if o4 == 0 and on_segment(c, d, b):
        return True
    return False


def proper_crossing(a: Point, b: Point, c: Point, d: Point) -> bool:
    """True when the segments cross at a single interior point of both."""
    o1 = orientation(a, b, c)
    o2 = orientation(a, b, d)
    o3 = orientation(c, d, a)
    o4 = orientation(c, d, b)
    return o1 != o2 and o3 != o4 and 0 not in (o1, o2, o3, o4)


def segments_conflict(a: Point, b: Point, c: Point, d: Point) -> bool:
    """Drawing-validity test used by the planarization step.

    Two edges of a straight-line drawing *conflict* when they share any
    point other than a common endpoint: a proper crossing, a T-junction
    (an endpoint of one in the interior of the other), or a collinear
    overlap.  Edges that merely share an endpoint (the normal case for a
    graph drawing) do not conflict.
    """
    shared_ab = set()
    if a == c or a == d:
        shared_ab.add(a)
    if b == c or b == d:
        shared_ab.add(b)
    if len(shared_ab) >= 2:
        # Identical or reversed segments: always a conflict.
        return True
    if not segments_intersect(a, b, c, d):
        return False
    if not shared_ab:
        return True
    # They share exactly one endpoint.  Conflict iff they also touch
    # somewhere else, which for straight segments can only happen when
    # they are collinear and overlap beyond the shared point.
    p = shared_ab.pop()
    a2 = b if p == a else a
    c2 = d if p == c else c
    if orientation(p, a2, c2) != 0:
        return False
    # Collinear: overlap iff the other endpoints are on the same side of
    # p and the segments extend over each other.
    dax, day = a2[0] - p[0], a2[1] - p[1]
    dcx, dcy = c2[0] - p[0], c2[1] - p[1]
    return dax * dcx + day * dcy > 0


def point_on_open_segment(a: Point, b: Point, p: Point) -> bool:
    """True if ``p`` lies strictly inside segment ``ab``."""
    if p == a or p == b:
        return False
    return orientation(a, b, p) == 0 and on_segment(a, b, p)


def segment_bbox(a: Point, b: Point) -> Tuple[int, int, int, int]:
    """(x1, y1, x2, y2) bounding box of the segment."""
    return (min(a[0], b[0]), min(a[1], b[1]),
            max(a[0], b[0]), max(a[1], b[1]))
