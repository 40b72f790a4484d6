"""Axis-aligned integer rectangles.

Rectangles are the primitive of the whole reproduction: layout features,
phase shifters, overlap regions and inserted spaces are all ``Rect``
instances in integer database units (nm).  The class is immutable so rects
can be dict keys and set members, which the conflict-graph construction
relies on.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from .interval import Interval


@dataclass(frozen=True, order=True, slots=True)
class Rect:
    """Closed axis-aligned rectangle ``[x1, x2] x [y1, y2]``.

    Degenerate (zero width or height) rectangles are rejected: layout
    features always have positive area.
    """

    x1: int
    y1: int
    x2: int
    y2: int

    def __post_init__(self) -> None:
        if self.x1 >= self.x2 or self.y1 >= self.y2:
            raise ValueError(
                f"Degenerate rect ({self.x1},{self.y1},{self.x2},{self.y2})"
            )

    # ------------------------------------------------------------------
    # Measures
    # ------------------------------------------------------------------
    @property
    def width(self) -> int:
        return self.x2 - self.x1

    @property
    def height(self) -> int:
        return self.y2 - self.y1

    @property
    def area(self) -> int:
        return self.width * self.height

    @property
    def min_dimension(self) -> int:
        """The critical dimension of the shape (its drawn line width)."""
        return min(self.width, self.height)

    @property
    def max_dimension(self) -> int:
        return max(self.width, self.height)

    @property
    def xspan(self) -> Interval:
        return Interval(self.x1, self.x2)

    @property
    def yspan(self) -> Interval:
        return Interval(self.y1, self.y2)

    @property
    def center2(self) -> Tuple[int, int]:
        """Twice the centre point, kept integral for exact geometry."""
        return (self.x1 + self.x2, self.y1 + self.y2)

    @property
    def center(self) -> Tuple[float, float]:
        return ((self.x1 + self.x2) / 2.0, (self.y1 + self.y2) / 2.0)

    @property
    def is_vertical(self) -> bool:
        """True when the shape runs vertically (height >= width)."""
        return self.height >= self.width

    # ------------------------------------------------------------------
    # Relations
    # ------------------------------------------------------------------
    def intersects(self, other: "Rect") -> bool:
        """Closed intersection test (touching rects intersect)."""
        return (self.x1 <= other.x2 and other.x1 <= self.x2 and
                self.y1 <= other.y2 and other.y1 <= self.y2)

    def strictly_intersects(self, other: "Rect") -> bool:
        """Open intersection test (positive-area overlap)."""
        return (self.x1 < other.x2 and other.x1 < self.x2 and
                self.y1 < other.y2 and other.y1 < self.y2)

    def contains_rect(self, other: "Rect") -> bool:
        return (self.x1 <= other.x1 and other.x2 <= self.x2 and
                self.y1 <= other.y1 and other.y2 <= self.y2)

    def intersection(self, other: "Rect") -> Optional["Rect"]:
        """Positive-area intersection, or None."""
        x1 = max(self.x1, other.x1)
        y1 = max(self.y1, other.y1)
        x2 = min(self.x2, other.x2)
        y2 = min(self.y2, other.y2)
        if x1 >= x2 or y1 >= y2:
            return None
        return Rect(x1, y1, x2, y2)

    def x_gap(self, other: "Rect") -> int:
        """Gap between x-projections (``<= 0`` when they overlap in x)."""
        return self.xspan.gap_to(other.xspan)

    def y_gap(self, other: "Rect") -> int:
        return self.yspan.gap_to(other.yspan)

    def separation_sq(self, other: "Rect") -> int:
        """Squared Euclidean separation between the two closed rects.

        Standard DRC semantics: 0 if the rects touch or overlap; the gap
        in the free axis if their projections overlap in the other axis;
        corner-to-corner Euclidean distance otherwise.  Returned squared
        so callers can compare against ``rule*rule`` exactly in ints.
        """
        dx = max(0, self.x_gap(other))
        dy = max(0, self.y_gap(other))
        return dx * dx + dy * dy

    def separation(self, other: "Rect") -> float:
        return math.sqrt(self.separation_sq(other))

    def within_distance(self, other: "Rect", dist: int) -> bool:
        """True if the rect separation is strictly less than ``dist``."""
        return self.separation_sq(other) < dist * dist

    # ------------------------------------------------------------------
    # Constructions
    # ------------------------------------------------------------------
    def inflated(self, amount: int) -> "Rect":
        """Grow all four sides outward by ``amount`` (may be negative)."""
        return Rect(self.x1 - amount, self.y1 - amount,
                    self.x2 + amount, self.y2 + amount)

    def translated(self, dx: int, dy: int) -> "Rect":
        return Rect(self.x1 + dx, self.y1 + dy, self.x2 + dx, self.y2 + dy)

    def hull(self, other: "Rect") -> "Rect":
        return Rect(min(self.x1, other.x1), min(self.y1, other.y1),
                    max(self.x2, other.x2), max(self.y2, other.y2))


# ----------------------------------------------------------------------
# Batch (struct-of-arrays) predicates — the raw material of the numpy
# geometry kernel.  Each mirrors a scalar Rect method exactly, in int64,
# so batch and scalar paths agree bit-for-bit.  numpy imports lazily so
# the scalar backend never pays for it.
# ----------------------------------------------------------------------

_rect_corners = operator.attrgetter("x1", "y1", "x2", "y2")


class RectList:
    """A rect sequence over int64 columns ``(x1, y1, x2, y2)``.

    One type with two sources:

    * built from :class:`Rect` objects (``RectList(rects)``, as
      :func:`~repro.layout.with_rect_columns` copies a caller's
      revision), it keeps them, and :func:`rect_columns` memoizes the
      columns on the ``columns`` slot;
    * built from columns alone (``RectList(columns=...)``: the layout
      :func:`~repro.correction.apply_cuts` returns, a partition's tile
      slices), it holds no rect: indexing or iterating makes each
      :class:`Rect` on demand and keeps none.

    Either way the consumers of one rect list pay the struct-of-arrays
    conversion at most once.  Equal to another rect list of the same
    rects (compared as columns when both have them) or to a list of
    them; pickled as its columns.  A mutation (the list methods) makes
    and keeps the rects first and drops the columns, so they never go
    stale; the flow never mutates one.
    """

    __slots__ = ("_rects", "columns")

    def __init__(self, rects: Optional[Iterable[Rect]] = None,
                 columns=None) -> None:
        if rects is None and columns is None:
            rects = ()
        self._rects = None if rects is None else list(rects)
        self.columns = columns

    def _list(self) -> List[Rect]:
        """The rects, made from the columns once and kept."""
        if self._rects is None:
            self._rects = list(_column_rects(self.columns))
        return self._rects

    def __len__(self) -> int:
        if self._rects is not None:
            return len(self._rects)
        return len(self.columns[0])

    def __iter__(self) -> Iterator[Rect]:
        if self._rects is not None:
            return iter(self._rects)
        return _column_rects(self.columns)

    def __getitem__(self, index):
        if self._rects is not None:
            return self._rects[index]
        if isinstance(index, slice):
            return list(_column_rects(tuple(c[index]
                                            for c in self.columns)))
        return Rect(*(int(c[index]) for c in self.columns))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RectList):
            if self.columns is not None and other.columns is not None:
                import numpy as np

                return len(self) == len(other) and all(
                    map(np.array_equal, self.columns, other.columns))
            return list(self) == list(other)
        if isinstance(other, list):
            return list(self) == other
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"RectList({list(self)!r})"

    def __reduce__(self):
        if self.columns is not None:
            return (RectList, (None, self.columns))
        return (RectList, (self._rects,))


def _column_rects(columns) -> Iterator[Rect]:
    """A :class:`Rect` per row of four int64 corner columns."""
    return map(Rect, *(c.tolist() for c in columns))


def _mutator(name: str):
    mutate = getattr(list, name)

    def method(self, *args, **kwargs):
        rects = self._list()
        self.columns = None
        out = mutate(rects, *args, **kwargs)
        return self if out is rects else out

    method.__name__ = name
    return method


for _name in ("__setitem__", "__delitem__", "__iadd__", "__imul__",
              "append", "extend", "insert", "pop", "remove", "clear",
              "sort", "reverse"):
    setattr(RectList, _name, _mutator(_name))


def rect_columns(rects: Sequence["Rect"]):
    """Struct-of-arrays int64 columns ``(x1, y1, x2, y2)`` of a rect list."""
    cols = getattr(rects, "columns", None)
    if cols is not None:
        return cols
    import numpy as np

    # attrgetter is C-level, and fromiter fills the array straight from
    # the flattened corners: no per-row tuple list for numpy to scan.
    arr = np.fromiter(chain.from_iterable(map(_rect_corners, rects)),
                      dtype=np.int64, count=4 * len(rects)).reshape(-1, 4)
    cols = (arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3])
    if isinstance(rects, RectList):
        rects.columns = cols
    return cols


def batch_separation_sq(x_gap, y_gap):
    """Vectorized :meth:`Rect.separation_sq` from per-axis gap columns
    (see :func:`repro.geometry.interval.batch_gap`)."""
    import numpy as np

    dx = np.maximum(x_gap, 0)
    dy = np.maximum(y_gap, 0)
    return dx * dx + dy * dy


def bounding_box(rects: Iterable[Rect]) -> Optional[Rect]:
    """Hull of a collection of rects (None for an empty collection).

    One min/max pass over the corners, building no intermediate rect.
    """
    it = iter(rects)
    try:
        first = next(it)
    except StopIteration:
        return None
    x1, y1, x2, y2 = first.x1, first.y1, first.x2, first.y2
    for r in it:
        if r.x1 < x1:
            x1 = r.x1
        if r.y1 < y1:
            y1 = r.y1
        if r.x2 > x2:
            x2 = r.x2
        if r.y2 > y2:
            y2 = r.y2
    return Rect(x1, y1, x2, y2)


def union_area(rects: Iterable[Rect]) -> int:
    """Exact area of the union of rectangles (coordinate-compression sweep).

    O(n^2) in the worst case but n here is a layout window or a shifter
    neighbourhood, not a full chip; the full-chip statistics use layer
    bookkeeping instead.
    """
    rects = list(rects)
    if not rects:
        return 0
    xs = sorted({r.x1 for r in rects} | {r.x2 for r in rects})
    total = 0
    for xa, xb in zip(xs, xs[1:]):
        if xa == xb:
            continue
        spans = [r.yspan for r in rects if r.x1 <= xa and r.x2 >= xb]
        if not spans:
            continue
        covered = 0
        last = None
        for iv in sorted(spans):
            lo = iv.lo if last is None else max(iv.lo, last)
            if iv.hi > lo:
                covered += iv.hi - lo
            last = iv.hi if last is None else max(last, iv.hi)
        total += covered * (xb - xa)
    return total


def pairwise_disjoint(rects: List[Rect]) -> bool:
    """True when no two rects have a positive-area overlap."""
    for i, a in enumerate(rects):
        for b in rects[i + 1:]:
            if a.strictly_intersects(b):
                return False
    return True
