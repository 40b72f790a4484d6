"""Overlapping-shifter extraction (Condition 2 analysis).

Two shifters separated by less than the minimum shifter spacing are
"overlapping" and must carry the same phase (paper §1, Condition 2).  The
pair of shifters flanking one feature is exempt: they are separated by the
feature itself, and Condition 1 forces them to *opposite* phases.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import chain
from typing import Iterator, List, Optional, Sequence, Tuple

from ..geometry.kernels import get_kernel
from ..layout import Technology
from .shifter import ShifterSet


@dataclass(frozen=True)
class OverlapPair:
    """A Condition-2 constraint between two shifters.

    Attributes:
        a, b: shifter ids with ``a < b``.
        separation_sq: squared Euclidean separation of the two rects.
        x_gap / y_gap: per-axis gaps (negative when the projections
            overlap) — the raw material for the correction step's
            interval analysis.
    """

    a: int
    b: int
    separation_sq: int
    x_gap: int
    y_gap: int

    @property
    def key(self) -> Tuple[int, int]:
        return (self.a, self.b)


class PairList:
    """Overlap pairs as int64 columns, objects on demand.

    ``columns`` is a ``(P, 5)`` int64 array with one row ``a, b,
    separation_sq, x_gap, y_gap`` per pair, sorted by ``(a, b)`` — what
    the kernel's sweep returns and every consumer on the flow reads
    (:func:`pair_columns`).  :class:`OverlapPair` objects are built, all
    at once, only when a caller indexes or iterates the list.  Equal
    to another :class:`PairList` with equal columns, or to a list of
    the same pairs.  Immutable by convention.
    """

    __slots__ = ("columns", "_objs")

    def __init__(self, columns=None) -> None:
        if columns is None:
            import numpy as np

            columns = np.empty((0, 5), dtype=np.int64)
        self.columns = columns
        self._objs: Optional[List[OverlapPair]] = None

    def _pairs(self) -> List[OverlapPair]:
        if self._objs is None:
            self._objs = list(map(OverlapPair, *self.columns.T.tolist()))
        return self._objs

    def __len__(self) -> int:
        return len(self.columns)

    def __iter__(self) -> Iterator[OverlapPair]:
        return iter(self._pairs())

    def __getitem__(self, index):
        return self._pairs()[index]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PairList):
            import numpy as np

            return np.array_equal(self.columns, other.columns)
        if isinstance(other, (list, tuple)):
            return self._pairs() == list(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"PairList({self._pairs()!r})"

    def __reduce__(self):
        return (PairList, (self.columns,))


_pair_row = operator.attrgetter("a", "b", "separation_sq", "x_gap",
                                "y_gap")


def pair_columns(pairs: Sequence[OverlapPair]):
    """Every pair as one int64 row ``a, b, separation_sq, x_gap,
    y_gap``: a :class:`PairList`'s own columns, else built from the
    objects."""
    if isinstance(pairs, PairList):
        return pairs.columns
    import numpy as np

    return np.fromiter(chain.from_iterable(map(_pair_row, pairs)),
                       dtype=np.int64, count=5 * len(pairs)).reshape(-1, 5)


def find_overlap_pairs(shifters: ShifterSet,
                       tech: Technology) -> PairList:
    """All Condition-2 pairs of a shifter set, sorted by id pair.

    Args:
        shifters: the layout's shifter set (any generation order).
        tech: rule deck; two shifters closer than
            ``tech.shifter_spacing`` overlap.

    Determinism guarantee: the result is a pure function of the
    shifter geometry and the spacing rule — the geometry kernel
    (the banded numpy sweep of :mod:`repro.geometry.kernels`) only
    accelerates the search, every candidate is confirmed by the exact
    integer separation test — and the pairs are sorted by ``(a, b)``
    id pair, so reruns are byte-identical.  The two shifters flanking
    one feature share a ``feature_index`` and are exempt (a
    Condition-1 pair, already forced to opposite phases).  Pair
    measurements (``separation_sq``, ``x_gap``, ``y_gap``) are
    symmetric in the two rects, so a tile's slice of the chip pass
    carries them unchanged.  The kernel's columns are kept as
    they are (:class:`PairList`): no :class:`OverlapPair` is built.
    """
    return PairList(get_kernel().overlap_row_array(
        *shifters.box, tech.shifter_spacing,
        groups=shifters.feature_column()))


def needed_space(pair: OverlapPair, tech: Technology,
                 axis: str) -> Optional[int]:
    """Extra spacing along ``axis`` to legalise an overlapping pair.

    Returns the minimal integer widening of the pair's gap along the
    axis ("x" → a vertical end-to-end space, "y" → horizontal) so the
    Euclidean separation reaches the shifter spacing rule, or ``None``
    when no widening along that axis can fix the pair (their projections
    overlap on the axis, so pulling them apart would require moving
    geometry that an end-to-end cut cannot move independently).
    """
    rule = tech.shifter_spacing
    if axis == "x":
        gap, other = pair.x_gap, pair.y_gap
    elif axis == "y":
        gap, other = pair.y_gap, pair.x_gap
    else:
        raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")
    if gap < 0:
        return None
    if other >= rule:
        return 0  # already legal through the other axis
    other = max(0, other)
    # Smallest integer g with g*g + other*other >= rule*rule.
    need_sq = rule * rule - other * other
    target = _isqrt_ceil(need_sq)
    return max(0, target - gap)


def _isqrt_ceil(n: int) -> int:
    """Smallest integer x with x*x >= n."""
    if n <= 0:
        return 0
    x = int(n ** 0.5)
    while x * x >= n:
        x -= 1
    while x * x < n:
        x += 1
    return x
