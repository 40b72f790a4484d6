"""The geometry kernel: batch versions of the cold path's hot loops.

The cold path spends most of its repo-owned time in three geometry
loops: candidate-pair generation (``neighbor_pairs``), Condition-2
overlap measurement (``find_overlap_pairs``) and per-pair region
arithmetic.  A *kernel* packages batch implementations of exactly
those loops behind a tiny interface so the rest of the pipeline —
ordering, weights, tie-breaking, graph assembly — stays scalar and
operates on kernel **output** (sorted ``(i, j)`` index arrays).

The flow runs one kernel, the vectorized numpy sweep of
:mod:`.numpy_kernel`, returned by :func:`get_kernel`.  The pure-Python
grid sweep it must match bit for bit is the test suite's oracle
(``tests/oracles.py``), swapped in behind :func:`get_kernel`.  numpy
is imported on the first :func:`get_kernel` call, never by
``import repro``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

#: ``(i, j, separation_sq, x_gap, y_gap)`` — one measured candidate pair.
PairRow = Tuple[int, int, int, int, int]


class GeometryKernel:
    """Batch geometry operations over lists of :class:`~repro.geometry.Rect`.

    The contract is exact: all arithmetic is integer, all outputs are
    sorted by ``(i, j)`` with ``i < j``, and an implementation agrees
    with the scalar oracle bit for bit on every input.
    """

    name = "abstract"

    def neighbor_pairs(self, rects: Sequence, dist: int
                       ) -> List[Tuple[int, int]]:
        """Indices ``(i, j), i < j`` of pairs with separation < ``dist``."""
        raise NotImplementedError

    def overlap_rows(self, rects: Sequence, dist: int,
                     groups: Optional[Sequence[int]] = None
                     ) -> List[PairRow]:
        """Measured candidate pairs, sorted by ``(i, j)``.

        ``groups[i] == groups[j]`` pairs are exempt (Condition-1
        flanking pairs share a feature id and are skipped).
        """
        raise NotImplementedError

    def region_centers2(self, rects: Sequence,
                        pairs: Sequence[Tuple[int, int]]
                        ) -> List[Tuple[int, int]]:
        """Doubled overlap-region centre for each ``(i, j)`` pair."""
        raise NotImplementedError

    def region_center_arrays(self, x1, y1, x2, y2, i, j):
        """:meth:`region_centers2` over int64 corner and index columns.

        Returns the doubled centres as two int64 arrays ``(cx2, cy2)``.
        This default builds the rect list and defers to
        :meth:`region_centers2`; a batch kernel computes the columns
        directly.
        """
        import numpy as np

        centers = np.array(self.region_centers2(
            _rects(x1, y1, x2, y2), list(zip(i.tolist(), j.tolist()))),
            dtype=np.int64).reshape(-1, 2)
        return centers[:, 0], centers[:, 1]

    def neighbor_pair_arrays(self, x1, y1, x2, y2, dist: int):
        """:meth:`neighbor_pairs` over int64 corner columns.

        ``x1``..``y2`` are parallel numpy arrays, one box per row (the
        boxes must be valid :class:`~repro.geometry.Rect` corners).
        Returns the sorted pairs as two int64 index arrays ``(i, j)``.
        This default builds the rect list and defers to
        :meth:`neighbor_pairs`; a batch kernel sweeps the columns
        directly.
        """
        import numpy as np

        pairs = np.array(self.neighbor_pairs(_rects(x1, y1, x2, y2), dist),
                         dtype=np.int64).reshape(-1, 2)
        return pairs[:, 0], pairs[:, 1]

    def overlap_row_array(self, x1, y1, x2, y2, dist: int, groups=None):
        """:meth:`overlap_rows` over int64 corner columns (and an int64
        ``groups`` column), as one ``(P, 5)`` int64 array.  This
        default builds the rect list and defers to
        :meth:`overlap_rows`."""
        import numpy as np

        rows = self.overlap_rows(
            _rects(x1, y1, x2, y2), dist,
            groups=None if groups is None else groups.tolist())
        return np.array(rows, dtype=np.int64).reshape(-1, 5)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<GeometryKernel {self.name}>"


def _rects(x1, y1, x2, y2) -> list:
    """The :class:`~repro.geometry.Rect` list of four corner columns."""
    from ..rect import Rect

    return list(map(Rect, x1.tolist(), y1.tolist(), x2.tolist(),
                    y2.tolist()))


def get_kernel() -> GeometryKernel:
    """The geometry kernel: the numpy sweep."""
    from .numpy_kernel import NumpyKernel

    return NumpyKernel()


def neighbor_pairs(rects: Sequence, dist: int) -> List[Tuple[int, int]]:
    """Sorted indices ``(i, j), i < j`` of rect pairs with separation
    < ``dist``."""
    return get_kernel().neighbor_pairs(rects, dist)


__all__ = ["GeometryKernel", "PairRow", "get_kernel", "neighbor_pairs"]
