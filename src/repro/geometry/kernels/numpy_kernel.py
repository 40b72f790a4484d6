"""Numpy geometry kernel: struct-of-arrays columns + vectorized sweep.

The backend mirrors the scalar oracle's semantics exactly — all
arithmetic stays in int64, every comparison is the same strict/closed
test the ``Rect``/``Interval`` methods perform — so its output is
bit-identical, just computed a few thousand rows at a time.

Candidate generation is a plane sweep in x, run inside horizontal
*bands*.  After a stable argsort by ``x1``, every pair within
interaction distance ``d`` satisfies ``x1[q] < x2[p] + d`` for the
earlier rect ``p``, so ``searchsorted`` bounds each rect's candidate
window.  Alone, that window takes in every rect of the die in the
x-range; the bands cut it to the rects near in y too:

* each rect joins every band its inflated span ``[y1, y2 + d)`` meets;
* the band members are ordered by one packed ``band * n + x-rank`` key,
  so one ``searchsorted`` over the sorted keys bounds every member's
  window inside its band;
* a pair closer than ``d`` has a y-gap below ``d``, so the point
  ``max(y1_p, y1_q)`` lies in both inflated spans: both rects sit in
  that point's band, and the pair is kept in that band only — found
  exactly once.

The band height comes from the input's columns (:func:`_band_layout`);
one band is the plain sweep.  The windows are materialized block-wise
(bounded memory) as flat ``(p, q)`` row arrays whose coordinates are
gathered through the sweep order; exact integer gap/separation masks
filter the superset, and the surviving rows are mapped back to input
indices and sorted by one packed ``i * n + j`` key, ``i < j`` — the
same sorted pair list the scalar oracle emits.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ...obs import get_tracer
from ..interval import batch_gap
from ..rect import batch_separation_sq, rect_columns
from . import GeometryKernel, PairRow

#: Upper bound on the candidate rows one block materializes, in the
#: sweep and in the crossing search's predicate
#: (:func:`repro.graph.find_crossing_pairs`); it bounds their temporary
#: memory on chip-sized inputs.
SWEEP_BLOCK = 1 << 12

#: Below this many one-band candidates the plain sweep is cheaper than
#: laying out bands at all (tiny inputs take one band).
BAND_MIN_CANDIDATES = 1 << 12


class RectArray:
    """Struct-of-arrays view of a rect list: int64 columns + feature ids.

    The per-tile working set of the kernel — built once per
    kernel call from the scalar ``Rect`` objects, then every batch
    operation works on the columns.
    """

    __slots__ = ("x1", "y1", "x2", "y2", "ids", "n")

    def __init__(self, x1, y1, x2, y2, ids=None):
        self.x1, self.y1, self.x2, self.y2 = x1, y1, x2, y2
        self.ids = ids
        self.n = int(x1.shape[0])

    @classmethod
    def from_rects(cls, rects: Sequence,
                   ids: Optional[Sequence[int]] = None) -> "RectArray":
        x1, y1, x2, y2 = rect_columns(rects)
        id_col = None
        if ids is not None:
            id_col = np.asarray(ids, dtype=np.int64)
        return cls(x1, y1, x2, y2, id_col)


class NumpyKernel(GeometryKernel):
    """Vectorized banded sweep + batch int64 predicates (bit-identical)."""

    name = "numpy"

    # ------------------------------------------------------------------
    def neighbor_pairs(self, rects: Sequence, dist: int
                       ) -> List[Tuple[int, int]]:
        ii, jj = self._pairs(RectArray.from_rects(rects), dist,
                            measured=False)
        return list(zip(ii.tolist(), jj.tolist()))

    def overlap_rows(self, rects: Sequence, dist: int,
                     groups: Optional[Sequence[int]] = None
                     ) -> List[PairRow]:
        ra = RectArray.from_rects(rects, ids=groups)
        return list(map(tuple, self._pairs(ra, dist,
                                           measured=True).tolist()))

    def neighbor_pair_arrays(self, x1, y1, x2, y2, dist: int):
        return self._pairs(RectArray(x1, y1, x2, y2), dist,
                           measured=False)

    def overlap_row_array(self, x1, y1, x2, y2, dist: int, groups=None):
        return self._pairs(RectArray(x1, y1, x2, y2, groups), dist,
                           measured=True)

    def region_centers2(self, rects: Sequence,
                        pairs: Sequence[Tuple[int, int]]
                        ) -> List[Tuple[int, int]]:
        if len(pairs) == 0:
            return []
        ra = RectArray.from_rects(rects)
        pq = np.asarray(pairs, dtype=np.int64)
        cx2, cy2 = _region_centers2(ra, pq[:, 0], pq[:, 1])
        return list(zip(cx2.tolist(), cy2.tolist()))

    def region_center_arrays(self, x1, y1, x2, y2, i, j):
        return _region_centers2(RectArray(x1, y1, x2, y2), i, j)

    # ------------------------------------------------------------------
    def _pairs(self, ra: RectArray, dist: int, measured: bool):
        """Sorted ``i < j`` pairs with separation < ``dist``.

        Returns two parallel int64 arrays, i and j; ``measured``
        returns one ``(P, 5)`` int64 array instead, rows ``i, j,
        separation_sq, x_gap, y_gap``.  Pairs whose rects share an id
        (``ra.ids``) are exempt.  Counts the candidate rows it examined
        (``kernel.sweep.candidates``) and the pairs it returns
        (``kernel.sweep.pairs``) on the active tracer.

        Beyond its input and output, the sweep holds four int64 columns
        over its rows (order, band, count, offset) and one block of
        candidate rows, whose coordinates it gathers through the order;
        the set-up columns go once the rows are laid out.  The measured
        rows are sorted in place in their ``(P, 5)`` array, one column
        at a time.
        """
        n = ra.n
        if n < 2 or dist <= 0:
            # dist == 0 can never satisfy the strict test; negative
            # interaction distances are not meaningful for a sweep.
            return _no_pairs(measured)

        order = np.argsort(ra.x1, kind="stable")
        sx1 = ra.x1[order]
        # Window bound: any qualifying pair (p, q>p) has
        # x1[q] - x2[p] <= x_gap < dist, so q < searchsorted(x1, x2[p]+dist).
        hi = np.searchsorted(sx1, ra.x2[order] + dist, side="left")
        counts = hi - np.arange(1, n + 1, dtype=np.int64)
        np.maximum(counts, 0, out=counts)
        bands = None
        if int(counts.sum()) >= BAND_MIN_CANDIDATES:
            bands = _band_layout(sx1, ra.y1[order], ra.x2[order],
                                 ra.y2[order], dist)
        del sx1
        row_band = None
        if bands is not None:
            # Rows are band members, ordered by the packed (band, x-rank)
            # key; a row's window ends at its band's first member at or
            # past its x-rank bound.
            y0, height = bands[0], bands[1]
            rank, row_band, counts = _band_rows(bands, hi)
            del bands
            order = order[rank]
            del rank
        del hi
        cum = _offsets(counts)
        tracer = get_tracer()
        tracer.count("kernel.sweep.candidates", int(cum[-1]))

        x1, y1, x2, y2, ids = ra.x1, ra.y1, ra.x2, ra.y2, ra.ids
        rows = len(order)
        dist_sq = dist * dist
        found: List[List[np.ndarray]] = []
        p0 = 0
        while p0 < rows:
            p1 = int(np.searchsorted(cum, cum[p0] + SWEEP_BLOCK,
                                     side="left"))
            p1 = min(max(p1, p0 + 1), rows)
            blk = counts[p0:p1]
            total = int(cum[p1] - cum[p0])
            if total == 0:
                p0 = p1
                continue
            p_idx = np.repeat(np.arange(p0, p1, dtype=np.int64), blk)
            offs = np.arange(total, dtype=np.int64) \
                - np.repeat(cum[p0:p1] - cum[p0], blk)
            q_idx = p_idx + 1 + offs
            p, q = order[p_idx], order[q_idx]

            # x1[q] >= x1[p] in sweep order, so the interval-gap formula
            # collapses to x1[q] - min(x2).
            xg = x1[q] - np.minimum(x2[p], x2[q])
            py1 = y1[p]
            qy1 = y1[q]
            yg = batch_gap(py1, y2[p], qy1, y2[q])
            sep = batch_separation_sq(xg, yg)
            mask = sep < dist_sq
            if ids is not None:
                mask &= ids[p] != ids[q]
            if row_band is not None:
                # Keep the pair in the band of max(y1_p, y1_q) only.
                mask &= (np.maximum(py1, qy1) - y0) // height \
                    == row_band[p_idx]
            if mask.any():
                p, q = p[mask], q[mask]
                # One packed key per pair: (i, j) order is key order.
                cols = [np.minimum(p, q) * n + np.maximum(p, q)]
                if measured:
                    cols += [sep[mask], xg[mask], yg[mask]]
                found.append(cols)
            p0 = p1

        pairs = sum(len(cols[0]) for cols in found)
        tracer.count("kernel.sweep.pairs", pairs)
        if not pairs:
            return _no_pairs(measured)
        # Keys are unique, so any sort gives the one order; the stable
        # kind follows the runs the blocks leave, and a small flow never
        # pages in numpy's separate quicksort code (0.5 MB of RSS).
        if measured:
            rows = np.empty((pairs, 5), dtype=np.int64)
            for k, c in ((0, 0), (2, 1), (3, 2), (4, 3)):
                np.concatenate([cols[c] for cols in found], out=rows[:, k])
            del found
            perm = np.argsort(rows[:, 0], kind="stable")
            for k in (0, 2, 3, 4):
                rows[:, k] = rows[perm, k]
            del perm
            np.remainder(rows[:, 0], n, out=rows[:, 1])
            np.floor_divide(rows[:, 0], n, out=rows[:, 0])
            return rows
        key = np.concatenate([cols[0] for cols in found])
        del found
        key.sort(kind="stable")
        ii = key // n
        key -= ii * n
        return ii, key


def _no_pairs(measured: bool):
    """No pairs: an empty ``(0, 5)`` row array, or two empty index
    columns."""
    if measured:
        return np.empty((0, 5), dtype=np.int64)
    return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)


def _offsets(counts):
    """Each row's first candidate slot: ``counts``' exclusive prefix
    sums, with the total appended."""
    cum = np.empty(len(counts) + 1, dtype=np.int64)
    cum[0] = 0
    np.cumsum(counts, out=cum[1:])
    return cum


def _band_layout(x1, y1, x2, y2, dist: int):
    """The bands of a sweep over these rects, or None for one band.

    Returns ``(y0, height, first, span)``: band ``k`` covers
    ``[y0 + k*height, y0 + (k+1)*height)``, and rect ``r`` joins bands
    ``first[r] .. first[r] + span[r] - 1`` — every band its inflated
    span ``[y1, y2 + dist)`` meets.

    The height balances the two costs of a band.  With ``n`` rects of
    mean inflated size ``w x h`` spread over an ``X x Y`` box, a band of
    height ``H`` holds about ``n (h + H) / Y`` rects, each replicated
    into about ``(h + H) / H`` bands, and a member's window holds its
    band's rects within ``w`` in x.  Replicas cost ``n (1 + h/H)`` rows
    and the windows about ``n (h + H)^2 w / (2 X Y H)`` candidates;
    their sum is least at ``H^2 = h^2 + 2 (X Y / n) (h / w)``.  One
    band (None) when that covers the whole box.

    The height is never below ``h``, so a rect of inflated height
    ``h_r`` joins fewer than ``h_r / H + 2`` bands, and all rects fewer
    than ``3 n``: the replicas stay within three times the input
    whatever the shapes — a chip-spanning wire raises ``h``, and the
    height with it.
    """
    n = len(x1)
    y0 = int(y1.min())
    extent_y = int(y2.max()) - y0 + dist
    extent_x = int(x2.max()) - int(x1.min()) + dist
    w = float((x2 - x1).mean()) + dist
    h = float((y2 - y1).mean()) + dist
    height = int((h * h + 2.0 * extent_x * extent_y / n * h / w) ** 0.5) + 1
    if height >= extent_y:
        return None
    first = (y1 - y0) // height
    span = (y2 + (dist - 1 - y0)) // height - first + 1
    return y0, height, first, span


def _band_rows(bands, hi):
    """The rows of a banded sweep, from :func:`_band_layout`'s bands
    and each rect's x-rank window bound ``hi``.

    Returns ``(rank, band, counts)`` per row: the member's x-rank, its
    band, and its candidate count.  Rows are ordered by the packed
    ``band * n + x-rank`` key, and a row's window ends at its band's
    first member at or past its bound.
    """
    _y0, _height, first, span = bands
    n = len(hi)
    rank = np.repeat(np.arange(n, dtype=np.int64), span)
    key = first[rank] + np.arange(len(rank), dtype=np.int64) \
        - np.repeat(np.cumsum(span) - span, span)
    key *= n
    key += rank
    key.sort()
    band = key // n
    rank = key - band * n
    counts = np.searchsorted(key, key - rank + hi[rank], side="left") \
        - np.arange(1, len(key) + 1, dtype=np.int64)
    np.maximum(counts, 0, out=counts)
    return rank, band, counts


def _region_centers2(ra: RectArray, pi: np.ndarray, pj: np.ndarray):
    """Doubled overlap-region centres of index pairs, vectorized.

    The region is the positive-area intersection, else the
    between-region (one axis overlapping with positive length, the
    other strictly disjoint), else the hull (the scalar oracle's
    ``region_center2``).  In the first two cases the doubled centre is
    exactly
    ``(ix1+ix2, iy1+iy2)`` of the *closed* projection intersections, so
    one mask covers both; everything else (corner cases and point/edge
    touches) takes the hull.
    """
    ax1, ay1 = ra.x1[pi], ra.y1[pi]
    ax2, ay2 = ra.x2[pi], ra.y2[pi]
    bx1, by1 = ra.x1[pj], ra.y1[pj]
    bx2, by2 = ra.x2[pj], ra.y2[pj]

    ix1 = np.maximum(ax1, bx1)
    ix2 = np.minimum(ax2, bx2)
    iy1 = np.maximum(ay1, by1)
    iy2 = np.minimum(ay2, by2)

    x_pos = ix1 < ix2   # positive-length x overlap
    y_pos = iy1 < iy2
    mid = (x_pos & y_pos) | (x_pos & (iy1 > iy2)) | (y_pos & (ix1 > ix2))

    hx = np.minimum(ax1, bx1) + np.maximum(ax2, bx2)
    hy = np.minimum(ay1, by1) + np.maximum(ay2, by2)
    cx2 = np.where(mid, ix1 + ix2, hx)
    cy2 = np.where(mid, iy1 + iy2, hy)
    return cx2, cy2
