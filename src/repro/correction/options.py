"""Per-conflict correction options (paper §3.2, steps 1-2).

For every AAPSM conflict the detection step selected, decide whether it
can be corrected by a *vertical* end-to-end space (widening the x-gap
between its two shifters), a *horizontal* one (widening the y-gap), or
both — and over which interval of cut positions, by how much.

A vertical cut at position ``g`` separates shifters ``a`` (left) and
``b`` (right) iff ``a.x2 <= g <= b.x1``: everything at or right of the
cut shifts, anything spanning it stretches, so the pair's x-gap grows by
exactly the cut width only when the cut runs through their gap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..geometry import Interval
from ..geometry.interval import batch_gap
from ..layout import Technology
from ..shifters import ShifterSet

AXIS_X = "x"  # vertical cut line, widens x-gaps
AXIS_Y = "y"  # horizontal cut line, widens y-gaps


@dataclass(frozen=True)
class CorrectionOption:
    """One way to fix one conflict.

    Attributes:
        conflict: shifter id pair.
        axis: "x" for a vertical end-to-end space, "y" for horizontal.
        interval: closed range of cut positions separating the pair.
        need: minimum space width restoring the shifter-spacing rule.
    """

    conflict: Tuple[int, int]
    axis: str
    interval: Interval
    need: int


def _ceil_sqrt(np, n):
    """Smallest ``x >= 0`` with ``x * x >= n``, elementwise over int64:
    a float estimate rounded up, then exact int64 steps (the estimate
    is off by at most one, and exact below 2**52)."""
    x = np.sqrt(np.maximum(n, 0).astype(np.float64)).astype(np.int64)
    x += x * x < n
    while True:
        up = x * x < n
        down = (x > 0) & ((x - 1) * (x - 1) >= n)
        if not (up.any() or down.any()):
            return x
        x += up
        x -= down


def rect_pair_options(keys: Sequence[Tuple[int, int]], box, rule: int
                      ) -> Dict[Tuple[int, int], List[CorrectionOption]]:
    """Correction options for rect pairs under a spacing rule.

    ``box`` is a ``(4, n)`` int64 array of rects, rows ``x1, y1, x2,
    y2``; each key ``(i, j)`` names the pair of its columns ``i`` and
    ``j``.  One column pass over the gathered pair boxes decides both
    axes (rows x and y of ``(2, k)`` arrays): a cut on an axis
    separates the pair when their projections there are disjoint or
    touch, over the gap between them, and needs the space restoring
    ``rule`` given the pair's gap on the other axis (zero where they
    overlap there).  Options are made only where an axis has one.  The
    general engine behind :func:`conflict_options`; the dark-field
    flow uses it directly on feature rectangles.
    """
    import numpy as np

    ends = np.array(keys, dtype=np.int64).reshape(-1, 2)
    a, b = box[:, ends[:, 0]], box[:, ends[:, 1]]
    a_lo, a_hi, b_lo, b_hi = a[:2], a[2:], b[:2], b[2:]
    b_after = b_lo >= a_hi
    lo = np.where(b_after, a_hi, b_hi)
    hi = np.where(b_after, b_lo, a_lo)
    other = np.maximum(batch_gap(a_lo, a_hi, b_lo, b_hi), 0)[::-1]
    need = _ceil_sqrt(np, rule * rule - other * other) - (hi - lo)
    ok = (b_after | (a_lo >= b_hi)) & (other < rule) & (need > 0)
    out: Dict[Tuple[int, int], List[CorrectionOption]] = {}
    for key, oks, los, his, needs in zip(keys, ok.T.tolist(),
                                         lo.T.tolist(), hi.T.tolist(),
                                         need.T.tolist()):
        out[key] = [CorrectionOption(key, axis, Interval(los[k], his[k]),
                                     needs[k])
                    for k, axis in enumerate((AXIS_X, AXIS_Y)) if oks[k]]
    return out


def conflict_options(conflicts: List[Tuple[int, int]],
                     shifters: ShifterSet,
                     tech: Technology
                     ) -> Dict[Tuple[int, int], List[CorrectionOption]]:
    """Correction options per conflict; an empty list means the conflict
    cannot be fixed by end-to-end spacing (e.g. a T-shape interaction —
    the paper hands those to mask splitting or feature widening).

    The pairs' boxes are gathered from the shifter set's box columns:
    no per-shifter :class:`~repro.geometry.Rect` is made."""
    return rect_pair_options(conflicts, shifters.box, tech.shifter_spacing)
