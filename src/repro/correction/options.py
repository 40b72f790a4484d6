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
from typing import Dict, List, Tuple

from ..geometry import Interval, Rect
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


def axis_option(conflict: Tuple[int, int], ra: Rect, rb: Rect,
                 axis: str, rule: int):
    if axis == AXIS_X:
        span_a, span_b = ra.xspan, rb.xspan
        other_gap = ra.y_gap(rb)
    else:
        span_a, span_b = ra.yspan, rb.yspan
        other_gap = ra.x_gap(rb)

    if span_b.lo >= span_a.hi:
        interval = Interval(span_a.hi, span_b.lo)
    elif span_a.lo >= span_b.hi:
        interval = Interval(span_b.hi, span_a.lo)
    else:
        return None  # projections overlap: a cut cannot separate them

    gap = interval.length
    other = max(0, other_gap)
    if other >= rule:
        return None  # already legal; not a real conflict on this axis
    need_sq = rule * rule - other * other
    target = _isqrt_ceil(need_sq)
    need = target - gap
    if need <= 0:
        return None
    return CorrectionOption(conflict=conflict, axis=axis,
                            interval=interval, need=need)


def _isqrt_ceil(n: int) -> int:
    if n <= 0:
        return 0
    x = int(n ** 0.5)
    while x * x >= n:
        x -= 1
    while x * x < n:
        x += 1
    return x


def rect_pair_options(keyed_rects: Dict[Tuple[int, int],
                                        Tuple[Rect, Rect]],
                      rule: int
                      ) -> Dict[Tuple[int, int], List[CorrectionOption]]:
    """Correction options for arbitrary rect pairs under a spacing rule.

    The general engine behind :func:`conflict_options`; the dark-field
    flow uses it directly on feature rectangles.
    """
    out: Dict[Tuple[int, int], List[CorrectionOption]] = {}
    for key, (ra, rb) in keyed_rects.items():
        options: List[CorrectionOption] = []
        for axis in (AXIS_X, AXIS_Y):
            opt = axis_option(key, ra, rb, axis, rule)
            if opt is not None:
                options.append(opt)
        out[key] = options
    return out


def conflict_options(conflicts: List[Tuple[int, int]],
                     shifters: ShifterSet,
                     tech: Technology
                     ) -> Dict[Tuple[int, int], List[CorrectionOption]]:
    """Correction options per conflict; an empty list means the conflict
    cannot be fixed by end-to-end spacing (e.g. a T-shape interaction —
    the paper hands those to mask splitting or feature widening)."""
    rect_of = shifters.rect_of
    keyed = {key: (rect_of(key[0]), rect_of(key[1])) for key in conflicts}
    return rect_pair_options(keyed, tech.shifter_spacing)
