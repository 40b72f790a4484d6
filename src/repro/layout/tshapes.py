"""T-shape and line-end interaction detection.

The paper's §4 scopes its corrector: "AAPSM conflicts caused by
T-shapes are not handled.  These can be corrected by feature widening
or mask splitting"; and "conflicts caused by local line-end conflicts
... can be efficiently detected and corrected using additional DRC
checks during layout generation".  This module supplies those checks so
the flow can (a) exclude T-shape-adjacent constraints from the spacing
corrector and (b) report line-end pairs for the layout generator's DRC.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Set, Tuple

from ..geometry import get_kernel, neighbor_pairs
from ..geometry.rect import rect_columns
from .layout import Layout
from .technology import Technology


@dataclass(frozen=True)
class TShape:
    """A perpendicular abutment between two features.

    ``bar`` is the feature whose side the ``stem`` feature's end lands
    on.  A shifter flanking the stem collides with the bar itself, so
    no amount of spacing between *shifters* fixes the interaction —
    exactly the case the paper routes to widening or mask splitting.
    """

    stem: int
    bar: int

    @property
    def key(self) -> Tuple[int, int]:
        return (self.stem, self.bar)


def _tshape_pairs(layout: Layout):
    """Every ``(stem, bar)`` abutment as two int64 index columns,
    sorted by ``(stem, bar)``.

    One column pass over the kernel's touching pairs (separation 0,
    so every candidate intersects, closed): ``stem`` ends on a long
    side of ``bar`` when the two run perpendicular and ``bar``'s run
    strictly overlaps ``stem``'s width (its x-span for a vertical
    stem, its y-span for a horizontal one).
    """
    import numpy as np

    x1, y1, x2, y2 = rect_columns(layout.features)
    i, j = get_kernel().neighbor_pair_arrays(x1, y1, x2, y2, 1)
    if not len(i):
        return i, j
    stem = np.concatenate((i, j))
    bar = np.concatenate((j, i))
    vertical = y2 - y1 >= x2 - x1
    sv = vertical[stem]

    def across(k):
        """Span across the stem's run: x for a vertical stem, y for a
        horizontal one."""
        return np.where(sv, x1[k], y1[k]), np.where(sv, x2[k], y2[k])

    stem_lo, stem_hi = across(stem)
    bar_lo, bar_hi = across(bar)
    keep = (sv != vertical[bar]) & (bar_lo < stem_hi) & (stem_lo < bar_hi)
    stem, bar = stem[keep], bar[keep]
    order = np.lexsort((bar, stem))
    return stem[order], bar[order]


def find_tshapes(layout: Layout) -> List[TShape]:
    """All perpendicular abutments in a layout, both orientations,
    sorted by ``(stem, bar)``."""
    stem, bar = _tshape_pairs(layout)
    return list(map(TShape, stem.tolist(), bar.tolist()))


def tshape_feature_indices(layout: Layout) -> Set[int]:
    """Features participating in any T-shape."""
    stem, bar = _tshape_pairs(layout)
    return set(stem.tolist()) | set(bar.tolist())


@dataclass(frozen=True)
class LineEndPair:
    """Two collinear feature ends facing each other below the rule.

    The paper: line-end conflicts "can be efficiently detected and
    corrected using additional DRC checks during layout generation" —
    this is that check.
    """

    a: int
    b: int
    gap: int


def find_line_end_pairs(layout: Layout, tech: Technology,
                        min_gap: int = 0) -> List[LineEndPair]:
    """Facing end-to-end feature pairs with gap below the threshold.

    ``min_gap`` defaults to the distance at which the end shifters of
    the two features would interact (shifter extensions face each
    other): 2 * extension + shifter spacing.
    """
    if min_gap <= 0:
        min_gap = 2 * tech.shifter_extension + tech.shifter_spacing
    feats = layout.features
    out: List[LineEndPair] = []
    for i, j in neighbor_pairs(list(feats), min_gap):
        a, b = feats[i], feats[j]
        if a.is_vertical != b.is_vertical:
            continue
        if a.is_vertical:
            aligned = a.xspan.strictly_overlaps(b.xspan)
            gap = a.y_gap(b)
        else:
            aligned = a.yspan.strictly_overlaps(b.yspan)
            gap = a.x_gap(b)
        if aligned and 0 <= gap < min_gap:
            out.append(LineEndPair(a=i, b=j, gap=gap))
    return sorted(out, key=lambda p: (p.a, p.b))
