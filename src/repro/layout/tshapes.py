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

from ..geometry import Rect, neighbor_pairs
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


def _is_tshape(stem: Rect, bar: Rect) -> bool:
    """Does ``stem`` end on (touch or overlap) a long side of ``bar``?"""
    if not stem.intersects(bar):
        return False
    if stem.is_vertical == bar.is_vertical:
        return False  # parallel abutment is a butt joint, not a T
    if stem.is_vertical:
        # Stem runs vertically; its end must meet bar's horizontal run.
        return bar.xspan.strictly_overlaps(stem.xspan)
    return bar.yspan.strictly_overlaps(stem.yspan)


def find_tshapes(layout: Layout) -> List[TShape]:
    """All perpendicular abutments in a layout, both orientations."""
    feats = layout.features
    out: List[TShape] = []
    for i, j in neighbor_pairs(feats, 1):
        for stem, bar in ((i, j), (j, i)):
            if _is_tshape(feats[stem], feats[bar]):
                out.append(TShape(stem=stem, bar=bar))
    return sorted(out, key=lambda t: t.key)


def tshape_feature_indices(layout: Layout) -> Set[int]:
    """Features participating in any T-shape."""
    out: Set[int] = set()
    for t in find_tshapes(layout):
        out.add(t.stem)
        out.add(t.bar)
    return out


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
