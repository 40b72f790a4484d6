"""Layout database.

A :class:`Layout` is a named bag of rectangles per layer.  The AAPSM flow
only reasons about the polysilicon layer (``Layout.features``), but the
database keeps a generic layer table so GDSII round-trips and multi-layer
extensions have somewhere to live.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from ..geometry import Rect, bounding_box, union_area
from ..geometry.rect import RectList, rect_columns

POLY_LAYER = 1
SHIFTER_0_LAYER = 20
SHIFTER_180_LAYER = 21


@dataclass
class Layout:
    """A flat rectangle-based layout.

    The paper assumes "the layout is composed of a set of non-overlapping
    rectangles" (§3.1.1); :meth:`validate` checks that assumption for the
    poly layer.
    """

    name: str = "layout"
    layers: Dict[int, List[Rect]] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Poly-layer conveniences
    # ------------------------------------------------------------------
    @property
    def features(self) -> List[Rect]:
        """Rectangles on the polysilicon layer."""
        return self.layers.setdefault(POLY_LAYER, [])

    def add_feature(self, rect: Rect) -> int:
        """Append a poly feature; returns its index."""
        self.features.append(rect)
        return len(self.features) - 1

    def add_features(self, rects: Iterable[Rect]) -> None:
        self.features.extend(rects)

    def add_shape(self, layer: int, rect: Rect) -> None:
        self.layers.setdefault(layer, []).append(rect)

    # ------------------------------------------------------------------
    # Measures
    # ------------------------------------------------------------------
    @property
    def num_polygons(self) -> int:
        return len(self.features)

    def bbox(self) -> Optional[Rect]:
        """Hull of the poly features: a min/max over their int64
        columns when they carry them, else one pass over the rects."""
        cols = getattr(self.features, "columns", None)
        if cols is None:
            return bounding_box(self.features)
        if not len(cols[0]):
            return None
        x1, y1, x2, y2 = cols
        return Rect(int(x1.min()), int(y1.min()), int(x2.max()),
                    int(y2.max()))

    def die_area(self) -> int:
        """Bounding-box area in nm^2 (the paper's Table 2 "Area")."""
        box = self.bbox()
        return box.area if box is not None else 0

    def die_area_um2(self) -> float:
        return self.die_area() / 1.0e6

    def drawn_area(self) -> int:
        """Union area of the poly shapes (for density statistics)."""
        return union_area(self.features)

    def density(self) -> float:
        die = self.die_area()
        return self.drawn_area() / die if die else 0.0

    # ------------------------------------------------------------------
    def validate(self) -> List[str]:
        """Check the rectangle-layout assumption; returns problem strings."""
        problems: List[str] = []
        feats = self.features
        # O(n log n) sweep over x-sorted rects to find strict overlaps.
        order = sorted(range(len(feats)), key=lambda i: feats[i].x1)
        active: List[int] = []
        for i in order:
            r = feats[i]
            active = [j for j in active if feats[j].x2 > r.x1]
            for j in active:
                if r.strictly_intersects(feats[j]):
                    problems.append(
                        f"features {j} and {i} overlap: {feats[j]} {r}")
            active.append(i)
        return problems

    def copy(self, name: Optional[str] = None) -> "Layout":
        out = Layout(name=name or self.name)
        for layer, rects in self.layers.items():
            out.layers[layer] = list(rects)
        return out


def with_rect_columns(layout: Layout) -> Layout:
    """One layout revision with its features' int64 columns converted.

    A layout whose features already carry their columns (a corrected
    layout, a tile's sub-layout: column-only rect lists) comes back as
    it is.  Any other comes back as a new layout that shares every
    other layer and holds its features in a
    :class:`~repro.geometry.rect.RectList` copy that keeps the rects
    and carries the columns, so every column pass over the revision
    reads one conversion and the caller's layout keeps no memo.
    """
    if getattr(layout.features, "columns", None) is not None:
        return layout
    features = RectList(layout.features)
    rect_columns(features)
    return Layout(name=layout.name,
                  layers={**layout.layers, POLY_LAYER: features})


def layout_from_rects(rects: Sequence[Rect], name: str = "layout") -> Layout:
    """Build a layout whose poly layer is the given rectangles."""
    out = Layout(name=name)
    out.add_features(rects)
    return out
