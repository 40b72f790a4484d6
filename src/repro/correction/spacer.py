"""End-to-end space insertion.

A :class:`SpaceCut` is a full-die band of extra space: a vertical cut at
``position`` shifts every rectangle lying at or right of the line and
stretches every rectangle spanning it (and symmetrically for horizontal
cuts).  Because the space runs end-to-end, no pair of shapes ever gets
*closer* — the paper's argument for why the scheme cannot introduce
spacing violations (verified by the test suite with a real DRC run).

Cut positions always refer to the *original* coordinate system; the
inserter composes any number of cuts in one column pass per layer via
prefix sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from ..geometry.rect import RectList, rect_columns
from ..layout import Layout


@dataclass(frozen=True)
class SpaceCut:
    """One end-to-end space band.

    Attributes:
        axis: "x" = vertical line (widens x-coordinates),
              "y" = horizontal line.
        position: cut coordinate in the original layout.
        width: inserted space in nm (> 0).
    """

    axis: str
    position: int
    width: int

    def __post_init__(self) -> None:
        if self.axis not in ("x", "y"):
            raise ValueError(f"axis must be 'x' or 'y', got {self.axis!r}")
        if self.width <= 0:
            raise ValueError("cut width must be positive")


def _shift_columns(np, cuts: Sequence[SpaceCut], low, high):
    """One axis of :func:`apply_cuts`: the low and high coordinate
    columns, each moved by the total width of the cuts before it.

    A low edge moves by the cuts at positions <= its coordinate, a high
    edge by those at positions < its coordinate, so a rect spanning a
    cut stretches and one starting on it moves whole.  One
    ``searchsorted`` per column against the sorted cut positions reads
    the prefix sums of the cut widths.
    """
    positions = np.array([c.position for c in cuts], dtype=np.int64)
    order = np.argsort(positions, kind="stable")
    prefix = np.zeros(len(cuts) + 1, dtype=np.int64)
    np.cumsum(np.array([c.width for c in cuts], dtype=np.int64)[order],
              out=prefix[1:])
    positions = positions[order]
    return (low + prefix[np.searchsorted(positions, low, side="right")],
            high + prefix[np.searchsorted(positions, high, side="left")])


def apply_cuts(layout: Layout, cuts: Sequence[SpaceCut]) -> Layout:
    """Return a new layout with all cuts applied (input untouched).

    Column passes over each layer's rect columns; every layer keeps its
    rect order, in a column-only
    :class:`~repro.geometry.rect.RectList` holding the moved columns
    and no rect.
    """
    import numpy as np

    xcuts = [c for c in cuts if c.axis == "x"]
    ycuts = [c for c in cuts if c.axis == "y"]
    out = Layout(name=f"{layout.name}+spaced")
    for layer, rects in layout.layers.items():
        x1, y1, x2, y2 = rect_columns(rects)
        x1, x2 = _shift_columns(np, xcuts, x1, x2)
        y1, y2 = _shift_columns(np, ycuts, y1, y2)
        out.layers[layer] = RectList(columns=(x1, y1, x2, y2))
    return out


def stretched_feature_mask(x1, y1, x2, y2, cuts: Sequence[SpaceCut]):
    """Which rects a cut would widen: a boolean column over int64
    corner columns.

    The paper requires spaces to lengthen features, never widen them;
    a vertical cut through the interior of a vertical (critical-width)
    feature would widen it.  A rect offends when some cut on its
    critical axis falls strictly inside its span there: one
    ``searchsorted`` per axis against the sorted cut positions finds
    the first cut past the span's low end.
    """
    import numpy as np

    vertical = y2 - y1 >= x2 - x1
    return np.where(vertical, _cut_inside(np, cuts, "x", x1, x2),
                    _cut_inside(np, cuts, "y", y1, y2))


_PAST_EVERY_COORDINATE = (1 << 63) - 1


def _cut_inside(np, cuts: Sequence[SpaceCut], axis: str, lo, hi):
    """Whether a cut on ``axis`` lies strictly inside each ``(lo, hi)``
    span.  A sentinel past every coordinate ends the sorted positions,
    so the first cut past ``lo`` always exists."""
    positions = np.array(sorted(c.position for c in cuts if c.axis == axis)
                         + [_PAST_EVERY_COORDINATE], dtype=np.int64)
    return positions[np.searchsorted(positions, lo, side="right")] < hi


def stretched_feature_indices(layout: Layout,
                              cuts: Sequence[SpaceCut]) -> List[int]:
    """Features whose *critical* dimension a cut would stretch
    (:func:`stretched_feature_mask` over the layout's columns).  The
    correction flow uses this to snap cut positions away from such
    features when the interval allows, and the report surfaces any
    that remain."""
    import numpy as np

    return np.flatnonzero(stretched_feature_mask(
        *rect_columns(layout.features), cuts)).tolist()
