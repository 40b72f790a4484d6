"""Shifter generation.

For every critical feature we create two shifters abutting the feature on
the two sides of its critical dimension, extended past the line ends by
the technology's shifter extension — the standard bright-field recipe the
paper assumes as input ("given a layout with shifters inserted around each
critical feature").
"""

from __future__ import annotations

from ..geometry.rect import rect_columns
from ..layout import Layout, Technology, critical_mask
from .shifter import BOTTOM, LEFT, RIGHT, SIDE_CODE, TOP, ShifterSet


def generate_shifters(layout: Layout, tech: Technology) -> ShifterSet:
    """Generate the full shifter set of a layout, in one column pass.

    Args:
        layout: the layout; every feature whose drawn width
            (``min(w, h)``) is below the rule deck's critical threshold
            gets two shifters.
        tech: rule deck (shifter width/extension and the criticality
            threshold).

    A critical feature is *vertical* when ``h >= w`` (a square one
    included): its shifters are ``w`` wide, abut its left and right
    edges and overhang both line ends by the extension ``e``; a
    horizontal one gets a bottom and a top shifter the same way.  The
    rects are computed by arithmetic on the layout's rect columns.

    Determinism guarantee: shifter ids are dense and reproducible —
    features in index order, left-before-right / bottom-before-top
    within a feature — and each shifter rect is a pure function of its
    feature rect and the rule deck.  Two runs (or two tiles capturing
    the same feature in absolute coordinates) therefore produce
    byte-identical shifter geometry, so a tile's slice of the chip
    pass (:class:`~repro.shifters.frontend.FrontEndSlicer`) equals
    generation on the tile's sub-layout.
    """
    import numpy as np

    x1, y1, x2, y2 = rect_columns(layout.features)
    index = np.flatnonzero(critical_mask(x1, y1, x2, y2, tech))
    x1, y1, x2, y2 = x1[index], y1[index], x2[index], y2[index]
    vertical = y2 - y1 >= x2 - x1
    w = tech.shifter_width
    e = tech.shifter_extension
    # Rows 0-3: the first shifter's rect (left / bottom), 4-7: the
    # second's (right / top), one column per critical feature.
    box = np.where(vertical, (x1 - w, y1 - e, x1, y2 + e,
                              x2, y1 - e, x2 + w, y2 + e),
                   (x1 - e, y1 - w, x2 + e, y1,
                    x1 - e, y2, x2 + e, y2 + w))
    code = np.where(vertical, [[SIDE_CODE[LEFT]], [SIDE_CODE[RIGHT]]],
                    [[SIDE_CODE[BOTTOM]], [SIDE_CODE[TOP]]])
    # Interleave: shifters 2k and 2k+1 flank the k-th critical feature.
    n = 2 * len(index)
    return ShifterSet(np.repeat(index, 2), code.T.reshape(n),
                      box.reshape(2, 4, len(index)).transpose(1, 2, 0)
                      .reshape(4, n))
