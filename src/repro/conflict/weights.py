"""Edge-weight models for conflict graphs.

The paper weights graph edges "to provide a measure of the layout impact
caused by increasing the spacing between corresponding features", without
publishing the exact function.  We provide pluggable models; benches
ablate them.  All weights are positive integers, and Condition-1 feature
edges get an effectively infinite weight (they are never correctable by
spacing — Condition 1 is structural), implemented as a finite bound that
provably exceeds any sum of overlap-edge weights.

A weight model is a *column function*: ``model(pairs, shifters, tech)``
returns one int64 weight per overlap pair, in list order, computed in
passes over the pair columns (:func:`~repro.shifters.pair_columns`)
and the shifter rect columns (:attr:`~repro.shifters.ShifterSet.box`).
"""

from __future__ import annotations

import zlib
from typing import Callable, Sequence

from ..layout import Technology
from ..shifters import OverlapPair, ShifterSet, pair_columns

WeightModel = Callable[[Sequence[OverlapPair], ShifterSet, Technology],
                       "numpy.ndarray"]

# Scale factor for the generic (tie-free) weight refinement below.
# The full 32-bit CRC space keeps birthday collisions negligible even
# at full-chip pair counts (~50K pairs → p ≈ 3e-4, and a collision
# only matters if the two pairs also tie in base weight inside one
# cluster).
GENERIC_SCALE = 1 << 32

# Base weights the refinement takes: ``base * GENERIC_SCALE + tie``
# stays inside int64 exactly when ``-2**31 <= base < 2**31``.
_GENERIC_BASE_LIMIT = 1 << 31
_GENERIC_RANGE_ERROR = ("a base weight lies outside the range the generic "
                        "refinement keeps in int64")


def pair_tie_breakers(pairs: Sequence[OverlapPair],
                      shifters: ShifterSet):
    """A stable pseudo-random value in [0, GENERIC_SCALE) per pair.

    The CRC-32 of the pair's two shifter rectangles as one 64-byte row
    of little-endian int64 ``(x1, y1, x2, y2)`` of ``a`` then ``b``:
    absolute coordinates, so it is identical across processes, runs,
    and — crucially — across different *views* of the same geometry (a
    full chip and a tile both compute the same value for the same
    pair).  Python's built-in ``hash`` is salted per process and cannot
    be used here.
    """
    import numpy as np

    cols = pair_columns(pairs)
    x1, y1, x2, y2 = shifters.box
    a, b = cols[:, 0], cols[:, 1]
    data = np.stack((x1[a], y1[a], x2[a], y2[a], x1[b], y1[b], x2[b],
                     y2[b]), axis=1).astype("<i8").tobytes()
    starts = range(0, len(data), 64)
    rows = map(data.__getitem__, map(slice, starts, range(64, len(data)
                                                          + 64, 64)))
    return np.fromiter(map(zlib.crc32, rows), dtype=np.int64,
                       count=len(starts))


def make_generic(model: WeightModel) -> WeightModel:
    """Refine a weight model into a generically tie-free one.

    Returns a model computing ``base * GENERIC_SCALE + tie`` where
    ``tie`` is :func:`pair_tie_breakers`.  The refinement preserves the
    base model's strict order, so every minimum under the refined
    weights is a minimum under the base weights — but ties between
    distinct pairs become (generically) impossible, which makes the
    minimum-weight bipartization *unique*.  A unique optimum is what
    lets the tiled chip flow reproduce the monolithic conflict set
    exactly: without it, equal-weight alternatives are resolved by
    internal edge numbering, which differs between a tile view and the
    full chip.

    The refined weights are exact int64: a base weight outside
    ``[-2**31, 2**31)`` raises ValueError instead of wrapping.  Divide
    by :data:`GENERIC_SCALE` to recover base-scale weights for
    reporting.
    """

    def generic(pairs: Sequence[OverlapPair], shifters: ShifterSet,
                tech: Technology):
        import numpy as np

        try:
            base = np.asarray(model(pairs, shifters, tech), dtype=np.int64)
        except OverflowError:
            raise ValueError(_GENERIC_RANGE_ERROR) from None
        if len(base) and not (-_GENERIC_BASE_LIMIT <= base.min()
                              and base.max() < _GENERIC_BASE_LIMIT):
            raise ValueError(_GENERIC_RANGE_ERROR)
        return base * GENERIC_SCALE + pair_tie_breakers(pairs, shifters)

    generic.__name__ = f"generic_{getattr(model, '__name__', 'model')}"
    return generic


def uniform_weight(pairs: Sequence[OverlapPair], shifters: ShifterSet,
                   tech: Technology):
    """Every conflict is equally painful — counts conflicts, not cost."""
    import numpy as np

    del shifters, tech
    return np.ones(len(pairs), dtype=np.int64)


def space_needed_weight(pairs: Sequence[OverlapPair], shifters: ShifterSet,
                        tech: Technology):
    """1 + missing spacing: separating nearly-legal pairs is cheap.

    The separation is the truncated square root of ``separation_sq``.
    This is the model the detection flow defaults to; it makes the
    minimum-weight bipartization prefer conflicts that the correction
    step can fix with narrow end-to-end spaces.
    """
    import numpy as np

    del shifters
    sep = np.sqrt(pair_columns(pairs)[:, 2]).astype(np.int64)
    return 1 + np.maximum(0, tech.shifter_spacing - sep)


def facing_span_weight(pairs: Sequence[OverlapPair], shifters: ShifterSet,
                       tech: Technology):
    """1 + length of the facing span: separating long abutments is
    expensive because the inserted space must clear the whole run."""
    import numpy as np

    del tech
    cols = pair_columns(pairs)
    a, b = cols[:, 0], cols[:, 1]
    x1, y1, x2, y2 = shifters.box
    # Length of each axis' closed projection intersection, 0 if empty.
    xs = np.minimum(x2[a], x2[b]) - np.maximum(x1[a], x1[b])
    ys = np.minimum(y2[a], y2[b]) - np.maximum(y1[a], y1[b])
    return 1 + np.maximum(np.maximum(xs, ys), 0)


NAMED_MODELS = {
    "uniform": uniform_weight,
    "space": space_needed_weight,
    "span": facing_span_weight,
}


def feature_edge_weight(overlap_weights: Sequence[int]) -> int:
    """A weight no combination of overlap edges can reach.

    Any bipartization that can avoid feature edges will: the minimum
    alternative solution costs at most the sum of all overlap weights.
    Pass Python ints: the sum is then exact at any size.
    """
    return 2 * sum(overlap_weights) + 1
