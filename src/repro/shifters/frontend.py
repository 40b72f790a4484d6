"""The tiled path's front end: one chip-wide pass, sliced per tile.

The flow's first stage — shifter generation plus Condition-2 overlap
pairing — runs once per layout revision, chip-wide, on the tiled path
as on the monolithic one (:func:`tiled_front_end`).  Tiled detection
then hands each tile job its slice of that pass
(:class:`FrontEndSlicer`): the shifters of the tile's features and the
pairs with both shifters inside, renumbered tile-locally, instead of a
sub-layout to regenerate.

A tile *owns* a feature when the feature's centre lies in its owner
window, and a pair when the centre of the pair's overlap region
(:meth:`~repro.geometry.kernels.GeometryKernel.region_center_arrays`)
does: owner windows partition the plane, so summed over tiles every
feature and pair is owned exactly once (:func:`_owns_points2`, the
executor's ownership test).  Tiles name shifters by
:data:`ShifterKey`, the guarded feature's rect plus side, so stitched
results do not depend on any tile's local numbering.

This module deliberately does **not** import :mod:`repro.chip`
(which imports :mod:`repro.shifters`).
"""

from __future__ import annotations

from typing import Sequence, Tuple

from ..layout import Layout, Technology
from ..obs import get_tracer
from . import generation, overlap
from .overlap import OverlapPair, PairList, pair_columns
from .shifter import ShifterSet

# A feature/shifter rectangle as a plain hashable tuple.
RectTuple = Tuple[int, int, int, int]

# Canonical, renumbering-stable shifter identity: the guarded feature's
# rect in absolute chip coordinates plus which side the shifter sits on.
ShifterKey = Tuple[RectTuple, str]

# Owner-region bounds, as produced by repro.chip.partition.
Bounds = Tuple[int, int, int, int]


class FrontEndSlicer:
    """Cuts one chip front end into tile-local front ends.

    A tile's slice is the shifters of its features — renumbered in
    chip order, with tile-local feature indices — and the overlap pairs
    with both shifters inside, renumbered: column slices of the chip's
    shifter and pair columns.  It equals :func:`generate_shifters` +
    :func:`find_overlap_pairs` on the tile's sub-layout byte for byte:
    the partition appends each tile's features in chip order,
    generation is per feature, and Condition-2 pairing is pairwise.
    """

    def __init__(self, shifters: ShifterSet,
                 pairs: Sequence[OverlapPair], num_features: int) -> None:
        self.shifters = shifters
        self.num_features = num_features
        self.pairs = pair_columns(pairs)

    def slice(self, feature_ids: Sequence[int]
              ) -> Tuple[ShifterSet, PairList]:
        """The front end of the sub-layout made of ``feature_ids``
        (ascending chip feature indices, in sub-layout order)."""
        import numpy as np

        chip = self.shifters
        local = np.full(self.num_features, -1, dtype=np.int64)
        local[np.asarray(feature_ids, dtype=np.int64)] = \
            np.arange(len(feature_ids), dtype=np.int64)
        tile_feature = local[chip.feature_column()]
        picked = np.flatnonzero(tile_feature >= 0)
        shifters = ShifterSet(tile_feature[picked],
                              chip.code_column()[picked],
                              chip.box[:, picked])

        renumber = np.full(len(chip), -1, dtype=np.int64)
        renumber[picked] = np.arange(len(picked), dtype=np.int64)
        rows = self.pairs
        ab = renumber[rows[:, :2]]
        inside = (ab >= 0).all(axis=1)
        cols = np.concatenate((ab[inside], rows[inside, 2:]), axis=1)
        return shifters, PairList(cols)


def _owns_points2(owner: Bounds, px2, py2):
    """Half-open ownership test over int64 columns of doubled points.

    ``2*lo <= p2 < 2*hi`` is ``lo <= p2 >> 1 < hi`` (floor shift), which
    keeps the open owner sides (``1 << 62``) from overflowing int64.
    """
    ox1, oy1, ox2, oy2 = owner
    hx = px2 >> 1
    hy = py2 >> 1
    return (ox1 <= hx) & (hx < ox2) & (oy1 <= hy) & (hy < oy2)


def tiled_front_end(layout: Layout, tech: Technology
                    ) -> Tuple[ShifterSet, PairList]:
    """The tiled stage's front end: one chip-wide pass.

    :func:`~repro.shifters.generation.generate_shifters` +
    :func:`~repro.shifters.overlap.find_overlap_pairs` over the whole
    revision — the monolithic pass itself, so every consumer downstream
    sees the same dense shifter ids and sorted pair list on either
    path.  Each call counts ``frontend.chip_wide_passes`` under a live
    tracer: a flow that cuts runs two (base and corrected revision).
    """
    get_tracer().count("frontend.chip_wide_passes")
    shifters = generation.generate_shifters(layout, tech)
    return shifters, overlap.find_overlap_pairs(shifters, tech)
