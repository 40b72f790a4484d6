"""Shifter generation and Condition-2 overlap analysis (substrate S4).

Entry points:

* :func:`generate_shifters` / :func:`find_overlap_pairs` — the
  monolithic chip-wide front end (deterministic: dense shifter ids in
  feature-index order, pairs sorted by id pair);
* :mod:`repro.shifters.frontend` — the tiled path's front end: the
  same chip-wide pass (:func:`tiled_front_end`), cut into tile-local
  slices for the detection jobs (:class:`FrontEndSlicer`).
"""

from .frontend import FrontEndSlicer, ShifterKey, tiled_front_end
from .generation import generate_shifters
from .overlap import (
    OverlapPair,
    PairList,
    find_overlap_pairs,
    needed_space,
    pair_columns,
)
from .shifter import (
    BOTTOM,
    LEFT,
    OPPOSING_SIDES,
    RIGHT,
    SIDE_CODE,
    SIDES,
    TOP,
    Shifter,
    ShifterSet,
)

__all__ = [
    "Shifter",
    "ShifterSet",
    "ShifterKey",
    "LEFT",
    "RIGHT",
    "TOP",
    "BOTTOM",
    "OPPOSING_SIDES",
    "SIDES",
    "SIDE_CODE",
    "generate_shifters",
    "OverlapPair",
    "PairList",
    "pair_columns",
    "find_overlap_pairs",
    "needed_space",
    "FrontEndSlicer",
    "tiled_front_end",
]
