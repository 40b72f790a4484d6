"""Shifter generation and Condition-2 overlap analysis (substrate S4).

Entry points:

* :func:`generate_shifters` / :func:`find_overlap_pairs` — the
  monolithic chip-wide front end (deterministic: dense shifter ids in
  feature-index order, pairs sorted by id pair);
* :mod:`repro.shifters.frontend` — the tile-scoped incremental front
  end: per-capture-window artifacts with coordinate-anchored ids,
  content-addressed under the ``frontend`` cache kind and spliced back
  into the exact monolithic shifter set and pair list.
"""

from .frontend import (
    FrontEndSlicer,
    ShifterKey,
    SpliceError,
    TileFrontEnd,
    compute_tile_front_end,
    frontend_cache_key,
    splice_front_ends,
    tiled_front_end,
)
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
    "TileFrontEnd",
    "SpliceError",
    "compute_tile_front_end",
    "frontend_cache_key",
    "splice_front_ends",
    "tiled_front_end",
]
