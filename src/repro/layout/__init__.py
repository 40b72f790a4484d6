"""Layout database, rules, DRC and workload generation (substrate S3/S12)."""

from .critical import critical_fraction, critical_mask
from .drc import Violation, check_layout, check_spacing, check_width, is_drc_clean
from .generator import (
    GeneratorParams,
    conflict_grid_layout,
    figure1_layout,
    grating_layout,
    odd_cycle_chain,
    random_rect_layout,
    standard_cell_layout,
)
from .layout import (
    POLY_LAYER,
    SHIFTER_0_LAYER,
    SHIFTER_180_LAYER,
    Layout,
    layout_from_rects,
    with_rect_columns,
)
from .technology import Technology, tech_fingerprint
from .tshapes import (
    LineEndPair,
    TShape,
    find_line_end_pairs,
    find_tshapes,
    tshape_feature_indices,
)

__all__ = [
    "Layout",
    "layout_from_rects",
    "with_rect_columns",
    "POLY_LAYER",
    "SHIFTER_0_LAYER",
    "SHIFTER_180_LAYER",
    "Technology",
    "tech_fingerprint",
    "critical_mask",
    "critical_fraction",
    "Violation",
    "check_layout",
    "check_width",
    "check_spacing",
    "is_drc_clean",
    "TShape",
    "find_tshapes",
    "tshape_feature_indices",
    "LineEndPair",
    "find_line_end_pairs",
    "GeneratorParams",
    "standard_cell_layout",
    "grating_layout",
    "figure1_layout",
    "odd_cycle_chain",
    "conflict_grid_layout",
    "random_rect_layout",
]
