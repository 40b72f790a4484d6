"""Conflict correction by end-to-end space insertion (substrate S10)."""

from .flow import (
    CorrectionReport,
    CutRestrictions,
    GridLine,
    build_grid_lines,
    correct_layout,
    plan_correction,
)
from .mask_split import HybridPlan, MaskSplit, plan_hybrid_correction
from .options import AXIS_X, AXIS_Y, CorrectionOption, conflict_options
from .setcover import (
    CoverSet,
    UncoverableError,
    cover_cost,
    exact_weighted_set_cover,
    greedy_weighted_set_cover,
    is_cover,
)
from .spacer import SpaceCut, apply_cuts, stretched_feature_indices
from .windows import (
    CorrectionWindow,
    ExactCoverTooLargeError,
    cluster_windows,
    solve_cover_windows,
)
from .widening import (
    WideningMove,
    apply_widening,
    plan_widening,
    widened_rect,
    widening_candidates,
    widening_is_legal,
)

__all__ = [
    "CorrectionOption",
    "conflict_options",
    "MaskSplit",
    "HybridPlan",
    "plan_hybrid_correction",
    "WideningMove",
    "widened_rect",
    "widening_is_legal",
    "widening_candidates",
    "apply_widening",
    "plan_widening",
    "AXIS_X",
    "AXIS_Y",
    "CoverSet",
    "greedy_weighted_set_cover",
    "exact_weighted_set_cover",
    "cover_cost",
    "is_cover",
    "UncoverableError",
    "SpaceCut",
    "apply_cuts",
    "stretched_feature_indices",
    "GridLine",
    "build_grid_lines",
    "CorrectionWindow",
    "ExactCoverTooLargeError",
    "cluster_windows",
    "solve_cover_windows",
    "CutRestrictions",
    "CorrectionReport",
    "plan_correction",
    "correct_layout",
]
