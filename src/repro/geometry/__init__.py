"""Integer Manhattan geometry kernel (substrate S1).

Everything downstream — layouts, shifters, conflict graphs, the space
insertion engine — is built on the exact integer primitives exported
here.
"""

from .interval import (
    Interval,
    endpoints,
    interval_point_cover,
    merge_intervals,
    stab_count,
    total_length,
)
from .rect import Rect, bounding_box, pairwise_disjoint, union_area
from .segment import (
    on_segment,
    orientation,
    point_on_open_segment,
    proper_crossing,
    segment_bbox,
    segments_conflict,
    segments_intersect,
)
from .kernels import GeometryKernel, get_kernel, neighbor_pairs

__all__ = [
    "Interval",
    "merge_intervals",
    "total_length",
    "interval_point_cover",
    "endpoints",
    "stab_count",
    "Rect",
    "bounding_box",
    "union_area",
    "pairwise_disjoint",
    "orientation",
    "on_segment",
    "segments_intersect",
    "proper_crossing",
    "segments_conflict",
    "point_on_open_segment",
    "segment_bbox",
    "neighbor_pairs",
    "GeometryKernel",
    "get_kernel",
]
