"""Critical-feature extraction.

A feature is *critical* when its drawn width (minimum rectangle
dimension) is below the technology's critical-width threshold; critical
features must be flanked by opposite-phase shifters.  The paper's earlier
work assumed only minimum-width features are critical; this paper relaxes
that, so the extractor reports every sub-threshold feature regardless of
how its width compares to the minimum rule.

Extraction is one mask over the layout's int64 rect columns, shared by
the bright-field shifter generator and the dark-field conflict graph.
"""

from __future__ import annotations

from ..geometry.rect import rect_columns
from .layout import Layout
from .technology import Technology


def critical_mask(x1, y1, x2, y2, tech: Technology):
    """Which rects are critical: a boolean column over int64 corner
    columns, true where ``min(w, h)`` is below the critical width."""
    import numpy as np

    return tech.is_critical_width(np.minimum(x2 - x1, y2 - y1))


def critical_fraction(layout: Layout, tech: Technology) -> float:
    """Share of features that are critical (workload characterisation)."""
    if not layout.features:
        return 0.0
    mask = critical_mask(*rect_columns(layout.features), tech)
    return int(mask.sum()) / len(layout.features)
