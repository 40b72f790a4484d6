"""Full-chip robustness (paper: "quite robust ... on a full-chip layout
with approximately 160K polygons").

Our documented scaling substitution runs the largest suite designs
through the complete detection flow and records near-linear wall-clock
growth.
"""

import pytest

from repro.bench import build_design
from repro.conflict import detect_conflicts

BIG_DESIGNS = ["D5", "D6", "D7", "D8"]


@pytest.mark.parametrize("name", BIG_DESIGNS)
def test_fullchip_detection(benchmark, tech, collect_row, name):
    layout = build_design(name)
    report = benchmark.pedantic(
        lambda: detect_conflicts(layout, tech),
        rounds=1, iterations=1)
    collect_row("Full-chip scaling — detection flow", {
        "design": name,
        "polygons": report.num_features,
        "shifters": report.num_shifters,
        "overlap_pairs": report.num_overlap_pairs,
        "conflicts": report.num_conflicts,
        "P": report.crossings_removed,
        "t_detect_s": round(report.detect_seconds, 2),
    })
    assert report.num_conflicts > 0


def test_scaling_is_subquadratic(benchmark, tech, collect_row):
    """Doubling the polygon count should far less than 4x the runtime."""
    small, big = benchmark.pedantic(
        lambda: (detect_conflicts(build_design("D5"), tech),
                 detect_conflicts(build_design("D7"), tech)),
        rounds=1, iterations=1)
    size_ratio = big.num_features / small.num_features
    time_ratio = big.detect_seconds / max(small.detect_seconds, 1e-9)
    collect_row("Full-chip scaling — growth", {
        "size_ratio": round(size_ratio, 2),
        "time_ratio": round(time_ratio, 2),
    })
    assert time_ratio < size_ratio ** 2
