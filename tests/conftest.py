"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import functools
import itertools
import random
from typing import List, Optional

import pytest

from repro.geometry import Rect
from repro.layout import Layout, Technology, layout_from_rects
from repro.shifters import find_overlap_pairs, generate_shifters

# The property-test modules import hypothesis at module scope; keep
# the rest of tier-1 runnable on a bare `pip install repro-aapsm`
# checkout (numpy + pytest only — no hypothesis, no networkx).
collect_ignore: List[str] = []
try:
    import hypothesis  # noqa: F401
except ImportError:
    collect_ignore = [
        "test_properties.py",
        "conflict/test_graphs.py",
        "correction/test_columns.py",
        "correction/test_setcover.py",
        "correction/test_spacer.py",
        "gdsii/test_records.py",
        "geometry/test_interval.py",
        "geometry/test_rect.py",
        "geometry/test_segment.py",
        "geometry/test_spatial.py",
        "graph/test_bipartize.py",
        "graph/test_coloring.py",
        "graph/test_gadgets.py",
        "graph/test_matching.py",
        "graph/test_tjoin.py",
        "phase/test_assignment.py",
        "test_integration.py",
    ]


@pytest.fixture
def tech() -> Technology:
    return Technology.node_90nm()


@functools.lru_cache(maxsize=None)
def cold_chip_layout(seed: int) -> Layout:
    """The benchmark's cold-chip layout: D7 mirrored and translated by
    ``seed`` exactly as ``perfbench/workloads.py``'s ``place`` does.
    Built once per seed per session; callers must not mutate it."""
    from repro.bench import build_design

    rng = random.Random(seed)
    sx = rng.choice((1, -1))
    sy = rng.choice((1, -1))
    dx = rng.randrange(-1_000_000, 1_000_000)
    dy = rng.randrange(-1_000_000, 1_000_000)
    rects = []
    for r in build_design("D7", cache=False).features:
        x1, x2 = sorted((sx * r.x1 + dx, sx * r.x2 + dx))
        y1, y2 = sorted((sy * r.y1 + dy, sy * r.y2 + dy))
        rects.append(Rect(x1, y1, x2, y2))
    return layout_from_rects(rects, name=f"D7-p{seed}")


def make_random_small_layout(seed: int, max_features: int = 5) -> Layout:
    """A tiny random layout of vertical gates and horizontal wires.

    Geometry is drawn from a coarse grid so shifter interactions (and
    odd cycles) happen often; used by Theorem-1 property tests where we
    brute-force all phase assignments.
    """
    rng = random.Random(seed)
    rects: List[Rect] = []
    n = rng.randint(1, max_features)
    attempts = 0
    while len(rects) < n and attempts < 100:
        attempts += 1
        if rng.random() < 0.6:
            w = rng.choice((90, 110))
            h = rng.randint(400, 900)
        else:
            h = rng.choice((90, 110))
            w = rng.randint(400, 900)
        x = rng.randrange(-2, 10) * 170
        y = rng.randrange(-2, 10) * 170
        rect = Rect(x, y, x + w, y + h)
        if any(rect.separation_sq(r) < 140 * 140 for r in rects):
            continue
        rects.append(rect)
    return layout_from_rects(rects, name=f"rand{seed}")


def brute_force_phase_assignable(layout: Layout,
                                 tech: Technology) -> Optional[dict]:
    """Ground-truth oracle: try every 0/1 phase vector.

    Returns a valid assignment dict or None.  Exponential in the number
    of shifters — only for tiny layouts.
    """
    shifters = generate_shifters(layout, tech)
    n = len(shifters)
    assert n <= 16, "layout too large for brute force"
    pairs = find_overlap_pairs(shifters, tech)
    feature_pairs = [(a.id, b.id) for a, b in shifters.feature_pairs()]
    for bits in itertools.product((0, 1), repeat=n):
        if any(bits[a] == bits[b] for a, b in feature_pairs):
            continue
        if any(bits[p.a] != bits[p.b] for p in pairs):
            continue
        return {i: bits[i] for i in range(n)}
    return None


def min_separation(rects: List[Rect]) -> Optional[int]:
    """Smallest squared pairwise separation (None for < 2 rects)."""
    best: Optional[int] = None
    for i, a in enumerate(rects):
        for b in rects[i + 1:]:
            s = a.separation_sq(b)
            if best is None or s < best:
                best = s
    return best
