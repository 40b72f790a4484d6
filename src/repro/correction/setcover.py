"""Weighted set cover.

The paper picks grid-lines with "a covering solver from Berkeley"
(espresso/mincov).  We provide the classic ln(n)-approximate greedy
cover as the production path and an exact branch-and-bound solver that
doubles as its ground truth on small instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Hashable, List, Optional, Sequence, Set, Tuple


@dataclass(frozen=True)
class CoverSet:
    """One candidate set: id, covered elements, positive weight."""

    id: int
    elements: FrozenSet[Hashable]
    weight: int

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ValueError("set weights must be positive")


class UncoverableError(ValueError):
    """Raised when some universe element appears in no set."""


# Shared "auto" policy: exact cover only when the instance is small
# enough to finish instantly.  One definition, used by the windowed
# planner and by the whole-instance cover the tests compare it with,
# so they always agree on the solver.
AUTO_EXACT_MAX_ELEMENTS = 16
AUTO_EXACT_MAX_SETS = 32
# Hard caps of the branch-and-bound itself (per instance it is run on).
EXACT_CAP_ELEMENTS = 64
EXACT_CAP_SETS = 64


def use_exact_cover(cover: str, num_elements: int, num_sets: int) -> bool:
    """Resolve a cover mode ("exact"/"greedy"/"auto") for an instance."""
    if cover == "exact":
        return True
    return (cover == "auto" and num_elements <= AUTO_EXACT_MAX_ELEMENTS
            and num_sets <= AUTO_EXACT_MAX_SETS)


def _check_coverable(universe: Set[Hashable],
                     sets: Sequence[CoverSet]) -> None:
    covered = set()
    for s in sets:
        covered |= s.elements
    missing = universe - covered
    if missing:
        raise UncoverableError(f"elements not coverable: {sorted(missing)}")


def greedy_weighted_set_cover(universe: Set[Hashable],
                              sets: Sequence[CoverSet]) -> List[int]:
    """Greedy cover: repeatedly take the best weight-per-new-element set.

    Returns chosen set ids (deterministic: ties by weight then id).
    """
    _check_coverable(universe, sets)
    remaining = set(universe)
    chosen: List[int] = []
    available = list(sets)
    while remaining:
        best: Optional[Tuple[float, int, int, CoverSet]] = None
        for s in available:
            gain = len(s.elements & remaining)
            if gain == 0:
                continue
            score = (s.weight / gain, s.weight, s.id)
            if best is None or score < best[:3]:
                best = (*score, s)
        assert best is not None  # guaranteed by _check_coverable
        chosen.append(best[3].id)
        remaining -= best[3].elements
    return chosen


def exact_weighted_set_cover(universe: Set[Hashable],
                             sets: Sequence[CoverSet],
                             max_elements: int = 24,
                             max_sets: int = 40) -> List[int]:
    """Optimal cover by branch and bound (small instances only).

    Branches on the uncovered element with the fewest candidate sets;
    prunes with the greedy solution as incumbent and a simple
    cheapest-set-per-element lower bound.
    """
    _check_coverable(universe, sets)
    if len(universe) > max_elements or len(sets) > max_sets:
        raise ValueError(
            f"instance too large for exact cover: |U|={len(universe)}, "
            f"|S|={len(sets)}")

    greedy = greedy_weighted_set_cover(universe, sets)
    by_id = {s.id: s for s in sets}
    best_cost = sum(by_id[i].weight for i in greedy)
    best_sol: List[int] = list(greedy)

    cheapest = {}
    for el in universe:
        costs = [s.weight for s in sets if el in s.elements]
        cheapest[el] = min(costs)

    def lower_bound(remaining: Set[Hashable]) -> int:
        # Max single-element cost is a valid (weak but cheap) bound.
        return max((cheapest[el] for el in remaining), default=0)

    def branch(remaining: Set[Hashable], cost: int,
               chosen: List[int]) -> None:
        nonlocal best_cost, best_sol
        if not remaining:
            if cost < best_cost:
                best_cost = cost
                best_sol = list(chosen)
            return
        if cost + lower_bound(remaining) >= best_cost:
            return
        # Tie-break on repr, not set order: element sets may contain
        # strings, whose hash (and thus iteration order) varies per
        # process, and equally-constrained pivots steer which of
        # several equal-cost optima the search reports first.
        pivot = min(remaining,
                    key=lambda el: (sum(1 for s in sets
                                        if el in s.elements), repr(el)))
        for s in sorted(sets, key=lambda s: (s.weight, s.id)):
            if pivot not in s.elements:
                continue
            chosen.append(s.id)
            branch(remaining - s.elements, cost + s.weight, chosen)
            chosen.pop()

    try:
        branch(set(universe), 0, [])
    finally:
        # branch recurses through its own closure cell; unbinding it
        # breaks that reference cycle, so the search state is freed by
        # reference counting.
        branch = None
    return best_sol


def cover_cost(sets: Sequence[CoverSet], chosen: Sequence[int]) -> int:
    by_id = {s.id: s for s in sets}
    return sum(by_id[i].weight for i in chosen)


def is_cover(universe: Set[Hashable], sets: Sequence[CoverSet],
             chosen: Sequence[int]) -> bool:
    by_id = {s.id: s for s in sets}
    covered: Set[Hashable] = set()
    for i in chosen:
        covered |= by_id[i].elements
    return universe <= covered
