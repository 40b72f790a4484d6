"""Window-scoped weighted set cover for the correction planner.

An end-to-end space at position ``p`` covers every conflict whose
correction interval (on that axis) contains ``p`` — so two conflicts
interact in the set-cover instance *iff* some candidate grid-line
position covers both, i.e. their intervals on a shared axis intersect.
Connected components of that relation are independent subproblems: no
cover set crosses a component boundary, so solving each *window*
separately and merging the chosen cuts chip-wide reproduces the
whole-instance optimum exactly.

* For the greedy solver, equality is structural and *per cut*: the
  global greedy's picks restricted to a window are exactly the greedy
  run on that window alone (gains in one window never change scores
  in another).
* For the exact solver, the union of per-window optima is a global
  optimum of identical total weight (cover sets never span windows),
  and windowing makes the branch-and-bound tractable on instances
  whose *total* size would be far beyond its caps.  When several
  equal-cost optima exist, the per-window and whole-instance searches
  may return different (equally optimal, individually deterministic)
  representatives — cost equality is the guarantee, cut-set identity
  only holds tie-free.

Windows are cheap to solve, so every run solves every window.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Sequence, Set, Tuple

from ..obs import get_tracer
from .setcover import (
    CoverSet,
    EXACT_CAP_ELEMENTS,
    EXACT_CAP_SETS,
    UncoverableError,
    exact_weighted_set_cover,
    greedy_weighted_set_cover,
    use_exact_cover,
)

ConflictKey = Hashable


class ExactCoverTooLargeError(ValueError):
    """A window exceeds the exact set cover's branch-and-bound caps.

    Raised by :func:`solve_cover_windows` with the exact solver
    selected, before any window is solved.
    """


@dataclass(frozen=True)
class CorrectionWindow:
    """One independent set-cover subproblem of the correction plan.

    Attributes:
        index: dense window id (ordered by smallest conflict key).
        conflicts: the window's conflict keys, sorted.
        line_ids: ids (into the global grid-line list) of every
            candidate line covering a conflict of this window.
    """

    index: int
    conflicts: Tuple[ConflictKey, ...]
    line_ids: Tuple[int, ...]

    @property
    def num_conflicts(self) -> int:
        return len(self.conflicts)

    @property
    def num_lines(self) -> int:
        return len(self.line_ids)


def cluster_windows(lines: Sequence) -> List[CorrectionWindow]:
    """Partition conflicts into windows via shared candidate lines.

    ``lines`` is any sequence of objects with a ``covers`` tuple of
    conflict keys (:class:`repro.correction.flow.GridLine`).  Conflicts
    covered by a common line are unioned; each line lands in exactly
    one window (all its covered conflicts are pairwise connected
    through it).
    """
    parent: Dict[ConflictKey, ConflictKey] = {}

    def find(x: ConflictKey) -> ConflictKey:
        root = parent.setdefault(x, x)
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for line in lines:
        covers = line.covers
        if not covers:
            continue
        ra = find(covers[0])
        for key in covers[1:]:
            rb = find(key)
            if ra != rb:
                parent[rb] = ra

    members: Dict[ConflictKey, List[ConflictKey]] = {}
    for key in parent:
        members.setdefault(find(key), []).append(key)
    line_ids: Dict[ConflictKey, List[int]] = {}
    for i, line in enumerate(lines):
        if line.covers:
            line_ids.setdefault(find(line.covers[0]), []).append(i)

    windows: List[CorrectionWindow] = []
    for root in sorted(members, key=lambda r: min(members[r])):
        windows.append(CorrectionWindow(
            index=len(windows),
            conflicts=tuple(sorted(members[root])),
            line_ids=tuple(sorted(line_ids.get(root, ()))),
        ))
    return windows


def _dense_window_instance(window: CorrectionWindow, lines: Sequence,
                           universe: Set[ConflictKey]
                           ) -> Tuple[Set[int], List[CoverSet]]:
    """One window's set-cover instance in canonical dense ids.

    Conflicts become their rank in the window's sorted conflict list;
    candidate lines become their rank in the window's sorted line-id
    list.  Dense renumbering is order-preserving, so greedy picks (and
    exact-solver exploration order) match the global-id instance pick
    for pick.
    """
    rank = {key: j for j, key in enumerate(window.conflicts)}
    sub_universe = {rank[key] for key in window.conflicts
                    if key in universe}
    sub_sets = [CoverSet(id=j,
                         elements=frozenset(rank[key]
                                            for key in lines[i].covers),
                         weight=lines[i].width)
                for j, i in enumerate(window.line_ids)]
    return sub_universe, sub_sets


def solve_cover_windows(universe: Set[ConflictKey],
                        lines: Sequence,
                        cover: str = "auto",
                        ) -> Tuple[List[int], str, List[CorrectionWindow]]:
    """Window-decomposed weighted set cover over candidate grid lines.

    The exact-vs-greedy ``auto`` decision is made on the *global*
    instance size via the shared :func:`use_exact_cover` policy (so
    the method matches a whole-instance solve), then each window is
    solved independently.  With the exact solver selected, every
    window is checked against its caps first: one past them raises
    :class:`ExactCoverTooLargeError` before any window is solved.

    Returns ``(chosen line ids, method, windows)`` with the ids sorted
    — the same contract the whole-instance solve has.
    """
    windows = cluster_windows(lines)
    covered = {key for window in windows for key in window.conflicts}
    missing = set(universe) - covered
    if missing:
        # Same guard the whole-instance solvers enforce: never return
        # a silently partial cover.
        raise UncoverableError(f"elements not coverable: {sorted(missing)}")
    use_exact = use_exact_cover(cover, len(universe), len(lines))
    method = "exact" if use_exact else "greedy"
    instances = [_dense_window_instance(window, lines, universe)
                 for window in windows]
    if use_exact:
        for window, (sub_universe, sub_sets) in zip(windows, instances):
            if (len(sub_universe) > EXACT_CAP_ELEMENTS
                    or len(sub_sets) > EXACT_CAP_SETS):
                raise ExactCoverTooLargeError(
                    f"window {window.index} has {len(sub_universe)} "
                    f"conflicts and {len(sub_sets)} candidate lines, "
                    f"past the exact cover's caps of "
                    f"{EXACT_CAP_ELEMENTS} conflicts and "
                    f"{EXACT_CAP_SETS} lines per window; use cover "
                    f"'auto' or 'greedy'")

    tracer = get_tracer()
    chosen: List[int] = []
    for window, (sub_universe, sub_sets) in zip(windows, instances):
        with tracer.span("window", cat="window", window=window.index,
                         lines=len(window.line_ids),
                         conflicts=len(window.conflicts),
                         method=method) as span:
            if not sub_universe:
                local: Sequence[int] = ()
            elif use_exact:
                local = exact_weighted_set_cover(
                    sub_universe, sub_sets,
                    max_elements=EXACT_CAP_ELEMENTS,
                    max_sets=EXACT_CAP_SETS)
            else:
                local = greedy_weighted_set_cover(sub_universe, sub_sets)
            span.set(cuts=len(local))
        chosen += [window.line_ids[j] for j in local]
    return sorted(chosen), method, windows
