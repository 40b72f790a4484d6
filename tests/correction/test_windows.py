"""Window-scoped correction: clustering and whole-instance equivalence.

The whole-instance cover is the test oracle
:func:`tests.oracles.whole_instance_cover`, swapped in behind
``solve_cover_windows``.
"""

import pytest

from repro.bench import build_design
from repro.conflict import detect_conflicts
from repro.correction import (
    CoverSet,
    cluster_windows,
    cover_cost,
    plan_correction,
    solve_cover_windows,
)
from repro.correction.flow import GridLine
from repro.layout import (
    GeneratorParams,
    conflict_grid_layout,
    standard_cell_layout,
)

from ..oracles import use_whole_instance_cover


def line(axis, pos, covers, width=10):
    return GridLine(axis=axis, position=pos, covers=tuple(covers),
                    width=width)


class TestClusterWindows:
    def test_disjoint_conflicts_get_own_windows(self):
        lines = [line("x", 0, [(0, 1)]), line("x", 90, [(2, 3)])]
        windows = cluster_windows(lines)
        assert [w.conflicts for w in windows] == [((0, 1),), ((2, 3),)]
        assert [w.line_ids for w in windows] == [(0,), (1,)]

    def test_shared_line_merges(self):
        lines = [line("x", 0, [(0, 1), (2, 3)]), line("x", 5, [(2, 3)])]
        windows = cluster_windows(lines)
        assert len(windows) == 1
        assert windows[0].conflicts == ((0, 1), (2, 3))
        assert windows[0].line_ids == (0, 1)

    def test_transitive_chains_merge(self):
        lines = [line("x", 0, [(0, 1), (2, 3)]),
                 line("y", 9, [(2, 3), (4, 5)]),
                 line("x", 7, [(6, 7)])]
        windows = cluster_windows(lines)
        assert len(windows) == 2
        assert windows[0].conflicts == ((0, 1), (2, 3), (4, 5))

    def test_windows_ordered_by_smallest_conflict(self):
        lines = [line("x", 0, [(6, 7)]), line("x", 5, [(0, 1)])]
        windows = cluster_windows(lines)
        assert windows[0].conflicts == ((0, 1),)
        assert windows[0].index == 0

    def test_empty(self):
        assert cluster_windows([]) == []


class TestSolveWindows:
    def test_windowed_greedy_equals_global_greedy(self):
        from repro.correction import greedy_weighted_set_cover

        lines = [line("x", 0, [(0, 1), (2, 3)], width=5),
                 line("x", 4, [(2, 3)], width=1),
                 line("y", 0, [(4, 5)], width=3),
                 line("y", 8, [(4, 5), (6, 7)], width=4)]
        universe = {(0, 1), (2, 3), (4, 5), (6, 7)}
        sets = [CoverSet(id=i, elements=frozenset(ln.covers),
                         weight=ln.width) for i, ln in enumerate(lines)]
        chosen, method, windows = solve_cover_windows(
            universe, lines, cover="greedy")
        assert method == "greedy"
        assert len(windows) == 2
        assert chosen == sorted(greedy_weighted_set_cover(universe, sets))

    def test_windowed_exact_matches_global_cost(self):
        from repro.correction import exact_weighted_set_cover

        lines = [line("x", 0, [(0, 1)], width=4),
                 line("x", 2, [(0, 1), (2, 3)], width=5),
                 line("x", 4, [(2, 3)], width=4),
                 line("y", 0, [(4, 5), (6, 7)], width=2)]
        universe = {(0, 1), (2, 3), (4, 5), (6, 7)}
        sets = [CoverSet(id=i, elements=frozenset(ln.covers),
                         weight=ln.width) for i, ln in enumerate(lines)]
        chosen, method, _ = solve_cover_windows(universe, lines,
                                                cover="exact")
        assert method == "exact"
        exact = exact_weighted_set_cover(universe, sets)
        assert cover_cost(sets, chosen) == cover_cost(sets, exact)

    def test_auto_method_decided_on_global_size(self):
        """17 singleton conflicts: every window is tiny, but the global
        instance exceeds the auto-exact threshold, so the windowed
        planner must pick greedy exactly like the whole-instance one."""
        lines = [line("x", 10 * i, [(i, i + 100)]) for i in range(17)]
        universe = {(i, i + 100) for i in range(17)}
        _, method, windows = solve_cover_windows(universe, lines,
                                                 cover="auto")
        assert len(windows) == 17
        assert method == "greedy"


class TestPlanEquivalence:
    """The tentpole obligation: per-window solve + chip-wide merge
    matches the whole-instance plan exactly."""

    def conflicts_of(self, layout, tech):
        return [c.key for c in detect_conflicts(layout, tech).conflicts]

    def whole_instance_plan(self, *args, **kwargs):
        with use_whole_instance_cover():
            return plan_correction(*args, **kwargs)

    @pytest.mark.parametrize("seed", range(4))
    def test_standard_cells(self, tech, seed):
        lay = standard_cell_layout(GeneratorParams(rows=4, cols=15),
                                   seed=seed)
        conflicts = self.conflicts_of(lay, tech)
        windowed = plan_correction(lay, tech, conflicts)
        legacy = self.whole_instance_plan(lay, tech, conflicts)
        assert windowed.cuts == legacy.cuts
        assert windowed.cover_method == legacy.cover_method
        assert windowed.corrected == legacy.corrected
        assert windowed.uncorrectable == legacy.uncorrectable

    @pytest.mark.parametrize("name", ["D1", "D2", "D3"])
    @pytest.mark.parametrize("cover", ["auto", "greedy"])
    def test_benchmark_suite(self, tech, name, cover):
        lay = build_design(name)
        conflicts = self.conflicts_of(lay, tech)
        windowed = plan_correction(lay, tech, conflicts, cover=cover)
        legacy = self.whole_instance_plan(lay, tech, conflicts,
                                          cover=cover)
        assert windowed.cuts == legacy.cuts
        assert windowed.cover_method == legacy.cover_method

    def test_window_stats_reported(self, tech):
        lay = conflict_grid_layout(1, 3, cluster_pitch=3000)
        conflicts = self.conflicts_of(lay, tech)
        report = plan_correction(lay, tech, conflicts)
        assert report.num_windows == 3
        assert report.largest_window == 1
        covered = {k for w in report.windows for k in w.conflicts}
        assert covered == set(report.corrected)

    def test_forced_exact_scales_past_global_caps(self, tech):
        """Windowing makes forced-exact usable where the whole-instance
        branch-and-bound would refuse: many small windows whose *total*
        size exceeds its caps."""
        lay = conflict_grid_layout(9, 8, cluster_pitch=3000)
        conflicts = self.conflicts_of(lay, tech)
        assert len(conflicts) == 72
        with pytest.raises(ValueError):
            self.whole_instance_plan(lay, tech, conflicts, cover="exact")
        report = plan_correction(lay, tech, conflicts, cover="exact")
        assert report.cover_method == "exact"
        assert set(report.corrected) == set(conflicts)
        assert report.num_cuts == 8  # one shared corridor per row


class TestExactCaps:
    """``cover="exact"`` checks every window against the branch-and-
    bound caps before it solves any, and fails with a typed error."""

    def _instance(self):
        # Window 0: one small conflict; window 1: 65 conflicts sharing
        # one line, one past EXACT_CAP_ELEMENTS.
        big = [(2 * i + 10, 2 * i + 11) for i in range(65)]
        lines = [line("x", 0, [(0, 1)]), line("x", 90, big)]
        return {(0, 1), *big}, lines

    def test_window_past_caps_raises_before_any_solve(self, monkeypatch):
        from repro.correction import ExactCoverTooLargeError
        from repro.correction import windows as windows_module
        from repro.correction.setcover import (
            EXACT_CAP_ELEMENTS,
            EXACT_CAP_SETS,
        )

        solved = []
        monkeypatch.setattr(windows_module, "exact_weighted_set_cover",
                            lambda *a, **k: solved.append(a) or [])
        universe, lines = self._instance()
        with pytest.raises(ExactCoverTooLargeError) as info:
            solve_cover_windows(universe, lines, cover="exact")
        assert isinstance(info.value, ValueError)
        assert solved == []  # window 0 was not solved either
        message = str(info.value)
        assert "window 1" in message
        assert "65 conflicts" in message
        assert f"{EXACT_CAP_ELEMENTS} conflicts" in message
        assert f"{EXACT_CAP_SETS} lines" in message

    @pytest.mark.parametrize("cover", ["auto", "greedy"])
    def test_auto_and_greedy_unaffected(self, cover):
        universe, lines = self._instance()
        chosen, method, windows = solve_cover_windows(universe, lines,
                                                      cover=cover)
        assert method == "greedy"
        assert chosen == [0, 1]
        assert [w.num_conflicts for w in windows] == [1, 65]

    def test_windows_at_the_caps_still_solve_exactly(self):
        big = [(2 * i + 10, 2 * i + 11) for i in range(64)]
        lines = [line("x", 0, [(0, 1)]), line("x", 90, big)]
        chosen, method, _ = solve_cover_windows({(0, 1), *big}, lines,
                                                cover="exact")
        assert (chosen, method) == ([0, 1], "exact")
