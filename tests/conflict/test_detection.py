"""Detection-flow tests."""

import pytest

from repro.conflict import FG, PCG, detect_conflicts
from repro.layout import (
    GeneratorParams,
    conflict_grid_layout,
    figure1_layout,
    grating_layout,
    odd_cycle_chain,
    standard_cell_layout,
)

from ..oracles import use_paths_engine


class TestBasicDetection:
    def test_clean_layout(self, tech):
        report = detect_conflicts(grating_layout(6), tech)
        assert report.phase_assignable
        assert report.num_conflicts == 0
        assert report.num_conflict_edges == 0

    def test_figure1_single_conflict(self, tech):
        report = detect_conflicts(figure1_layout(), tech)
        assert not report.phase_assignable
        assert report.num_conflicts == 1
        assert report.step2_edges == 1
        assert report.uncorrectable_features == []

    def test_empty_layout(self, tech):
        from repro.layout import Layout
        report = detect_conflicts(Layout(name="empty"), tech)
        assert report.phase_assignable
        assert report.num_conflicts == 0
        assert report.num_shifters == 0

    def test_report_counters(self, tech):
        lay = figure1_layout()
        report = detect_conflicts(lay, tech)
        assert report.num_features == 3
        assert report.num_critical == 3
        assert report.num_shifters == 6
        assert report.num_overlap_pairs == 4
        assert report.graph_nodes == 6 + 4
        assert report.graph_edges == 2 * 4 + 3
        assert report.detect_seconds > 0

    def test_methods_agree_on_optimal_cost(self, tech):
        """Gadget and shortest-path T-joins are both exact, so the
        step-2 bipartization cost must match.  (The *edge sets* may
        differ when several optima exist, which can shift step-3
        tie-breaking — only the optimal cost is an invariant.)"""
        lay = standard_cell_layout(GeneratorParams(rows=4, cols=15), seed=9)
        a = detect_conflicts(lay, tech)
        with use_paths_engine():
            b = detect_conflicts(lay, tech)
        assert a.step2_weight == b.step2_weight
        assert a.step2_edges == b.step2_edges

    def test_deterministic(self, tech):
        lay = standard_cell_layout(GeneratorParams(rows=3, cols=10), seed=4)
        a = detect_conflicts(lay, tech)
        b = detect_conflicts(lay, tech)
        assert [c.key for c in a.conflicts] == [c.key for c in b.conflicts]


class TestOptimalityGroundTruth:
    @pytest.mark.parametrize("kx,ky", [(1, 1), (3, 1), (2, 2), (3, 3)])
    def test_independent_clusters(self, tech, kx, ky):
        report = detect_conflicts(conflict_grid_layout(kx, ky), tech)
        assert report.num_conflicts == kx * ky

    @pytest.mark.parametrize("n", [2, 4, 7])
    def test_chain_still_one(self, tech, n):
        report = detect_conflicts(odd_cycle_chain(n), tech)
        assert report.num_conflicts == 1


class TestGraphKinds:
    @pytest.mark.parametrize("seed", range(4))
    def test_pcg_never_worse_than_fg(self, tech, seed):
        """Table 1's central comparison as an invariant on the suite."""
        lay = standard_cell_layout(GeneratorParams(rows=4, cols=15),
                                   seed=seed)
        pcg = detect_conflicts(lay, tech, kind=PCG)
        fg = detect_conflicts(lay, tech, kind=FG)
        assert pcg.num_conflict_edges <= fg.num_conflict_edges

    def test_fg_detects_same_assignability(self, tech):
        for lay in (figure1_layout(), grating_layout(5)):
            assert (detect_conflicts(lay, tech, kind=PCG).phase_assignable
                    == detect_conflicts(lay, tech, kind=FG).phase_assignable)


class TestConflictRemovalSufficiency:
    @pytest.mark.parametrize("seed", range(4))
    def test_removing_conflicts_makes_assignable(self, tech, seed):
        """Separating exactly the reported pairs must fix the layout:
        re-run detection with the conflict pairs' constraints dropped by
        checking bipartiteness of the graph minus removed edges."""
        from repro.conflict import build_layout_conflict_graph
        from repro.graph import is_bipartite

        lay = standard_cell_layout(GeneratorParams(rows=4, cols=15),
                                   seed=seed)
        report = detect_conflicts(lay, tech)
        cg, _s, _p = build_layout_conflict_graph(lay, tech)
        conflict_keys = {c.key for c in report.conflicts}
        skip = [eid for eid in range(cg.num_overlap_edges)
                if cg.pair_key(eid) in conflict_keys]
        assert is_bipartite(cg.graph, skip_edges=skip)
