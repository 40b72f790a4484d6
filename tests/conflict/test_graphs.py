"""Conflict-graph construction tests: Theorem 1 and PCG/FG structure."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.conflict import (
    FG,
    PCG,
    build_conflict_graph,
    build_feature_graph,
    build_phase_conflict_graph,
)
from repro.graph import count_crossings, is_bipartite
from repro.layout import Technology, figure1_layout, grating_layout
from repro.shifters import find_overlap_pairs, generate_shifters

from ..conftest import brute_force_phase_assignable, make_random_small_layout


def graphs_for(layout, tech):
    shifters = generate_shifters(layout, tech)
    pairs = find_overlap_pairs(shifters, tech)
    pcg = build_phase_conflict_graph(shifters, pairs, tech)
    fg = build_feature_graph(shifters, pairs, tech)
    return shifters, pairs, pcg, fg


class TestStructure:
    def test_pcg_node_count(self, tech):
        shifters, pairs, pcg, _fg = graphs_for(figure1_layout(), tech)
        # One node per shifter + one per overlap pair.
        assert pcg.graph.num_nodes() == len(shifters) + len(pairs)
        # 2 edges per pair + 1 per feature.
        assert pcg.graph.num_edges() == 2 * len(pairs) + 3

    def test_fg_has_more_nodes_and_edges(self, tech):
        """The paper's Fig. 2 observation, as an invariant."""
        shifters, pairs, pcg, fg = graphs_for(figure1_layout(), tech)
        assert fg.graph.num_nodes() > pcg.graph.num_nodes()
        assert fg.graph.num_edges() > pcg.graph.num_edges()

    def test_pcg_overlap_path_is_straight(self, tech):
        shifters, pairs, pcg, _fg = graphs_for(grating_layout(3), tech)
        for pair in pairs:
            na, nb = pair.a, pair.b      # shifter s is node s
            ax, ay = pcg.graph.coord(na)
            bx, by = pcg.graph.coord(nb)
            # The overlap node sits exactly on the segment midpoint.
            overlap_edges = [eid for eid in range(pcg.num_overlap_edges)
                             if pcg.pair_key(eid) == pair.key]
            o = {pcg.graph.edge(e).u for e in overlap_edges} | \
                {pcg.graph.edge(e).v for e in overlap_edges}
            o -= {na, nb}
            (onode,) = o
            assert pcg.graph.coord(onode) == ((ax + bx) // 2,
                                              (ay + by) // 2)

    def test_feature_edges_have_infinite_weight(self, tech):
        shifters, pairs, pcg, _fg = graphs_for(figure1_layout(), tech)
        split = pcg.num_overlap_edges
        overlap_w = sum(pcg.graph.edge(e).weight for e in range(split))
        assert len(pcg.edge_features) == pcg.graph.num_edges() - split > 0
        for eid in range(split, pcg.graph.num_edges()):
            assert pcg.graph.edge(eid).weight > overlap_w // 2

    def test_classify_edges_dedupes_pairs(self, tech):
        shifters, pairs, pcg, _fg = graphs_for(figure1_layout(), tech)
        pair = pairs[0]
        both_edges = [eid for eid in range(pcg.num_overlap_edges)
                      if pcg.pair_key(eid) == pair.key]
        assert len(both_edges) == 2
        pair_keys, feats = pcg.classify_edges(both_edges)
        assert pair_keys == [pair.key]
        assert feats == []

    def test_dispatch(self, tech):
        shifters = generate_shifters(figure1_layout(), tech)
        pairs = find_overlap_pairs(shifters, tech)
        assert build_conflict_graph(PCG, shifters, pairs, tech).kind == PCG
        assert build_conflict_graph(FG, shifters, pairs, tech).kind == FG
        with pytest.raises(ValueError):
            build_conflict_graph("nope", shifters, pairs, tech)


class TestTheorem1:
    """Bipartite(PCG) <=> layout phase-assignable (brute force oracle)."""

    def test_figure1_odd(self, tech):
        _s, _p, pcg, fg = graphs_for(figure1_layout(), tech)
        assert not is_bipartite(pcg.graph)
        assert not is_bipartite(fg.graph)
        assert brute_force_phase_assignable(figure1_layout(), tech) is None

    def test_grating_even(self, tech):
        lay = grating_layout(4)
        _s, _p, pcg, fg = graphs_for(lay, tech)
        assert is_bipartite(pcg.graph)
        assert is_bipartite(fg.graph)
        assert brute_force_phase_assignable(lay, tech) is not None

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 100_000))
    def test_random_layouts(self, seed):
        tech = Technology.node_90nm()
        layout = make_random_small_layout(seed)
        oracle = brute_force_phase_assignable(layout, tech) is not None
        _s, _p, pcg, fg = graphs_for(layout, tech)
        assert is_bipartite(pcg.graph) == oracle
        assert is_bipartite(fg.graph) == oracle


class TestCrossings:
    def test_pcg_fewer_crossings_in_aggregate(self, tech):
        """The paper's headline geometric claim: "in practice [the PCG]
        has a much smaller number of line crossings".  It is a statement
        about practice, not a per-instance theorem, so we check the
        aggregate over a seed sweep (and expect a large margin)."""
        from repro.layout import GeneratorParams, standard_cell_layout

        total_pcg = total_fg = 0
        for seed in range(8):
            lay = standard_cell_layout(
                GeneratorParams(rows=4, cols=15), seed=seed)
            _s, _p, pcg, fg = graphs_for(lay, tech)
            total_pcg += count_crossings(pcg.graph)
            total_fg += count_crossings(fg.graph)
        assert total_pcg < total_fg
