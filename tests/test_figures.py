"""Figure-level reproductions: each of the paper's figures as a test.

These are the executable versions of the paper's illustrative figures;
the corresponding tables live in ``benchmarks/``.
"""

from repro.conflict import (
    FG,
    PCG,
    build_layout_conflict_graph,
    detect_conflicts,
)
from repro.correction import plan_correction
from repro.graph import (
    build_gadget_graph,
    is_bipartite,
    min_tjoin_gadget,
    GeomGraph,
)
from repro.layout import conflict_grid_layout, figure1_layout
from repro.phase import assign_and_verify

from .oracles import min_tjoin_shortest_paths


class TestFigure1:
    """Incorrect phase assignment: a non-localized odd shifter cycle."""

    def test_no_valid_assignment_exists(self, tech):
        assert assign_and_verify(figure1_layout(), tech) is None

    def test_cycle_members_identified(self, tech):
        """The odd cycle runs through gate A's two shifters and the
        wire's top shifter: removing either of those features fixes the
        layout, removing the uninvolved gate B does not."""
        for drop, fixes in ((0, True),    # gate A: on the cycle
                            (1, False),   # gate B: bystander
                            (2, True)):   # wire: on the cycle
            partial = figure1_layout()
            del partial.features[drop]
            assignable = assign_and_verify(partial, tech) is not None
            assert assignable == fixes, f"feature {drop}"
        assert assign_and_verify(figure1_layout(), tech) is None

    def test_odd_cycle_in_pcg(self, tech):
        cg, _s, _p = build_layout_conflict_graph(figure1_layout(), tech)
        assert not is_bipartite(cg.graph)


class TestFigure2:
    """PCG vs FG on the same layout."""

    def test_same_assignability_different_geometry(self, tech):
        lay = figure1_layout()
        pcg, _s1, _p1 = build_layout_conflict_graph(lay, tech, PCG)
        fg, _s2, _p2 = build_layout_conflict_graph(lay, tech, FG)
        assert is_bipartite(pcg.graph) == is_bipartite(fg.graph)
        assert fg.graph.num_nodes() > pcg.graph.num_nodes()
        assert fg.graph.num_edges() > pcg.graph.num_edges()

    def test_offset_overlap_bends_fg_edge(self, tech):
        """The paper's detour argument, in one picture: an offset pair
        makes the FG conflict node leave the straight line while the
        PCG overlap node stays on it."""
        from repro.layout import layout_from_rects
        from repro.geometry import Rect, orientation

        # Unequal heights break the symmetry, so the overlap-region
        # centre leaves the straight line between the shifter centres.
        lay = layout_from_rects([Rect(0, 0, 90, 600),
                                 Rect(390, 500, 480, 700)])
        for kind, expect_straight in ((PCG, True), (FG, False)):
            cg, shifters, pairs = build_layout_conflict_graph(lay, tech,
                                                              kind)
            (pair,) = pairs
            overlap = range(cg.num_overlap_edges)
            aux_nodes = {cg.graph.edge(e).u for e in overlap} | \
                        {cg.graph.edge(e).v for e in overlap}
            aux_nodes -= set(range(len(shifters)))  # shifter s is node s
            (aux,) = aux_nodes
            a = cg.graph.coord(pair.a)
            b = cg.graph.coord(pair.b)
            o = cg.graph.coord(aux)
            straight = orientation(a, b, o) == 0
            assert straight == expect_straight, kind


class TestFigure3And4:
    """Gadget construction and divide-node decomposition."""

    def test_figure3_shape(self):
        """A degree-3 node gets a 3-node gadget; assignment parity
        follows T membership."""
        g = GeomGraph()
        for u, v in ((0, 1), (0, 2), (0, 3)):
            g.add_edge(u, v, weight=1)
        gadget = build_gadget_graph(g, {0, 1}, max_clique_size=None)
        # 2 per-edge nodes per edge + 1 dummy per edge (+ pendant: |E|=3
        # odd, so one 0-weight pendant edge is added -> 4 edges total).
        assert gadget.num_nodes == 3 * 4
        assert gadget.num_divide_nodes == 0

    def test_figure4_decomposition_sizes(self):
        """Chunked gadgets trade nodes for smaller cliques."""
        g = GeomGraph()
        for v in range(1, 6):  # star of degree 5 (paper's Fig. 4 size)
            g.add_edge(0, v, weight=v)
        sizes = {}
        for chunk in (None, 2, 1):
            gadget = build_gadget_graph(g, set(), max_clique_size=chunk)
            sizes[chunk] = (gadget.num_nodes, gadget.num_edges)
        assert sizes[None][0] < sizes[2][0] < sizes[1][0]

    def test_all_variants_same_optimum(self):
        g = GeomGraph()
        for v in range(1, 6):
            g.add_edge(0, v, weight=v)
        ref = min_tjoin_shortest_paths(g, {0, 1})
        for chunk in (None, 2, 1):
            join = min_tjoin_gadget(g, {0, 1}, max_clique_size=chunk)
            assert g.total_weight(join) == g.total_weight(ref)


class TestFigure5:
    """Inserting a vertical space removes multiple conflicts."""

    def test_one_space_many_conflicts(self, tech):
        lay = conflict_grid_layout(3, 1)
        report = detect_conflicts(lay, tech)
        conflicts = [c.key for c in report.conflicts]
        plan = plan_correction(lay, tech, conflicts)
        assert len(conflicts) == 3
        assert plan.num_cuts == 1
        assert plan.max_cover == 3
