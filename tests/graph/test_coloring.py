"""2-coloring and parity union-find tests."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import KIND_COLORING, ArtifactCache, cache_delta
from repro.graph import (
    GeomGraph,
    ParityDSU,
    color_component,
    decompose,
    is_bipartite,
    residual_conflicts,
    two_color,
    two_color_incremental,
)


def graph_from_edges(n, edges):
    g = GeomGraph()
    for i in range(n):
        g.add_node(i)
    for u, v, w in edges:
        g.add_edge(u, v, weight=w)
    return g


class TestTwoColor:
    def test_even_cycle(self):
        g = graph_from_edges(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1),
                                 (3, 0, 1)])
        colors = two_color(g)
        assert colors is not None
        for e in g.edges():
            assert colors[e.u] != colors[e.v]

    def test_odd_cycle(self):
        g = graph_from_edges(3, [(0, 1, 1), (1, 2, 1), (2, 0, 1)])
        assert two_color(g) is None
        assert not is_bipartite(g)

    def test_skip_edges(self):
        g = graph_from_edges(3, [(0, 1, 1), (1, 2, 1), (2, 0, 1)])
        assert two_color(g, skip_edges=[2]) is not None

    def test_self_loop_not_bipartite(self):
        g = graph_from_edges(1, [(0, 0, 1)])
        assert two_color(g) is None

    def test_deterministic_root_color(self):
        g = graph_from_edges(2, [(0, 1, 1)])
        assert two_color(g) == {0: 0, 1: 1}

    def test_isolated_nodes_colored(self):
        g = GeomGraph()
        g.add_node(7)
        colors = two_color(g)
        assert colors == {7: 0}

    def test_multi_component_deterministic_colors(self):
        """Each component's minimum node id gets color 0 — the
        canonical polarity rule the incremental recoloring replays."""
        g = graph_from_edges(6, [(1, 0, 1), (4, 3, 1), (3, 5, 1)])
        colors = two_color(g)
        assert colors == {0: 0, 1: 1, 2: 0, 3: 0, 4: 1, 5: 1}

    def test_one_odd_component_fails_whole_coloring(self):
        g = graph_from_edges(5, [(0, 1, 1),
                                 (2, 3, 1), (3, 4, 1), (4, 2, 1)])
        assert two_color(g) is None

    def test_color_component_scopes_to_reachable_nodes(self):
        g = graph_from_edges(5, [(0, 1, 1), (2, 3, 1)])
        colors = color_component(g, 2)
        assert colors == {2: 0, 3: 1}

    def test_color_component_root_polarity(self):
        g = graph_from_edges(2, [(0, 1, 1)])
        assert color_component(g, 1) == {1: 0, 0: 1}

    def test_skip_edges_respected_per_component(self):
        g = graph_from_edges(3, [(0, 1, 1), (1, 2, 1), (2, 0, 1)])
        assert color_component(g, 0, skip_edges={2}) is not None
        assert color_component(g, 0) is None


def reference_two_color(g, skip):
    """Breadth-first 2-coloring over :meth:`GeomGraph.edges`, one
    component at a time from its minimum node, root colored 0."""
    adj = {v: [] for v in g.nodes}
    for e in g.edges():
        if e.id not in skip:
            adj[e.u].append(e.v)
            adj[e.v].append(e.u)
    colors = {}
    for root in sorted(adj):
        if root in colors:
            continue
        colors[root] = 0
        frontier = [root]
        while frontier:
            node = frontier.pop()
            for nxt in adj[node]:
                if nxt not in colors:
                    colors[nxt] = colors[node] ^ 1
                    frontier.append(nxt)
                elif colors[nxt] == colors[node]:
                    return None
    return colors


class TestTwoColorRemovedAndSkipped:
    """Many components, soft-removed edges and a skip set together —
    the post-bipartization check's shape."""

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_reference(self, seed):
        rng = random.Random(seed)
        for _ in range(40):
            n = rng.randint(1, 40)
            g = graph_from_edges(n, [
                (rng.randrange(n), rng.randrange(n), 1)
                for _ in range(rng.randint(0, 2 * n))])
            edge_ids = range(g.num_edges())
            for eid in edge_ids:
                if rng.random() < 0.3:
                    g.remove_edge(eid)
            skip = {eid for eid in edge_ids if rng.random() < 0.3}
            expected = reference_two_color(g, skip)
            assert two_color(g, skip_edges=skip) == expected
            assert two_color(g, skip_edges=sorted(skip)) == expected
            assert is_bipartite(g, skip_edges=skip) == (expected is not None)


class TestParityDSU:
    def test_chain_parity(self):
        dsu = ParityDSU()
        assert dsu.union_unequal(0, 1)
        assert dsu.union_unequal(1, 2)
        # 0 and 2 same side: another unequal edge closes an odd cycle.
        assert not dsu.union_unequal(0, 2)

    def test_even_cycle_ok(self):
        dsu = ParityDSU()
        assert dsu.union_unequal(0, 1)
        assert dsu.union_unequal(1, 2)
        assert dsu.union_unequal(2, 3)
        assert dsu.union_unequal(3, 0)

    def test_repeated_edge_consistent(self):
        dsu = ParityDSU()
        assert dsu.union_unequal(0, 1)
        assert dsu.union_unequal(0, 1)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 100_000), st.integers(2, 12), st.integers(1, 25))
    def test_matches_bipartite_check(self, seed, n, m):
        """DSU accepts an edge iff the accepted-so-far graph + edge
        stays bipartite."""
        rng = random.Random(seed)
        dsu = ParityDSU()
        g = GeomGraph()
        for i in range(n):
            g.add_node(i)
        for _ in range(m):
            u, v = rng.sample(range(n), 2)
            e = g.add_edge(u, v)
            ok = dsu.union_unequal(u, v)
            if not ok:
                g.remove_edge(e.id)
            assert is_bipartite(g)


class TestResidualConflicts:
    def test_candidate_closing_odd_cycle_flagged(self):
        g = graph_from_edges(3, [(0, 1, 1), (1, 2, 1), (2, 0, 1)])
        # Treat edge 2 as a planarization casualty; nothing deleted.
        assert residual_conflicts(g, deleted=[], candidates=[2]) == [2]

    def test_candidate_closing_even_cycle_kept(self):
        g = graph_from_edges(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1),
                                 (3, 0, 1)])
        assert residual_conflicts(g, deleted=[], candidates=[3]) == []

    def test_cross_component_candidate_kept(self):
        """A fixed 2-coloring could misjudge this; the DSU must not."""
        g = graph_from_edges(4, [(0, 1, 1), (2, 3, 1), (1, 2, 1)])
        assert residual_conflicts(g, deleted=[], candidates=[2]) == []

    def test_heavier_candidates_win(self):
        # Path 0-1-2-3 plus two candidates: (3,0) closes an even cycle
        # (keepable), (2,0) closes an odd one.  Processing heavy-first
        # keeps the expensive even edge and flags the cheap odd one.
        g = graph_from_edges(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1),
                                 (3, 0, 5), (2, 0, 1)])
        flagged = residual_conflicts(g, deleted=[], candidates=[3, 4])
        assert flagged == [4]

    def test_inconsistent_deleted_raises(self):
        g = graph_from_edges(3, [(0, 1, 1), (1, 2, 1), (2, 0, 1)])
        try:
            residual_conflicts(g, deleted=[], candidates=[])
        except ValueError:
            return
        raise AssertionError("odd graph accepted without candidates")

    def test_no_candidates_on_bipartite_graph(self):
        g = graph_from_edges(3, [(0, 1, 1), (1, 2, 1)])
        assert residual_conflicts(g, deleted=[], candidates=[]) == []

    def test_all_edges_deleted_keeps_every_candidate_free(self):
        """With the whole graph deleted there is no parity structure
        left, so no candidate can close an odd cycle."""
        g = graph_from_edges(3, [(0, 1, 1), (1, 2, 1), (2, 0, 1)])
        assert residual_conflicts(g, deleted=[0, 1, 2],
                                  candidates=[]) == []

    def test_candidate_listed_as_deleted_stays_a_candidate(self):
        """An edge in both sets is skipped from the base structure but
        still re-added as a candidate — here closing the odd triangle,
        so it is flagged rather than silently dropped."""
        g = graph_from_edges(3, [(0, 1, 1), (1, 2, 1), (2, 0, 1)])
        assert residual_conflicts(g, deleted=[2],
                                  candidates=[2]) == [2]

    def test_parallel_unequal_candidates_are_consistent(self):
        # Parallel edges assert the *same* "different colors"
        # constraint; re-adding both conflicts with nothing.
        g = graph_from_edges(2, [(0, 1, 5), (0, 1, 2)])
        assert residual_conflicts(g, deleted=[],
                                  candidates=[0, 1]) == []

    def test_self_loop_candidate_always_conflicts(self):
        g = graph_from_edges(1, [(0, 0, 1)])
        assert residual_conflicts(g, deleted=[], candidates=[0]) == [0]

    def test_result_sorted_by_edge_id_not_processing_order(self):
        # Path 0-1-2 plus two parallel (0,2) candidates: both close an
        # odd cycle.  Heavy-first processes edge 3 before edge 2, but
        # the report is sorted by id.
        g = graph_from_edges(3, [(0, 1, 1), (1, 2, 1),
                                 (0, 2, 1), (0, 2, 5)])
        assert residual_conflicts(g, deleted=[],
                                  candidates=[2, 3]) == [2, 3]


class TestRecolorVsCold:
    """Satellite obligation: incremental recoloring equals a cold
    chip-wide two_color on the D1-D3 benchmark conflict graphs."""

    @pytest.mark.parametrize("name", ["D1", "D2", "D3"])
    def test_benchmark_conflict_graphs(self, tech, name):
        from repro.bench import build_design
        from repro.conflict import build_layout_conflict_graph
        from repro.core import run_aapsm_flow

        # The corrected layout's graph is bipartite (colorable); the
        # raw layout's graph generally is not (both paths must agree).
        raw = build_design(name)
        corrected = run_aapsm_flow(raw, tech).corrected_layout
        for layout in (raw, corrected):
            cg, _s, _p = build_layout_conflict_graph(layout, tech)
            cold = two_color(cg.graph)
            store = ArtifactCache()
            components = len(decompose(cg.graph))
            with cache_delta(store) as d1:
                warm1 = two_color_incremental(cg.graph, store)
            with cache_delta(store) as d2:
                warm2 = two_color_incremental(cg.graph, store)
            if cold is None:
                assert warm1 is None and warm2 is None
            else:
                assert warm1.tolist() == warm2.tolist() \
                    == [cold[n] for n in cg.graph.nodes]
            assert d1[KIND_COLORING] == (0, components)  # all recolored
            assert d2[KIND_COLORING] == (components, 0)  # all replayed
