"""Bipartization algorithm tests: optimality and baseline ordering."""

import itertools
import random
from contextlib import nullcontext

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import (
    GeomGraph,
    greedy_odd_cycle_bipartization,
    greedy_planarize,
    greedy_spanning_tree_bipartization,
    is_bipartite,
    min_tjoin_gadget,
    optimal_planar_bipartization,
)

from ..oracles import (RecordingMatcher, min_tjoin_shortest_paths,
                       use_matcher, use_paths_engine,
                       whole_graph_bipartization)
from .test_gadgets import corpus, planarized_conflict_graph

# The T-join engines the bipartization is checked under: the flow's
# swap for each, and the callable the whole-graph oracle is handed.
ENGINES = {"gadget": (nullcontext, min_tjoin_gadget),
           "paths": (use_paths_engine, min_tjoin_shortest_paths)}


def random_geometric_graph(seed, n=14, m=24, max_w=9):
    rng = random.Random(seed)
    g = GeomGraph()
    for i in range(n):
        g.add_node(i, (rng.randrange(0, 300), rng.randrange(0, 300)))
    for _ in range(m):
        u, v = rng.sample(list(g.nodes), 2)
        g.add_edge(u, v, weight=rng.randint(1, max_w))
    greedy_planarize(g)
    return g


def brute_force_bipartization_weight(g):
    """Minimum total weight over all edge subsets whose removal makes
    the live graph bipartite (exponential; tests only)."""
    edges = [e for e in g.edges()]
    best = None
    for k in range(len(edges) + 1):
        for combo in itertools.combinations(edges, k):
            ids = [e.id for e in combo]
            if is_bipartite(g, skip_edges=ids):
                w = sum(e.weight for e in combo)
                if best is None or w < best:
                    best = w
        if best is not None and k >= 1:
            # Cannot prune by k (weights vary); keep going but bail out
            # early when everything has been tried at small sizes.
            pass
    return best


class TestOptimal:
    def test_triangle_removes_cheapest(self):
        g = GeomGraph()
        g.add_node(0, (0, 0))
        g.add_node(1, (10, 0))
        g.add_node(2, (5, 10))
        g.add_edge(0, 1, weight=5)
        g.add_edge(1, 2, weight=2)
        g.add_edge(2, 0, weight=7)
        res = optimal_planar_bipartization(g)
        assert res.removed == [1]
        assert res.weight == 2

    def test_bipartite_graph_untouched(self):
        g = GeomGraph()
        for i, c in enumerate([(0, 0), (10, 0), (10, 10), (0, 10)]):
            g.add_node(i, c)
        for i in range(4):
            g.add_edge(i, (i + 1) % 4)
        res = optimal_planar_bipartization(g)
        assert res.removed == []

    def test_two_triangles_sharing_edge(self):
        # Bowtie of two odd faces: removing the shared edge fixes both.
        g = GeomGraph()
        coords = [(0, 0), (10, 0), (5, 8), (5, -8)]
        for i, c in enumerate(coords):
            g.add_node(i, c)
        g.add_edge(0, 1, weight=1)  # shared edge
        g.add_edge(1, 2, weight=4)
        g.add_edge(2, 0, weight=4)
        g.add_edge(1, 3, weight=4)
        g.add_edge(3, 0, weight=4)
        res = optimal_planar_bipartization(g)
        assert res.removed == [0]

    def test_methods_agree(self):
        for seed in range(6):
            g = random_geometric_graph(seed)
            a = optimal_planar_bipartization(g)
            with use_paths_engine():
                b = optimal_planar_bipartization(g)
            assert a.weight == b.weight

    @pytest.mark.parametrize("seed", range(5))
    def test_result_is_bipartite(self, seed):
        g = random_geometric_graph(seed, n=16, m=30)
        res = optimal_planar_bipartization(g)
        assert is_bipartite(g, skip_edges=res.removed)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000))
    def test_optimal_against_brute_force(self, seed):
        g = random_geometric_graph(seed, n=7, m=10, max_w=5)
        res = optimal_planar_bipartization(g)
        assert res.weight == brute_force_bipartization_weight(g)


class TestGreedyBaselines:
    def test_spanning_tree_reports_all_chords(self):
        # 4-cycle: bipartite, yet GB flags one chord — the paper's
        # over-reporting baseline behaving as documented.
        g = GeomGraph()
        for i, c in enumerate([(0, 0), (10, 0), (10, 10), (0, 10)]):
            g.add_node(i, c)
        for i in range(4):
            g.add_edge(i, (i + 1) % 4)
        res = greedy_spanning_tree_bipartization(g)
        assert len(res.removed) == 1

    def test_odd_cycle_greedy_keeps_even_chords(self):
        g = GeomGraph()
        for i, c in enumerate([(0, 0), (10, 0), (10, 10), (0, 10)]):
            g.add_node(i, c)
        for i in range(4):
            g.add_edge(i, (i + 1) % 4)
        res = greedy_odd_cycle_bipartization(g)
        assert res.removed == []

    def test_odd_cycle_greedy_result_bipartite(self):
        for seed in range(5):
            g = random_geometric_graph(seed, n=12, m=26)
            res = greedy_odd_cycle_bipartization(g)
            assert is_bipartite(g, skip_edges=res.removed)

    @pytest.mark.parametrize("seed", range(6))
    def test_quality_ordering(self, seed):
        """optimal <= odd-cycle greedy <= spanning-tree GB (weights)."""
        g = random_geometric_graph(seed, n=14, m=28)
        optimal = optimal_planar_bipartization(g)
        smart = greedy_odd_cycle_bipartization(g)
        literal = greedy_spanning_tree_bipartization(g)
        assert optimal.weight <= smart.weight <= literal.weight

    def test_spanning_tree_keeps_heavy_edges(self):
        g = GeomGraph()
        g.add_node(0, (0, 0))
        g.add_node(1, (10, 0))
        g.add_node(2, (5, 10))
        g.add_edge(0, 1, weight=9)
        g.add_edge(1, 2, weight=9)
        g.add_edge(2, 0, weight=1)
        res = greedy_spanning_tree_bipartization(g)
        assert res.removed == [2]


def _drawn(nodes, edges):
    """A drawn graph: ``nodes`` as ``(label, (x, y))``, ``edges`` as
    ``(u, v, weight)``."""
    g = GeomGraph()
    for label, coord in nodes:
        g.add_node(label, coord)
    for u, v, w in edges:
        g.add_edge(u, v, weight=w)
    return g


def _polygon(first, coords, weights):
    """Nodes and edges of a closed polygon labelled from ``first``."""
    k = len(coords)
    nodes = [(first + i, c) for i, c in enumerate(coords)]
    edges = [(first + i, first + (i + 1) % k, w)
             for i, w in enumerate(weights)]
    return nodes, edges


def _hand_built():
    """Hand-built drawings: bipartite ones, odd ones, and mixes."""
    tree = ([(0, (0, 0)), (1, (10, 0)), (2, (20, 5)), (3, (10, 10))],
            [(0, 1, 3), (1, 2, 4), (1, 3, 5)])
    square = _polygon(0, [(0, 0), (100, 0), (100, 100), (0, 100)],
                      [1, 2, 3, 4])
    triangle_inside = _polygon(10, [(40, 40), (60, 40), (50, 60)],
                               [5, 3, 4])
    pentagon = _polygon(20, [(300, 0), (340, 10), (350, 50), (320, 70),
                             (290, 40)], [2, 7, 1, 9, 4])
    cases = {
        "tree": tree,
        "even-cycle": square,
        "odd-inside-even-face": (square[0] + triangle_inside[0],
                                 square[1] + triangle_inside[1]),
        "two-odd-components": (triangle_inside[0] + pentagon[0],
                               triangle_inside[1] + pentagon[1]),
        "tree-then-odd": (
            [(label + 30, c) for label, c in tree[0]] + pentagon[0],
            [(u + 30, v + 30, w) for u, v, w in tree[1]] + pentagon[1]),
    }
    return {name: _drawn(*case) for name, case in cases.items()}


def _solve_recorded(solve, graph):
    """``solve``'s result and every matcher instance it built."""
    recorder = RecordingMatcher()
    with use_matcher(recorder):
        result = solve(graph)
    return result, recorder.instances


def _assert_same(graph, engine):
    swap, join = ENGINES[engine]
    with swap():
        got, got_instances = _solve_recorded(optimal_planar_bipartization,
                                             graph)
    want, want_instances = _solve_recorded(
        lambda g: whole_graph_bipartization(g, join), graph)
    assert got.removed == want.removed
    assert got.weight == want.weight
    assert got.method == want.method
    assert got.labelling.colors() == want.labelling.colors()
    assert got.labelling.root.tolist() == want.labelling.root.tolist()
    assert got_instances == want_instances


class TestOddComponentsOnly:
    """Embedding, dualizing and joining only the components that hold
    an odd cycle gives the whole-graph route's answer, labelling and
    matcher instances."""

    @pytest.mark.parametrize("name", corpus())
    def test_conflict_graphs(self, name):
        _assert_same(planarized_conflict_graph(name), "gadget")

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    @pytest.mark.parametrize("name", sorted(_hand_built()))
    def test_hand_built(self, name, engine):
        _assert_same(_hand_built()[name], engine)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_drawings(self, seed):
        g = random_geometric_graph(1000 + seed, n=18, m=22)
        _assert_same(g, "gadget")
        _assert_same(g, "paths")

    def test_bipartite_graphs_embed_nothing(self):
        from unittest import mock

        from repro.graph import bipartize

        for name in ("tree", "even-cycle"):
            g = _hand_built()[name]
            with mock.patch.object(bipartize, "build_embedding") as embed:
                result = optimal_planar_bipartization(g)
            assert embed.call_count == 0
            assert result.removed == [] and result.weight == 0
            assert not result.labelling.odd

    def test_only_odd_components_are_embedded(self):
        from unittest import mock

        from repro.graph import bipartize, build_embedding

        g = _hand_built()["odd-inside-even-face"]
        with mock.patch.object(bipartize, "build_embedding",
                               wraps=build_embedding) as embed:
            optimal_planar_bipartization(g)
        (_graph, edges), _kwargs = embed.call_args
        # The square's four edges are dropped; the triangle's kept.
        assert edges == [4, 5, 6]

    def test_self_loop_still_raises(self):
        g = _hand_built()["even-cycle"]
        g.add_edge(0, 0, weight=1)
        with pytest.raises(ValueError, match="self-loops"):
            optimal_planar_bipartization(g)

    def test_bipartite_detection_builds_no_embedding(self):
        from unittest import mock

        from repro.bench import build_design
        from repro.conflict import detect_conflicts
        from repro.correction import correct_layout
        from repro.graph import bipartize, build_embedding
        from repro.layout import Technology

        tech = Technology.node_90nm()
        layout = build_design("D3")
        report = detect_conflicts(layout, tech)
        corrected, _plan = correct_layout(
            layout, tech, [c.key for c in report.conflicts])
        for design, calls in ((layout, 1), (corrected, 0)):
            with mock.patch.object(bipartize, "build_embedding",
                                   wraps=build_embedding) as embed:
                detect_conflicts(design, tech)
            assert embed.call_count == calls
