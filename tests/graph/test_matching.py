"""Minimum-weight perfect matching tests."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import (
    GeomGraph,
    NoPerfectMatchingError,
    is_perfect_matching,
    min_weight_perfect_matching,
)

from ..oracles import brute_force_perfect_matching


def graph_from_edges(n, edges):
    g = GeomGraph()
    for i in range(n):
        g.add_node(i)
    for u, v, w in edges:
        g.add_edge(u, v, weight=w)
    return g


class TestBasics:
    def test_single_edge(self):
        g = graph_from_edges(2, [(0, 1, 5)])
        assert min_weight_perfect_matching(g) == [0]

    def test_path_four_nodes(self):
        g = graph_from_edges(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
        m = min_weight_perfect_matching(g)
        assert m == [0, 2]

    def test_chooses_cheap_combination(self):
        # Perfect matchings: {01,23} cost 2+2=4 or {02,13} cost 1+10=11.
        g = graph_from_edges(4, [(0, 1, 2), (2, 3, 2), (0, 2, 1),
                                 (1, 3, 10)])
        m = min_weight_perfect_matching(g)
        assert g.total_weight(m) == 4

    def test_odd_nodes_raises(self):
        g = graph_from_edges(3, [(0, 1, 1)])
        with pytest.raises(NoPerfectMatchingError):
            min_weight_perfect_matching(g)

    def test_no_perfect_matching_raises(self):
        # Star: center can only cover one leaf.
        g = graph_from_edges(4, [(0, 1, 1), (0, 2, 1), (0, 3, 1)])
        with pytest.raises(NoPerfectMatchingError):
            min_weight_perfect_matching(g)

    def test_empty_graph(self):
        assert min_weight_perfect_matching(GeomGraph()) == []

    def test_parallel_edges_use_cheapest(self):
        g = graph_from_edges(2, [(0, 1, 9), (0, 1, 3)])
        m = min_weight_perfect_matching(g)
        assert g.total_weight(m) == 3

    def test_self_loops_ignored(self):
        g = graph_from_edges(2, [(0, 0, 1), (0, 1, 4)])
        m = min_weight_perfect_matching(g)
        assert g.total_weight(m) == 4

    def test_blossom_case(self):
        # Odd cycle forcing an augmenting path through a blossom.
        g = graph_from_edges(6, [
            (0, 1, 1), (1, 2, 1), (2, 0, 1),
            (2, 3, 1), (3, 4, 1), (4, 5, 1),
        ])
        m = min_weight_perfect_matching(g)
        assert is_perfect_matching(g, m)


class TestAgainstBruteForce:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 100_000), st.sampled_from([4, 6, 8]),
           st.floats(0.4, 1.0))
    def test_random_graphs(self, seed, n, density):
        rng = random.Random(seed)
        edges = []
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < density:
                    edges.append((u, v, rng.randint(1, 20)))
        g = graph_from_edges(n, edges)
        brute = brute_force_perfect_matching(g)
        if brute is None:
            with pytest.raises(NoPerfectMatchingError):
                min_weight_perfect_matching(g)
        else:
            m = min_weight_perfect_matching(g)
            assert is_perfect_matching(g, m)
            assert g.total_weight(m) == g.total_weight(brute)


class TestValidator:
    def test_valid(self):
        g = graph_from_edges(4, [(0, 1, 1), (2, 3, 1)])
        assert is_perfect_matching(g, [0, 1])

    def test_uncovered_node(self):
        g = graph_from_edges(4, [(0, 1, 1), (2, 3, 1)])
        assert not is_perfect_matching(g, [0])

    def test_double_cover(self):
        g = graph_from_edges(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
        assert not is_perfect_matching(g, [0, 1, 2])


def _recorded(driver, graph):
    """``driver``'s matching (or its error text) and every component
    instance it handed the matcher."""
    from ..oracles import RecordingMatcher, use_matcher

    recorder = RecordingMatcher()
    with use_matcher(recorder):
        try:
            out = driver(graph)
        except NoPerfectMatchingError as exc:
            out = str(exc)
    return out, recorder.instances


def _multigraph(seed):
    """Parallel edges, self-loops, soft-removed edges, weight ties,
    weights past int64 (and past float64's integer precision) and, on
    odd seeds, out-of-order node labels."""
    rng = random.Random(seed)
    n = 2 * rng.randint(1, 9)
    labels = rng.sample(range(3 * n), n) if seed % 2 else list(range(n))
    g = GeomGraph()
    for label in labels:
        g.add_node(label)
    big = (0, 1 << 63, 1 << 70)[seed % 3]
    for _ in range(rng.randint(0, 3 * n)):
        u, v = rng.choice(labels), rng.choice(labels)
        g.add_edge(u, v, weight=rng.choice((0, big)) + rng.randint(0, 6))
    for eid in range(g.num_edges()):
        if rng.random() < 0.1:
            g.remove_edge(eid)
    return g


class TestColumnDriver:
    """The driver's column passes hand the matcher the same component
    instances as the dict collapse and per-node union-find, in the same
    order, with the same transform constant, and return the same ids."""

    @pytest.mark.parametrize("seed", range(120))
    def test_same_instances_as_the_dict_driver(self, seed):
        from ..oracles import dict_perfect_matching

        g = _multigraph(seed)
        assert _recorded(min_weight_perfect_matching, g) \
            == _recorded(dict_perfect_matching, g)

    @pytest.mark.parametrize("name", ["D1", "D2", "D3"])
    def test_gadget_graphs(self, name):
        """The gadget graphs of the reduced instance the flow solves
        and of the dual's simple instance with its degree-2 faces kept
        (``use_unreduced_dual``): the reduced ones can be none at all."""
        from contextlib import nullcontext
        from unittest import mock

        from repro.bench import build_design
        from repro.conflict import detect_conflicts
        from repro.graph import gadgets
        from repro.layout import Technology

        from ..oracles import dict_perfect_matching, use_unreduced_dual

        graphs = []

        def keep(graph):
            graphs.append(graph)
            return min_weight_perfect_matching(graph)

        for swap in (nullcontext, use_unreduced_dual):
            with mock.patch.object(gadgets, "min_weight_perfect_matching",
                                   keep), swap():
                detect_conflicts(build_design(name), Technology.node_90nm())
        assert graphs
        for graph in graphs:
            assert _recorded(min_weight_perfect_matching, graph) \
                == _recorded(dict_perfect_matching, graph)
