"""Tests of the shortest-path T-join reference in ``tests/oracles.py``."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import GeomGraph, TJoinInfeasibleError

from ..oracles import (
    is_tjoin,
    min_tjoin_brute_force,
    min_tjoin_shortest_paths,
)


def graph_from_edges(n, edges):
    g = GeomGraph()
    for i in range(n):
        g.add_node(i)
    for u, v, w in edges:
        g.add_edge(u, v, weight=w)
    return g


def random_connected_graph(rng, n, extra_edges, max_w=10):
    edges = []
    for v in range(1, n):
        u = rng.randrange(v)
        edges.append((u, v, rng.randint(1, max_w)))
    for _ in range(extra_edges):
        u, v = rng.sample(range(n), 2)
        edges.append((u, v, rng.randint(1, max_w)))
    return graph_from_edges(n, edges)


def random_even_tset(rng, n, max_t=None):
    k = rng.randrange(0, (max_t or n) + 1, 2)
    return set(rng.sample(range(n), min(k, n - n % 2)))


class TestBasics:
    def test_empty_t(self):
        g = graph_from_edges(3, [(0, 1, 1), (1, 2, 1)])
        assert min_tjoin_shortest_paths(g, set()) == []

    def test_path_join(self):
        g = graph_from_edges(4, [(0, 1, 2), (1, 2, 3), (2, 3, 4)])
        join = min_tjoin_shortest_paths(g, {0, 3})
        assert join == [0, 1, 2]

    def test_shortcut_preferred(self):
        g = graph_from_edges(3, [(0, 1, 10), (1, 2, 10), (0, 2, 5)])
        join = min_tjoin_shortest_paths(g, {0, 2})
        assert join == [2]

    def test_two_pairs(self):
        g = graph_from_edges(4, [(0, 1, 1), (1, 2, 50), (2, 3, 1)])
        join = min_tjoin_shortest_paths(g, {0, 1, 2, 3})
        assert join == [0, 2]

    def test_odd_component_infeasible(self):
        g = graph_from_edges(4, [(0, 1, 1), (2, 3, 1)])
        with pytest.raises(TJoinInfeasibleError):
            min_tjoin_shortest_paths(g, {0, 1, 2})

    def test_disconnected_feasible(self):
        g = graph_from_edges(4, [(0, 1, 1), (2, 3, 1)])
        join = min_tjoin_shortest_paths(g, {0, 1, 2, 3})
        assert join == [0, 1]

    def test_self_loops_never_used(self):
        g = graph_from_edges(2, [(0, 0, 0), (0, 1, 7)])
        join = min_tjoin_shortest_paths(g, {0, 1})
        assert join == [1]

    def test_negative_weight_raises_before_any_search(self):
        # Dijkstra would relax into a finished node and loop for ever
        # on this path; the solver refuses it up front instead.
        g = graph_from_edges(3, [(0, 1, 5), (1, 2, -1)])
        with pytest.raises(ValueError,
                           match=r"edge 1 \(1-2\) has negative weight -1"):
            min_tjoin_shortest_paths(g, {0, 2})

    def test_overlapping_paths_xor(self):
        # Both matched pairs would route through the middle edge; the
        # symmetric difference must drop it.
        g = graph_from_edges(6, [
            (0, 2, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1), (3, 5, 1)])
        join = min_tjoin_shortest_paths(g, {0, 1, 4, 5})
        assert is_tjoin(g, join, {0, 1, 4, 5})
        assert g.total_weight(join) == 4  # middle edge excluded


class TestIsTJoin:
    def test_accepts(self):
        g = graph_from_edges(3, [(0, 1, 1), (1, 2, 1)])
        assert is_tjoin(g, [0], {0, 1})
        assert is_tjoin(g, [0, 1], {0, 2})
        assert is_tjoin(g, [], set())

    def test_rejects(self):
        g = graph_from_edges(3, [(0, 1, 1), (1, 2, 1)])
        assert not is_tjoin(g, [0], {0, 2})

    def test_self_loop_neutral(self):
        g = graph_from_edges(1, [(0, 0, 1)])
        assert is_tjoin(g, [0], set())


class TestAgainstBruteForce:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.integers(3, 6), st.integers(0, 4))
    def test_optimality(self, seed, n, extra):
        rng = random.Random(seed)
        g = random_connected_graph(rng, n, extra)
        tset = random_even_tset(rng, n)
        join = min_tjoin_shortest_paths(g, tset)
        assert is_tjoin(g, join, tset)
        brute = min_tjoin_brute_force(g, tset)
        assert brute is not None
        assert g.total_weight(join) == g.total_weight(brute)
