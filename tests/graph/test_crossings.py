"""Crossing detection and greedy planarization tests."""

import random
from unittest import mock

import pytest

from repro.bench import build_design
from repro.conflict import build_layout_conflict_graph
from repro.geometry.kernels import numpy_kernel
from repro.graph import GeomGraph, count_crossings, find_crossing_pairs, greedy_planarize
from repro.graph.crossings import EXACT_COORD_LIMIT
from repro.layout import Technology
from tests.oracles import ScalarKernel, scalar_crossing_pairs, use_kernel


def cross_graph():
    """Two crossing diagonals plus one clean edge."""
    g = GeomGraph()
    g.add_node(0, (0, 0))
    g.add_node(1, (10, 10))
    g.add_node(2, (0, 10))
    g.add_node(3, (10, 0))
    g.add_node(4, (20, 0))
    g.add_node(5, (30, 0))
    g.add_edge(0, 1, weight=5)   # diagonal
    g.add_edge(2, 3, weight=1)   # crossing diagonal, cheaper
    g.add_edge(4, 5, weight=1)   # far away, clean
    return g


class TestFindCrossings:
    def test_finds_proper_crossing(self):
        assert find_crossing_pairs(cross_graph()) == [(0, 1)]

    def test_shared_endpoint_not_crossing(self):
        g = GeomGraph()
        g.add_node(0, (0, 0))
        g.add_node(1, (10, 0))
        g.add_node(2, (10, 10))
        g.add_edge(0, 1)
        g.add_edge(1, 2)
        assert find_crossing_pairs(g) == []

    def test_t_junction_is_crossing(self):
        g = GeomGraph()
        g.add_node(0, (0, 0))
        g.add_node(1, (10, 0))
        g.add_node(2, (5, -5))
        g.add_node(3, (5, 0))
        g.add_edge(0, 1)
        g.add_edge(2, 3)
        assert find_crossing_pairs(g) == [(0, 1)]

    def test_collinear_overlap_is_crossing(self):
        g = GeomGraph()
        g.add_node(0, (0, 0))
        g.add_node(1, (10, 0))
        g.add_node(2, (5, 0))
        g.add_node(3, (15, 0))
        g.add_edge(0, 1)
        g.add_edge(2, 3)
        assert find_crossing_pairs(g) == [(0, 1)]

    def test_ignores_removed_edges(self):
        g = cross_graph()
        g.remove_edge(0)
        assert find_crossing_pairs(g) == []

    def test_count(self):
        assert count_crossings(cross_graph()) == 1


class TestGreedyPlanarize:
    def test_removes_cheapest(self):
        g = cross_graph()
        removed = greedy_planarize(g)
        assert removed == [1]  # the weight-1 diagonal
        assert count_crossings(g) == 0
        assert not g.is_removed(0)

    def test_noop_on_planar(self):
        g = GeomGraph()
        g.add_node(0, (0, 0))
        g.add_node(1, (10, 0))
        g.add_edge(0, 1)
        assert greedy_planarize(g) == []

    def test_star_crossing_removes_hub(self):
        """One cheap edge crossing many: greedy should remove just it."""
        g = GeomGraph()
        g.add_node(0, (0, 5))
        g.add_node(1, (100, 5))
        g.add_edge(0, 1, weight=1)  # long horizontal, cheap
        for i in range(4):
            a = 2 + 2 * i
            x = 10 + 20 * i
            g.add_node(a, (x, 0))
            g.add_node(a + 1, (x, 10))
            g.add_edge(a, a + 1, weight=10)
        removed = greedy_planarize(g)
        assert removed == [0]

    def test_random_layouts_end_planar(self):
        rng = random.Random(42)
        g = GeomGraph()
        for i in range(30):
            g.add_node(i, (rng.randrange(0, 100), rng.randrange(0, 100)))
        nodes = list(g.nodes)
        for _ in range(50):
            u, v = rng.sample(nodes, 2)
            g.add_edge(u, v, weight=rng.randint(1, 9))
        greedy_planarize(g)
        assert count_crossings(g) == 0

    def test_deterministic(self):
        def run():
            g = cross_graph()
            g.add_edge(2, 1, weight=1)
            return greedy_planarize(g)

        assert run() == run()


def segment_graph(segments):
    """One edge per ``((x, y), (x, y))`` segment; every endpoint is its
    own node, so equal points are distinct nodes drawn at one spot."""
    g = GeomGraph()
    for k, (a, b) in enumerate(segments):
        g.add_node(2 * k, a)
        g.add_node(2 * k + 1, b)
        g.add_edge(2 * k, 2 * k + 1, weight=k + 1)
    return g


def random_grid_graph(rng, grid, scale=1, offset=0):
    """Nodes on a tiny coordinate grid (so shared points, collinear
    runs and coincident nodes are common), some sharing a node label,
    some edges removed, some self-loops."""
    g = GeomGraph()
    n = rng.randint(2, 14)
    for v in range(n):
        g.add_node(v, (offset + scale * rng.randint(0, grid),
                       offset + scale * rng.randint(0, grid)))
    for _ in range(rng.randint(1, 24)):
        g.add_edge(rng.randrange(n), rng.randrange(n),
                   weight=rng.randint(1, 9))
    for eid in range(g.num_edges()):
        if rng.random() < 0.1:
            g.remove_edge(eid)
    return g


class TestCrossingFilterDifferential:
    """The int64 filter against the scalar predicate on every candidate."""

    CASES = {
        "shared-endpoint-apart": [((0, 0), (4, 0)), ((0, 0), (0, 4))],
        "shared-endpoint-overlap": [((0, 0), (4, 0)), ((0, 0), (2, 0))],
        "shared-endpoint-opposite": [((0, 0), (4, 0)), ((0, 0), (-2, 0))],
        "shared-far-end-overlap": [((0, 0), (4, 0)), ((2, 0), (4, 0))],
        "t-junction": [((0, 0), (4, 0)), ((2, 0), (2, 3))],
        "t-junction-at-end": [((0, 0), (4, 0)), ((4, 0), (6, 3))],
        "collinear-overlap": [((0, 0), (4, 4)), ((2, 2), (6, 6))],
        "collinear-touch": [((0, 0), (2, 0)), ((2, 0), (5, 0))],
        "collinear-apart": [((0, 0), (2, 0)), ((3, 0), (5, 0))],
        "collinear-contained": [((0, 0), (6, 0)), ((2, 0), (3, 0))],
        "identical": [((1, 1), (3, 2)), ((1, 1), (3, 2))],
        "reversed": [((1, 1), (3, 2)), ((3, 2), (1, 1))],
        "proper-crossing": [((0, 0), (4, 4)), ((0, 4), (4, 0))],
        "near-miss": [((0, 0), (4, 4)), ((3, 0), (5, 2))],
        "zero-length-on-segment": [((0, 0), (4, 0)), ((2, 0), (2, 0))],
        "zero-length-at-endpoint": [((0, 0), (4, 0)), ((4, 0), (4, 0))],
        "zero-length-off": [((0, 0), (4, 0)), ((2, 1), (2, 1))],
        "zero-length-pair": [((2, 2), (2, 2)), ((2, 2), (2, 2))],
        "guard-proper-crossing": [
            ((0, 0), (3 << 31, 3 << 31)), ((0, 3 << 31), (3 << 31, 0))],
        "guard-collinear": [
            ((1 << 31, 0), (5 << 31, 4 << 31)),
            ((3 << 31, 2 << 31), (7 << 31, 6 << 31))],
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_named_case(self, name):
        g = segment_graph(self.CASES[name])
        assert find_crossing_pairs(g) == scalar_crossing_pairs(g)

    def test_cases_cover_both_verdicts(self):
        verdicts = {bool(find_crossing_pairs(segment_graph(segs)))
                    for segs in self.CASES.values()}
        assert verdicts == {True, False}

    @pytest.mark.parametrize("seed", range(6))
    def test_random_small_grid(self, seed):
        rng = random.Random(seed)
        for _ in range(150):
            g = random_grid_graph(rng, grid=rng.choice((2, 3, 4)))
            assert find_crossing_pairs(g) == scalar_crossing_pairs(g)

    @pytest.mark.parametrize("seed", range(3))
    def test_random_guard_coordinates(self, seed):
        """Coordinates past the exactness limit, spread far enough apart
        that int64 cross products would overflow."""
        rng = random.Random(1000 + seed)
        for _ in range(60):
            g = random_grid_graph(rng, grid=4, scale=(1 << 31) + 7,
                                  offset=EXACT_COORD_LIMIT)
            assert find_crossing_pairs(g) == scalar_crossing_pairs(g)

    @pytest.mark.parametrize("seed", range(4))
    def test_tiny_blocks(self, seed):
        """Sweep and predicate blocks of 1-7 candidate rows, so every
        search spans many blocks: small random graphs, coordinates past
        the exactness limit, and D3's conflict graph."""
        rng = random.Random(2000 + seed)
        graphs = [random_grid_graph(rng, grid=rng.choice((2, 3, 4)))
                  for _ in range(60)]
        graphs += [random_grid_graph(rng, grid=4, scale=(1 << 31) + 7,
                                     offset=EXACT_COORD_LIMIT)
                    for _ in range(10)]
        cg, _s, _p = build_layout_conflict_graph(build_design("D3"),
                                                 Technology.node_90nm())
        graphs.append(cg.graph)
        expected = [scalar_crossing_pairs(g) for g in graphs]
        assert expected[-1], "D3's conflict graph has crossings"
        with mock.patch.object(numpy_kernel, "SWEEP_BLOCK",
                               rng.randint(1, 7)):
            assert [find_crossing_pairs(g) for g in graphs] == expected

    def test_scalar_kernel_sweep(self):
        """The column sweep's default implementation (the one a kernel
        without a batch override inherits) gives the same pairs."""
        rng = random.Random(7)
        graphs = [random_grid_graph(rng, grid=3) for _ in range(40)]
        expected = [find_crossing_pairs(g) for g in graphs]
        with use_kernel(ScalarKernel()):
            assert [find_crossing_pairs(g) for g in graphs] == expected
