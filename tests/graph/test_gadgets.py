"""Generalized-gadget reduction tests (the paper's §3.1.2).

The key property: for any T-join instance, the gadget reduction —
at every divide-node chunk size — returns a T-join of exactly the same
total weight as the reference shortest-path solver
(``tests/oracles.py``).
"""

import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import GeomGraph, build_gadget_graph, min_tjoin_gadget
from repro.graph.gadgets import extract_tjoin
from repro.graph.matching import min_weight_perfect_matching

from ..oracles import is_tjoin, min_tjoin_shortest_paths


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


class TestSmallCases:
    def test_single_edge(self):
        g = graph_from_edges(2, [(0, 1, 5)])
        assert min_tjoin_gadget(g, {0, 1}) == [0]

    def test_empty_t(self):
        g = graph_from_edges(2, [(0, 1, 5)])
        assert min_tjoin_gadget(g, set()) == []

    def test_path_pass_through(self):
        g = graph_from_edges(3, [(0, 1, 2), (1, 2, 3)])
        assert min_tjoin_gadget(g, {0, 2}) == [0, 1]

    def test_triangle_shortcut(self):
        g = graph_from_edges(3, [(0, 1, 10), (1, 2, 10), (0, 2, 5)])
        assert min_tjoin_gadget(g, {0, 2}) == [2]

    def test_odd_edge_component_needs_pendant(self):
        # Triangle: |E| = 3 odd, T empty — exercises the pendant fix.
        g = graph_from_edges(3, [(0, 1, 1), (1, 2, 1), (2, 0, 1)])
        assert min_tjoin_gadget(g, set()) == []

    def test_odd_edges_with_t(self):
        g = graph_from_edges(3, [(0, 1, 1), (1, 2, 1), (2, 0, 5)])
        join = min_tjoin_gadget(g, {0, 1})
        assert join == [0]

    def test_parallel_edges(self):
        g = graph_from_edges(2, [(0, 1, 9), (0, 1, 2)])
        join = min_tjoin_gadget(g, {0, 1})
        assert join == [1]

    def test_self_loop_skipped(self):
        g = graph_from_edges(2, [(0, 0, 1), (0, 1, 3)])
        assert min_tjoin_gadget(g, {0, 1}) == [1]

    def test_disconnected(self):
        g = graph_from_edges(4, [(0, 1, 1), (2, 3, 2)])
        assert min_tjoin_gadget(g, {0, 1, 2, 3}) == [0, 1]


class TestGadgetStructure:
    def test_generalized_gadget_node_count(self):
        # K4: every node degree 3 -> 2E per-edge nodes + E dummies,
        # no divide nodes for the generalized (single-clique) gadget.
        edges = [(u, v, 1) for u in range(4) for v in range(u + 1, 4)]
        g = graph_from_edges(4, edges)
        gadget = build_gadget_graph(g, set(), max_clique_size=None)
        e = 6  # |E| even: no pendant
        assert gadget.num_nodes == 3 * e
        assert gadget.num_divide_nodes == 0

    def test_optimized_gadget_has_divide_nodes(self):
        edges = [(u, v, 1) for u in range(4) for v in range(u + 1, 4)]
        g = graph_from_edges(4, edges)
        gadget = build_gadget_graph(g, set(), max_clique_size=1)
        assert gadget.num_divide_nodes > 0

    def test_generalized_smaller_than_optimized(self):
        """The paper's size claim: generalized gadgets produce fewer
        matching nodes than the optimized (clique<=3) gadgets."""
        rng = random.Random(7)
        g = random_connected_graph(rng, 12, 14)
        general = build_gadget_graph(g, set(), max_clique_size=None)
        optimized = build_gadget_graph(g, set(), max_clique_size=1)
        assert general.num_nodes < optimized.num_nodes

    def test_invalid_chunk_size(self):
        g = graph_from_edges(2, [(0, 1, 1)])
        with pytest.raises(ValueError):
            build_gadget_graph(g, set(), max_clique_size=0)


class TestEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.integers(3, 7), st.integers(0, 5),
           st.sampled_from([None, 1, 2, 3]))
    def test_cost_matches_reference(self, seed, n, extra, chunk):
        rng = random.Random(seed)
        g = random_connected_graph(rng, n, extra)
        k = rng.randrange(0, n + 1, 2)
        tset = set(rng.sample(range(n), k))
        reference = min_tjoin_shortest_paths(g, tset)
        join = min_tjoin_gadget(g, tset, max_clique_size=chunk)
        assert is_tjoin(g, join, tset)
        assert g.total_weight(join) == g.total_weight(reference)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000))
    def test_all_chunk_sizes_agree(self, seed):
        rng = random.Random(seed)
        g = random_connected_graph(rng, 8, 6)
        tset = set(rng.sample(range(8), 4))
        costs = set()
        for chunk in (None, 1, 2, 4, 8):
            join = min_tjoin_gadget(g, tset, max_clique_size=chunk)
            assert is_tjoin(g, join, tset)
            costs.add(g.total_weight(join))
        assert len(costs) == 1


def recomputing_solve(graph, tset):
    """``min_tjoin_gadget`` as it read before it passed its components
    down: the T-bearing subgraph's components are computed again, by
    ``build_gadget_graph`` itself.  Returns the join and the matching
    instance's edge rows."""
    relevant = set()
    for comp in graph.connected_components():
        if tset.intersection(comp):
            relevant.update(comp)
    sub = graph.subgraph(relevant)
    gadget = build_gadget_graph(sub, tset & relevant)
    matched = min_weight_perfect_matching(gadget.matching_graph)
    return (sorted(sub.edge(eid).tag[1]
                   for eid in extract_tjoin(gadget, matched)),
            list(gadget.matching_graph.live_edge_rows()))


def recorded_solve(graph, tset):
    """``min_tjoin_gadget``'s join and the matching instance's edge
    rows it built."""
    from repro.graph import gadgets

    instances = []

    def record(matching_graph):
        instances.append(list(matching_graph.live_edge_rows()))
        return min_weight_perfect_matching(matching_graph)

    with mock.patch.object(gadgets, "min_weight_perfect_matching", record):
        join = min_tjoin_gadget(graph, tset)
    assert len(instances) == 1
    return join, instances[0]


def harvested_instances(name, route):
    """Every T-join instance one detection hands ``min_tjoin_gadget``:
    the ``reduced`` instance the flow solves, the dual's ``simple``
    instance with its degree-2 faces kept, or the ``raw`` dual."""
    from contextlib import nullcontext

    from repro.conflict import detect_conflicts
    from repro.graph import bipartize

    from ..oracles import use_raw_dual, use_unreduced_dual

    layout, tech = corpus_layout(name)
    instances = []
    solve = bipartize.min_tjoin_gadget
    swap = {"reduced": nullcontext, "simple": use_unreduced_dual,
            "raw": use_raw_dual}[route]

    def record(graph, tset, max_clique_size=None):
        instances.append((graph, set(tset)))
        return solve(graph, tset, max_clique_size)

    with mock.patch.object(bipartize, "min_tjoin_gadget", record), swap():
        detect_conflicts(layout, tech)
    return instances


def planarized_conflict_graph(name):
    """A corpus entry's G - P: its conflict graph with the
    planarization casualties soft-removed."""
    from repro.conflict import build_layout_conflict_graph
    from repro.graph import greedy_planarize

    cg, _shifters, _pairs = build_layout_conflict_graph(*corpus_layout(name))
    greedy_planarize(cg.graph)
    return cg.graph


def odd_cycle_after_planarizing(name):
    """Whether a detection's G - P holds an odd cycle, by the BFS
    oracle."""
    from ..oracles import scalar_two_color

    return scalar_two_color(planarized_conflict_graph(name)) is None


def corpus_layout(name):
    """A corpus entry's ``(layout, tech)``."""
    from repro.bench import build_design
    from repro.layout import Technology
    from repro.scenarios import build_scenario

    if ":" in name:
        stratum, seed = name.split(":")
        scenario = build_scenario(stratum, int(seed))
        return scenario.layout, scenario.tech
    return build_design(name), Technology.node_90nm()


def corpus():
    from repro.scenarios import stratum_names

    return [f"{s}:{seed}" for s in stratum_names() for seed in range(3)] \
        + ["D1", "D2", "D3"]


class TestComponentsOncePerSolve:
    """A solve labels the instance's components once and hands the
    T-bearing ones to ``build_gadget_graph`` for the subgraph: the same
    matching instance and join as labelling the subgraph again."""

    @pytest.mark.parametrize("route", ["reduced", "simple", "raw"])
    @pytest.mark.parametrize("name", corpus())
    def test_one_pass_and_the_same_join(self, name, route):
        calls = []
        labelled = GeomGraph.connected_components

        def counting(graph):
            calls.append(graph.name)
            return labelled(graph)

        instances = harvested_instances(name, route)
        # Only a G - P with an odd cycle reaches a T-join, and then only
        # its odd components, each of which has an odd face.
        assert bool(instances) == odd_cycle_after_planarizing(name)
        for graph, tset in instances:
            if not tset:
                # Eliminating degree-2 faces can pair off every
                # terminal; such a solve labels nothing.
                assert route == "reduced"
                with mock.patch.object(GeomGraph, "connected_components",
                                       counting):
                    assert min_tjoin_gadget(graph, tset) == []
                assert calls == []
                continue
            expected = recomputing_solve(graph, tset)
            calls.clear()
            with mock.patch.object(GeomGraph, "connected_components",
                                   counting):
                assert recorded_solve(graph, tset) == expected
            assert calls == [graph.name]

    @pytest.mark.parametrize("seed", range(40))
    def test_labels_inserted_out_of_order(self, seed):
        """Components listed by first insertion differ from the
        subgraph's own order (smallest label first) when labels come
        out of order; the solve hands them over in the subgraph's."""
        rng = random.Random(seed)
        labels = rng.sample(range(100), 24)
        g = GeomGraph()
        for label in labels:
            g.add_node(label)
        parts = [labels[i:i + 6] for i in range(0, 24, 6)]
        tset = set()
        for part in parts:
            edges = list(zip(part, part[1:])) \
                + [rng.sample(part, 2) for _ in range(4)]
            for u, v in edges:
                g.add_edge(u, v, weight=rng.randint(1, 2))
            if rng.random() < 0.8:
                tset.update(rng.sample(part, 2))
        if not tset:
            tset = set(parts[0][:2])
        expected = recomputing_solve(g, tset)
        assert recorded_solve(g, tset) == expected
        assert is_tjoin(g, expected[0], tset)

    def test_public_builder_still_checks_feasibility(self):
        from repro.graph import TJoinInfeasibleError

        g = graph_from_edges(3, [(0, 1, 1), (1, 2, 1)])
        with pytest.raises(TJoinInfeasibleError, match="odd"):
            build_gadget_graph(g, {0})
        with pytest.raises(TJoinInfeasibleError, match="odd"):
            build_gadget_graph(g, {0}, components=[[0, 1, 2]])
