"""The parity labelling against the BFS and node-level oracles.

Every 2-coloring of the flow reads one column-pass labelling
(:func:`repro.graph.parity_labelling`); the per-node BFS and the
node-level step-3 union-find it replaced live in ``tests/oracles.py``.
Colors (or the odd verdict), step-3 conflicts and the detection
report's ``phase_assignable`` must equal the oracles' on the smoke
corpus, D1-D3, the cold-chip layout and hand-built graphs: self-loops,
parallel edges, isolated nodes, non-dense labels, soft-removed edges,
the empty graph, an odd 101-cycle and a long even chain.
"""

import random
from unittest import mock

import pytest

from repro.bench import build_design
from repro.cache import ArtifactCache
from repro.conflict import build_layout_conflict_graph, detect_conflicts
from repro.correction import correct_layout
from repro.graph import (
    GeomGraph,
    build_dual,
    build_embedding,
    build_gadget_graph,
    color_component,
    greedy_planarize,
    is_bipartite,
    optimal_planar_bipartization,
    parity_labelling,
    residual_conflicts,
    two_color,
    two_color_incremental,
)
from repro.graph import coloring
from repro.layout import Technology, figure1_layout
from repro.scenarios import build_scenario, stratum_names

from ..conftest import cold_chip_layout
from ..oracles import color_from, scalar_residual_conflicts, \
    scalar_two_color

TECH = Technology.node_90nm()
SMOKE = [(s, seed) for s in stratum_names() for seed in range(3)]


def layouts():
    """``(name, layout builder)`` over the corpora the flow runs."""
    out = [(f"{s}:{seed}", lambda s=s, seed=seed:
            build_scenario(s, seed).layout) for s, seed in SMOKE]
    out += [(d, lambda d=d: build_design(d)) for d in ("D1", "D2", "D3")]
    out += [(f"cold-chip:{seed}", lambda seed=seed: cold_chip_layout(seed))
            for seed in (17, 23)]
    return out


LAYOUTS = layouts()
LAYOUT_IDS = [name for name, _ in LAYOUTS]


def graph_of(edges, nodes=(), removed=()):
    g = GeomGraph()
    for node in nodes:
        g.add_node(node)
    for u, v in edges:
        g.add_edge(u, v)
    for eid in removed:
        g.remove_edge(eid)
    return g


def relabelled(graph, label):
    """The graph with node ``x`` renamed ``label(x)``, nodes inserted in
    reverse order, edges (and removals) kept in id order."""
    g = GeomGraph()
    for node in reversed(graph.nodes):
        g.add_node(label(node))
    for eid, u, v, w in [(e.id, e.u, e.v, e.weight)
                         for e in graph.edges(include_removed=True)]:
        g.add_edge(label(u), label(v), weight=w)
        if graph.is_removed(eid):
            g.remove_edge(eid)
    return g


def dual_and_gadget(layout_name):
    cg, _s, _p = build_layout_conflict_graph(build_design(layout_name),
                                             TECH)
    greedy_planarize(cg.graph)
    dual = build_dual(build_embedding(cg.graph))
    return dual.graph, build_gadget_graph(dual.graph,
                                          dual.tset).matching_graph


def built_graphs():
    """``(name, graph builder)`` of the hand-built shapes."""
    rng = random.Random(5)
    chain = list(range(4000))
    rng.shuffle(chain)

    def long_even_chain():
        # Labels shuffled along the path, so hooking builds deep
        # pointer chains; the closing edge makes an even cycle.
        return graph_of(list(zip(chain, chain[1:])) + [(chain[-1],
                                                        chain[0])],
                        nodes=range(4000))

    def odd_dual():
        dual, _gadget = dual_and_gadget("D2")
        return relabelled(dual, lambda x: 3 * x + 7)

    def sparse_gadget():
        _dual, gadget = dual_and_gadget("D2")
        return gadget.subgraph(n for n in gadget.nodes if n % 3)

    return [
        ("empty", GeomGraph),
        ("isolated", lambda: graph_of([], nodes=[4, 0, 9])),
        ("self-loop", lambda: graph_of([(0, 1), (1, 1)])),
        ("parallel", lambda: graph_of([(0, 1), (1, 0), (0, 1), (1, 2)])),
        ("soft-removed", lambda: graph_of([(0, 1), (1, 2), (2, 0)],
                                          removed=[2])),
        ("removed-leaves-odd", lambda: graph_of(
            [(0, 1), (1, 2), (2, 0), (2, 3), (3, 0)], removed=[3])),
        ("non-dense", lambda: graph_of([(40, 7), (7, 19), (19, 40),
                                        (3, 88), (88, 3), (12, 5)],
                                       nodes=[12, 99], removed=[1])),
        ("C101", lambda: graph_of([(i, (i + 1) % 101)
                                   for i in range(101)])),
        ("C100", lambda: graph_of([(i, (i + 1) % 100)
                                   for i in range(100)])),
        ("long-even-chain", long_even_chain),
        ("dual", lambda: dual_and_gadget("D2")[0]),
        ("gadget", lambda: dual_and_gadget("D2")[1]),
        ("dual-relabelled", odd_dual),
        ("gadget-sparse-labels", sparse_gadget),
    ]


BUILT = built_graphs()


def assert_matches_oracle(graph):
    for skip in (set(), set(range(0, len(graph._eu), 3))):
        expected = scalar_two_color(graph, skip)
        assert two_color(graph, skip) == expected
        assert is_bipartite(graph, skip) == (expected is not None)
        labelling = parity_labelling(graph, skip)
        assert (not labelling.odd) == (expected is not None)
        for odd in labelling.odd:
            assert odd not in skip and not graph.is_removed(odd)
        if graph.nodes:
            start = max(graph.nodes)
            assert color_component(graph, start, skip) \
                == color_from(graph, start, skip)


class TestColorsMatchBFS:
    @pytest.mark.parametrize("name,build", BUILT,
                             ids=[name for name, _ in BUILT])
    def test_built_graphs(self, name, build):
        assert_matches_oracle(build())

    @pytest.mark.parametrize("name,build", LAYOUTS, ids=LAYOUT_IDS)
    def test_conflict_graphs(self, name, build):
        cg, _s, _p = build_layout_conflict_graph(build(), TECH)
        assert_matches_oracle(cg.graph)
        greedy_planarize(cg.graph)
        assert_matches_oracle(cg.graph)

    def test_odd_edges_are_exactly_the_inconsistent_ones(self):
        g = graph_of([(0, 1), (1, 2), (2, 0), (3, 3), (4, 5)])
        labelling = parity_labelling(g)
        colors = labelling.color.tolist()
        assert labelling.odd == [eid for eid, u, v, _w in g.live_edge_rows()
                                 if colors[u] == colors[v]]
        assert 3 in labelling.odd and 4 not in labelling.odd

    def test_incremental_colors_read_one_labelling(self):
        """The column recoloring reads the decomposition's one hooking
        pass; it never labels the graph again."""
        from repro.graph import components

        for layout in (build_design("D3"), corrected_d3()):
            cg, _s, _p = build_layout_conflict_graph(layout, TECH)
            with mock.patch.object(components, "_parity_roots",
                                   wraps=components._parity_roots) as roots, \
                    mock.patch.object(coloring, "_parity_roots",
                                      wraps=coloring._parity_roots) as again:
                colors = two_color_incremental(cg.graph, ArtifactCache())
            assert roots.call_count == 1 and again.call_count == 0
            expected = scalar_two_color(cg.graph)
            if expected is None:
                assert colors is None
            else:
                assert dict(zip(cg.graph.nodes, colors.tolist())) \
                    == expected


def corrected_d3():
    """D3 after correction: its conflict graph is bipartite."""
    layout = build_design("D3")
    report = detect_conflicts(layout, TECH)
    return correct_layout(layout, TECH,
                          [c.key for c in report.conflicts])[0]


def planarized_bipartization(layout):
    cg, _s, _p = build_layout_conflict_graph(layout, TECH)
    graph = cg.graph
    potential = greedy_planarize(graph)
    return graph, potential, optimal_planar_bipartization(graph)


class TestStep3MatchesNodeLevelOracle:
    @pytest.mark.parametrize("name,build", LAYOUTS, ids=LAYOUT_IDS)
    def test_corpus(self, name, build):
        graph, potential, bip = planarized_bipartization(build())
        expected = scalar_residual_conflicts(graph, bip.removed, potential)
        assert residual_conflicts(graph, bip.removed, potential) == expected
        assert residual_conflicts(graph, bip.removed, potential,
                                  base=bip.labelling) == expected

    @pytest.mark.parametrize("seed", range(20))
    def test_random_graphs(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 30)
        g = GeomGraph()
        for i in range(n):
            g.add_node(i)
        for _ in range(rng.randint(1, 3 * n)):
            g.add_edge(rng.randrange(n), rng.randrange(n),
                       weight=rng.randint(1, 4))
        edges = list(range(len(g._eu)))
        rng.shuffle(edges)
        # Grow a bipartite base greedily; the rest are candidates.
        base = set()
        for eid in edges:
            if is_bipartite(g, set(edges) - base - {eid}):
                base.add(eid)
        candidates = [e for e in edges if e not in base]
        deleted = candidates[:len(candidates) // 3]
        candidates = candidates[len(candidates) // 3:]
        assert residual_conflicts(g, deleted, candidates) \
            == scalar_residual_conflicts(g, deleted, candidates)

    def test_inconsistent_base_raises_for_direct_callers(self):
        g = graph_of([(0, 1), (1, 2), (2, 0)])
        with pytest.raises(ValueError):
            residual_conflicts(g, deleted=[], candidates=[])


class TestPhaseAssignable:
    @pytest.mark.parametrize("name,build", LAYOUTS, ids=LAYOUT_IDS)
    def test_matches_bipartite_oracle_on_g(self, name, build):
        layout = build()
        cg, _s, _p = build_layout_conflict_graph(layout, TECH)
        expected = scalar_two_color(cg.graph) is not None
        assert detect_conflicts(layout, TECH).phase_assignable == expected

    def test_planar_odd_cycle_needs_the_d0_insertion(self):
        """Figure 1's conflict graph is a planar odd cycle: no crossing
        is removed (P is empty), so step 3 finds nothing, and only
        inserting D0 back shows G is not bipartite."""
        report = detect_conflicts(figure1_layout(), TECH)
        assert report.crossings_removed == 0 and report.step3_edges == 0
        assert report.step2_edges > 0
        assert report.phase_assignable is False

    def test_detection_labels_once(self):
        """One labelling of G - P decides whether a T-join runs; a
        bipartite G - P is its own check, and a T-join's result is
        checked by one more labelling, of G - P - D0."""
        layout = build_design("D3")
        report = detect_conflicts(layout, TECH)
        corrected, _plan = correct_layout(
            layout, TECH, [c.key for c in report.conflicts])
        for design, labellings in ((layout, 2), (corrected, 1)):
            with mock.patch.object(coloring, "_parity_roots",
                                   wraps=coloring._parity_roots) as roots:
                detect_conflicts(design, TECH)
            assert roots.call_count == labellings
