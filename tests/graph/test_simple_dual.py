"""The dual's simple T-join instance (:func:`repro.graph.dual.simple_dual`).

Bipartization solves its T-join on the dual with every self-loop
dropped and only the lightest edge of each face pair kept.  On seeded
random multigraphs the instance must be simple, keep the nodes,
components and T set, and give a join that, mapped back, is a minimum
T-join of the original (against brute force).  On the flow's corpora
the bipartization weight and the report must equal those of the raw
dual (``use_raw_dual``), and the removed edges must no longer depend
on which matcher breaks ties between the two halves of an overlap
path.
"""

import random
from contextlib import nullcontext

import pytest

from repro.bench import build_design
from repro.conflict import build_layout_conflict_graph
from repro.core.flow import run_aapsm_flow
from repro.graph import (
    GeomGraph,
    greedy_planarize,
    min_tjoin_gadget,
    optimal_planar_bipartization,
)
from repro.graph.dual import PRIMAL_TAG, DualGraph, simple_dual
from repro.layout import Technology
from repro.scenarios import build_scenario, report_key, stratum_names

from ..conftest import cold_chip_layout
from ..oracles import (NetworkxMatcher, RecordingMatcher, is_tjoin,
                       min_tjoin_brute_force, min_tjoin_shortest_paths,
                       scalar_connected_components, use_matcher,
                       use_raw_dual, use_unreduced_dual)

TECH = Technology.node_90nm()
SMOKE = [(s, seed) for s in stratum_names() for seed in range(3)]


def random_dual(seed: int) -> DualGraph:
    """A multigraph with parallel classes (equal, zero and unequal
    weights, both orientations), self-loops, isolated nodes, shuffled
    primal ids and an even T set per component."""
    rng = random.Random(seed)
    n = rng.randint(1, 9)
    rows = []
    target = rng.randint(0, 12)
    while len(rows) < target:
        u, v = rng.randrange(n), rng.randrange(n)
        w = rng.choice((0, 1, 2, 2, 3, 5))
        rows.append((u, v, w, None))
        for _ in range(rng.choice((0, 0, 1, 2))):
            rows.append((v, u, rng.choice((w, w, 0, rng.randint(0, 5))),
                         None))
    for _ in range(rng.randint(0, 3)):
        node = rng.randrange(n)
        rows.append((node, node, rng.randint(0, 5), None))
    rng.shuffle(rows)
    graph = GeomGraph(name=f"multi-{seed}")
    graph.add_nodes(range(n))
    graph.add_edge_rows(rows)
    primal = rng.sample(range(1000), len(rows))
    tset = set()
    for comp in scalar_connected_components(graph):
        picks = [node for node in comp if rng.random() < 0.5]
        tset.update(picks[:len(picks) // 2 * 2])
    return DualGraph(graph=graph, tset=tset,
                     primal_of=dict(enumerate(primal)))


def lightest_per_pair(dual: DualGraph):
    """``{face pair: (weight, primal id)}`` of the edge the reduction
    must keep, by an independent scan."""
    best = {}
    for e in dual.graph.edges():
        if e.u != e.v:
            key = (min(e.u, e.v), max(e.u, e.v))
            best.setdefault(key, []).append((e.weight, dual.primal_of[e.id]))
    return {key: min(rows) for key, rows in best.items()}


class TestRandomMultigraphs:
    @pytest.mark.parametrize("seed", range(120))
    def test_simple_and_exact(self, seed):
        dual = random_dual(seed)
        simple = simple_dual(dual)
        g = simple.graph
        pairs = [(min(e.u, e.v), max(e.u, e.v)) for e in g.edges()]
        assert all(u != v for u, v in pairs)
        assert len(set(pairs)) == len(pairs)
        assert g.nodes == dual.graph.nodes
        assert simple.tset == dual.tset
        assert g.connected_components() == \
            dual.graph.connected_components()
        for comp in scalar_connected_components(g):
            assert len(dual.tset.intersection(comp)) % 2 == 0

        # The lightest edge of each pair, ties to the lowest primal id,
        # in primal id order, orientation and tag kept.
        kept = {pair: (e.weight, simple.primal_of[e.id])
                for pair, e in zip(pairs, g.edges())}
        assert kept == lightest_per_pair(dual)
        primal = [simple.primal_of[e.id] for e in g.edges()]
        assert primal == sorted(primal)
        dual_of = {p: eid for eid, p in dual.primal_of.items()}
        for e in g.edges():
            original = dual.graph.edge(dual_of[simple.primal_of[e.id]])
            assert (e.u, e.v, e.weight) == \
                (original.u, original.v, original.weight)
            assert e.tag == (PRIMAL_TAG, simple.primal_of[e.id])

        best = min_tjoin_brute_force(dual.graph, dual.tset)
        for engine in (min_tjoin_gadget, min_tjoin_shortest_paths):
            join = simple.primal_edges(engine(g, simple.tset))
            original_ids = [dual_of[p] for p in join]
            assert is_tjoin(dual.graph, original_ids, dual.tset)
            assert dual.graph.total_weight(original_ids) == \
                dual.graph.total_weight(best)

    def test_exact_weights_beyond_int64(self):
        """2**70 + 1 and 2**70 are one float and overflow int64; the
        lighter edge must win although its primal id is higher."""
        graph = GeomGraph()
        graph.add_nodes(range(2))
        graph.add_edge_rows([(0, 1, 2**70 + 1, None), (1, 0, 2**70, None),
                             (0, 0, 0, None)])
        dual = DualGraph(graph=graph, tset={0, 1},
                         primal_of={0: 4, 1: 9, 2: 1})
        simple = simple_dual(dual)
        assert [(e.u, e.v, e.weight) for e in simple.graph.edges()] == \
            [(1, 0, 2**70)]
        assert simple.primal_edges(
            min_tjoin_gadget(simple.graph, simple.tset)) == [9]

    def test_ties_go_to_the_lowest_primal_id(self):
        graph = GeomGraph()
        graph.add_nodes(range(3))
        graph.add_edge_rows([(0, 1, 5, None), (1, 0, 5, None),
                             (1, 2, 0, None), (2, 1, 0, None)])
        dual = DualGraph(graph=graph, tset=set(),
                         primal_of={0: 7, 1: 3, 2: 8, 3: 12})
        simple = simple_dual(dual)
        assert sorted(simple.primal_of.values()) == [3, 8]
        assert [(e.u, e.v) for e in simple.graph.edges()] == [(1, 0), (1, 2)]


def test_raw_dual_oracle_hands_the_matcher_the_unreduced_instance():
    """D2's largest matching component: 42 gadget nodes on the raw
    dual, 12 on the simple instance, 6 once its degree-2 faces are
    eliminated."""
    cg, _s, _p = build_layout_conflict_graph(build_design("D2"), TECH)
    greedy_planarize(cg.graph)
    sizes = []
    for swap in (nullcontext, use_unreduced_dual, use_raw_dual):
        recorder = RecordingMatcher()
        with use_matcher(recorder), swap():
            optimal_planar_bipartization(cg.graph)
        sizes.append(max(recorder.sizes))
    assert sizes == [6, 12, 42]


def layouts():
    out = [(f"{s}:{seed}", lambda s=s, seed=seed: build_scenario(s, seed))
           for s, seed in SMOKE]
    out += [(d, lambda d=d: build_design(d)) for d in ("D1", "D2", "D3")]
    out += [(f"cold-chip:{seed}", lambda seed=seed: cold_chip_layout(seed))
            for seed in (17, 23)]
    return out


LAYOUTS = layouts()
LAYOUT_IDS = [name for name, _ in LAYOUTS]


def layout_and_tech(built):
    """A scenario carries its own rule deck; a design takes the 90 nm
    deck."""
    return (built.layout, built.tech) if hasattr(built, "tech") \
        else (built, TECH)


@pytest.mark.parametrize("name,build", LAYOUTS, ids=LAYOUT_IDS)
def test_same_weight_and_report_as_the_raw_dual(name, build):
    layout, tech = layout_and_tech(build())
    cg, _s, _p = build_layout_conflict_graph(layout, tech)
    greedy_planarize(cg.graph)
    reduced = optimal_planar_bipartization(cg.graph)
    with use_raw_dual():
        raw = optimal_planar_bipartization(cg.graph)
        raw_flow = run_aapsm_flow(layout, tech)
    assert reduced.weight == raw.weight
    flow = run_aapsm_flow(layout, tech)
    assert report_key(flow) == report_key(raw_flow)
    for section in ("detection", "post_detection"):
        assert getattr(flow, section).step2_weight == \
            getattr(raw_flow, section).step2_weight


@pytest.mark.parametrize("design", ["D1", "D2", "D3"])
def test_removed_edges_do_not_depend_on_the_matcher(design):
    """The smoke corpus is checked with the other networkx oracle
    differentials, in ``tests/scenarios/test_oracles.py``."""
    pytest.importorskip("networkx")
    layout = build_design(design)
    flow = run_aapsm_flow(layout, TECH)
    with use_matcher(NetworkxMatcher()):
        oracle = run_aapsm_flow(layout, TECH)
    for section in ("detection", "post_detection"):
        assert getattr(flow, section).removed_edge_ids == \
            getattr(oracle, section).removed_edge_ids
