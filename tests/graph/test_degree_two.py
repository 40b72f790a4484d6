"""Eliminating the dual's degree-2 faces
(:func:`repro.graph.dual.eliminate_degree_two`).

Bipartization hands its T-join engine the dual's simple instance with
every degree-2 face removed: a non-terminal face's two edges merge
into one of summed weight, and a terminal face forces its lighter
edge and leaves a difference edge that swaps it for the heavier one.
The join the engine returns on what is left, expanded back to primal
ids, must be a minimum T-join of the input, and equal to the join of
the unreduced route (``use_unreduced_dual``) wherever the optimum is
unique.  On the flow's corpora it must leave every report and every
removed edge as the unreduced route has them.
"""

import random
from contextlib import nullcontext

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import build_design
from repro.core.flow import run_aapsm_flow
from repro.graph import GeomGraph, min_tjoin_gadget
from repro.graph.dual import DualGraph, eliminate_degree_two, simple_dual
from repro.layout import Technology
from repro.obs import Tracer, use_tracer
from repro.scenarios import build_scenario, report_key, stratum_names

from ..conftest import cold_chip_layout
from ..oracles import (RecordingMatcher, is_tjoin, min_tjoin_shortest_paths,
                       scalar_connected_components, use_matcher,
                       use_unreduced_dual)

TECH = Technology.node_90nm()
ENGINES = [min_tjoin_gadget, min_tjoin_shortest_paths]
ENGINE_IDS = ["gadget", "paths"]
# Largest instance whose minimum T-joins are counted.
UNIQUENESS_MAX_NODES = 12


def make_dual(n, rows, tset, primal=None):
    """A :class:`DualGraph` over faces ``0..n-1`` from ``(u, v, w)``
    rows; primal ids default to ``100 + dual id``."""
    graph = GeomGraph(name="instance")
    graph.add_nodes(range(n))
    graph.add_edge_rows([(u, v, w, None) for u, v, w in rows])
    primal = primal or [100 + eid for eid in range(len(rows))]
    return DualGraph(graph=graph, tset=set(tset),
                     primal_of=dict(enumerate(primal)))


def solve(dual, engine, reduce=True):
    """``(primal join, reduced instance)`` of the flow's route on
    ``dual``: its simple instance, degree-2 faces eliminated unless
    ``reduce`` is off."""
    simple = simple_dual(dual)
    instance = eliminate_degree_two(simple) if reduce else simple
    join = instance.primal_edges(engine(instance.graph, instance.tset))
    return join, instance


def to_dual_ids(dual, primal_ids):
    dual_of = {p: eid for eid, p in dual.primal_of.items()}
    return [dual_of[p] for p in primal_ids]


def minimum_tjoins(graph, tset):
    """``(minimum weight, number of minimum T-joins)`` by a dynamic
    program over the edges, keyed on the set of odd-degree nodes (up
    to ``2 ** nodes`` keys: small graphs only)."""
    assert graph.num_nodes() <= UNIQUENESS_MAX_NODES
    bit = {node: 1 << i for i, node in enumerate(graph.nodes)}
    best = {0: (0, 1)}
    for e in graph.edges():
        flip = bit[e.u] ^ bit[e.v]
        step = dict(best)
        for mask, (w, count) in best.items():
            key, cand = mask ^ flip, w + e.weight
            old = step.get(key)
            if old is None or cand < old[0]:
                step[key] = (cand, count)
            elif cand == old[0]:
                step[key] = (cand, old[1] + count)
        best = step
    return best[sum(bit[t] for t in tset)]


def assert_reduced(reduced):
    """Simple, no degree-2 face, an even T set per component."""
    g = reduced.graph
    pairs = [(min(e.u, e.v), max(e.u, e.v)) for e in g.edges()]
    assert all(u != v for u, v in pairs)
    assert len(set(pairs)) == len(pairs)
    assert all(g.degree(node) != 2 for node in g.nodes)
    assert reduced.tset <= set(g.nodes)
    for comp in scalar_connected_components(g):
        assert len(reduced.tset.intersection(comp)) % 2 == 0


def assert_minimum(dual, engine):
    """The reduced route's join is a minimum T-join of ``dual``, and
    the unreduced route's join wherever the optimum is unique."""
    join, reduced = solve(dual, engine)
    assert_reduced(reduced)
    ids = to_dual_ids(dual, join)
    assert len(set(ids)) == len(ids)
    assert is_tjoin(dual.graph, ids, dual.tset)
    reference = min_tjoin_shortest_paths(dual.graph, dual.tset)
    assert dual.graph.total_weight(ids) == \
        dual.graph.total_weight(reference)
    simple = simple_dual(dual)
    if simple.graph.num_nodes() <= UNIQUENESS_MAX_NODES and \
            minimum_tjoins(simple.graph, simple.tset)[1] == 1:
        assert join == solve(dual, engine, reduce=False)[0]
    # A raw dual is accepted too: self-loops and parallels resolve as
    # the simple instance resolves them.
    direct = eliminate_degree_two(dual)
    assert_reduced(direct)
    raw_ids = to_dual_ids(dual, direct.primal_edges(
        engine(direct.graph, direct.tset)))
    assert is_tjoin(dual.graph, raw_ids, dual.tset)
    assert dual.graph.total_weight(raw_ids) == \
        dual.graph.total_weight(reference)
    return join, reduced


@st.composite
def multigraphs(draw):
    """Parallel edges (equal and unequal weights, both orientations),
    self-loops, ties everywhere, shuffled primal ids and an even T set
    per component."""
    n = draw(st.integers(1, 9))
    face = st.integers(0, n - 1)
    weight = st.sampled_from((0, 1, 2, 2, 3, 5))
    rows = draw(st.lists(st.tuples(face, face, weight), max_size=14))
    for u, v, w in draw(st.lists(st.sampled_from(rows), max_size=4)
                        if rows else st.just([])):
        rows.append((v, u, draw(st.sampled_from((w, w, 0, 5)))))
    picks = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    primal = draw(st.permutations(range(len(rows))))
    dual = make_dual(n, rows, set(), [7 * p + 3 for p in primal])
    tset = set()
    for comp in scalar_connected_components(dual.graph):
        chosen = [node for node in comp if picks[node]]
        tset.update(chosen[:len(chosen) // 2 * 2])
    dual.tset = tset
    return dual


class TestRandomInstances:
    @settings(max_examples=300, deadline=None)
    @given(multigraphs())
    def test_minimum_and_unreduced_join(self, dual):
        for engine in ENGINES:
            assert_minimum(dual, engine)

    @pytest.mark.parametrize("seed", range(40))
    def test_sparse_planar_like_instances(self, seed):
        """Cycles and chains joined at a few hubs, the shape the
        planarized conflict graph's dual takes: mostly degree 2."""
        rng = random.Random(seed)
        n = rng.randint(6, 16)
        rows = [(i, (i + 1) % n, rng.randint(1, 40)) for i in range(n)]
        for _ in range(rng.randint(0, 3)):
            u, v = rng.sample(range(n), 2)
            rows.append((u, v, rng.randint(1, 40)))
        odd = rng.sample(range(n), 2 * rng.randint(0, n // 2))
        dual = make_dual(n, rows, odd)
        for engine in ENGINES:
            assert_minimum(dual, engine)


def hubs(extra_rows, tset, n):
    """Faces 1 and 2 as hubs of degree >= 3 (pendant faces 5-8 hang
    off them, 5 and 7 terminals), plus ``extra_rows`` among faces
    ``0..n-1``."""
    rows = [(1, 5, 11), (1, 6, 13), (2, 7, 17), (2, 8, 19)] + extra_rows
    return make_dual(max(n, 9), rows, set(tset) | {5, 7})


class TestCases:
    @pytest.mark.parametrize("engine", ENGINES, ids=ENGINE_IDS)
    def test_component_reduces_to_nothing(self, engine):
        """A triangle whose terminal's lighter edge reaches the other
        terminal: both leave T, and the matcher is handed nothing."""
        dual = make_dual(3, [(0, 1, 1), (0, 2, 5), (1, 2, 3)], {0, 1})
        join, reduced = assert_minimum(dual, engine)
        assert reduced.tset == set()
        assert reduced.forced == [0]
        assert join == [100]
        recorder = RecordingMatcher()
        with use_matcher(recorder):
            assert solve(dual, engine)[0] == [100]
        assert recorder.sizes == []

    @pytest.mark.parametrize("direct,kept", [(4, "direct"), (5, "direct"),
                                             (6, "merged")])
    @pytest.mark.parametrize("engine", ENGINES, ids=ENGINE_IDS)
    def test_merge_creates_a_parallel_edge(self, engine, direct, kept):
        """Face 0 merges (1, 0, 2) and (0, 2, 3) into a weight-5 edge
        parallel to (1, 2, direct): the lighter stays, ties to the
        existing edge."""
        dual = hubs([(1, 0, 2), (0, 2, 3), (1, 2, direct)], set(), 3)
        join, reduced = assert_minimum(dual, engine)
        assert reduced.forced == []
        (e,) = [e for e in reduced.graph.edges() if {e.u, e.v} == {1, 2}]
        if kept == "direct":
            assert (e.weight, reduced.rows[e.id]) == (direct, 6)
            assert join == [100, 102, 106]
        else:
            assert e.weight == 5 and reduced.merged == [(4, 5)]
            assert join == [100, 102, 104, 105]

    @pytest.mark.parametrize("engine", ENGINES, ids=ENGINE_IDS)
    def test_terminal_with_equal_edges(self, engine):
        """Terminal face 0's two edges weigh 3: the lower row is forced,
        and the difference edge weighs 0."""
        dual = hubs([(0, 2, 3), (0, 1, 3)], {0, 1}, 3)
        join, reduced = assert_minimum(dual, engine)
        assert reduced.forced == [4]
        (e,) = [e for e in reduced.graph.edges() if {e.u, e.v} == {1, 2}]
        assert e.weight == 0
        assert join == [100, 102, 104]

    @pytest.mark.parametrize("engine", ENGINES, ids=ENGINE_IDS)
    def test_terminal_whose_neighbours_are_one_face(self, engine):
        """Two parallel edges join terminal face 0 to face 1: as one
        edge, the lighter, face 0 is a pendant the engine serves."""
        dual = hubs([(0, 1, 9), (1, 0, 4), (1, 2, 1)], {0, 1}, 3)
        join, reduced = assert_minimum(dual, engine)
        assert 0 in reduced.graph.nodes
        assert reduced.graph.degree(0) == 1
        assert 105 in join and 104 not in join

    @pytest.mark.parametrize("length", range(1, 51))
    def test_chains(self, length):
        """A chain of ``length`` degree-2 faces between the hubs, with
        terminals along it, goes entirely: one face per step."""
        rng = random.Random(length)
        chain = list(range(9, 9 + length))
        path = [1] + chain + [2]
        rows = [(a, b, rng.randint(1, 10**6))
                for a, b in zip(path, path[1:])]
        rows.append((1, 2, rng.randint(1, 10**6)))
        odd = set(rng.sample(chain, rng.randint(0, length)))
        if len(odd) % 2:
            odd.add(1)
        dual = hubs(rows, odd, 9 + length)
        tracer = Tracer()
        for engine in ENGINES:
            with use_tracer(tracer):
                join, reduced = assert_minimum(dual, engine)
            assert not set(chain) & set(reduced.graph.nodes)
            assert join == solve(dual, engine, reduce=False)[0]
        counters = tracer.metrics.as_dict()["counters"]
        # assert_minimum eliminates twice per engine: the simple
        # instance and the raw one.
        assert counters["tjoin.eliminated"] == 4 * length
        assert counters["tjoin.forced"] == 4 * len(reduced.forced)

    @pytest.mark.parametrize("length", [3, 4, 9, 50])
    def test_a_lone_cycle_keeps_one_edge(self, length):
        rng = random.Random(length)
        rows = [(i, (i + 1) % length, rng.randint(1, 10**6))
                for i in range(length)]
        dual = make_dual(length, rows, rng.sample(range(length), 2))
        for engine in ENGINES:
            _join, reduced = assert_minimum(dual, engine)
            assert reduced.graph.num_nodes() == 2
            assert reduced.graph.num_edges() == 1

    @pytest.mark.parametrize("engine", ENGINES, ids=ENGINE_IDS)
    def test_empty_tset(self, engine):
        rng = random.Random(5)
        rows = [(i, (i + 1) % 12, rng.randint(0, 9)) for i in range(12)]
        rows += [(0, 6, 3), (3, 9, 4)]
        join, reduced = assert_minimum(make_dual(12, rows, set()), engine)
        assert join == [] and reduced.tset == set() \
            and reduced.forced == []


def layouts():
    out = [(f"{s}:{seed}", lambda s=s, seed=seed: build_scenario(s, seed))
           for s in stratum_names() for seed in range(3)]
    out += [(d, lambda d=d: build_design(d)) for d in ("D1", "D2", "D3")]
    out += [(f"cold-chip:{seed}", lambda seed=seed: cold_chip_layout(seed))
            for seed in (17, 23)]
    return out


LAYOUTS = layouts()


@pytest.mark.parametrize("tiles", [None, 2], ids=["monolithic", "tiled"])
@pytest.mark.parametrize("name,build", LAYOUTS,
                         ids=[name for name, _ in LAYOUTS])
def test_flow_joins_equal_the_unreduced_route(name, build, tiles):
    """Every detection's removed edges and every report equal the
    unreduced route's, monolithic and tiled."""
    built = build()
    layout, tech = (built.layout, built.tech) if hasattr(built, "tech") \
        else (built, TECH)
    runs = []
    for swap in (nullcontext, use_unreduced_dual):
        with swap():
            runs.append(run_aapsm_flow(layout, tech, tiles=tiles))
    flow, unreduced = runs
    assert report_key(flow) == report_key(unreduced)
    for section in ("detection", "post_detection"):
        got, want = getattr(flow, section), getattr(unreduced, section)
        assert got.removed_edge_ids == want.removed_edge_ids
        assert got.step2_weight == want.step2_weight
