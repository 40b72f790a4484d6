"""The column conflict-graph builds against the per-pair oracles.

``build_phase_conflict_graph`` and ``build_feature_graph`` append their
nodes and edges as columns; the pair-by-pair, feature-by-feature
builders over ``Shifter`` objects they replaced live in
``tests/oracles.py``.  Node ids and coordinates, edge ids, endpoints,
weights (Python ints), tags, and the edge -> pair / feature maps must
be identical, for every named weight model, refined or not; the
column graph's maps are arithmetic lookups (shifter ``s`` is node
``s``, pair ``k`` owns edges ``2k`` and ``2k + 1``, feature edges
follow), the oracle's are the per-edge dicts the builds used to fill.
"""

import pytest

from repro.bench import build_design
from repro.conflict import (
    FG,
    NAMED_MODELS,
    PCG,
    build_conflict_graph,
    build_layout_conflict_graph,
)
from repro.conflict.weights import make_generic
from repro.layout import Technology
from repro.scenarios import build_scenario, stratum_names
from repro.shifters import ShifterSet, find_overlap_pairs, generate_shifters

from ..conftest import cold_chip_layout
from ..oracles import (
    SCALAR_MODELS,
    conflict_graph_columns,
    scalar_feature_graph,
    scalar_make_generic,
    scalar_phase_conflict_graph,
)

TECH = Technology.node_90nm()
SCALAR_BUILD = {PCG: scalar_phase_conflict_graph, FG: scalar_feature_graph}


def corpus():
    out = [(f"{s}:{seed}", lambda s=s, seed=seed:
            build_scenario(s, seed).layout)
           for s in stratum_names() for seed in range(3)]
    out += [(d, lambda d=d: build_design(d)) for d in ("D1", "D2", "D3")]
    return out


CORPUS = corpus()


def front(layout):
    shifters = generate_shifters(layout, TECH)
    return shifters, find_overlap_pairs(shifters, TECH)


def assert_same_graph(kind, shifters, pairs, model, scalar):
    got = build_conflict_graph(kind, shifters, pairs, TECH, model)
    want = SCALAR_BUILD[kind](shifters, pairs, TECH, scalar)
    assert conflict_graph_columns(got) == conflict_graph_columns(want)


@pytest.mark.parametrize("name,build", CORPUS, ids=[n for n, _ in CORPUS])
@pytest.mark.parametrize("kind", [PCG, FG])
def test_matches_per_pair_build(name, build, kind):
    shifters, pairs = front(build())
    for model_name, model in NAMED_MODELS.items():
        scalar = SCALAR_MODELS[model_name]
        assert_same_graph(kind, shifters, pairs, model, scalar)
        assert_same_graph(kind, shifters, pairs, make_generic(model),
                          scalar_make_generic(scalar))


@pytest.mark.parametrize("seed", [17, 23])
def test_cold_chip_flow_graph(seed):
    """The graph the flow builds (default model, refined) on the
    benchmark's cold-chip layout, both kinds."""
    shifters, pairs = front(cold_chip_layout(seed))
    for kind in (PCG, FG):
        got, _s, _p = build_layout_conflict_graph(
            None, TECH, kind, front=(shifters, pairs))
        want = SCALAR_BUILD[kind](
            shifters, pairs, TECH,
            scalar_make_generic(SCALAR_MODELS["space"]))
        assert conflict_graph_columns(got) == conflict_graph_columns(want)


def test_empty_front_end():
    for kind in (PCG, FG):
        cg = build_conflict_graph(kind, ShifterSet(), [], TECH)
        assert cg.graph.num_nodes() == 0 and cg.graph.num_edges() == 0
        assert cg.num_overlap_edges == 0 and not len(cg.edge_features)
        assert cg.classify_edges([]) == ([], [])


@pytest.mark.parametrize("name", ["D2", "oddcycle:1", "duplicate:2"])
@pytest.mark.parametrize("kind", [PCG, FG])
def test_classify_edges_matches_dict_lookups(name, kind):
    """The arithmetic split of removed edges equals the per-edge dict
    lookups it replaced, in order, for every edge and random subsets
    (duplicates and repeats included)."""
    import random

    if ":" in name:
        stratum, seed = name.split(":")
        layout = build_scenario(stratum, int(seed)).layout
    else:
        layout = build_design(name)
    shifters, pairs = front(layout)
    got = build_conflict_graph(kind, shifters, pairs, TECH)
    want = SCALAR_BUILD[kind](shifters, pairs, TECH,
                              SCALAR_MODELS["space"])
    n_edges = got.graph.num_edges()
    rng = random.Random(3)
    subsets = [list(range(n_edges)), list(reversed(range(n_edges))), []]
    subsets += [[rng.randrange(n_edges) for _ in range(n_edges // 3)]
                for _ in range(3)]
    for edge_ids in subsets:
        assert got.classify_edges(edge_ids) == want.classify_edges(edge_ids)
