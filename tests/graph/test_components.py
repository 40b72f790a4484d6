"""Component decomposition, content ids, and incremental recoloring."""

import random
from unittest import mock

import pytest

from repro.cache import KIND_COLORING, ArtifactCache, cache_delta
from repro.graph import GeomGraph, decompose, two_color, two_color_incremental
from repro.graph import components as components_module
from repro.graph.components import ODD_COMPONENT
from repro.obs import Tracer, use_tracer
from repro.obs.export import iter_spans

from ..conftest import cold_chip_layout
from ..oracles import (
    decode_coloring,
    decomposition_components,
    encode_coloring,
    scalar_decompose,
)


def coord_graph(nodes, edges):
    """Graph with explicit (node, coord) pairs and (u, v, w) edges."""
    g = GeomGraph()
    for node, coord in nodes:
        g.add_node(node, coord)
    for u, v, w in edges:
        g.add_edge(u, v, weight=w)
    return g


def components(graph):
    """The column decomposition as ``GraphComponent`` objects."""
    return decomposition_components(graph, decompose(graph))


def as_dict(graph, colors):
    """A color column over dense node indices as node -> color."""
    return None if colors is None else dict(zip(graph.nodes,
                                                colors.tolist()))


def recolor(graph, store):
    """:func:`two_color_incremental` (as node -> color) plus the store's
    ``coloring``-kind ``(hits, misses)`` for the call: components
    replayed / recolored."""
    with cache_delta(store) as delta:
        colors = two_color_incremental(graph, store)
    return as_dict(graph, colors), delta.get(KIND_COLORING, (0, 0))


class TestDecompose:
    def test_components_ordered_by_min_node(self):
        g = coord_graph([(5, (50, 0)), (1, (10, 0)), (2, (20, 0))],
                        [(5, 1, 1)])
        comps = components(g)
        assert [c.nodes for c in comps] == [(1, 5), (2,)]
        assert [c.index for c in comps] == [0, 1]
        # Dense indices: 5 -> 0, 1 -> 1, 2 -> 2.
        assert decompose(g).comp.tolist() == [0, 0, 1]

    def test_isolated_nodes_are_singletons(self):
        g = coord_graph([(0, (0, 0)), (1, (9, 9))], [])
        assert [c.nodes for c in components(g)] == [(0,), (1,)]

    def test_canonical_order_sorts_by_coordinate(self):
        g = coord_graph([(0, (90, 0)), (1, (10, 0)), (2, (50, 0))],
                        [(0, 1, 1), (1, 2, 1)])
        comp, = components(g)
        assert comp.order == (1, 2, 0)
        assert decompose(g).order.tolist() == [1, 2, 0]

    def test_removed_edges_split_components(self):
        g = coord_graph([(0, (0, 0)), (1, (10, 0))], [(0, 1, 1)])
        assert len(decompose(g)) == 1
        g.remove_edge(0)
        assert len(decompose(g)) == 2

    def test_colors_anchor_and_odd_flags(self):
        """The decomposition's colors are the parity labelling's: each
        component's minimum label takes 0; a component with an odd
        cycle is flagged."""
        g = coord_graph([(9, (0, 0)), (4, (10, 0)), (6, (20, 0)),
                         (1, (30, 0)), (2, (40, 0))],
                        [(9, 4, 1), (4, 6, 1), (1, 2, 1), (2, 1, 1)])
        g.add_edge(1, 1, weight=1)       # a self-loop is odd
        parts = decompose(g)
        assert [g.nodes[i] for i in parts.anchor.tolist()] == [1, 4]
        assert as_dict(g, parts.color) == {9: 1, 4: 0, 6: 1, 1: 0, 2: 1}
        assert parts.odd.tolist() == [True, False]


class TestContentIds:
    def test_stable_under_node_renumbering(self):
        """The ECO property: same geometry under shifted ids -> same
        content id, so cached colorings survive shifter renumbering."""
        a = coord_graph([(0, (0, 0)), (1, (10, 0)), (2, (20, 0))],
                        [(0, 1, 3), (1, 2, 3)])
        b = coord_graph([(7, (0, 0)), (8, (10, 0)), (9, (20, 0))],
                        [(7, 8, 3), (8, 9, 3)])
        assert decompose(a).content_ids == decompose(b).content_ids

    def test_sensitive_to_coordinates_edges_and_weights(self):
        base = coord_graph([(0, (0, 0)), (1, (10, 0))], [(0, 1, 3)])
        moved = coord_graph([(0, (0, 2)), (1, (10, 0))], [(0, 1, 3)])
        reweighted = coord_graph([(0, (0, 0)), (1, (10, 0))], [(0, 1, 4)])
        doubled = coord_graph([(0, (0, 0)), (1, (10, 0))],
                              [(0, 1, 3), (0, 1, 3)])
        ids = {decompose(g).content_ids[0]
               for g in (base, moved, reweighted, doubled)}
        assert len(ids) == 4

    def test_coordinate_free_graphs_fall_back_to_ids(self):
        g = GeomGraph()
        g.add_node(3)
        g.add_node(4)
        g.add_edge(3, 4)
        comp, = components(g)
        assert comp.order == (3, 4)
        assert comp.content_id  # hashable content, just not id-stable

    def test_format_is_hashed_into_the_ids(self):
        """Format 3 ids differ from the format-2 ids older stores were
        keyed by, so a stale entry is never asked for."""
        g = coord_graph([(0, (0, 0)), (1, (10, 0))], [(0, 1, 3)])
        assert [c.content_id for c in scalar_decompose(g)] \
            == decompose(g).content_ids
        assert [c.content_id for c in scalar_decompose(g, fmt=2)] \
            != decompose(g).content_ids


class TestCanonicalCodec:
    def test_roundtrip_restores_min_node_polarity(self):
        g = coord_graph([(4, (90, 0)), (5, (10, 0))], [(4, 5, 1)])
        comp, = components(g)
        cold = two_color(g)
        canonical = encode_coloring(comp, cold)
        assert canonical[0] == 0  # normalized to the canonical root
        assert decode_coloring(comp, canonical) == cold
        assert decode_coloring(comp, canonical)[comp.min_node] == 0
        # The column replay restores the same polarity.
        store = ArtifactCache()
        two_color_incremental(g, store)
        replayed, (hits, _misses) = recolor(g, store)
        assert hits == 1 and replayed == cold
        assert replayed[comp.min_node] == 0

    def test_stored_code_is_canonical_bytes(self):
        """A component's code is one byte per node in canonical order,
        the first 0: the oracle's canonical vector as bytes."""
        g = coord_graph([(4, (90, 0)), (5, (10, 0)), (6, (50, 0))],
                        [(4, 5, 1), (5, 6, 1)])
        store = ArtifactCache()
        two_color_incremental(g, store)
        comp, = components(g)
        code = store.get(KIND_COLORING, comp.content_id)
        assert isinstance(code, bytes) and code[0] == 0
        assert code == bytes(encode_coloring(comp, two_color(g)))

    def test_odd_component_stores_the_empty_code(self):
        g = coord_graph([(0, (0, 0))], [(0, 0, 1)])
        store = ArtifactCache()
        two_color_incremental(g, store)
        assert store.get(KIND_COLORING, decompose(g).content_ids[0]) \
            == ODD_COMPONENT == b""


class TestIncrementalRecolor:
    def test_matches_cold_and_replays(self):
        g = coord_graph(
            [(i, (10 * i, 0)) for i in range(6)],
            [(0, 1, 1), (1, 2, 1), (3, 4, 1)])
        store = ArtifactCache()
        cold = two_color(g)
        warm1, (hits1, misses1) = recolor(g, store)
        warm2, (hits2, misses2) = recolor(g, store)
        assert warm1 == cold == warm2
        assert misses1 == len(decompose(g)) == 3 and hits1 == 0
        assert hits2 == len(decompose(g)) and misses2 == 0

    def test_only_changed_component_recolors(self):
        nodes = [(i, (10 * i, 0)) for i in range(4)]
        a = coord_graph(nodes, [(0, 1, 1), (2, 3, 1)])
        store = ArtifactCache()
        two_color_incremental(a, store)
        # Move one component's node; the other must replay.
        b = coord_graph([(0, (0, 5)), (1, (10, 0)),
                         (2, (20, 0)), (3, (30, 0))],
                        [(0, 1, 1), (2, 3, 1)])
        before = set(store._memory)
        tracer = Tracer()
        with use_tracer(tracer):
            colors, counts = recolor(b, store)
        assert colors == two_color(b)
        assert counts == (1, 1)  # one replayed, one recolored
        span, = [s for s, _ in iter_spans(tracer.roots)
                 if s.name == "recolor"]
        assert span.attrs == {"components": 2, "recomputed": 1,
                              "replayed": 1}
        # The one new entry is the moved component's.
        new = {key for _kind, key in set(store._memory) - before}
        assert [c.nodes for c in components(b)
                if c.content_id in new] == [(0, 1)]

    def test_odd_component_fails_like_cold(self):
        g = coord_graph([(0, (0, 0)), (1, (10, 0)), (2, (20, 0)),
                         (3, (99, 99))],
                        [(0, 1, 1), (1, 2, 1), (2, 0, 1)])
        store = ArtifactCache()
        colors = two_color_incremental(g, store)
        assert colors is None and two_color(g) is None
        # The verdict replays too — still None, no recoloring.
        colors2, (_hits2, misses2) = recolor(g, store)
        assert colors2 is None and misses2 == 0

    def test_self_loop_component_is_odd(self):
        g = coord_graph([(0, (0, 0))], [(0, 0, 1)])
        colors = two_color_incremental(g, ArtifactCache())
        assert colors is None

    def test_persisted_store_replays_across_instances(self, tmp_path):
        g = coord_graph([(0, (0, 0)), (1, (10, 0))], [(0, 1, 1)])
        two_color_incremental(g, ArtifactCache(str(tmp_path)))
        fresh = ArtifactCache(str(tmp_path))
        colors, (hits, misses) = recolor(g, fresh)
        assert colors == two_color(g)
        assert hits == len(decompose(g)) == 1 and misses == 0
        assert fresh.stats(KIND_COLORING).hits == 1


def conflict_graph_of(layout):
    """The chip-wide phase conflict graph of a layout, as the assign
    stage builds it."""
    from repro.conflict import build_layout_conflict_graph
    from repro.layout import Technology

    cg, _s, _p = build_layout_conflict_graph(layout, Technology.node_90nm(),
                                             "pcg")
    return cg.graph


def oracle_graphs():
    """``(name, graph builder)`` pairs for the decomposition oracle."""
    from repro.bench import build_design
    from repro.scenarios import build_scenario, stratum_names

    def odd_labels():
        # Non-dense labels, inserted out of order, plus a removed edge,
        # a self-loop, parallel edges and an isolated node.
        g = coord_graph([(40, (5, 5)), (7, (0, 0)), (19, (5, 5)),
                         (3, (9, 1)), (88, (2, 2)), (12, (1, 7))],
                        [(40, 7, 2), (7, 19, 3), (19, 40, 3), (3, 88, 1),
                         (88, 3, 1), (3, 88, 5), (88, 88, 4)])
        g.remove_edge(1)
        return g

    def coordinate_free():
        g = GeomGraph()
        for u, v, w in [(5, 2, 1), (2, 9, 7), (9, 5, 1), (11, 4, 2)]:
            g.add_edge(u, v, weight=w)
        g.add_node(6)
        return g

    def partial_coordinates():
        g = coord_graph([(0, (9, 9)), (1, (0, 0)), (2, (4, 4)),
                         (3, (1, 1))], [(0, 1, 1), (2, 3, 1)])
        g.add_node(4)
        g.add_edge(3, 4, weight=2)
        return g

    graphs = [(f"{s}:{seed}", lambda s=s, seed=seed: conflict_graph_of(
        build_scenario(s, seed).layout))
        for s in stratum_names() for seed in range(3)]
    graphs += [(d, lambda d=d: conflict_graph_of(build_design(d)))
               for d in ("D1", "D2", "D3")]
    graphs += [(f"cold-chip:{seed}", lambda seed=seed: conflict_graph_of(
        cold_chip_layout(seed))) for seed in (17, 23)]
    graphs += [("empty", GeomGraph), ("non-dense-labels", odd_labels),
               ("coordinate-free", coordinate_free),
               ("partial-coordinates", partial_coordinates)]
    return graphs


class TestDecomposeOracle:
    """The column-pass decomposition, read back as component objects,
    equals the per-node BFS, the per-component canonical sort and the
    per-edge content encoding it replaced (``tests/oracles.py``)."""

    @pytest.mark.parametrize("name,build", oracle_graphs(),
                             ids=[g[0] for g in oracle_graphs()])
    def test_matches_scalar_decomposition(self, name, build):
        graph = build()
        expected = scalar_decompose(graph)
        assert components(graph) == expected
        # Content hashed 1-7 components at a time: a graph of more than
        # a few components spans many chunks.
        with mock.patch.object(components_module, "CONTENT_CHUNK",
                               random.Random(name).randint(1, 7)):
            assert components(graph) == expected

    def test_weights_beyond_int64_are_refused(self):
        g = coord_graph([(0, (0, 0)), (1, (1, 0))], [(0, 1, 1 << 64)])
        with pytest.raises(ValueError, match="int64"):
            decompose(g)
