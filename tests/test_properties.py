"""Deep cross-cutting property tests (hypothesis).

Invariants that span several modules, checked on randomized inputs:
embedding combinatorics, bipartization optimality structure, GDSII
round-trips of arbitrary rectangle libraries, multi-cut composition,
and detection idempotence.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.conflict import detect_conflicts
from repro.correction import SpaceCut, apply_cuts
from repro.gdsii import (
    Boundary,
    GdsLibrary,
    GdsStructure,
    dumps,
    gds_to_layout,
    layout_to_gds,
    loads,
)
from repro.geometry import Rect
from repro.graph import (
    GeomGraph,
    build_dual,
    build_embedding,
    greedy_planarize,
    is_bipartite,
    optimal_planar_bipartization,
)
from repro.layout import GeneratorParams, Technology, standard_cell_layout

from .oracles import min_tjoin_shortest_paths


def random_planarized_graph(seed, n=16, m=28):
    rng = random.Random(seed)
    g = GeomGraph()
    for i in range(n):
        g.add_node(i, (rng.randrange(0, 400), rng.randrange(0, 400)))
    for _ in range(m):
        u, v = rng.sample(list(g.nodes), 2)
        g.add_edge(u, v, weight=rng.randint(1, 9))
    greedy_planarize(g)
    return g


class TestEmbeddingProperties:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 100_000))
    def test_every_dart_in_exactly_one_face(self, seed):
        g = random_planarized_graph(seed)
        emb = build_embedding(g)
        darts = [d for face in emb.faces for d in face]
        assert len(darts) == len(set(darts)) == 2 * g.num_edges()

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 100_000))
    def test_euler_formula(self, seed):
        g = random_planarized_graph(seed)
        assert build_embedding(g).euler_check()

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 100_000))
    def test_dual_handshake(self, seed):
        g = random_planarized_graph(seed)
        emb = build_embedding(g)
        dual = build_dual(emb)
        assert dual.graph.num_edges() == g.num_edges()
        total_face_length = sum(len(f) for f in emb.faces)
        assert total_face_length == 2 * g.num_edges()

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 100_000))
    def test_bipartite_iff_no_odd_face(self, seed):
        """The theorem the whole dual reduction rests on."""
        g = random_planarized_graph(seed)
        emb = build_embedding(g)
        assert (len(emb.odd_faces()) == 0) == is_bipartite(g)


class TestBipartizationProperties:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 100_000))
    def test_result_is_minimal(self, seed):
        """No removed edge can be put back (inclusion-minimality)."""
        g = random_planarized_graph(seed)
        removed = optimal_planar_bipartization(g).removed
        for eid in removed:
            keep = [e for e in removed if e != eid]
            assert not is_bipartite(g, skip_edges=keep)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 100_000))
    def test_tjoin_is_self_consistent_under_scaling(self, seed):
        """Scaling all weights scales the optimum (sanity on the
        reduction pipeline)."""
        g = random_planarized_graph(seed)
        dual = build_dual(build_embedding(g))
        join = min_tjoin_shortest_paths(dual.graph, dual.tset)
        scaled = GeomGraph()
        for node in dual.graph.nodes:
            scaled.add_node(node)
        for e in dual.graph.edges():
            scaled.add_edge(e.u, e.v, weight=3 * e.weight)
        join3 = min_tjoin_shortest_paths(scaled, dual.tset)
        assert scaled.total_weight(join3) == 3 * dual.graph.total_weight(
            join)


class TestGdsiiProperties:
    rects = st.builds(
        lambda x, y, w, h: Rect(x, y, x + w, y + h),
        st.integers(-10_000, 10_000), st.integers(-10_000, 10_000),
        st.integers(1, 5_000), st.integers(1, 5_000))

    @settings(max_examples=30, deadline=None)
    @given(st.lists(rects, min_size=1, max_size=20),
           st.integers(0, 255))
    def test_rect_library_roundtrip(self, rs, layer):
        lib = GdsLibrary(name="P")
        cell = GdsStructure(name="C")
        for r in rs:
            cell.boundaries.append(Boundary(
                layer=layer, datatype=0,
                points=[(r.x1, r.y1), (r.x2, r.y1), (r.x2, r.y2),
                        (r.x1, r.y2), (r.x1, r.y1)]))
        lib.add(cell)
        lib2 = loads(dumps(lib))
        got = sorted(Rect(*b.is_rectangle())
                     for b in lib2.structures["C"].boundaries)
        assert got == sorted(rs)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000))
    def test_layout_bridge_identity(self, seed):
        lay = standard_cell_layout(GeneratorParams(rows=2, cols=6),
                                   seed=seed)
        back, skipped = gds_to_layout(loads(dumps(layout_to_gds(lay))))
        assert skipped == []
        assert sorted(back.features) == sorted(lay.features)


class TestSpacerProperties:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 100_000), st.integers(1, 4))
    def test_cut_composition_order_free(self, seed, n_cuts):
        rng = random.Random(seed)
        lay = standard_cell_layout(GeneratorParams(rows=2, cols=6),
                                   seed=seed)
        cuts = [SpaceCut(rng.choice("xy"), rng.randrange(-500, 8000),
                         rng.randint(1, 400)) for _ in range(n_cuts)]
        forward = apply_cuts(lay, cuts)
        backward = apply_cuts(lay, list(reversed(cuts)))
        assert forward.features == backward.features

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 100_000))
    def test_sequential_equals_batch(self, seed):
        """Applying cuts one at a time (re-mapping positions) equals
        the batch application for non-interacting positions."""
        lay = standard_cell_layout(GeneratorParams(rows=2, cols=6),
                                   seed=seed)
        cut = SpaceCut("x", 1000, 50)
        assert apply_cuts(lay, [cut]).features == apply_cuts(
            apply_cuts(lay, []), [cut]).features


class TestDetectionIdempotence:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10_000))
    def test_detection_is_pure(self, seed):
        """Detection must not mutate the layout (two runs agree, and
        the layout is bit-identical after)."""
        tech = Technology.node_90nm()
        lay = standard_cell_layout(GeneratorParams(rows=2, cols=10),
                                   seed=seed)
        before = [Rect(r.x1, r.y1, r.x2, r.y2) for r in lay.features]
        a = detect_conflicts(lay, tech)
        b = detect_conflicts(lay, tech)
        assert lay.features == before
        assert [c.key for c in a.conflicts] == [c.key
                                                for c in b.conflicts]
