"""Face tracing and Euler-formula tests."""

import random

import pytest

from repro.graph import GeomGraph, build_embedding, greedy_planarize


def triangle():
    g = GeomGraph()
    g.add_node(0, (0, 0))
    g.add_node(1, (10, 0))
    g.add_node(2, (5, 10))
    g.add_edge(0, 1)
    g.add_edge(1, 2)
    g.add_edge(2, 0)
    return g


class TestSimpleFaces:
    def test_triangle_two_faces(self):
        emb = build_embedding(triangle())
        assert emb.num_faces == 2
        assert sorted(emb.face_length(i) for i in range(2)) == [3, 3]
        assert emb.odd_faces() == [0, 1]

    def test_square_two_even_faces(self):
        g = GeomGraph()
        coords = [(0, 0), (10, 0), (10, 10), (0, 10)]
        for i, c in enumerate(coords):
            g.add_node(i, c)
        for i in range(4):
            g.add_edge(i, (i + 1) % 4)
        emb = build_embedding(g)
        assert emb.num_faces == 2
        assert emb.odd_faces() == []

    def test_square_with_diagonal(self):
        g = GeomGraph()
        coords = [(0, 0), (10, 0), (10, 10), (0, 10)]
        for i, c in enumerate(coords):
            g.add_node(i, c)
        for i in range(4):
            g.add_edge(i, (i + 1) % 4)
        g.add_edge(0, 2)
        emb = build_embedding(g)
        assert emb.num_faces == 3
        assert sorted(emb.face_length(i) for i in range(3)) == [3, 3, 4]
        # Two triangles odd, outer square even.
        assert len(emb.odd_faces()) == 2

    def test_tree_single_face(self):
        g = GeomGraph()
        g.add_node(0, (0, 0))
        g.add_node(1, (10, 0))
        g.add_node(2, (20, 5))
        g.add_edge(0, 1)
        g.add_edge(1, 2)
        emb = build_embedding(g)
        # A tree has one face whose walk uses each edge twice.
        assert emb.num_faces == 1
        assert emb.face_length(0) == 4
        assert emb.odd_faces() == []

    def test_single_edge_bridge_faces(self):
        g = GeomGraph()
        g.add_node(0, (0, 0))
        g.add_node(1, (10, 0))
        g.add_edge(0, 1)
        emb = build_embedding(g)
        assert emb.num_faces == 1
        f1, f2 = emb.edge_faces(0)
        assert f1 == f2  # bridge borders the same face twice

    def test_self_loop_rejected(self):
        g = GeomGraph()
        g.add_node(0, (0, 0))
        g.add_edge(0, 0)
        with pytest.raises(ValueError):
            build_embedding(g)


class TestDisconnected:
    def test_two_triangles(self):
        g = triangle()
        base = 3
        for i, c in enumerate([(100, 0), (110, 0), (105, 10)]):
            g.add_node(base + i, c)
        for i in range(3):
            g.add_edge(base + i, base + (i + 1) % 3)
        emb = build_embedding(g)
        assert emb.num_faces == 4
        assert len(emb.odd_faces()) == 4

    def test_isolated_node_no_faces(self):
        g = triangle()
        g.add_node(42, (500, 500))
        emb = build_embedding(g)
        assert emb.num_faces == 2


class TestEuler:
    def test_euler_simple_cases(self):
        for make in (triangle,):
            assert build_embedding(make()).euler_check()

    @pytest.mark.parametrize("seed", range(5))
    def test_euler_random_planarized(self, seed):
        rng = random.Random(seed)
        g = GeomGraph()
        for i in range(25):
            g.add_node(i, (rng.randrange(0, 200), rng.randrange(0, 200)))
        for _ in range(45):
            u, v = rng.sample(list(g.nodes), 2)
            g.add_edge(u, v, weight=rng.randint(1, 5))
        greedy_planarize(g)
        emb = build_embedding(g)
        assert emb.euler_check()
        # Every dart in exactly one face.
        n_darts = sum(len(f) for f in emb.faces)
        assert n_darts == 2 * g.num_edges()

    @pytest.mark.parametrize("seed", range(5))
    def test_odd_face_count_even_per_component(self, seed):
        rng = random.Random(100 + seed)
        g = GeomGraph()
        for i in range(20):
            g.add_node(i, (rng.randrange(0, 150), rng.randrange(0, 150)))
        for _ in range(35):
            u, v = rng.sample(list(g.nodes), 2)
            g.add_edge(u, v)
        greedy_planarize(g)
        emb = build_embedding(g)
        # Sum of face lengths = 2E (even), so odd faces come in pairs.
        assert len(emb.odd_faces()) % 2 == 0


def _component_edges(g, keep):
    """Live edge ids, ascending, of the components picked by ``keep``
    (called with each component's sorted node list)."""
    picked = set()
    for comp in g.connected_components():
        if keep(comp):
            picked.update(comp)
    return [e.id for e in g.edges() if e.u in picked]


class TestEdgeSubset:
    """Embedding whole components only: the same faces, in the same
    relative order, as the whole embedding."""

    def test_euler_counts_only_embedded_edges(self):
        g = triangle()
        g.add_node(3, (100, 0))
        g.add_node(4, (110, 0))
        g.add_node(5, (120, 10))
        g.add_edge(3, 4)
        g.add_edge(4, 5)
        emb = build_embedding(g, [3, 4])
        assert emb.num_faces == 1
        assert emb.euler_check()
        assert build_embedding(g, [0, 1, 2]).euler_check()
        assert build_embedding(g, []).euler_check()

    @pytest.mark.parametrize("seed", range(6))
    def test_faces_keep_their_order(self, seed):
        rng = random.Random(200 + seed)
        g = GeomGraph()
        for i in range(30):
            g.add_node(i, (rng.randrange(0, 300), rng.randrange(0, 300)))
        for _ in range(28):
            u, v = rng.sample(list(g.nodes), 2)
            g.add_edge(u, v, weight=rng.randint(1, 5))
        greedy_planarize(g)
        whole = build_embedding(g)
        edges = _component_edges(g, lambda comp: comp[0] % 2 == 0)
        part = build_embedding(g, edges)
        kept = set(edges)
        assert part.faces == [face for face in whole.faces
                              if face[0][0] in kept]
        assert part.euler_check()
        assert sum(len(face) for face in part.faces) == 2 * len(edges)

    def test_counts_darts_on_the_tracer(self):
        from repro.obs import Tracer, use_tracer

        tracer = Tracer()
        with use_tracer(tracer):
            build_embedding(triangle())
            build_embedding(triangle(), [0, 1])
        assert tracer.metrics.counter("embedding.darts").value == 10
