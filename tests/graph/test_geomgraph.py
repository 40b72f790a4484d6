"""GeomGraph container tests."""

import pytest

from repro.graph import GeomGraph

from ..oracles import to_networkx


def triangle():
    g = GeomGraph()
    g.add_node(0, (0, 0))
    g.add_node(1, (10, 0))
    g.add_node(2, (0, 10))
    g.add_edge(0, 1, weight=1)
    g.add_edge(1, 2, weight=2)
    g.add_edge(2, 0, weight=3)
    return g


class TestConstruction:
    def test_edge_ids_stable(self):
        g = triangle()
        assert [e.id for e in g.edges()] == [0, 1, 2]
        assert g.edge(1).weight == 2

    def test_add_edge_creates_nodes(self):
        g = GeomGraph()
        g.add_edge(5, 7)
        assert set(g.nodes) == {5, 7}

    def test_parallel_edges_supported(self):
        g = GeomGraph()
        g.add_edge(0, 1, weight=1)
        g.add_edge(0, 1, weight=9)
        assert g.num_edges() == 2
        assert g.degree(0) == 2

    def test_self_loop_degree_counts_twice(self):
        g = GeomGraph()
        g.add_edge(0, 0)
        assert g.degree(0) == 2
        assert g.edge(0).is_self_loop


class TestRemoval:
    def test_soft_removal(self):
        g = triangle()
        g.remove_edge(1)
        assert g.num_edges() == 2
        assert g.is_removed(1)
        assert [e.id for e in g.edges()] == [0, 2]
        assert [e.id for e in g.edges(include_removed=True)] == [0, 1, 2]

    def test_restore(self):
        g = triangle()
        g.remove_edge(0)
        g.restore_edge(0)
        assert g.num_edges() == 3

    def test_incident_respects_removal(self):
        g = triangle()
        g.remove_edge(0)
        assert sorted(e.id for e in g.incident(0)) == [2]
        assert g.degree(0) == 1


class TestQueries:
    def test_other(self):
        g = triangle()
        e = g.edge(0)
        assert e.other(0) == 1
        assert e.other(1) == 0
        with pytest.raises(ValueError):
            e.other(2)

    def test_segment(self):
        g = triangle()
        assert g.segment(0) == ((0, 0), (10, 0))

    def test_total_weight(self):
        g = triangle()
        assert g.total_weight([0, 2]) == 4

    def test_connected_components(self):
        g = triangle()
        g.add_node(99, (50, 50))
        g.add_edge(10, 11)
        comps = g.connected_components()
        assert sorted(map(tuple, comps)) == [(0, 1, 2), (10, 11), (99,)]

    def test_components_respect_removal(self):
        g = GeomGraph()
        g.add_edge(0, 1)
        g.remove_edge(0)
        assert len(g.connected_components()) == 2

    def test_subgraph_preserves_orig_ids(self):
        g = triangle()
        sub = g.subgraph([0, 1])
        assert sub.num_edges() == 1
        e = next(sub.edges())
        assert e.tag[0] == "orig" and e.tag[1] == 0

    def test_to_networkx_collapses_parallels(self):
        pytest.importorskip("networkx")
        g = GeomGraph()
        g.add_edge(0, 1, weight=5)
        g.add_edge(0, 1, weight=2)
        g.add_edge(2, 2, weight=1)  # self-loop dropped
        nxg = to_networkx(g)
        assert nxg[0][1]["weight"] == 2
        assert nxg.number_of_edges() == 1


class TestBulkConstruction:
    """add_nodes/add_edges must be indistinguishable from the loop."""

    def _loop_built(self):
        g = GeomGraph(name="ref")
        g.add_node(0, (0, 0))
        g.add_node(1, (4, 0))
        g.add_node(2)
        g.add_node(3, (2, 2))
        g.add_edge(0, 1, weight=3, tag="a")
        g.add_edge(1, 2, weight=1, tag=("t", 7))
        g.add_edge(2, 2, weight=5, tag="loop")
        g.add_edge(0, 1, weight=9, tag="parallel")
        return g

    def _bulk_built(self):
        g = GeomGraph(name="ref")
        g.add_nodes([0, 1, 2, 3], [(0, 0), (4, 0), None, (2, 2)])
        g.add_edges([
            (0, 1, 3, "a"),
            (1, 2, 1, ("t", 7)),
            (2, 2, 5, "loop"),
            (0, 1, 9, "parallel"),
        ])
        return g

    def test_identical_edge_ids_and_iteration_order(self):
        ref, bulk = self._loop_built(), self._bulk_built()
        assert list(bulk.edges()) == list(ref.edges())
        assert [e.id for e in bulk.edges()] == [0, 1, 2, 3]

    def test_identical_node_order_and_adjacency(self):
        ref, bulk = self._loop_built(), self._bulk_built()
        assert bulk.nodes == ref.nodes
        for n in ref.nodes:
            assert list(bulk.incident(n)) == list(ref.incident(n))

    def test_identical_coords(self):
        ref, bulk = self._loop_built(), self._bulk_built()
        for n in (0, 1, 3):
            assert bulk.coord(n) == ref.coord(n)
        assert not bulk.has_coords() and not ref.has_coords()

    def test_add_edges_returns_edges_and_registers_nodes(self):
        g = GeomGraph()
        out = g.add_edges([(5, 6, 2, None), (6, 7, 4, None)])
        assert [e.id for e in out] == [0, 1]
        assert g.nodes == [5, 6, 7]

    def test_add_nodes_without_coords(self):
        g = GeomGraph()
        g.add_nodes(range(3))
        assert g.nodes == [0, 1, 2]
        assert not g._coords

    def test_bulk_is_idempotent_on_existing_nodes(self):
        g = GeomGraph()
        g.add_node(0, (1, 1))
        g.add_edge(0, 1)
        g.add_nodes([0, 1], [(9, 9), None])
        assert g.nodes == [0, 1]
        # Re-adding never clears adjacency; coords follow add_node
        # semantics (latest non-None wins).
        assert len(list(g.incident(0))) == 1
        assert g.coord(0) == (9, 9)
