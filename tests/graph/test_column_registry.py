"""The graph core's column form.

A dense-labelled graph filled by ``add_node_columns`` keeps its node
registry and coordinates as int64 columns, with no label -> index dict
and no coordinate tuples, and a tag maker makes its edge tags on
demand.  Every accessor must answer as the dict form does, and the
first registration of a node the columns do not hold converts them to
dicts once.
"""

import pickle

import pytest

from repro.graph import GeomGraph, decompose, parity_labelling

np = pytest.importorskip("numpy")

XS = [0, 10, 10, 0, 30]
YS = [0, 0, 10, 10, 5]
EDGES = [(0, 1, 3), (1, 2, 4), (2, 3, 5), (3, 0, 6), (2, 4, 1)]


class Tags:
    """A picklable tag maker holding no reference to the graph."""

    def __call__(self, edge_id):
        return ("made", edge_id)


def column_graph(tags=None):
    g = GeomGraph("cols")
    g.add_node_columns(np.array(XS), np.array(YS))
    u, v, w = zip(*EDGES)
    g.add_edge_columns(np.array(u), np.array(v), list(w),
                       tags if tags is not None
                       else [("made", e) for e in range(len(EDGES))])
    return g


def dict_graph():
    g = GeomGraph("cols")
    for node, xy in enumerate(zip(XS, YS)):
        g.add_node(node, xy)
    for eid, (u, v, w) in enumerate(EDGES):
        g.add_edge(u, v, weight=w, tag=("made", eid))
    return g


def view(g):
    """What the accessors answer, registry form aside."""
    return (g.nodes, g.num_nodes(), [g.coord(n) for n in g.nodes],
            g.has_coords(), [g.segment(e) for e in range(len(EDGES))],
            list(g.edges()), [list(g.incident(n)) for n in g.nodes],
            [g.degree(n) for n in g.nodes],
            [xs.tolist() for xs in g.coord_arrays(np)],
            g.connected_components(), decompose(g).content_ids,
            parity_labelling(g).color.tolist())


def test_columns_hold_no_dicts():
    g = column_graph(Tags())
    assert g._node_index is None and g._coords is None
    assert g._labels == range(len(XS))
    assert all(type(c) is int for n in g.nodes for c in g.coord(n))
    with pytest.raises(KeyError):
        g.coord(len(XS))
    with pytest.raises(KeyError):
        g.coord(-1)
    assert list(g.incident(len(XS))) == [] and g.degree(-1) == 0


def test_accessors_match_dict_form():
    assert view(column_graph(Tags())) == view(dict_graph())
    assert view(column_graph()) == view(dict_graph())


def test_tags_made_on_demand():
    g = column_graph(Tags())
    assert g._etags == [None] * len(EDGES)
    assert g.edge(3).tag == ("made", 3)
    sub = g.subgraph([0, 1, 2])
    assert [e.tag for e in sub.edges()] == [("orig", 0, ("made", 0)),
                                            ("orig", 1, ("made", 1))]
    # Edges appended after the maker's range keep their own tags.
    g.add_edge(4, 0, weight=2, tag="own")
    assert g.edge(len(EDGES)).tag == "own"
    assert g.edge(0).tag == ("made", 0)


def test_held_registrations_stay_columns():
    g = column_graph(Tags())
    g.add_edge(4, 0, weight=9)
    g.add_edge_rows([(1, 3, 2, None)])
    g.add_nodes([2], [(7, 7)])
    g.add_node(0, (-5, -5))
    assert g._node_index is None
    assert g.coord(2) == (7, 7) and g.coord(0) == (-5, -5)
    assert g.coord_arrays(np)[0].tolist() == [-5, 10, 7, 0, 30]


@pytest.mark.parametrize("register", [
    lambda g: g.add_node(9, (1, 2)),
    lambda g: g.add_node(len(XS)),
    lambda g: g.add_edge(0, 9),
    lambda g: g.add_edge_rows([(0, len(XS), 1, None)]),
    lambda g: g.add_nodes([len(XS)], [(1, 2)]),
], ids=["sparse-node", "next-node", "edge", "edge-rows", "nodes"])
def test_new_node_converts_to_dicts_once(register):
    g = column_graph(Tags())
    before = [g.coord(n) for n in g.nodes]
    register(g)
    assert g._xy is None and g._node_index is not None
    assert [g.coord(n) for n in range(len(XS))] == before
    assert g.nodes[:len(XS)] == list(range(len(XS)))
    assert g.edge(1).tag == ("made", 1)
    assert decompose(g).content_ids  # still decomposes


def test_second_column_append_extends_columns():
    g = column_graph(Tags())
    g.add_node_columns(np.array([50]), np.array([60]))
    assert g._node_index is None and g.nodes == list(range(len(XS) + 1))
    assert g.coord(len(XS)) == (50, 60)


def test_column_append_to_dict_graph_is_refused():
    g = GeomGraph()
    g.add_node(0, (1, 1))
    with pytest.raises(ValueError, match="column-form"):
        g.add_node_columns(np.array([5]), np.array([6]))


def test_pickle_round_trip():
    g = column_graph(Tags())
    clone = pickle.loads(pickle.dumps(g))
    assert view(clone) == view(g)
    assert clone.edge(2).tag == ("made", 2)
