"""Dark-field AAPSM baseline tests."""

import itertools

import pytest

from repro.darkfield import (
    build_darkfield_graph,
    correct_darkfield_conflicts,
    detect_darkfield_conflicts,
    interaction_distance,
)
from repro.geometry import Rect
from repro.layout import (
    GeneratorParams,
    Technology,
    grating_layout,
    layout_from_rects,
    standard_cell_layout,
)


def brute_force_darkfield(layout, tech, distance=None):
    """Oracle: try every phase vector over critical features."""
    from ..oracles import extract_critical_features

    if distance is None:
        distance = interaction_distance(tech)
    feats = extract_critical_features(layout, tech)
    assert len(feats) <= 14
    pairs = [
        (i, j)
        for i in range(len(feats)) for j in range(i + 1, len(feats))
        if feats[i].rect.within_distance(feats[j].rect, distance)
    ]
    for bits in itertools.product((0, 1), repeat=len(feats)):
        if all(bits[i] != bits[j] for i, j in pairs):
            return True
    return len(feats) == 0


def triangle_layout():
    """Three mutually-interacting gates: an odd dark-field cycle.

    All pairwise separations sit in [150, 154) — below the default
    B = 160 interaction distance but DRC-clean (>= 140).
    """
    return layout_from_rects([
        Rect(0, 0, 90, 600),
        Rect(240, 0, 330, 600),
        Rect(120, 750, 210, 1350),
    ])


class TestGraph:
    def test_nodes_are_critical_features(self, tech):
        lay = grating_layout(4)
        df = build_darkfield_graph(lay, tech)
        assert df.graph.num_nodes() == 4

    def test_wide_features_excluded(self, tech):
        lay = layout_from_rects([Rect(0, 0, 90, 600),
                                 Rect(300, 0, 600, 600)])
        df = build_darkfield_graph(lay, tech)
        assert df.graph.num_nodes() == 1
        assert df.graph.num_edges() == 0

    def test_edges_are_close_pairs(self, tech):
        # 210nm apart < B = 160? B = 120 + 40 = 160; gap 210 > 160: no
        # edge.  Gap 150 < 160: edge.
        close = layout_from_rects([Rect(0, 0, 90, 600),
                                   Rect(240, 0, 330, 600)])
        far = layout_from_rects([Rect(0, 0, 90, 600),
                                 Rect(260, 0, 350, 600)])
        assert build_darkfield_graph(close, tech).graph.num_edges() == 1
        assert build_darkfield_graph(far, tech).graph.num_edges() == 0

    def test_custom_distance(self, tech):
        lay = layout_from_rects([Rect(0, 0, 90, 600),
                                 Rect(400, 0, 490, 600)])
        assert build_darkfield_graph(lay, tech,
                                     distance=400).graph.num_edges() == 1


class TestDetection:
    def test_grating_alternates_cleanly(self, tech):
        # 300nm pitch -> 210nm gaps > B: independent.  Tighten pitch so
        # neighbours interact; a path is bipartite either way.
        report = detect_darkfield_conflicts(grating_layout(6, pitch=240),
                                            tech)
        assert report.phase_assignable
        assert report.conflicts == []
        assert report.phases is not None
        # Neighbours must differ.
        phases = report.phases
        assert phases[0] != phases[1]

    def test_triangle_has_one_conflict(self, tech):
        report = detect_darkfield_conflicts(triangle_layout(), tech)
        assert not report.phase_assignable
        assert len(report.conflicts) == 1

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_brute_force(self, tech, seed):
        from ..conftest import make_random_small_layout

        lay = make_random_small_layout(seed, max_features=6)
        report = detect_darkfield_conflicts(lay, tech)
        assert report.phase_assignable == brute_force_darkfield(lay, tech)

    def test_phases_respect_surviving_edges(self, tech):
        report = detect_darkfield_conflicts(triangle_layout(), tech)
        df = build_darkfield_graph(triangle_layout(),
                                   Technology.node_90nm())
        assert report.phases is not None
        broken = set(report.conflicts)
        for eid, pair in df.edge_pair.items():
            if pair not in broken:
                assert report.phases[pair[0]] != report.phases[pair[1]]


class TestCorrection:
    def test_triangle_corrected(self, tech):
        lay = triangle_layout()
        report = detect_darkfield_conflicts(lay, tech)
        fixed, correction = correct_darkfield_conflicts(
            lay, tech, report.conflicts)
        assert correction.uncorrectable == []
        post = detect_darkfield_conflicts(fixed, tech)
        assert post.phase_assignable
        assert correction.area_increase_pct > 0

    def test_no_conflicts_noop(self, tech):
        lay = grating_layout(4)
        fixed, correction = correct_darkfield_conflicts(lay, tech, [])
        assert correction.cuts == []
        assert fixed.features == lay.features

    @pytest.mark.parametrize("seed", range(3))
    def test_standard_cells_end_to_end(self, tech, seed):
        lay = standard_cell_layout(GeneratorParams(rows=3, cols=12),
                                   seed=seed)
        report = detect_darkfield_conflicts(lay, tech)
        fixed, correction = correct_darkfield_conflicts(
            lay, tech, report.conflicts)
        if correction.uncorrectable:
            pytest.skip("spacing-uncorrectable dark-field pair")
        assert detect_darkfield_conflicts(fixed, tech).phase_assignable


class TestCrossVariant:
    def test_darkfield_vs_brightfield_densities(self, tech):
        """The two variants see the same layout differently; both must
        agree the clean grating is fine, and the bench records their
        conflict densities side by side."""
        from repro.conflict import detect_conflicts

        lay = grating_layout(8, pitch=240)
        dark = detect_darkfield_conflicts(lay, tech)
        bright = detect_conflicts(lay, tech)
        assert dark.phase_assignable and bright.phase_assignable


class TestColumnBuildOracle:
    """The dark-field graph is built in column passes; it equals the
    node-by-node, pair-by-pair build it replaced
    (``tests/oracles.py:scalar_darkfield_graph``)."""

    @pytest.mark.parametrize("name", [
        f"{s}:{seed}" for s in ("boundary", "density", "duplicate",
                                "oddcycle", "tjoin", "darkfield")
        for seed in range(3)] + ["D1", "D2", "D3", "empty", "widths"])
    def test_matches_per_pair_build(self, tech, name):
        from repro.bench import build_design
        from repro.scenarios import build_scenario, stratum_names

        from ..oracles import node_coords, scalar_darkfield_graph

        if name == "empty":
            layout = layout_from_rects([])
        elif name == "widths":
            # Drawn widths at the critical threshold and just below it,
            # both orientations, and a square.
            cw = tech.critical_width
            layout = layout_from_rects([
                Rect(0, 0, cw - 1, 900), Rect(cw + 20, 0, 2 * cw + 20, 900),
                Rect(0, 950, 900, 950 + cw - 1), Rect(0, 1100, 900, 1100 + cw),
                Rect(1000, 0, 1000 + cw - 1, cw - 1)])
        elif ":" in name:
            stratum, seed = name.split(":")
            assert stratum in stratum_names()
            layout = build_scenario(stratum, int(seed)).layout
        else:
            layout = build_design(name)
        for distance in (None, 150):
            got = build_darkfield_graph(layout, tech, distance)
            want = scalar_darkfield_graph(layout, tech, distance)
            g, w = got.graph, want.graph
            assert (g.nodes, node_coords(g), g._eu, g._ev) \
                == (w.nodes, node_coords(w), w._eu, w._ev)
            assert [e.tag for e in g.edges()] == [e.tag for e in w.edges()]
            assert [(type(x), x) for x in g._ew] \
                == [(type(x), x) for x in w._ew]
            assert got.node_feature == want.node_feature
            assert got.edge_pair == want.edge_pair
            assert got.features == want.features
