"""Rendering tests: structural checks on ASCII and SVG output."""

import xml.etree.ElementTree as ET

from repro.conflict import build_layout_conflict_graph, detect_conflicts
from repro.layout import Layout, figure1_layout, grating_layout
from repro.shifters import generate_shifters
from repro.viz import (
    conflict_graph_svg,
    layout_svg,
    render_layout,
    render_summary_bar,
)


class TestAscii:
    def test_empty_layout(self):
        assert render_layout(Layout()) == "(empty layout)"

    def test_features_drawn(self, tech):
        art = render_layout(grating_layout(3), width=40)
        assert "#" in art
        assert len(art.splitlines()) >= 4

    def test_shifters_drawn(self, tech):
        lay = grating_layout(3)
        shifters = generate_shifters(lay, tech)
        art = render_layout(lay, width=40, shifters=shifters)
        assert "s" in art

    def test_phases_drawn(self, tech):
        lay = grating_layout(3)
        shifters = generate_shifters(lay, tech)
        phases = {s.id: s.id % 2 for s in shifters}
        art = render_layout(lay, width=40, shifters=shifters,
                            phases=phases)
        assert "+" in art and "-" in art

    def test_conflicts_marked(self, tech):
        lay = figure1_layout()
        shifters = generate_shifters(lay, tech)
        report = detect_conflicts(lay, tech)
        art = render_layout(lay, width=40, shifters=shifters,
                            conflicts=[c.key for c in report.conflicts])
        assert "X" in art

    def test_width_respected(self):
        art = render_layout(grating_layout(10), width=50)
        assert all(len(line) <= 50 for line in art.splitlines())

    def test_summary_bar(self):
        bar = render_summary_bar("PCG", 5, 10, width=10)
        assert "█████" in bar and "PCG" in bar
        empty = render_summary_bar("none", 0, 0)
        assert "█" not in empty


class TestSvg:
    def _parse(self, svg: str):
        return ET.fromstring(svg)

    def test_layout_svg_is_valid_xml(self, tech):
        svg = layout_svg(figure1_layout())
        root = self._parse(svg)
        assert root.tag.endswith("svg")

    def test_feature_rect_count(self, tech):
        lay = figure1_layout()
        root = self._parse(layout_svg(lay))
        rects = [e for e in root.iter() if e.tag.endswith("rect")]
        # Background + 3 features.
        assert len(rects) == 1 + lay.num_polygons

    def test_conflict_lines_drawn(self, tech):
        lay = figure1_layout()
        shifters = generate_shifters(lay, tech)
        report = detect_conflicts(lay, tech)
        root = self._parse(layout_svg(
            lay, shifters=shifters,
            conflicts=[c.key for c in report.conflicts]))
        lines = [e for e in root.iter() if e.tag.endswith("line")]
        assert len(lines) == len(report.conflicts)

    def test_conflict_graph_svg(self, tech):
        cg, _s, _p = build_layout_conflict_graph(figure1_layout(), tech)
        root = self._parse(conflict_graph_svg(cg))
        lines = [e for e in root.iter() if e.tag.endswith("line")]
        circles = [e for e in root.iter() if e.tag.endswith("circle")]
        assert len(lines) == cg.graph.num_edges()
        assert len(circles) == cg.graph.num_nodes()

    def test_shifter_nodes_draw_large(self, tech):
        """A node is a shifter exactly when its id is below the shifter
        count: those, and only those, get the radius-4.0 circle."""
        from repro.bench import build_design

        cg, shifters, _p = build_layout_conflict_graph(build_design("D3"),
                                                       tech)
        root = self._parse(conflict_graph_svg(cg))
        radii = [e.get("r") for e in root.iter() if e.tag.endswith("circle")]
        assert radii.count("4.0") == len(shifters) > 0
        assert radii.count("2.5") == cg.graph.num_nodes() - len(shifters)

    def test_phase_colors_differ(self, tech):
        lay = grating_layout(3)
        shifters = generate_shifters(lay, tech)
        phases = {s.id: s.id % 2 for s in shifters}
        svg = layout_svg(lay, shifters=shifters, phases=phases)
        assert "#2266cc" in svg and "#22aa66" in svg
