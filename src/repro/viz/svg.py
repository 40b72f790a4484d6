"""SVG rendering of layouts and conflict graphs.

Self-contained SVG strings (no external dependencies), used by the
examples to produce inspectable pictures of layouts, shifter phases and
conflict graphs — the reproduction's stand-in for the paper's figures.
"""

from __future__ import annotations

import html
from typing import Dict, Iterable, List, Optional, Tuple

from ..geometry import Rect, bounding_box
from ..layout import Layout
from ..shifters import ShifterSet

LAYER_COLORS = {
    1: "#cc2222",    # poly
    20: "#2266cc",   # phase-0 shifters
    21: "#22aa66",   # phase-180 shifters
}
DEFAULT_COLOR = "#888888"


class SvgCanvas:
    """Accumulates SVG elements in layout coordinates (y flipped)."""

    def __init__(self, window: Rect, pixel_width: int = 800):
        self.window = window
        self.scale = pixel_width / max(1, window.width)
        self.pixel_width = pixel_width
        self.pixel_height = max(1, int(window.height * self.scale))
        self._elements: List[str] = []

    def _x(self, x: int) -> float:
        return (x - self.window.x1) * self.scale

    def _y(self, y: int) -> float:
        return self.pixel_height - (y - self.window.y1) * self.scale

    def rect(self, r: Rect, fill: str, opacity: float = 1.0,
             stroke: str = "none") -> None:
        self._elements.append(
            f'<rect x="{self._x(r.x1):.2f}" y="{self._y(r.y2):.2f}" '
            f'width="{r.width * self.scale:.2f}" '
            f'height="{r.height * self.scale:.2f}" '
            f'fill="{fill}" fill-opacity="{opacity}" stroke="{stroke}"/>')

    def line(self, x1: int, y1: int, x2: int, y2: int, color: str,
             width: float = 1.5, dashed: bool = False) -> None:
        dash = ' stroke-dasharray="4 3"' if dashed else ""
        self._elements.append(
            f'<line x1="{self._x(x1):.2f}" y1="{self._y(y1):.2f}" '
            f'x2="{self._x(x2):.2f}" y2="{self._y(y2):.2f}" '
            f'stroke="{color}" stroke-width="{width}"{dash}/>')

    def circle(self, x: int, y: int, radius: float, fill: str) -> None:
        self._elements.append(
            f'<circle cx="{self._x(x):.2f}" cy="{self._y(y):.2f}" '
            f'r="{radius}" fill="{fill}"/>')

    def text(self, x: int, y: int, content: str, size: int = 12) -> None:
        self._elements.append(
            f'<text x="{self._x(x):.2f}" y="{self._y(y):.2f}" '
            f'font-size="{size}" font-family="monospace">'
            f'{html.escape(content)}</text>')

    def render(self) -> str:
        body = "\n  ".join(self._elements)
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" '
            f'width="{self.pixel_width}" height="{self.pixel_height}" '
            f'viewBox="0 0 {self.pixel_width} {self.pixel_height}">\n'
            f'  <rect width="100%" height="100%" fill="white"/>\n'
            f'  {body}\n</svg>\n')


def _window_for(rects: List[Rect]) -> Rect:
    box = bounding_box(rects)
    if box is None:
        box = Rect(0, 0, 100, 100)
    return box.inflated(box.max_dimension // 20 + 1)


def layout_svg(layout: Layout, shifters: Optional[ShifterSet] = None,
               phases: Optional[Dict[int, int]] = None,
               conflicts: Iterable[Tuple[int, int]] = (),
               pixel_width: int = 800) -> str:
    """Render a layout with optional phase-colored shifters/conflicts."""
    rects = list(layout.features)
    if shifters is not None:
        rects += shifters.rects
    canvas = SvgCanvas(_window_for(rects), pixel_width)

    if shifters is not None:
        for s in shifters:
            if phases is None or s.id not in phases:
                color = "#bbbbbb"
            else:
                color = (LAYER_COLORS[20] if phases[s.id] == 0
                         else LAYER_COLORS[21])
            canvas.rect(s.rect, color, opacity=0.55)
    for rect in layout.features:
        canvas.rect(rect, LAYER_COLORS[1], opacity=0.9)
    if shifters is not None:
        for a, b in conflicts:
            ax, ay = shifters[a].rect.center2
            bx, by = shifters[b].rect.center2
            canvas.line(ax // 2, ay // 2, bx // 2, by // 2, "#ff00ff",
                        width=2.5, dashed=True)
    return canvas.render()


def conflict_graph_svg(conflict_graph, pixel_width: int = 800,
                       highlight_edges: Iterable[int] = ()) -> str:
    """Render a conflict graph's straight-line drawing.

    Node coordinates are 4x layout units (see
    :mod:`repro.conflict.graphs`); feature edges draw solid, overlap
    edges dashed, highlighted (removed) edges magenta.
    """
    graph = conflict_graph.graph
    coords = {n: graph.coord(n) for n in graph.nodes}
    rects = [Rect(x - 2, y - 2, x + 2, y + 2)
             for x, y in coords.values()]
    canvas = SvgCanvas(_window_for(rects), pixel_width)
    highlight = set(highlight_edges)
    # Overlap edges come first, two per pair; feature edges follow.
    split = conflict_graph.num_overlap_edges

    for e in graph.edges(include_removed=True):
        (ax, ay), (bx, by) = coords[e.u], coords[e.v]
        if e.id in highlight:
            color, width = "#ff00ff", 2.5
        elif e.id >= split:
            color, width = "#cc2222", 2.0
        else:
            color, width = "#2266cc", 1.2
        canvas.line(ax, ay, bx, by, color, width=width,
                    dashed=e.id < split)
    # Shifter s is node s.
    shifters = len(conflict_graph.shifters)
    for node, (x, y) in coords.items():
        is_shifter = node < shifters
        canvas.circle(x, y, 4.0 if is_shifter else 2.5,
                      "#222222" if is_shifter else "#999999")
    return canvas.render()
