"""Layout partitioning for the full-chip tiled flow.

The chip bounding box is cut into an ``nx`` x ``ny`` grid of *core*
regions.  Each tile additionally captures every feature within a *halo*
of its core, sized from the technology's shifter interaction distance,
so that any conflict whose geometric anchor lies inside the core is
decided with exactly the same neighbourhood the monolithic flow sees.

Three nested regions per tile:

* **core** — half-open ``[x1, x2) x [y1, y2)``; the cores of a grid
  partition the chip bbox exactly (no gaps, no double coverage).
* **owner region** — the core, with the outward-facing sides of border
  tiles pushed to infinity.  Shifters overhang the feature bbox, so
  conflict anchors can land slightly outside the chip bbox; the owner
  regions partition the whole plane and give every conflict exactly one
  owning tile.
* **capture bounds** — the core inflated by the halo; a feature belongs
  to a tile's sub-layout when its rectangle intersects these bounds.

Sub-layouts keep absolute chip coordinates, so a feature shared by
several tiles (a long wire, a halo gate) generates byte-identical
shifter rectangles in every tile — the invariant the stitcher's
canonical conflict keys rely on.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

from ..layout import Layout, Technology

# Owner-region sentinel: far outside any plausible chip coordinate.
OPEN = 1 << 62

Bounds = Tuple[int, int, int, int]

TileSpec = Union[int, Tuple[int, int], None]

# The automatic grid aims at this many features per tile.
FEATURES_PER_TILE = 3000


def interaction_distance(tech: Technology) -> int:
    """Maximum centre-to-centre reach of one Condition-2 constraint.

    Two features can share an overlap edge only when their shifters come
    within ``shifter_spacing``; each shifter extends at most
    ``shifter_width`` laterally and ``shifter_extension`` past the line
    ends, so feature rectangles further apart than this can never be
    adjacent in the conflict graph.
    """
    return 2 * (tech.shifter_width + tech.shifter_extension) \
        + tech.shifter_spacing


def default_halo(tech: Technology) -> int:
    """Default capture halo: eight interaction distances.

    One interaction distance guarantees every overlap *pair* anchored in
    the core is seen whole; the extra factor gives the per-tile
    optimiser the same conflict-cluster neighbourhood (odd cycles
    through gate pairs and multi-gate wires, T-shape abutments) the
    monolithic flow uses to choose which edge of a cycle to cut.  At
    4x, a wire spanning three gates can straddle a boundary with its
    cluster truncated, making a tile cut a cycle in two places where
    the monolithic optimum cuts once; 8x (~2.9 um at 90 nm) restores
    exact agreement across the generator's whole parameter envelope
    while staying tiny next to production tile sizes.
    """
    return 8 * interaction_distance(tech)


@dataclass
class Tile:
    """One grid cell: a core region plus its haloed sub-layout.

    Attributes:
        ix, iy: grid position (column, row).
        core: half-open core bounds in chip nanometres.
        owner: core with border sides pushed to +-OPEN; the owner
            regions of a grid tile the entire plane.
        bounds: feature-capture window (core inflated by the halo).
        layout: sub-layout of captured features, absolute coordinates.
        feature_ids: tile-local feature index -> chip feature index.
    """

    ix: int
    iy: int
    core: Bounds
    owner: Bounds
    bounds: Bounds
    layout: Layout
    feature_ids: List[int] = field(default_factory=list)

    @property
    def num_features(self) -> int:
        return self.layout.num_polygons

    def owns_point2(self, px2: int, py2: int) -> bool:
        """Half-open ownership test in doubled coordinates.

        Doubling keeps rectangle centres integral, so ownership of a
        conflict anchor is decided exactly, with no float rounding at
        tile boundaries.
        """
        ox1, oy1, ox2, oy2 = self.owner
        return (2 * ox1 <= px2 < 2 * ox2) and (2 * oy1 <= py2 < 2 * oy2)


@dataclass
class TileGrid:
    """The partition of one layout."""

    nx: int
    ny: int
    halo: int
    bbox: Optional[Bounds]
    tiles: List[Tile] = field(default_factory=list)
    xs: List[int] = field(default_factory=list)  # column cut lines
    ys: List[int] = field(default_factory=list)  # row cut lines

    @property
    def num_tiles(self) -> int:
        return len(self.tiles)

    def tile_at(self, ix: int, iy: int) -> Tile:
        return self.tiles[iy * self.nx + ix]

    def owner_index_of_point2(self, px2: int, py2: int) -> int:
        """Flat index of the tile whose owner region holds a doubled
        point.  Owner regions tile the plane, so this is total."""
        ix = min(self.nx - 1,
                 max(0, bisect_right([2 * x for x in self.xs[1:-1]],
                                     px2)))
        iy = min(self.ny - 1,
                 max(0, bisect_right([2 * y for y in self.ys[1:-1]],
                                     py2)))
        return iy * self.nx + ix


def _boundaries(lo: int, hi: int, n: int) -> List[int]:
    """n+1 integer cut lines over the half-open cover ``[lo, hi + 1)``.

    The +1 makes the half-open cores cover the *closed* bbox, so a
    feature centred exactly on the right/top chip edge still has an
    owner.
    """
    span = hi + 1 - lo
    return [lo + (span * i) // n for i in range(n + 1)]


def normalize_tile_spec(tiles: TileSpec) -> Optional[Tuple[int, int]]:
    """Accept ``n`` (an n x n grid) or ``(nx, ny)``; None passes through."""
    if tiles is None:
        return None
    if isinstance(tiles, int):
        spec = (tiles, tiles)
    else:
        spec = (int(tiles[0]), int(tiles[1]))
    if spec[0] < 1 or spec[1] < 1:
        raise ValueError(f"tile grid must be >= 1x1, got {spec}")
    return spec


def auto_tile_grid(layout: Layout,
                   jobs: Optional[int] = None) -> Tuple[int, int]:
    """A square grid sized so tiles hold ~:data:`FEATURES_PER_TILE`
    features each.

    ``jobs`` raises the grid so a parallel run has at least one tile
    per worker; a serial run prefers fewer, larger tiles (halo overhead
    is paid per tile).
    """
    n = layout.num_polygons
    want = max(1, round((n / FEATURES_PER_TILE) ** 0.5))
    if jobs and jobs > 1:
        while want * want < jobs and want * want * 2 <= max(1, n):
            want += 1
    return (want, want)


def partition_layout(layout: Layout, tech: Technology,
                     tiles: TileSpec = None,
                     jobs: Optional[int] = None) -> TileGrid:
    """Cut a layout into an overlapping tile grid.

    Every tile captures its core plus :func:`default_halo`, the reach
    the tiled == monolithic equivalence is argued for; the halo is not
    a parameter.  An empty layout gives a grid with no tiles.

    Args:
        layout: the chip layout (only the poly layer is partitioned).
        tech: rule deck; sizes the halo.
        tiles: grid spec — ``n``, ``(nx, ny)``, or None for an
            automatic size from the polygon count.
        jobs: planned worker count; only steers the automatic grid.
    """
    spec = normalize_tile_spec(tiles) or auto_tile_grid(layout, jobs=jobs)
    nx, ny = spec
    halo = default_halo(tech)

    box = layout.bbox()
    if box is None:
        return TileGrid(nx=nx, ny=ny, halo=halo, bbox=None, tiles=[])

    xs = _boundaries(box.x1, box.x2, nx)
    ys = _boundaries(box.y1, box.y2, ny)
    grid = TileGrid(nx=nx, ny=ny, halo=halo,
                    bbox=(box.x1, box.y1, box.x2, box.y2),
                    xs=xs, ys=ys)
    for iy in range(ny):
        for ix in range(nx):
            core = (xs[ix], ys[iy], xs[ix + 1], ys[iy + 1])
            owner = (
                -OPEN if ix == 0 else core[0],
                -OPEN if iy == 0 else core[1],
                OPEN if ix == nx - 1 else core[2],
                OPEN if iy == ny - 1 else core[3],
            )
            bounds = (core[0] - halo, core[1] - halo,
                      core[2] + halo, core[3] + halo)
            grid.tiles.append(Tile(
                ix=ix, iy=iy, core=core, owner=owner, bounds=bounds,
                layout=Layout(name=f"{layout.name}[{ix},{iy}]")))

    # Single feature scan: route each rect to every tile whose capture
    # window it touches.  Grid arithmetic instead of per-tile tests
    # keeps this O(features x touched tiles).
    for gi, rect in enumerate(layout.features):
        ix_lo = _span_lo(xs, rect.x1 - halo)
        ix_hi = _span_hi(xs, rect.x2 + halo, nx)
        iy_lo = _span_lo(ys, rect.y1 - halo)
        iy_hi = _span_hi(ys, rect.y2 + halo, ny)
        for iy in range(iy_lo, iy_hi + 1):
            for ix in range(ix_lo, ix_hi + 1):
                tile = grid.tile_at(ix, iy)
                tile.layout.add_feature(rect)
                tile.feature_ids.append(gi)
    return grid


def _span_lo(cuts: List[int], lo: int) -> int:
    """First column whose closed capture span reaches down to ``lo``."""
    return max(0, bisect_left(cuts, lo) - 1)


def _span_hi(cuts: List[int], hi: int, n: int) -> int:
    """Last column whose closed capture span reaches up to ``hi``."""
    return min(n - 1, max(0, bisect_right(cuts, hi) - 1))
