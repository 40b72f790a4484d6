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

import hashlib
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

from ..geometry.rect import RectList, rect_columns
from ..layout import POLY_LAYER, Layout, Technology

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
        digest: order-free digest of the captured rects — sha256 of
            ``layout.features`` sorted by ``(x1, y1, x2, y2)``, as
            little-endian int64 rows — the geometry input of both of
            the tile's cache keys.
        feature_ids: tile-local feature index -> chip feature index.
    """

    ix: int
    iy: int
    core: Bounds
    owner: Bounds
    bounds: Bounds
    layout: Layout
    digest: str
    feature_ids: List[int] = field(default_factory=list)

    @property
    def num_features(self) -> int:
        return self.layout.num_polygons


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

    The cut is column passes over the layout's int64 rect columns: the
    bbox is their min/max, each feature's span of touched tile columns
    and rows is a :func:`numpy.searchsorted` against the cut lines, and
    the per-tile feature lists and geometry digests come out of one
    stable sort of the (tile, feature) memberships.  Each tile's
    features keep chip order, in a column-only
    :class:`~repro.geometry.rect.RectList`: its slice of the chip's
    columns, no rect.

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

    feats = layout.features
    if not feats:
        return TileGrid(nx=nx, ny=ny, halo=halo, bbox=None, tiles=[])

    import numpy as np

    x1, y1, x2, y2 = rect_columns(feats)
    box = (int(x1.min()), int(y1.min()), int(x2.max()), int(y2.max()))
    xs = _boundaries(box[0], box[2], nx)
    ys = _boundaries(box[1], box[3], ny)

    # Route every rect to the span of tiles whose capture window it
    # touches, then list the (tile, feature) memberships tile by tile.
    # Within a tile, features are ordered by their chip rank in
    # (x1, y1, x2, y2) order for the digest, and by chip index for the
    # sub-layout.
    ix_lo, ix_hi = _spans(np, xs, x1 - halo, x2 + halo)
    iy_lo, iy_hi = _spans(np, ys, y1 - halo, y2 + halo)
    width = np.maximum(ix_hi - ix_lo + 1, 0)
    per = width * np.maximum(iy_hi - iy_lo + 1, 0)
    fid = np.repeat(np.arange(len(feats), dtype=np.int64), per)
    k = np.arange(len(fid), dtype=np.int64) - np.repeat(
        np.cumsum(per) - per, per)
    width = np.repeat(width, per)
    flat = ((np.repeat(iy_lo, per) + k // width) * nx
            + np.repeat(ix_lo, per) + k % width)
    by_tile = fid[np.argsort(flat, kind="stable")]
    rank = np.empty(len(feats), dtype=np.int64)
    rank[np.lexsort((y2, x2, y1, x1))] = np.arange(len(feats),
                                                    dtype=np.int64)
    by_rank = fid[np.lexsort((rank[fid], flat))]
    rows = np.stack((x1, y1, x2, y2), axis=1).astype("<i8")
    ends = np.cumsum(np.bincount(flat, minlength=nx * ny)).tolist()

    grid = TileGrid(nx=nx, ny=ny, halo=halo, bbox=box, xs=xs, ys=ys)
    start = 0
    for iy in range(ny):
        for ix in range(nx):
            end = ends[iy * nx + ix]
            members = by_tile[start:end]
            ids = members.tolist()
            core = (xs[ix], ys[iy], xs[ix + 1], ys[iy + 1])
            owner = (
                -OPEN if ix == 0 else core[0],
                -OPEN if iy == 0 else core[1],
                OPEN if ix == nx - 1 else core[2],
                OPEN if iy == ny - 1 else core[3],
            )
            bounds = (core[0] - halo, core[1] - halo,
                      core[2] + halo, core[3] + halo)
            sub = Layout(name=f"{layout.name}[{ix},{iy}]", layers={
                POLY_LAYER: RectList(columns=(x1[members], y1[members],
                                              x2[members], y2[members]))})
            grid.tiles.append(Tile(
                ix=ix, iy=iy, core=core, owner=owner, bounds=bounds,
                layout=sub,
                digest=hashlib.sha256(
                    rows[by_rank[start:end]].tobytes()).hexdigest(),
                feature_ids=ids))
            start = end
    return grid


def _spans(np, cuts: List[int], lo, hi):
    """First and last grid column (or row) whose closed capture span
    reaches each ``[lo, hi]`` interval, clamped to the grid."""
    edges = np.asarray(cuts, dtype=np.int64)
    last = len(cuts) - 2
    first = np.maximum(np.searchsorted(edges, lo, side="left") - 1, 0)
    final = np.clip(np.searchsorted(edges, hi, side="right") - 1, 0, last)
    return first, final
