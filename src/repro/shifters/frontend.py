"""Tile-scoped incremental front end: cached shifter generation.

The flow's first stage — shifter generation plus Condition-2 overlap
pairing — is a pure function of layout geometry, so it decomposes over
the same capture-window tiles the chip orchestrator already uses
(:mod:`repro.chip.partition`): every critical feature and every overlap
pair has exactly one *owner* tile (owner regions partition the plane),
and a tile's haloed sub-layout is guaranteed to contain the complete
neighbourhood of everything it owns (the partition's halo is eight
interaction distances).  Each tile therefore contributes a
self-contained :class:`TileFrontEnd` artifact:

* the critical features whose centre the tile owns, with their two
  flanking shifter rects (absolute chip coordinates);
* the overlap pairs whose geometric anchor (the centre of the overlap
  region, :meth:`~repro.geometry.kernels.GeometryKernel.region_centers2`)
  the tile owns, with the pair's separation/gap measurements.

Both are int64 rows (see :class:`TileFrontEnd` for the columns).
Everything is keyed by *coordinate-anchored ids* — ``(feature rect,
side)`` — never by dense shifter numbers, so a cached tile
front end stays valid when an edit elsewhere renumbers every shifter
on the chip.  :func:`splice_front_ends` reassembles the chip-global
:class:`~repro.shifters.shifter.ShifterSet` and
:class:`~repro.shifters.overlap.OverlapPair` list from the per-tile
artifacts, assigning dense ids in layout feature order — byte-identical
to the monolithic :func:`~repro.shifters.generation.generate_shifters`
+ :func:`~repro.shifters.overlap.find_overlap_pairs` pass.

Artifacts are content-addressed in the unified store
(:class:`repro.cache.ArtifactCache`, kind ``frontend``):
:func:`frontend_cache_key` hashes exactly the inputs a tile front end
depends on — rule deck, owner window, captured geometry (as the
tile's sorted-rect digest, which the tile cache key shares) — so a
warm ECO run regenerates shifters only for the tiles an edit dirtied
and replays every clean tile's front end from the store.  A revision
with nothing to replay (every cold one) skips the per-tile work: one
chip-wide pass whose rows are built and presorted once, then cut into
each tile's artifact by two ownership masks — the same routine a
per-tile computation uses (:func:`tiled_front_end`).
:class:`FrontEndSlicer` cuts a
chip front end the other way, into each tile's full sub-layout front
end, which the chip flow hands its detection jobs.

This module deliberately does **not** import :mod:`repro.chip`
(which imports :mod:`repro.shifters`); tiles are duck-typed as
anything carrying ``ix``/``iy``/``layout``/``owner``/``digest``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Iterable, List, Optional, Sequence, Tuple

from ..cache import KIND_FRONTEND, ArtifactCache
from ..geometry import Rect
from ..geometry.rect import rect_columns
from ..layout import Layout, Technology, tech_fingerprint
from ..obs import get_logger, get_tracer
from .generation import generate_shifters
from .overlap import OverlapPair, PairList, find_overlap_pairs, pair_columns
from .shifter import BOTTOM, LEFT, RIGHT, TOP, ShifterSet

# A feature/shifter rectangle as a plain hashable tuple.
RectTuple = Tuple[int, int, int, int]

# Canonical, renumbering-stable shifter identity: the guarded feature's
# rect in absolute chip coordinates plus which side the shifter sits on.
ShifterKey = Tuple[RectTuple, str]

# Owner-region bounds, as produced by repro.chip.partition.
Bounds = Tuple[int, int, int, int]

# Bump when the TileFrontEnd shape or the key encoding changes so stale
# cache directories self-invalidate instead of unpickling garbage.
# Format 2: int64 row arrays (see TileFrontEnd), keyed on the tile's
# sorted-rect digest.
FRONTEND_CACHE_FORMAT = 2

# Side codes in the artifact's rows.  Codes ascend with the side names,
# so ordering rows by ``(rect, code)`` orders them by ``ShifterKey``.
SIDES = (BOTTOM, LEFT, RIGHT, TOP)
SIDE_CODE = {side: code for code, side in enumerate(SIDES)}


class SpliceError(ValueError):
    """Per-tile front ends cannot be reassembled for this layout.

    Raised when the layout contains duplicate feature rectangles (the
    coordinate-anchored keys would collide) or when an artifact names
    geometry absent from the layout (a stale or foreign cache entry).
    :func:`tiled_front_end` recovers with its chip-wide pass.
    """


@dataclass(frozen=True, eq=False)
class TileFrontEnd:
    """One tile's contribution to the chip front end, as int64 rows.

    ``features`` holds one 14-column row per owned critical feature:
    the feature rect ``x1 y1 x2 y2``, then its two shifters in
    generation order (left/right for vertical features, bottom/top for
    horizontal ones — the order the monolithic pass numbers them in),
    each as ``side code, x1 y1 x2 y2``.  ``pairs`` holds one 13-column
    row per owned Condition-2 pair: shifter key ``a`` (the guarded
    feature's rect plus side code, five columns), key ``b`` likewise,
    then ``separation_sq``, ``x_gap``, ``y_gap``.  Side codes index
    :data:`SIDES`.

    Content is canonical: feature rows sorted by rect, pair rows by
    ``(a, b)`` with ``a < b`` — independent of the sub-layout's
    internal feature order, so the artifact a tile produces is
    identical across runs, processes, and unrelated renumbering edits
    elsewhere on the chip.  The measurements are symmetric pure
    functions of the two shifter rects, identical whichever tile
    computed them.  Equality compares the rows.
    """

    ix: int
    iy: int
    features: Any
    pairs: Any
    captured: int = 0

    @property
    def num_owned_features(self) -> int:
        return len(self.features)

    @property
    def num_owned_pairs(self) -> int:
        return len(self.pairs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TileFrontEnd):
            return NotImplemented
        import numpy as np

        return ((self.ix, self.iy, self.captured)
                == (other.ix, other.iy, other.captured)
                and np.array_equal(self.features, other.features)
                and np.array_equal(self.pairs, other.pairs))

    __hash__ = None  # type: ignore[assignment]


def frontend_cache_key(digest: str, owner: Bounds,
                       tech: Technology) -> str:
    """Stable hex digest of everything a tile front end depends on.

    Hashes the format version, the rule deck, the owner window, and
    ``digest`` — the tile's order-free digest of its captured feature
    rects (:attr:`repro.chip.partition.Tile.digest`) — and nothing
    else.  In particular the graph kind/bipartization method
    are *not* inputs (the front end is pure geometry), so one cached
    front end serves every downstream configuration, and global
    shifter numbering never enters the key, so edits elsewhere on the
    chip cannot invalidate a clean tile.
    """
    h = hashlib.sha256()
    h.update(f"frontend:{FRONTEND_CACHE_FORMAT}".encode())
    h.update(tech_fingerprint(tech))
    h.update(f"owner:{owner}".encode())
    h.update(f"geometry:{digest}".encode())
    return h.hexdigest()


def compute_tile_front_end(layout: Layout, owner: Bounds,
                           tech: Technology,
                           ix: int = 0, iy: int = 0) -> TileFrontEnd:
    """Run the front end on one tile's haloed sub-layout.

    Generates shifters and overlap pairs exactly as the monolithic pass
    does (the sub-layout keeps absolute coordinates, and criticality is
    a purely local width test, so shared features produce byte-identical
    shifter rects in every tile), then keeps only what this tile owns:

    * a critical feature when its rect centre lies in ``owner``;
    * an overlap pair when its region centre
      (:meth:`~repro.geometry.kernels.GeometryKernel.region_centers2`)
      lies in ``owner``.

    The partition's halo, eight interaction distances, guarantees
    the sub-layout captures both features of every owned pair, so the
    owned view is complete, and owner regions partition the plane, so
    summing tiles covers the chip with no double counting.
    """
    shifters = generate_shifters(layout, tech)
    pairs = find_overlap_pairs(shifters, tech)
    return _FrontColumns(layout, shifters, pairs).owned(
        owner, ix, iy, layout.num_polygons)


class _FrontColumns:
    """One computed front end as canonical int64 rows, cut by owner.

    Takes a front end computed over any layout that captures the tiles
    asked about: a tile's own sub-layout, or the whole chip.  The
    artifact rows (:class:`TileFrontEnd`), feature centres and pair
    region centres are built once here, in one pass over the layout
    and shifter columns, and presorted into canonical order;
    :meth:`owned` then cuts one owner window's :class:`TileFrontEnd`
    with two boolean masks, and :meth:`check_partition` confirms the
    windows asked about covered every feature and pair exactly once.
    """

    def __init__(self, layout: Layout, shifters: ShifterSet,
                 pairs: Sequence[OverlapPair]) -> None:
        import numpy as np

        from ..geometry.kernels import get_kernel

        n = len(shifters)
        feature = np.array(shifters.feature_column(), dtype=np.int64)
        code = np.fromiter(map(SIDE_CODE.__getitem__,
                               shifters.side_column()),
                           dtype=np.int64, count=n)
        lx1, ly1, lx2, ly2 = rect_columns(layout.features)
        # Canonical key of every shifter: its feature's rect + side.
        keys = np.stack((lx1[feature], ly1[feature], lx2[feature],
                         ly2[feature], code), axis=1)
        srect = np.stack(rect_columns(shifters.rects), axis=1)

        first, second = shifters.feature_pair_ids()
        rows = np.concatenate((keys[first, :4], code[first, None],
                               srect[first], code[second, None],
                               srect[second]), axis=1)
        order = np.lexsort(rows[:, 3::-1].T)
        self.features = rows[order]
        self.feature_centers = (self.features[:, 0] + self.features[:, 2],
                                self.features[:, 1] + self.features[:, 3])

        cols = pair_columns(pairs)
        cx2, cy2 = get_kernel().region_center_arrays(shifters.rects,
                                                     cols[:, 0], cols[:, 1])
        # Orient every pair a < b by key and sort by (a, b): rank the
        # keys once.  Equal keys (duplicate features) share a rank, so
        # they neither swap nor reorder, as under a key comparison.
        by_key = np.lexsort(keys[:, ::-1].T)
        rank = np.empty(n, dtype=np.int64)
        rank[by_key] = np.cumsum(np.concatenate((
            [0], np.any(keys[by_key[1:]] != keys[by_key[:-1]], axis=1))))
        pa, pb = cols[:, 0], cols[:, 1]
        swap = rank[pb] < rank[pa]
        ka = np.where(swap, pb, pa)
        kb = np.where(swap, pa, pb)
        order = np.lexsort((rank[kb], rank[ka]))
        ka, kb = ka[order], kb[order]
        self.pairs = np.concatenate((keys[ka], keys[kb], cols[order, 2:]),
                                    axis=1)
        self.pair_centers = (cx2[order], cy2[order])

        self.feature_owners = np.zeros(len(self.features), dtype=np.int64)
        self.pair_owners = np.zeros(len(self.pairs), dtype=np.int64)

    def owned(self, owner: Bounds, ix: int, iy: int,
              captured: int) -> TileFrontEnd:
        """The :class:`TileFrontEnd` of one owner window, canonical."""
        fmask = _owns_points2(owner, *self.feature_centers)
        pmask = _owns_points2(owner, *self.pair_centers)
        self.feature_owners += fmask
        self.pair_owners += pmask
        return TileFrontEnd(ix=ix, iy=iy, features=self.features[fmask],
                            pairs=self.pairs[pmask], captured=captured)

    def check_partition(self) -> None:
        """Raise :class:`SpliceError` unless the windows passed to
        :meth:`owned` own every feature and every pair exactly once."""
        for counts, rows, name in (
                (self.feature_owners, self.features,
                 lambda r: f"critical feature {tuple(r[:4])}"),
                (self.pair_owners, self.pairs,
                 lambda r: f"pair {_key_text(r[:5])} / "
                           f"{_key_text(r[5:10])}")):
            bad = (counts != 1).nonzero()[0]
            if bad.size:
                k = int(bad[0])
                raise SpliceError(f"{name(rows[k].tolist())} owned by "
                                  f"{int(counts[k])} tiles")


class FrontEndSlicer:
    """Cuts one chip front end into tile-local front ends.

    A tile's slice is the shifters of its features — renumbered in
    chip order, with tile-local feature indices — and the overlap pairs
    with both shifters inside, renumbered.  It equals
    :func:`generate_shifters` + :func:`find_overlap_pairs` on the
    tile's sub-layout byte for byte: the partition appends each tile's
    features in chip order, generation is per feature, and Condition-2
    pairing is pairwise.
    """

    def __init__(self, shifters: ShifterSet,
                 pairs: Sequence[OverlapPair], num_features: int) -> None:
        import numpy as np

        self.shifters = shifters
        self.num_features = num_features
        self.feature = np.array(shifters.feature_column(), dtype=np.int64)
        self.pairs = pair_columns(pairs)

    def slice(self, feature_ids: Sequence[int]
              ) -> Tuple[ShifterSet, List[OverlapPair]]:
        """The front end of the sub-layout made of ``feature_ids``
        (ascending chip feature indices, in sub-layout order)."""
        import numpy as np

        local = np.full(self.num_features, -1, dtype=np.int64)
        local[np.asarray(feature_ids, dtype=np.int64)] = \
            np.arange(len(feature_ids), dtype=np.int64)
        tile_feature = local[self.feature]
        picked = np.flatnonzero(tile_feature >= 0)
        ids = picked.tolist()
        shifters = ShifterSet()
        shifters.extend_rows(list(zip(
            tile_feature[picked].tolist(),
            map(self.shifters.side_column().__getitem__, ids),
            map(self.shifters.rect_of, ids))))

        renumber = np.full(len(self.feature), -1, dtype=np.int64)
        renumber[picked] = np.arange(len(picked), dtype=np.int64)
        rows = self.pairs
        a = renumber[rows[:, 0]]
        b = renumber[rows[:, 1]]
        inside = (a >= 0) & (b >= 0)
        cols = np.concatenate((a[inside, None], b[inside, None],
                               rows[inside, 2:]), axis=1)
        pairs = PairList(map(OverlapPair, *cols.T.tolist()), columns=cols)
        return shifters, pairs


def _owns_points2(owner: Bounds, px2, py2):
    """Half-open ownership test over int64 columns of doubled points.

    ``2*lo <= p2 < 2*hi`` is ``lo <= p2 >> 1 < hi`` (floor shift), which
    keeps the open owner sides (``1 << 62``) from overflowing int64.
    """
    ox1, oy1, ox2, oy2 = owner
    hx = px2 >> 1
    hy = py2 >> 1
    return (ox1 <= hx) & (hx < ox2) & (oy1 <= hy) & (hy < oy2)


def splice_front_ends(layout: Layout,
                      fronts: Iterable[TileFrontEnd]
                      ) -> Tuple[ShifterSet, List[OverlapPair]]:
    """Reassemble the chip-global front end from per-tile artifacts.

    Pure bookkeeping — no geometry is recomputed.  Owned features are
    ordered by their index in ``layout.features`` and handed dense
    shifter ids side by side, reproducing the monolithic numbering
    exactly; owned pairs are mapped from canonical keys to those ids
    and sorted by id pair, reproducing the monolithic
    :func:`~repro.shifters.overlap.find_overlap_pairs` order.

    Raises:
        SpliceError: on duplicate feature rects, a feature owned by two
            tiles (a partition bug), or an artifact naming geometry the
            layout does not contain (a stale cache entry).
    """
    import numpy as np

    fronts = list(fronts)  # iterated twice; accept generators safely
    rect_index = {}
    for i, r in enumerate(layout.features):
        t = (r.x1, r.y1, r.x2, r.y2)
        if t in rect_index:
            raise SpliceError(
                f"duplicate feature rect {t} defeats coordinate keys")
        rect_index[t] = i

    rows = np.concatenate([np.empty((0, 14), dtype=np.int64)]
                          + [tf.features for tf in fronts])
    found = [rect_index.get(t, -1) for t in map(tuple,
                                                 rows[:, :4].tolist())]
    if -1 in found:
        k = found.index(-1)
        tile = fronts[np.searchsorted(
            np.cumsum([len(tf.features) for tf in fronts]), k,
            side="right")]
        raise SpliceError(
            f"tile[{tile.ix},{tile.iy}] owns unknown feature "
            f"{tuple(rows[k, :4].tolist())} (stale artifact?)")
    index = np.array(found, dtype=np.int64)
    order = np.argsort(index, kind="stable")
    index = index[order]
    rows = rows[order]
    twice = np.flatnonzero(index[1:] == index[:-1])
    if twice.size:
        raise SpliceError(f"feature {int(index[twice[0]])} owned by two "
                          "tiles")

    # Shifter 2k and 2k+1 flank the k-th feature in layout order.
    shifter_rows = rows[:, 4:].reshape(-1, 5)
    sides = list(map(SIDES.__getitem__, shifter_rows[:, 0].tolist()))
    shifters = ShifterSet()
    shifters.extend_rows(list(zip(
        np.repeat(index, 2).tolist(), sides,
        map(Rect, *shifter_rows[:, 1:].T.tolist()))))
    key_rows = np.concatenate(
        (np.repeat(rows[:, :4], 2, axis=0), shifter_rows[:, :1]), axis=1)
    key_to_id = {key: sid for sid, key
                 in enumerate(map(tuple, key_rows.tolist()))}

    pair_rows = np.concatenate([np.empty((0, 13), dtype=np.int64)]
                               + [tf.pairs for tf in fronts]).tolist()
    ends: List[Tuple[int, int, int, int, int]] = []
    for row in pair_rows:
        ga = key_to_id.get(tuple(row[:5]))
        gb = key_to_id.get(tuple(row[5:10]))
        if ga is None or gb is None:
            raise SpliceError(
                f"pair {_key_text(row[:5])} / {_key_text(row[5:10])} "
                "names an unowned shifter")
        ends.append((ga, gb, *row[10:]) if ga < gb
                    else (gb, ga, *row[10:]))
    ends.sort()
    return shifters, PairList(OverlapPair(a=a, b=b, separation_sq=sep,
                                          x_gap=xg, y_gap=yg)
                              for a, b, sep, xg, yg in ends)


def _key_text(key: Sequence[int]) -> str:
    """A 5-column key row as the :data:`ShifterKey` it encodes."""
    return repr((tuple(key[:4]), SIDES[key[4]]))


def tiled_front_end(layout: Layout, tech: Technology,
                    tiles: Sequence, store: ArtifactCache
                    ) -> Tuple[ShifterSet, List[OverlapPair]]:
    """The chip front end via per-tile artifacts, cached when possible.

    Every tile's artifact is looked up first, and the path follows from
    what the store shows:

    * **no tile replays** (every cold revision, including the verify
      pass after real cuts): shifters and overlap pairs are generated
      once, chip-wide, and each tile's :class:`TileFrontEnd` is cut out
      of that pass by the same ownership routine
      :func:`compute_tile_front_end` uses, then stored.  The chip pass
      *is* the returned front end, so nothing is spliced; the owner
      windows must still cover every critical feature and every pair
      exactly once, else :class:`SpliceError`.
    * **some tile replays**: only the missing tiles are generated, each
      on its own sub-layout, and every tile's artifact is spliced
      (:func:`splice_front_ends`).

    When the splice or the partition check raises :class:`SpliceError`
    (a duplicate feature rect, or a stale or foreign artifact), the
    chip-wide pass is the answer, run here unless this call already
    ran it.  The recovery is never silent: it counts
    ``frontend.monolithic_fallbacks`` and logs one
    ``frontend.monolithic_fallback`` warning carrying the error text.
    Every chip-wide pass, cold or recovering, counts
    ``frontend.chip_wide_passes``; this function never raises
    :class:`SpliceError`.

    Every path returns the same bytes as the monolithic pass, and every
    tile gets one ``frontend-tile`` span.  The store counts this call's
    work under the ``frontend`` kind — one hit per replayed tile, one
    miss per generated tile (read it with
    :func:`repro.cache.cache_delta`).

    Args:
        layout: the chip layout the tiles were partitioned from.
        tech: rule deck.
        tiles: the partition's tiles (duck-typed: ``ix``, ``iy``,
            ``layout``, ``owner``, ``digest`` — e.g.
            :class:`repro.chip.partition.Tile`).
        store: the unified artifact store; per-tile front ends are
            content-addressed under the ``frontend`` kind.  A fresh
            store makes this a cold revision.

    Returns:
        ``(shifters, pairs)`` — the chip-global front end,
        byte-identical to the monolithic pass.
    """
    tracer = get_tracer()
    keys = [frontend_cache_key(tile.digest, tile.owner, tech)
            for tile in tiles]
    fronts: List[Optional[TileFrontEnd]] = [
        store.get(KIND_FRONTEND, key) for key in keys]

    chip: Optional[_FrontColumns] = None
    if all(front is None for front in fronts):
        shifters, pairs = _chip_wide_pass(layout, tech)
        chip = _FrontColumns(layout, shifters, pairs)

    for i, tile in enumerate(tiles):
        with tracer.span("tile", cat="frontend-tile",
                         tile=[tile.ix, tile.iy]) as span:
            if fronts[i] is not None:
                span.set(cached=True)
                continue
            if chip is not None:
                front = chip.owned(tile.owner, tile.ix, tile.iy,
                                   tile.layout.num_polygons)
            else:
                front = compute_tile_front_end(tile.layout, tile.owner,
                                               tech, ix=tile.ix,
                                               iy=tile.iy)
            fronts[i] = front
            store.put(KIND_FRONTEND, keys[i], front)
            span.set(cached=False)
    try:
        if chip is not None:
            chip.check_partition()
        else:
            shifters, pairs = splice_front_ends(layout, fronts)
    except SpliceError as exc:
        tracer.count("frontend.monolithic_fallbacks")
        get_logger("shifters").warning(
            "frontend.monolithic_fallback", design=layout.name,
            error=str(exc))
        if chip is None:
            shifters, pairs = _chip_wide_pass(layout, tech)
    return shifters, pairs


def _chip_wide_pass(layout: Layout, tech: Technology
                    ) -> Tuple[ShifterSet, List[OverlapPair]]:
    """The monolithic front end, counted as one chip-wide pass."""
    get_tracer().count("frontend.chip_wide_passes")
    shifters = generate_shifters(layout, tech)
    return shifters, find_overlap_pairs(shifters, tech)
