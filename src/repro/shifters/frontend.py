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
from ..geometry.rect import rect_columns
from ..layout import Layout, Technology, tech_fingerprint
from ..obs import get_logger, get_tracer
from . import generation, overlap
from .overlap import OverlapPair, PairList, pair_columns
from .shifter import SIDES, ShifterSet

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
    shifters = generation.generate_shifters(layout, tech)
    pairs = overlap.find_overlap_pairs(shifters, tech)
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

        feature = shifters.feature_column()
        code = shifters.code_column()
        box = shifters.box
        lx1, ly1, lx2, ly2 = rect_columns(layout.features)
        first, second = shifters.feature_pair_ids()
        # Critical features by rect (stable: equal rects keep feature
        # order), each with its two shifters.
        f = feature[first]
        by_rect = np.lexsort((ly2[f], lx2[f], ly1[f], lx1[f]))
        f, a, b = f[by_rect], first[by_rect], second[by_rect]
        self.features = np.stack((lx1[f], ly1[f], lx2[f], ly2[f],
                                  code[a], *box[:, a], code[b], *box[:, b]),
                                 axis=1)
        self.feature_centers = (self.features[:, 0] + self.features[:, 2],
                                self.features[:, 1] + self.features[:, 3])

        # A shifter's canonical key is its feature's rect + side, so its
        # rank among the keys is its feature's rect rank, then its side
        # code.  Equal rects (duplicate features) share a rank, so their
        # shifters' keys tie, as under a key comparison.
        rect_rank = np.cumsum(np.concatenate((
            [0], (self.features[1:, :4] != self.features[:-1, :4])
            .any(axis=1))))
        rank = np.empty(len(shifters), dtype=np.int64)
        rank[a] = 4 * rect_rank + code[a]
        rank[b] = 4 * rect_rank + code[b]

        # Orient every pair a < b by key and sort by (a, b), stably.
        cols = pair_columns(pairs)
        cx2, cy2 = get_kernel().region_center_arrays(
            *shifters.box, cols[:, 0], cols[:, 1])
        pa, pb = cols[:, 0], cols[:, 1]
        swap = rank[pb] < rank[pa]
        ka = np.where(swap, pb, pa)
        kb = np.where(swap, pa, pb)
        order = np.argsort(rank[ka] * (4 * len(f)) + rank[kb],
                           kind="stable")
        ka, kb = ka[order], kb[order]
        fa, fb = feature[ka], feature[kb]
        self.pairs = np.concatenate((
            np.stack((lx1[fa], ly1[fa], lx2[fa], ly2[fa], code[ka],
                      lx1[fb], ly1[fb], lx2[fb], ly2[fb], code[kb]),
                     axis=1), cols[order, 2:]), axis=1)
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
    with both shifters inside, renumbered: column slices of the chip's
    shifter and pair columns.  It equals :func:`generate_shifters` +
    :func:`find_overlap_pairs` on the tile's sub-layout byte for byte:
    the partition appends each tile's features in chip order,
    generation is per feature, and Condition-2 pairing is pairwise.
    """

    def __init__(self, shifters: ShifterSet,
                 pairs: Sequence[OverlapPair], num_features: int) -> None:
        self.shifters = shifters
        self.num_features = num_features
        self.pairs = pair_columns(pairs)

    def slice(self, feature_ids: Sequence[int]
              ) -> Tuple[ShifterSet, PairList]:
        """The front end of the sub-layout made of ``feature_ids``
        (ascending chip feature indices, in sub-layout order)."""
        import numpy as np

        chip = self.shifters
        local = np.full(self.num_features, -1, dtype=np.int64)
        local[np.asarray(feature_ids, dtype=np.int64)] = \
            np.arange(len(feature_ids), dtype=np.int64)
        tile_feature = local[chip.feature_column()]
        picked = np.flatnonzero(tile_feature >= 0)
        shifters = ShifterSet(tile_feature[picked],
                              chip.code_column()[picked],
                              chip.box[:, picked])

        renumber = np.full(len(chip), -1, dtype=np.int64)
        renumber[picked] = np.arange(len(picked), dtype=np.int64)
        rows = self.pairs
        ab = renumber[rows[:, :2]]
        inside = (ab >= 0).all(axis=1)
        cols = np.concatenate((ab[inside], rows[inside, 2:]), axis=1)
        return shifters, PairList(cols)


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
                      ) -> Tuple[ShifterSet, PairList]:
    """Reassemble the chip-global front end from per-tile artifacts.

    Pure bookkeeping — no geometry is recomputed.  Owned features are
    ordered by their index in ``layout.features`` and handed dense
    shifter ids side by side, reproducing the monolithic numbering
    exactly; owned pairs are mapped from canonical keys to those ids
    and sorted by id pair, reproducing the monolithic
    :func:`~repro.shifters.overlap.find_overlap_pairs` order.  Keys are
    matched as int64 rows (:func:`_match_rows`), and the set and the
    pair list are built from the matched columns.

    Raises:
        SpliceError: on duplicate feature rects, a feature owned by two
            tiles (a partition bug), or an artifact naming geometry the
            layout does not contain (a stale cache entry).
    """
    import numpy as np

    fronts = list(fronts)  # iterated twice; accept generators safely
    layout_rows = np.stack(rect_columns(layout.features), axis=1)
    by_rect = np.lexsort(layout_rows.T[::-1])
    ranked = layout_rows[by_rect]
    repeat = np.flatnonzero((ranked[1:] == ranked[:-1]).all(axis=1))
    if repeat.size:
        # The first feature, in layout order, whose rect came before.
        i = int(by_rect[repeat + 1].min())
        raise SpliceError(f"duplicate feature rect "
                          f"{tuple(layout_rows[i].tolist())} defeats "
                          "coordinate keys")

    rows = np.concatenate([np.empty((0, 14), dtype=np.int64)]
                          + [tf.features for tf in fronts])
    index = _match_rows(layout_rows, rows[:, :4])
    unknown = np.flatnonzero(index < 0)
    if unknown.size:
        k = int(unknown[0])
        tile = fronts[np.searchsorted(
            np.cumsum([len(tf.features) for tf in fronts]), k,
            side="right")]
        raise SpliceError(
            f"tile[{tile.ix},{tile.iy}] owns unknown feature "
            f"{tuple(rows[k, :4].tolist())} (stale artifact?)")
    order = np.argsort(index, kind="stable")
    index = index[order]
    rows = rows[order]
    twice = np.flatnonzero(index[1:] == index[:-1])
    if twice.size:
        raise SpliceError(f"feature {int(index[twice[0]])} owned by two "
                          "tiles")

    # Shifter 2k and 2k+1 flank the k-th feature in layout order.
    shifter_rows = rows[:, 4:].reshape(-1, 5)
    shifters = ShifterSet(np.repeat(index, 2), shifter_rows[:, 0].copy(),
                          np.ascontiguousarray(shifter_rows[:, 1:].T))
    key_rows = np.concatenate(
        (np.repeat(rows[:, :4], 2, axis=0), shifter_rows[:, :1]), axis=1)

    pair_rows = np.concatenate([np.empty((0, 13), dtype=np.int64)]
                               + [tf.pairs for tf in fronts])
    ends = _match_rows(key_rows, np.concatenate(
        (pair_rows[:, :5], pair_rows[:, 5:10]))).reshape(2, -1).T
    missing = np.flatnonzero((ends < 0).any(axis=1))
    if missing.size:
        row = pair_rows[missing[0]].tolist()
        raise SpliceError(
            f"pair {_key_text(row[:5])} / {_key_text(row[5:10])} "
            "names an unowned shifter")
    ends.sort(axis=1)
    cols = np.concatenate((ends, pair_rows[:, 10:]), axis=1)
    return shifters, PairList(cols[np.lexsort(cols.T[::-1])])


def _match_rows(table, queries):
    """For each int64 row of ``queries``, the index of the equal row of
    ``table`` (whose rows are distinct), or -1: one lexsort of both."""
    import numpy as np

    both = np.concatenate((table, queries))
    if not len(both):
        return np.empty(0, dtype=np.int64)
    order = np.lexsort(both.T[::-1])
    ranked = both[order]
    group = np.cumsum(np.concatenate((
        [0], (ranked[1:] != ranked[:-1]).any(axis=1))))
    own = order < len(table)
    found = np.full(len(both), -1, dtype=np.int64)
    found[group[own]] = order[own]
    out = np.empty(len(both), dtype=np.int64)
    out[order] = found[group]
    return out[len(table):]


def _key_text(key: Sequence[int]) -> str:
    """A 5-column key row as the :data:`ShifterKey` it encodes."""
    return repr((tuple(key[:4]), SIDES[key[4]]))


def tiled_front_end(layout: Layout, tech: Technology,
                    tiles: Sequence, store: ArtifactCache
                    ) -> Tuple[ShifterSet, PairList]:
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
                    ) -> Tuple[ShifterSet, PairList]:
    """The monolithic front end, counted as one chip-wide pass."""
    get_tracer().count("frontend.chip_wide_passes")
    shifters = generation.generate_shifters(layout, tech)
    return shifters, overlap.find_overlap_pairs(shifters, tech)
