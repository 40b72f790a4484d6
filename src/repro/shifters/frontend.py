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

Everything is keyed by *coordinate-anchored ids* — ``(feature rect,
side)`` tuples — never by dense shifter numbers, so a cached tile
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
depends on — rule deck, owner window, captured geometry — so a warm
ECO run regenerates shifters only for the tiles an edit dirtied and
replays every clean tile's front end from the store.  A revision with
nothing to replay (every cold one) skips the per-tile work: one
chip-wide pass, cut into the tile artifacts by the same ownership
routine (:func:`tiled_front_end`).  :class:`FrontEndSlicer` cuts a
chip front end the other way, into each tile's full sub-layout front
end, which the chip flow hands its detection jobs.

This module deliberately does **not** import :mod:`repro.chip`
(which imports :mod:`repro.shifters`); tiles are duck-typed as
anything carrying ``ix``/``iy``/``layout``/``owner``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..cache import KIND_FRONTEND, ArtifactCache
from ..geometry import Rect
from ..layout import Layout, Technology, tech_fingerprint
from ..obs import get_logger, get_tracer
from .generation import generate_shifters
from .overlap import OverlapPair, find_overlap_pairs
from .shifter import ShifterSet

# A feature/shifter rectangle as a plain hashable tuple.
RectTuple = Tuple[int, int, int, int]

# Canonical, renumbering-stable shifter identity: the guarded feature's
# rect in absolute chip coordinates plus which side the shifter sits on.
ShifterKey = Tuple[RectTuple, str]

# Owner-region bounds, as produced by repro.chip.partition.
Bounds = Tuple[int, int, int, int]

# Bump when the TileFrontEnd shape changes so stale cache directories
# self-invalidate instead of unpickling garbage.
FRONTEND_CACHE_FORMAT = 1


class SpliceError(ValueError):
    """Per-tile front ends cannot be reassembled for this layout.

    Raised when the layout contains duplicate feature rectangles (the
    coordinate-anchored keys would collide) or when an artifact names
    geometry absent from the layout (a stale or foreign cache entry).
    :func:`tiled_front_end` recovers with its chip-wide pass.
    """


@dataclass(frozen=True)
class FrontFeature:
    """One owned critical feature and its two flanking shifters.

    Attributes:
        rect: the feature rectangle (absolute chip coordinates).
        shifters: the two ``(side, shifter rect)`` entries in the
            deterministic generation order (left/right for vertical
            features, bottom/top for horizontal ones) — the order the
            monolithic pass numbers them in.
    """

    rect: RectTuple
    shifters: Tuple[Tuple[str, RectTuple], Tuple[str, RectTuple]]


@dataclass(frozen=True)
class FrontPair:
    """One owned Condition-2 pair in coordinate-anchored identity.

    ``a < b`` by canonical key; the measurements are symmetric pure
    functions of the two shifter rects, so they are identical no matter
    which tile computed them.
    """

    a: ShifterKey
    b: ShifterKey
    separation_sq: int
    x_gap: int
    y_gap: int


@dataclass(frozen=True)
class TileFrontEnd:
    """One tile's contribution to the chip front end.

    Content is canonical: features sorted by rect, pairs sorted by key,
    independent of the sub-layout's internal feature order — so the
    artifact a tile produces is identical across runs, processes, and
    unrelated renumbering edits elsewhere on the chip.
    """

    ix: int
    iy: int
    features: Tuple[FrontFeature, ...] = ()
    pairs: Tuple[FrontPair, ...] = ()
    captured: int = 0

    @property
    def num_owned_features(self) -> int:
        return len(self.features)

    @property
    def num_owned_pairs(self) -> int:
        return len(self.pairs)


def _rect_tuple(rect: Rect) -> RectTuple:
    return (rect.x1, rect.y1, rect.x2, rect.y2)


def frontend_cache_key(layout: Layout, owner: Bounds,
                       tech: Technology) -> str:
    """Stable hex digest of everything a tile front end depends on.

    Hashes the format version, the rule deck, the owner window, and the
    sorted multiset of captured feature rects — and nothing else.  In
    particular the graph kind/bipartization method are *not* inputs
    (the front end is pure geometry), so one cached front end serves
    every downstream configuration, and global shifter numbering never
    enters the key, so edits elsewhere on the chip cannot invalidate a
    clean tile.
    """
    h = hashlib.sha256()
    h.update(f"frontend:{FRONTEND_CACHE_FORMAT}".encode())
    h.update(tech_fingerprint(tech))
    h.update(f"owner:{owner}".encode())
    for rect in sorted(_rect_tuple(r) for r in layout.features):
        h.update(repr(rect).encode())
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
    return _FrontIndex(layout, shifters, pairs).owned(
        owner, ix, iy, layout.num_polygons)


class _FrontIndex:
    """Ownership and canonicalisation over one computed front end.

    Takes a front end computed over any layout that captures the tiles
    asked about: a tile's own sub-layout, or the whole chip.  Feature
    centres, pair region centres and canonical shifter keys are
    computed once here; :meth:`owned` then cuts out one owner window's
    :class:`TileFrontEnd`, and :meth:`check_partition` confirms the
    windows asked about covered every feature and pair exactly once.
    """

    def __init__(self, layout: Layout, shifters: ShifterSet,
                 pairs: Sequence[OverlapPair]) -> None:
        import numpy as np

        from ..geometry.kernels import get_kernel

        feats = layout.features
        self.pairs = pairs
        self.feature_pairs = shifters.feature_pairs()
        fc = np.array([feats[sa.feature_index].center2
                       for sa, _sb in self.feature_pairs],
                      dtype=np.int64).reshape(-1, 2)
        pc = np.array(get_kernel().region_centers2(
            shifters.rects, [p.key for p in pairs]),
            dtype=np.int64).reshape(-1, 2)
        self.feature_centers = (fc[:, 0], fc[:, 1])
        self.pair_centers = (pc[:, 0], pc[:, 1])
        self.feature_owners = np.zeros(len(fc), dtype=np.int64)
        self.pair_owners = np.zeros(len(pc), dtype=np.int64)
        # Canonical key of every shifter, read off the shifter columns
        # once (a per-pair Shifter + feature-rect double lookup was
        # ~244K calls chip-wide on D8).
        feat_rect: Dict[int, RectTuple] = {}
        self.skeys: List[ShifterKey] = []
        for fi, side in zip(shifters.feature_column(),
                            shifters.side_column()):
            rt = feat_rect.get(fi)
            if rt is None:
                rt = _rect_tuple(feats[fi])
                feat_rect[fi] = rt
            self.skeys.append((rt, side))
        self.feat_rect = feat_rect

    def owned(self, owner: Bounds, ix: int, iy: int,
              captured: int) -> TileFrontEnd:
        """The :class:`TileFrontEnd` of one owner window, canonical."""
        import numpy as np

        fidx = np.flatnonzero(_owns_points2(owner, *self.feature_centers))
        pidx = np.flatnonzero(_owns_points2(owner, *self.pair_centers))
        self.feature_owners[fidx] += 1
        self.pair_owners[pidx] += 1

        features: List[FrontFeature] = []
        for k in fidx.tolist():
            sa, sb = self.feature_pairs[k]
            features.append(FrontFeature(
                rect=self.feat_rect[sa.feature_index],
                shifters=((sa.side, _rect_tuple(sa.rect)),
                          (sb.side, _rect_tuple(sb.rect)))))
        skeys = self.skeys
        owned_pairs: List[FrontPair] = []
        for k in pidx.tolist():
            p = self.pairs[k]
            ka = skeys[p.a]
            kb = skeys[p.b]
            if kb < ka:
                ka, kb = kb, ka
            owned_pairs.append(FrontPair(
                a=ka, b=kb, separation_sq=p.separation_sq,
                x_gap=p.x_gap, y_gap=p.y_gap))

        features.sort(key=lambda f: f.rect)
        owned_pairs.sort(key=lambda p: (p.a, p.b))
        return TileFrontEnd(ix=ix, iy=iy, features=tuple(features),
                            pairs=tuple(owned_pairs), captured=captured)

    def check_partition(self) -> None:
        """Raise :class:`SpliceError` unless the windows passed to
        :meth:`owned` own every feature and every pair exactly once."""
        for what, counts in (("feature", self.feature_owners),
                             ("pair", self.pair_owners)):
            bad = (counts != 1).nonzero()[0]
            if bad.size:
                k = int(bad[0])
                raise SpliceError(
                    f"critical {what} {k} owned by {int(counts[k])} "
                    "tiles")


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
        self.pairs = pairs
        self.num_features = num_features
        self.feature = np.array(shifters.feature_column(), dtype=np.int64)
        ab = np.array([p.key for p in pairs], dtype=np.int64).reshape(-1, 2)
        self.pair_a = ab[:, 0]
        self.pair_b = ab[:, 1]

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
        side = self.shifters.side_column()
        rect_of = self.shifters.rect_of
        shifters = ShifterSet()
        shifters.extend_rows([
            (fi, side[sid], rect_of(sid))
            for sid, fi in zip(picked.tolist(),
                               tile_feature[picked].tolist())])

        renumber = np.full(len(self.feature), -1, dtype=np.int64)
        renumber[picked] = np.arange(len(picked), dtype=np.int64)
        a = renumber[self.pair_a]
        b = renumber[self.pair_b]
        inside = np.flatnonzero((a >= 0) & (b >= 0))
        chip_pairs = self.pairs
        pairs = []
        for k, pa, pb in zip(inside.tolist(), a[inside].tolist(),
                             b[inside].tolist()):
            p = chip_pairs[k]
            pairs.append(OverlapPair(a=pa, b=pb,
                                     separation_sq=p.separation_sq,
                                     x_gap=p.x_gap, y_gap=p.y_gap))
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
    fronts = list(fronts)  # iterated twice; accept generators safely
    rect_index = {}
    for i, r in enumerate(layout.features):
        t = (r.x1, r.y1, r.x2, r.y2)
        if t in rect_index:
            raise SpliceError(
                f"duplicate feature rect {t} defeats coordinate keys")
        rect_index[t] = i

    entries: List[Tuple[int, FrontFeature]] = []
    for tf in fronts:
        for ff in tf.features:
            fi = rect_index.get(ff.rect)
            if fi is None:
                raise SpliceError(
                    f"tile[{tf.ix},{tf.iy}] owns unknown feature "
                    f"{ff.rect} (stale artifact?)")
            entries.append((fi, ff))
    entries.sort(key=lambda e: e[0])

    rows: List[Tuple[int, str, Rect]] = []
    keys: List[ShifterKey] = []
    previous = -1
    for fi, ff in entries:
        if fi == previous:
            raise SpliceError(f"feature {fi} owned by two tiles")
        previous = fi
        for side, rt in ff.shifters:
            rows.append((fi, side, Rect(*rt)))
            keys.append((ff.rect, side))
    shifters = ShifterSet()
    key_to_id = dict(zip(keys, shifters.extend_rows(rows)))

    pairs: List[OverlapPair] = []
    for tf in fronts:
        for fp in tf.pairs:
            ga = key_to_id.get(fp.a)
            gb = key_to_id.get(fp.b)
            if ga is None or gb is None:
                raise SpliceError(
                    f"pair {fp.a} / {fp.b} names an unowned shifter")
            a, b = (ga, gb) if ga < gb else (gb, ga)
            pairs.append(OverlapPair(
                a=a, b=b, separation_sq=fp.separation_sq,
                x_gap=fp.x_gap, y_gap=fp.y_gap))
    pairs.sort(key=lambda p: p.key)
    return shifters, pairs


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
            ``layout``, ``owner`` — e.g.
            :class:`repro.chip.partition.Tile`).
        store: the unified artifact store; per-tile front ends are
            content-addressed under the ``frontend`` kind.  A fresh
            store makes this a cold revision.

    Returns:
        ``(shifters, pairs)`` — the chip-global front end,
        byte-identical to the monolithic pass.
    """
    tracer = get_tracer()
    keys = [frontend_cache_key(tile.layout, tile.owner, tech)
            for tile in tiles]
    fronts: List[Optional[TileFrontEnd]] = [
        store.get(KIND_FRONTEND, key) for key in keys]

    chip: Optional[_FrontIndex] = None
    if all(front is None for front in fronts):
        shifters, pairs = _chip_wide_pass(layout, tech)
        chip = _FrontIndex(layout, shifters, pairs)

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
