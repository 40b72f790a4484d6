"""Stitch per-tile detection results into one chip-level report.

Tiles overlap through their halos, so several tiles usually see — and
report — the same conflict cluster.  Worse, the detection optimiser is
free to break ties differently in different views: two tiles can cut
the *same odd cycle* at different (equally optimal) shifter pairs.
Naive per-conflict deduplication would then double-count or drop such
clusters at tile boundaries.

The stitcher therefore arbitrates at the granularity the optimiser
actually works at — the conflict *cluster*:

1. Union-find all reported conflicts by shared feature rectangles,
   plus each conflict's cycle-scale feature *witness set* — so two
   tiles that cut the same cycle at feature-disjoint pairs still
   merge (their halo-overlapping views of the cycle share features
   even when their chosen cuts do not).
2. For each cluster, find its canonical anchor (the smallest conflict
   anchor point) and hand the whole cluster to the tile that *owns*
   that anchor; that tile saw the cluster's full neighbourhood, so its
   cut set is internally consistent and optimal for the cluster.
   (If the owning tile reported nothing there — possible only for
   clusters wider than the halo — the tile that reported the anchor
   conflict is used instead.)
3. Keep exactly the chosen tile's conflicts for the cluster; every
   other tile's view of it is dropped as a boundary duplicate.

Clustering and arbitration run in full on every pass: both are cheap,
deterministic bookkeeping over tile results the store already caches.

The surviving canonical conflicts are translated back into the
chip-global shifter numbering, so the stitched
:class:`~repro.conflict.DetectionReport` speaks the exact same language
as the monolithic ``detect_conflicts`` and the correction / phase
stages consume it unchanged.

Aggregate semantics: ownership-filtered quantities (critical, shifter,
overlap-pair, uncorrectable-feature counts) reproduce the monolithic
totals exactly.  Graph-shape numbers (nodes, edges, crossings,
step-2/3 counts) are summed over tiles and so count halo-duplicated
structure more than once; they report work done, not chip-graph sizes.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field, replace
from typing import Dict, List, Tuple

from ..conflict import Conflict, DetectionReport
from ..geometry.rect import rect_columns
from ..layout import Layout
from ..obs import get_tracer
from ..shifters import SIDE_CODE, ShifterSet
from .executor import CanonicalConflict, ShifterKey, TileResult
from .partition import TileGrid

@dataclass
class StitchCluster:
    """One connected group of cross-tile canonical conflict views."""

    members: List[Tuple[int, CanonicalConflict]]  # (flat tile, view)
    flats: Tuple[int, ...]                        # contributing tiles


@dataclass
class StitchStats:
    """Bookkeeping the chip report exposes alongside the detection."""

    clusters: int = 0
    boundary_duplicates_dropped: int = 0
    tile_seconds: float = 0.0
    unmapped_conflicts: List[Tuple[ShifterKey, ShifterKey]] = \
        field(default_factory=list)


class _UnionFind:
    def __init__(self) -> None:
        self.parent: Dict = {}

    def find(self, x):
        parent = self.parent
        root = parent.setdefault(x, x)
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, a, b) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def build_stitch_clusters(grid: TileGrid, results: List[TileResult]
                          ) -> List[StitchCluster]:
    """Group every reported conflict view into boundary stitch clusters.

    Pure bookkeeping over already-computed tile results (union-find by
    shared features and cycle-scale witnesses).  Clusters come back in
    deterministic order (smallest anchor first).
    """
    uf = _UnionFind()
    instances: List[Tuple[int, CanonicalConflict]] = []
    for result in results:
        flat = result.iy * grid.nx + result.ix
        for cc in result.conflicts:
            instances.append((flat, cc))
            uf.union(cc.a[0], cc.b[0])
            # Cycle-scale witness features: two tiles that cut the
            # same cycle at feature-disjoint pairs still merge,
            # because their views of the cycle share features.
            for rect in cc.witness:
                uf.union(cc.a[0], rect)

    grouped: Dict[object, List[Tuple[int, CanonicalConflict]]] = \
        defaultdict(list)
    for flat, cc in instances:
        grouped[uf.find(cc.a[0])].append((flat, cc))

    clusters: List[StitchCluster] = []
    for _, members in sorted(
            grouped.items(),
            key=lambda item: min(cc.ref2 for _, cc in item[1])):
        clusters.append(StitchCluster(
            members=members,
            flats=tuple(sorted({flat for flat, _ in members}))))
    return clusters


def _arbitrate_cluster(grid: TileGrid,
                       members: List[Tuple[int, CanonicalConflict]]
                       ) -> Tuple[List[CanonicalConflict], int]:
    """Pick one coherent tile view for a single cluster.

    Returns the chosen tile's deduplicated conflicts, witness sets
    stripped (they only matter for cluster formation), and how many
    other views were dropped as boundary duplicates.
    """
    anchor_flat, anchor_cc = min(
        members, key=lambda m: (m[1].ref2, m[1].key, m[0]))
    owner = grid.owner_index_of_point2(*anchor_cc.ref2)
    by_tile: Dict[int, List[CanonicalConflict]] = defaultdict(list)
    for flat, cc in members:
        by_tile[flat].append(cc)
    chosen = owner if owner in by_tile else anchor_flat
    seen = set()
    survivors: List[CanonicalConflict] = []
    for cc in sorted(by_tile[chosen], key=lambda c: (c.ref2, c.key)):
        if cc.key not in seen:
            seen.add(cc.key)
            survivors.append(replace(cc, witness=()))
    return survivors, len(members) - len(seen)


def arbitrate_clusters(grid: TileGrid, results: List[TileResult]
                       ) -> Tuple[List[CanonicalConflict], StitchStats]:
    """Arbitrate every stitch cluster of one detection pass.

    Args:
        grid: the partition the results came from.
        results: per-tile detection results (halo views included).

    Returns:
        ``(surviving conflicts, stats)``, the survivors cluster by
        cluster in cluster order.
    """
    tracer = get_tracer()
    clusters = build_stitch_clusters(grid, results)
    stats = StitchStats(clusters=len(clusters))
    survivors: List[CanonicalConflict] = []
    for index, cluster in enumerate(clusters):
        with tracer.span("cluster", cat="stitch-cluster", cluster=index,
                         tiles=len(cluster.flats)) as span:
            chosen, dropped = _arbitrate_cluster(grid, cluster.members)
            span.set(conflicts=len(chosen))
        survivors.extend(chosen)
        stats.boundary_duplicates_dropped += dropped
    return survivors, stats


def stitch_results(layout: Layout, kind: str,
                   grid: TileGrid, results: List[TileResult],
                   shifters: ShifterSet
                   ) -> Tuple[DetectionReport, StitchStats]:
    """Merge tile results into a chip-level :class:`DetectionReport`.

    ``shifters`` is the layout's chip-global shifter set (the
    revision's front end), whose dense ids — the ones the monolithic
    flow assigns — the report speaks.
    """
    import numpy as np

    # A key maps to its feature through one map over the feature
    # columns' rows, and to its shifter through the set's columns: no
    # Rect, Shifter or per-shifter key is built.
    rect_to_feature = dict(zip(
        zip(*(c.tolist() for c in rect_columns(layout.features))),
        range(layout.num_polygons)))

    report = DetectionReport(
        layout_name=layout.name,
        graph_kind=kind,
        num_features=layout.num_polygons,
        num_critical=shifters.num_critical(),
        num_shifters=len(shifters),
        num_overlap_pairs=sum(r.owned_pairs for r in results),
        graph_nodes=sum(r.report.graph_nodes for r in results),
        graph_edges=sum(r.report.graph_edges for r in results),
        crossings_removed=sum(r.report.crossings_removed for r in results),
        step2_edges=sum(r.report.step2_edges for r in results),
        step3_edges=sum(r.report.step3_edges for r in results),
        step2_weight=sum(r.report.step2_weight for r in results),
        phase_assignable=all(r.report.phase_assignable for r in results),
    )
    report.removed_weight = sum(r.report.removed_weight for r in results)

    survivors, stats = arbitrate_clusters(grid, results)
    stats.tile_seconds = sum(r.seconds for r in results)

    plain: List[Conflict] = []
    tshape: List[Conflict] = []
    ends = shifters.ids_of(
        np.array([rect_to_feature.get(rect, -1) for cc in survivors
                  for rect, _side in (cc.a, cc.b)], dtype=np.int64),
        np.array([SIDE_CODE[side] for cc in survivors
                  for _rect, side in (cc.a, cc.b)], dtype=np.int64)
    ).reshape(-1, 2).tolist()
    for cc, (ga, gb) in zip(survivors, ends):
        if ga < 0 or gb < 0:
            # A cached result from a stale layout revision can name
            # geometry that no longer exists; surface it instead of
            # crashing or silently dropping.
            stats.unmapped_conflicts.append(cc.key)
            continue
        a, b = min(ga, gb), max(ga, gb)
        (tshape if cc.tshape else plain).append(
            Conflict(a=a, b=b, weight=cc.weight))

    report.conflicts = sorted(plain, key=lambda c: c.key)
    report.tshape_conflicts = sorted(tshape, key=lambda c: c.key)

    uncorrectable = set()
    tshape_feats = set()
    for result in results:
        for rect in result.owned_uncorrectable:
            fi = rect_to_feature.get(rect)
            if fi is not None:
                uncorrectable.add(fi)
        for rect in result.owned_tshape_features:
            fi = rect_to_feature.get(rect)
            if fi is not None:
                tshape_feats.add(fi)
    report.uncorrectable_features = sorted(uncorrectable)
    report.tshape_features = sorted(tshape_feats)
    report.detect_seconds = stats.tile_seconds
    return report, stats
