"""Per-tile detection work and the pluggable executors that run it.

The unit of work is :func:`detect_tile`: run the full conflict-detection
flow on one tile's haloed sub-layout, then translate everything the
stitcher needs out of tile-local shifter ids into *canonical geometric
keys* — ``(feature rect, side)`` tuples in absolute chip coordinates.
Canonical keys are stable across tiles (a shared feature produces
byte-identical shifter rects in every tile that captures it), across
runs, and across unrelated edits elsewhere on the chip, which is what
makes per-tile results cacheable and stitchable.

Executors are deliberately tiny: anything with a ``map(fn, jobs)``
method works.  The built-in backends — ``serial`` and ``process`` —
live in a small registry resolved by name
(:data:`EXECUTOR_BACKENDS` / :func:`make_executor`), which is also the
extension point for distributed backends: :func:`register_executor` a
factory whose product maps jobs over a cluster and the orchestrator,
pipeline, and CLI pick it up unchanged.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterable, List, Optional, Sequence, \
    Tuple

from ..conflict import PCG, DetectionReport, build_layout_conflict_graph, \
    detect_conflicts
from ..geometry.kernels import get_kernel
from ..geometry.rect import rect_columns
from ..graph.geomgraph import _parity_roots
from ..layout import Layout, Technology
from ..shifters import SIDES, OverlapPair, ShifterSet, pair_columns
from ..shifters.frontend import ShifterKey, _owns_points2
from .partition import Bounds, Tile, interaction_distance


@dataclass(frozen=True)
class TileJob:
    """Everything a worker process needs to detect one tile.

    Picklable by construction; ``owner`` rides along so ownership
    filtering happens in the worker and the result (including the
    filter's effect) can be cached as a unit.

    ``front`` is the tile's slice of the revision's front end —
    ``(shifters, pairs)`` in tile-local numbering, byte-identical to
    regenerating them on ``layout`` (see
    :class:`~repro.shifters.frontend.FrontEndSlicer`) — or None, and
    :func:`detect_tile` regenerates.  It is derived from the job's own
    geometry, so it is neither compared nor part of the cache key.

    ``digest`` is the tile's order-free digest of ``layout``'s rects
    (:attr:`~repro.chip.partition.Tile.digest`); the cache key hashes
    it in place of the rects.
    """

    ix: int
    iy: int
    layout: Layout
    owner: Bounds
    tech: Technology
    digest: str
    kind: str = PCG
    feature_ids: Tuple[int, ...] = ()
    front: Optional[Tuple[ShifterSet, List[OverlapPair]]] = field(
        default=None, compare=False, repr=False)

@dataclass(frozen=True)
class CanonicalConflict:
    """One conflict in tile-independent, layout-global terms.

    Attributes:
        a, b: canonical shifter keys, sorted.
        witness: feature rects of the conflict's pair-graph component
            within cycle-scale reach (2x interaction distance) of the
            anchor.  The stitcher unions over these, so two tiles that
            cut the same cycle at feature-disjoint pairs still merge
            into one cluster; the radius cap keeps row-spanning
            same-phase chains from gluing unrelated clusters together.
        weight: the conflict-graph edge weight (correction priority).
        ref2: doubled anchor point used for tile ownership — the centre
            of the *overlap region* between the two shifter rects (the
            geometric site of the Condition-2 interaction).  Anchoring
            at the interaction site, not the hull centre, keeps the
            anchor within one interaction distance of both features
            even when one of them is a chip-spanning wire, so the
            owning tile is guaranteed to capture both.
        tshape: True when the conflict touches a T-shaped feature and
            must go to widening/mask-splitting instead of spacing.
    """

    a: ShifterKey
    b: ShifterKey
    weight: int
    ref2: Tuple[int, int]
    tshape: bool = False
    witness: Tuple[Tuple[int, int, int, int], ...] = ()

    @property
    def key(self) -> Tuple[ShifterKey, ShifterKey]:
        return (self.a, self.b)


@dataclass
class TileResult:
    """What one tile contributes to the chip-level report.

    ``conflicts`` carries *every* conflict the tile detected, halo
    included: the stitcher arbitrates overlapping views per conflict
    cluster, which needs each tile's full coherent picture.  The
    ``owned_*`` fields are ownership-filtered in the worker (each
    feature/pair has exactly one owner tile), so over all tiles they
    reproduce the monolithic overlap-pair count, uncorrectable
    features and T-shape features exactly.  Critical-feature and
    shifter counts come from the chip front end, not from tiles.

    ``seconds`` / ``cpu_seconds`` / ``started_unix`` are the worker's
    own measurements (wall, process-CPU, wall-clock start): the
    orchestrator merges them back into the telemetry span tree as this
    job's tile span, so serial and process executors produce
    the same trace structure and per-job queue/run accounting.
    """

    ix: int
    iy: int
    report: DetectionReport
    conflicts: List[CanonicalConflict] = field(default_factory=list)
    owned_pairs: int = 0
    owned_uncorrectable: List[Tuple[int, int, int, int]] = \
        field(default_factory=list)
    owned_tshape_features: List[Tuple[int, int, int, int]] = \
        field(default_factory=list)
    seconds: float = 0.0
    cpu_seconds: float = 0.0
    started_unix: float = 0.0
    from_cache: bool = False

    def cache_copy(self) -> "TileResult":
        return replace(self, from_cache=True)


def detect_tile(job: TileJob) -> TileResult:
    """Run detection on one tile and canonicalise the outcome.

    The conflict graph is built on the job's front-end slice when it
    carries one (the chip flow hands every pending job its slice of the
    revision's front end); a job without one regenerates shifters and
    overlap pairs on its sub-layout — same result either way.  An empty
    tile (no captured features) takes the same route and yields an
    empty, phase-assignable report.
    """
    import time

    start = time.perf_counter()
    started_unix = time.time()
    cpu0 = time.process_time()

    # One front end serves the graph build, canonicalisation and the
    # ownership counts.
    prebuilt = build_layout_conflict_graph(job.layout, job.tech, job.kind,
                                           front=job.front)
    _cg, shifters, pairs = prebuilt
    report = detect_conflicts(job.layout, job.tech, kind=job.kind,
                              prebuilt=prebuilt)
    result = TileResult(ix=job.ix, iy=job.iy, report=report)
    _canonicalize(job, shifters, pairs, result)
    result.seconds = time.perf_counter() - start
    result.cpu_seconds = time.process_time() - cpu0
    result.started_unix = started_unix
    return result


def _canonicalize(job: TileJob, shifters: ShifterSet,
                  pairs: List[OverlapPair], result: TileResult) -> None:
    """Fill a tile result's canonical conflicts and owned counts, in
    column passes over the tile's feature, shifter and pair columns."""
    import numpy as np

    report = result.report
    fx1, fy1, fx2, fy2 = rect_columns(job.layout.features)
    rects = list(zip(fx1.tolist(), fy1.tolist(), fx2.tolist(),
                     fy2.tolist()))
    feature = shifters.feature_column()
    code = shifters.code_column()
    cols = pair_columns(pairs)
    kernel = get_kernel()

    # Connected components of the overlap-pair graph over features:
    # every cycle the optimiser can cut lives inside one component.
    # Members are listed by root, each component's in order of first
    # appearance along the pair list (a before b).
    fa, fb = feature[cols[:, 0]], feature[cols[:, 1]]
    root, _side = _parity_roots(np, len(rects), fa, fb)
    seen, first = np.unique(np.stack((fa, fb), axis=1).ravel(),
                            return_index=True)
    members = seen[np.lexsort((first, root[seen]))]
    member_root = root[members]

    # Each conflict's witness: the members of its component within
    # cycle-scale reach of its anchor, the centre of its overlap region.
    tagged = ([(c, False) for c in report.conflicts]
              + [(c, True) for c in report.tshape_conflicts])
    ca = np.array([c.a for c, _ in tagged], dtype=np.int64)
    cb = np.array([c.b for c, _ in tagged], dtype=np.int64)
    rx2, ry2 = kernel.region_center_arrays(*shifters.box, ca, cb)
    comp = root[feature[ca]]
    lo = np.searchsorted(member_root, comp, side="left")
    size = np.searchsorted(member_root, comp, side="right") - lo
    owner = np.repeat(np.arange(len(tagged)), size)
    m = members[np.arange(len(owner)) + np.repeat(lo - np.cumsum(size)
                                                  + size, size)]
    px2, py2 = rx2[owner], ry2[owner]
    dx = np.maximum(np.maximum(2 * fx1[m] - px2, px2 - 2 * fx2[m]), 0)
    dy = np.maximum(np.maximum(2 * fy1[m] - py2, py2 - 2 * fy2[m]), 0)
    near = dx * dx + dy * dy <= (4 * interaction_distance(job.tech)) ** 2
    witness = list(map(rects.__getitem__, m[near].tolist()))
    ends = np.cumsum(np.bincount(owner[near], minlength=len(tagged)))
    for (conflict, tshape), ref2, feat_a, side_a, feat_b, side_b, a, b \
            in zip(
            tagged, zip(rx2.tolist(), ry2.tolist()),
            feature[ca].tolist(), code[ca].tolist(),
            feature[cb].tolist(), code[cb].tolist(),
            np.concatenate(([0], ends[:-1])).tolist(), ends.tolist()):
        ka, kb = sorted(((rects[feat_a], SIDES[side_a]),
                         (rects[feat_b], SIDES[side_b])))
        result.conflicts.append(CanonicalConflict(
            a=ka, b=kb, weight=conflict.weight, ref2=ref2,
            tshape=tshape, witness=tuple(witness[a:b])))

    # Ownership-filtered counts: summed over tiles these reproduce the
    # monolithic totals exactly (each feature/pair has one owner).
    px2, py2 = kernel.region_center_arrays(*shifters.box, cols[:, 0],
                                           cols[:, 1])
    result.owned_pairs = int(_owns_points2(job.owner, px2, py2).sum())
    owned = _owns_points2(job.owner, fx1 + fx2, fy1 + fy2).tolist()
    result.owned_uncorrectable = [rects[fi] for fi in
                                  report.uncorrectable_features
                                  if owned[fi]]
    result.owned_tshape_features = [rects[fi] for fi in
                                    report.tshape_features if owned[fi]]


# ----------------------------------------------------------------------
# Executors
# ----------------------------------------------------------------------
class SerialExecutor:
    """Run tile jobs in-process, one after another."""

    name = "serial"
    jobs = 1

    def map(self, fn: Callable[[TileJob], TileResult],
            work: Iterable[TileJob]) -> List[TileResult]:
        return [fn(job) for job in work]


class ProcessExecutor:
    """Fan tile jobs out over worker processes.

    Tiles are independent by construction (absolute-coordinate
    sub-layouts, ownership decided inside each job), so this is plain
    data-parallel map; results come back in submission order.
    """

    name = "process"

    def __init__(self, jobs: int):
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs

    def map(self, fn: Callable[[TileJob], TileResult],
            work: Iterable[TileJob]) -> List[TileResult]:
        work = list(work)
        if not work:
            return []
        with ProcessPoolExecutor(max_workers=self.jobs) as pool:
            return list(pool.map(fn, work, chunksize=1))


def _default_jobs(jobs: Optional[int]) -> int:
    return jobs if jobs and jobs >= 1 else (os.cpu_count() or 1)


# Backend name -> factory(jobs) -> executor.  The swappable execution
# seam: everything above (orchestrator, pipeline stages, CLI) selects
# an executor purely by name.
EXECUTOR_BACKENDS: Dict[str, Callable[[Optional[int]], object]] = {
    "serial": lambda jobs: SerialExecutor(),
    "process": lambda jobs: ProcessExecutor(_default_jobs(jobs)),
}


def register_executor(name: str,
                      factory: Callable[[Optional[int]], object]) -> None:
    """Register an executor backend under ``name``.

    ``factory(jobs)`` must return an object with a ``map(fn, jobs)``
    method (and ideally ``name``/``jobs`` attributes for reporting);
    ``jobs`` is an iterable — the chip flow passes a generator that
    builds each job's front-end slice as it is drawn — and ``map``
    returns the results in order.  This is the hook a distributed
    backend plugs into.
    """
    EXECUTOR_BACKENDS[name] = factory


def make_executor(backend: str, jobs: Optional[int] = None):
    """Instantiate a registered executor backend by name."""
    try:
        factory = EXECUTOR_BACKENDS[backend]
    except KeyError:
        raise ValueError(
            f"unknown executor backend {backend!r}; registered: "
            f"{', '.join(sorted(EXECUTOR_BACKENDS))}") from None
    return factory(jobs)


def resolve_executor(jobs: Optional[int], backend: Optional[str] = None):
    """Pick the executor for a run.

    With ``backend`` named, the registry decides (``jobs`` sizes the
    worker pool; an explicit executor *object* passes through).  With
    no backend the historical heuristic applies: None or 1 job runs
    serially in-process, n > 1 fans out over n worker processes.
    """
    if backend is None:
        if jobs is None or jobs <= 1:
            return SerialExecutor()
        return ProcessExecutor(jobs)
    if isinstance(backend, str):
        return make_executor(backend, jobs)
    if hasattr(backend, "map"):
        return backend
    raise TypeError(f"not an executor backend: {backend!r}")


def make_jobs(tiles: Sequence[Tile], tech: Technology,
              kind: str = PCG) -> List[TileJob]:
    """Freeze a tile grid into picklable work units."""
    return [TileJob(ix=t.ix, iy=t.iy, layout=t.layout, owner=t.owner,
                    tech=tech, digest=t.digest, kind=kind,
                    feature_ids=tuple(t.feature_ids))
            for t in tiles]
