"""The benchmark's workloads: inputs from a seed, one closed-loop client.

Each workload builds its inputs in :meth:`Workload.setup` (timed, as
``setup_s``), computes the reference its operations are checked against
in :meth:`Workload.prepare` (untimed), and runs one round of operations
per :meth:`Workload.round` call.  A round is a single operation for the
chip workloads and one pass over the whole corpus for ``corpus-small``;
the next operation starts only when the previous one has finished.

Every operation runs on the default configuration a user gets: no
``kernels``/``matcher`` selection is made anywhere here.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.bench.suite import build_design
from repro.cache import ArtifactCache, MemoryBackend, StoreBackend
from repro.chip.partition import partition_layout
from repro.conflict import layout_front_end
from repro.core.flow import flow_result_from_pipeline
from repro.geometry import Rect
from repro.layout import Layout, Technology, layout_from_rects
from repro.phase import verify_assignment
from repro.pipeline import (
    PipelineConfig,
    isolated_interior_features,
    perturb_feature,
    run_eco_flow,
    run_pipeline,
)
from repro.scenarios import build_scenario, stratum_names
from repro.scenarios.differential import report_key

# Input sizes.  "full" is what the benchmark measures; "tiny" runs every
# code path in seconds for the self-test.
SIZES: Dict[str, Dict[str, object]] = {
    "full": {"chip_design": "D7", "eco_design": "D7", "eco_grid": (4, 4),
             "corpus_count": 36},
    "tiny": {"chip_design": "D2", "eco_design": "D3", "eco_grid": (2, 2),
             "corpus_count": 2},
}

# Scenarios whose crash is a known, still-open finding: (stratum, seed)
# -> (exception type, message prefix).  They stay in the corpus and are
# counted as known failures while they raise exactly this; once fixed
# they are checked like every other scenario.
KNOWN_FAILURES: Dict[Tuple[str, int], Tuple[str, str]] = {
    ("duplicate", 1022): ("AssertionError",
                          "bipartization invariant violated"),
}

# The corpus seed window slides with the benchmark seed but always
# covers the known crash.  36 seeds per stratum span whole periods of
# the strata's seed-cyclic parameters (seed % 4, % 9, % 6, % 2), so
# every window has the same mix of scenario shapes; the windows stay
# within 1000-1057, seeds checked to run on every stratum.  Scenarios
# are not moved or mirrored: the known crash depends on the absolute
# geometry.
KNOWN_CRASH_SEED = 1022
CORPUS_MAX_SHIFT = 22


@dataclass
class Sample:
    """One operation: its wall time and the outcome of its checks.

    ``key`` names the operation's input; operations with equal keys do
    identical work, so their best time is the program's cost.
    """

    seconds: float
    key: object = None
    error: str = ""
    known_failure: bool = False

    @property
    def failed(self) -> bool:
        return bool(self.error)


def place(layout: Layout, seed: int) -> Layout:
    """The same circuit at a seed-chosen orientation and position.

    Mirroring and translating change every absolute coordinate the
    program hashes and tie-breaks on, and the order features meet the
    tile grid, while keeping the circuit's size and conflict structure:
    seeds give distinct inputs of the same difficulty, so one run of a
    few operations measures the program, not the luck of the draw.
    """
    rng = random.Random(seed)
    sx = rng.choice((1, -1))
    sy = rng.choice((1, -1))
    dx = rng.randrange(-1_000_000, 1_000_000)
    dy = rng.randrange(-1_000_000, 1_000_000)
    rects = []
    for r in layout.features:
        x1, x2 = sorted((sx * r.x1 + dx, sx * r.x2 + dx))
        y1, y2 = sorted((sy * r.y1 + dy, sy * r.y2 + dy))
        rects.append(Rect(x1, y1, x2, y2))
    return layout_from_rects(rects, name=f"{layout.name}-p{seed}")


def digest(result) -> str:
    """Timing-free domain outcome of a pipeline run: conflicts, cuts,
    phases, success (the repository's canonical comparison key)."""
    key = report_key(flow_result_from_pipeline(result))
    return hashlib.sha256(key.encode()).hexdigest()


def flow_problem(result) -> str:
    """Why a finished flow does not verify, or "" when it does."""
    if not result.success:
        return "flow did not verify (success false)"
    residual = result.post_detection.num_conflicts
    if residual:
        return f"{residual} residual conflict(s) after correction"
    return ""


def conflict_set(result):
    return [c.key for c in result.detection.report.conflicts]


def cut_set(result):
    return [(c.axis, c.position, c.width)
            for c in result.correction.report.cuts]


class Workload:
    """Base class: a seeded input set plus the operation run on it."""

    name = ""
    default_seed = 0
    heldout_seed = 0
    serial = True           # the program runs in this process only

    def __init__(self, seed: int, size: str = "full"):
        self.seed = seed
        self.size = SIZES[size]
        self.tech = Technology.node_90nm()
        # Deterministic answer figures, fixed by prepare().
        self.conflicts = 0
        self.area_before = 0
        self.area_after = 0

    @property
    def area_increase_pct(self) -> float:
        return 100.0 * (self.area_after - self.area_before) / self.area_before

    def _record_answer(self, result) -> None:
        self.conflicts += result.detection.report.num_conflicts
        self.area_before += result.correction.report.area_before
        self.area_after += result.correction.report.area_after

    def setup(self) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        raise NotImplementedError

    def round(self) -> List[Sample]:
        raise NotImplementedError


class ColdChip(Workload):
    """A full five-stage cold flow on a chip-sized design, tiled on the
    automatic grid over a fresh in-memory store, serial executor."""

    name = "cold-chip"
    default_seed = 17
    heldout_seed = 23
    config = PipelineConfig(tiled=True, executor="serial")

    def setup(self) -> None:
        self.layout = place(build_design(self.size["chip_design"], cache=False),
                            self.seed)

    def prepare(self) -> None:
        # Tiled detection must reproduce the monolithic answer exactly,
        # so the untiled, store-less flow is the reference.
        reference = run_pipeline(self.layout, self.tech, PipelineConfig())
        problem = flow_problem(reference)
        if problem:
            raise RuntimeError(f"reference flow: {problem}")
        self.reference = digest(reference)
        self._record_answer(reference)

    def round(self) -> List[Sample]:
        cache = ArtifactCache()
        sample = Sample(0.0, key="flow")
        try:
            start = time.perf_counter()
            result = run_pipeline(self.layout, self.tech, self.config,
                                  cache=cache)
            sample.seconds = time.perf_counter() - start
        except Exception as exc:  # an operation that raises has failed
            sample.seconds = time.perf_counter() - start
            sample.error = f"{type(exc).__name__}: {exc}"
            return [sample]
        sample.error = flow_problem(result) or (
            "" if digest(result) == self.reference
            else "report differs from the monolithic reference")
        return [sample]


class ChipParallel(ColdChip):
    """The cold-chip operation on the process executor with two jobs."""

    name = "chip-parallel"
    serial = False
    config = PipelineConfig(tiled=True, executor="process", jobs=2)


class _OverlayBackend(StoreBackend):
    """Reads the base run's backend; writes go to a private overlay, so
    every operation starts from the same warmed-base store state."""

    def __init__(self, base: StoreBackend):
        self.base = base
        self.overlay: Dict[Tuple[str, str], bytes] = {}

    def load(self, kind: str, key: str) -> Optional[bytes]:
        payload = self.overlay.get((kind, key))
        return payload if payload is not None else self.base.load(kind, key)

    def save(self, kind: str, key: str, payload: bytes) -> None:
        self.overlay[(kind, key)] = payload


class EcoWarm(Workload):
    """One conflict-neutral single-feature edit, then the warm flow over
    the base run's artifact store (one dirty tile of the pinned grid)."""

    name = "eco-warm"
    default_seed = 17
    heldout_seed = 23

    def setup(self) -> None:
        layout = place(build_design(self.size["eco_design"], cache=False),
                       self.seed)
        grid = self.size["eco_grid"]
        # The candidates of propose_eco_edit whose edit dirties exactly
        # one tile: the feature touches a single tile's capture window.
        tiles = partition_layout(layout, self.tech, tiles=grid).tiles
        by_tile: Dict[Tuple[int, int], List[int]] = {}
        for index in isolated_interior_features(layout, self.tech):
            r = layout.features[index]
            touched = [(t.ix, t.iy) for t in tiles
                       if r.x1 <= t.bounds[2] and t.bounds[0] <= r.x2
                       and r.y1 <= t.bounds[3] and t.bounds[1] <= r.y2]
            if len(touched) == 1:
                by_tile.setdefault(touched[0], []).append(index)
        # One edit in each interior tile (each tile when the grid has no
        # interior): the same mix of tiles for every seed, which picks
        # the feature edited within each tile.
        interior = [(t.ix, t.iy) for t in tiles
                    if 0 < t.ix < grid[0] - 1 and 0 < t.iy < grid[1] - 1]
        rng = random.Random(self.seed)
        candidates = [rng.choice(by_tile[t])
                      for t in interior or [(t.ix, t.iy) for t in tiles]
                      if t in by_tile]
        if not candidates:
            raise RuntimeError(f"{layout.name}: no single-tile edit")
        self.backend = MemoryBackend()
        self.base = run_pipeline(layout, self.tech,
                                 PipelineConfig(tiles=grid, tiled=True),
                                 cache=ArtifactCache(backend=self.backend))
        self.layout, self.candidates = layout, candidates

    def prepare(self) -> None:
        problem = flow_problem(self.base)
        if problem:
            raise RuntimeError(f"base flow: {problem}")
        # Edits are conflict-neutral: the base answer is the reference.
        self.reference = (conflict_set(self.base), cut_set(self.base))
        self._record_answer(self.base)
        self.rounds = 0

    def round(self) -> List[Sample]:
        # Each edit runs twice in a row, so a traced run (which traces
        # every other round) times every edit both traced and untraced.
        index = self.candidates[self.rounds // 2 % len(self.candidates)]
        self.rounds += 1
        edited = perturb_feature(self.layout, index)
        cache = ArtifactCache(backend=_OverlayBackend(self.backend))
        config = PipelineConfig(tiles=self.size["eco_grid"])
        sample = Sample(0.0, key=index)
        try:
            start = time.perf_counter()
            eco = run_eco_flow(self.layout, edited, self.tech, config,
                               cache=cache, warm_base=False)
            sample.seconds = time.perf_counter() - start
        except Exception as exc:
            sample.seconds = time.perf_counter() - start
            sample.error = f"{type(exc).__name__}: {exc}"
            return [sample]
        result = eco.result
        if eco.plan.num_dirty != 1:
            sample.error = f"edit dirtied {eco.plan.num_dirty} tiles, not 1"
        else:
            sample.error = flow_problem(result) or (
                "" if (conflict_set(result), cut_set(result))
                == self.reference
                else "conflicts or cuts differ from the base flow")
        return [sample]


class CorpusSmall(Workload):
    """One pass of the default untiled, store-less flow over every
    scenario stratum times a seed window."""

    name = "corpus-small"
    default_seed = 0
    heldout_seed = 11
    config = PipelineConfig()

    def setup(self) -> None:
        count = self.size["corpus_count"]
        first = KNOWN_CRASH_SEED - self.seed % min(count,
                                                   CORPUS_MAX_SHIFT + 1)
        self.scenarios = [build_scenario(stratum, s, tech=self.tech)
                          for stratum in stratum_names()
                          for s in range(first, first + count)]

    def _run(self, scenario):
        """(result, seconds, error, known) for one scenario."""
        start = time.perf_counter()
        try:
            result = run_pipeline(scenario.layout, scenario.tech,
                                  self.config)
        except Exception as exc:
            seconds = time.perf_counter() - start
            error = f"{type(exc).__name__}: {exc}"
            known = KNOWN_FAILURES.get((scenario.stratum, scenario.seed))
            is_known = known is not None \
                and type(exc).__name__ == known[0] \
                and str(exc).startswith(known[1])
            return None, seconds, error, is_known
        return result, time.perf_counter() - start, "", False

    def _check(self, scenario, result) -> str:
        """Checks every pass repeats; "" when the outcome is right."""
        if result.success != (result.assignment is not None
                              and result.post_detection.phase_assignable):
            return "success flag inconsistent with the assignment"
        if result.success and result.post_detection.num_conflicts:
            return "success with residual conflicts"
        # Duplicate rectangles can leave conflicts no spacing resolves;
        # every other stratum is correctable by construction.
        if scenario.stratum != "duplicate" and not result.success:
            return flow_problem(result)
        expect = scenario.expect_conflicts
        if expect is not None \
                and result.detection.report.num_conflicts != expect:
            return (f"{result.detection.report.num_conflicts} conflicts, "
                    f"expected {expect}")
        return ""

    def prepare(self) -> None:
        """Reference pass: the full checks plus a geometric re-check of
        every assignment, then each scenario's report digest."""
        self.reference: List[Optional[str]] = []
        for scenario in self.scenarios:
            result, _seconds, error, known = self._run(scenario)
            if result is None:
                if not known:
                    raise RuntimeError(f"{scenario.name}: {error}")
                self.reference.append(None)
                continue
            problem = self._check(scenario, result)
            if not problem and result.assignment is not None:
                shifters, pairs = layout_front_end(
                    result.corrected_layout, scenario.tech)
                if verify_assignment(shifters, result.assignment,
                                     scenario.tech, pairs=pairs):
                    problem = "geometric verifier rejects the assignment"
            if problem:
                raise RuntimeError(f"{scenario.name}: {problem}")
            self.reference.append(digest(result))
            self._record_answer(result)

    def round(self) -> List[Sample]:
        samples = []
        for index, (scenario, ref) in enumerate(zip(self.scenarios,
                                                     self.reference)):
            result, seconds, error, known = self._run(scenario)
            sample = Sample(seconds, key=index)
            if result is None:
                sample.known_failure = known and ref is None
                sample.error = "" if sample.known_failure \
                    else f"{scenario.name}: {error}"
            else:
                problem = self._check(scenario, result) or (
                    "" if digest(result) == ref
                    else "report differs from the reference pass")
                sample.error = problem and f"{scenario.name}: {problem}"
            samples.append(sample)
        return samples


WORKLOADS = {w.name: w for w in (ColdChip, EcoWarm, CorpusSmall,
                                 ChipParallel)}
