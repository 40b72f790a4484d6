"""Artifacts flowing between the staged pipeline's stages.

Each stage consumes and produces one of these instead of mutating
whole-chip state: the front end (shifter generation) feeds detection,
correction, stitching, and verification; detection artifacts carry the
tile-addressed :class:`~repro.chip.ChipReport` alongside the stitched
chip-level view; every artifact records its own wall-clock so the
pipeline can report a per-stage timing breakdown, and each
store-backed stage's artifact (detection, assignment) records its own
store work as ``cache_delta`` (:func:`repro.cache.cache_delta`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..cache import ARTIFACT_KINDS, KIND_TILE
from ..chip import ChipReport
from ..chip.partition import TileGrid
from ..conflict import ConflictGraph, DetectionReport
from ..correction import CorrectionReport
from ..layout import Layout
from ..phase import PhaseAssignment
from ..shifters import OverlapPair, ShifterSet

STAGE_SHIFTERS = "shifters"
STAGE_DETECT = "detect"
STAGE_CORRECT = "correct"
STAGE_VERIFY = "verify"
STAGE_ASSIGN = "assign"

STAGE_ORDER = (STAGE_SHIFTERS, STAGE_DETECT, STAGE_CORRECT,
               STAGE_VERIFY, STAGE_ASSIGN)


@dataclass
class FrontEnd:
    """Shifter-generation output for one layout revision.

    Reused by every stage working on the same revision: graph builds,
    correction planning, chip-level stitching, and the geometric phase
    verifier.

    The shifter set and pair list are one chip-wide pass on either
    path.  On the tiled path (``tiled`` True, every tiled config)
    ``grid`` carries the partition so the detect stage can reuse it
    instead of re-partitioning; :func:`run_pipeline` clears it once
    both detection passes have consumed it, so retained results do not
    pin tile sub-layouts in memory.
    """

    layout: Layout
    shifters: ShifterSet
    pairs: List[OverlapPair]
    seconds: float = 0.0
    grid: Optional[TileGrid] = None
    tiled: bool = False


@dataclass
class DetectionArtifact:
    """One detection pass (pre- or post-correction).

    ``chip`` is present when the pass ran tiled; ``cache_delta`` then
    holds this pass's ``tile`` kind (tiles replayed vs detected), so
    the ECO scheduler can assert exactly which tiles recomputed per
    pass.  A monolithic pass carries the conflict graph it detected on
    (``graph``, planarization's soft removals still in place), so the
    assign stage needs no rebuild; :func:`run_pipeline` drops it once
    no later stage needs it.
    """

    report: DetectionReport
    front: FrontEnd
    chip: Optional[ChipReport] = None
    cache_delta: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    seconds: float = 0.0
    front_reused: bool = False
    graph: Optional[ConflictGraph] = None

    @property
    def tiled(self) -> bool:
        return self.chip is not None


@dataclass
class CorrectionArtifact:
    """Window-scoped correction plan plus the corrected layout."""

    report: CorrectionReport
    corrected_layout: Layout
    seconds: float = 0.0

    @property
    def unchanged(self) -> bool:
        """True when no cuts were applied (geometry is unmodified)."""
        return not self.report.cuts


@dataclass
class AssignmentArtifact:
    """Phase assignment outcome plus the geometric verifier verdict.

    On the incremental path (``incremental`` True) the coloring and
    verification ran per conflict-graph component against the artifact
    store, and ``cache_delta`` holds the pass's ``coloring`` and
    ``verify`` kinds: misses are components recolored / re-verified,
    hits their replays.  A warm ECO run is expected to miss only on
    components the edit actually touched — the "no chip-wide phase
    pass" property the ECO suite asserts.
    """

    assignment: Optional[PhaseAssignment] = None
    problems: List[str] = field(default_factory=list)
    success: bool = False
    seconds: float = 0.0
    incremental: bool = False
    components: int = 0
    cache_delta: Dict[str, Tuple[int, int]] = field(default_factory=dict)


@dataclass
class PipelineResult:
    """Everything one run of the staged pipeline produced."""

    layout: Layout
    front: FrontEnd
    detection: DetectionArtifact
    correction: CorrectionArtifact
    verification: DetectionArtifact
    phase: AssignmentArtifact
    wall_seconds: float = 0.0

    # ------------------------------------------------------------------
    # Flat views (FlowResult-compatible field names)
    # ------------------------------------------------------------------
    @property
    def corrected_layout(self) -> Layout:
        return self.correction.corrected_layout

    @property
    def post_detection(self) -> DetectionReport:
        return self.verification.report

    @property
    def assignment(self) -> Optional[PhaseAssignment]:
        return self.phase.assignment

    @property
    def success(self) -> bool:
        return self.phase.success

    @property
    def tiled(self) -> bool:
        return self.detection.tiled

    def stage_seconds(self) -> Dict[str, float]:
        """Per-stage wall-clock, keyed by stage name."""
        return {
            STAGE_SHIFTERS: self.front.seconds,
            STAGE_DETECT: self.detection.seconds,
            STAGE_CORRECT: self.correction.seconds,
            STAGE_VERIFY: self.verification.seconds,
            STAGE_ASSIGN: self.phase.seconds,
        }

    def artifact_cache_counts(self) -> Dict[str, Tuple[int, int]]:
        """(hits, misses) per artifact kind across the whole run: the
        sum of the detect, verify and assign stages' ``cache_delta``."""
        totals = dict.fromkeys(ARTIFACT_KINDS, (0, 0))
        for artifact in (self.detection, self.verification, self.phase):
            for kind, (hits, misses) in artifact.cache_delta.items():
                total_hits, total_misses = totals[kind]
                totals[kind] = (total_hits + hits, total_misses + misses)
        return totals

    @property
    def cache_hit_rate(self) -> float:
        """Tile-result hit rate over both detection passes."""
        hits, misses = self.artifact_cache_counts()[KIND_TILE]
        total = hits + misses
        return hits / total if total else 0.0
