"""Staged AAPSM pipeline and incremental (ECO) scheduling.

The production-shaped face of the reproduction:

* :mod:`repro.pipeline.artifacts` — typed artifacts each stage
  consumes/produces (front end, detection, correction, assignment);
* :mod:`repro.pipeline.runner` — the five explicit stages (shifter
  generation, tiled detection, window-scoped correction,
  re-verification, phase assignment) and :func:`run_pipeline`;
* :mod:`repro.pipeline.eco` — dirty-tile scheduling: diff an edited
  layout against the content-addressed tile cache, recompute only
  dirty tiles, stitch cached clean-tile results into the final report.

``repro.core.run_aapsm_flow`` is a thin compatibility wrapper over
:func:`run_pipeline`.
"""

from .artifacts import (
    STAGE_ASSIGN,
    STAGE_CORRECT,
    STAGE_DETECT,
    STAGE_ORDER,
    STAGE_SHIFTERS,
    STAGE_VERIFY,
    AssignmentArtifact,
    CorrectionArtifact,
    DetectionArtifact,
    FrontEnd,
    PipelineResult,
)
from .eco import (
    EcoPlan,
    EcoResult,
    LayoutDiff,
    diff_layouts,
    isolated_interior_features,
    perturb_feature,
    plan_eco,
    propose_eco_edit,
    resolve_eco_tiles,
    run_eco_flow,
)
from .runner import (
    PipelineConfig,
    run_pipeline,
    stage_assign,
    stage_correct,
    stage_detect,
    stage_front_end,
    stage_verify,
)

__all__ = [
    "PipelineConfig",
    "PipelineResult",
    "run_pipeline",
    "FrontEnd",
    "DetectionArtifact",
    "CorrectionArtifact",
    "AssignmentArtifact",
    "stage_front_end",
    "stage_detect",
    "stage_correct",
    "stage_verify",
    "stage_assign",
    "STAGE_ORDER",
    "STAGE_SHIFTERS",
    "STAGE_DETECT",
    "STAGE_CORRECT",
    "STAGE_VERIFY",
    "STAGE_ASSIGN",
    "LayoutDiff",
    "diff_layouts",
    "EcoPlan",
    "plan_eco",
    "EcoResult",
    "run_eco_flow",
    "resolve_eco_tiles",
    "isolated_interior_features",
    "perturb_feature",
    "propose_eco_edit",
]
