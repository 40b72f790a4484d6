"""Phase assignment and geometric verification (substrate S11).

Split three ways since the incremental phase layer:

* :mod:`repro.phase.assignment` — the 0/180 assignment itself;
* :mod:`repro.phase.verify` — the independent geometric oracle, full
  chip or scoped to a set of shifters;
* :mod:`repro.phase.incremental` — component-scoped recoloring and
  re-verification over the unified artifact store.
"""

from .assignment import (
    PHASE_0,
    PHASE_180,
    PhaseAssignment,
    assign_and_verify,
    assign_phases,
    assignment_from_colors,
)
from .incremental import (
    assign_and_verify_incremental,
    verify_key,
)
from .verify import (
    condition1_problems,
    condition2_problems,
    verify_assignment,
)

__all__ = [
    "PHASE_0",
    "PHASE_180",
    "PhaseAssignment",
    "assign_phases",
    "assignment_from_colors",
    "verify_assignment",
    "condition1_problems",
    "condition2_problems",
    "assign_and_verify",
    "assign_and_verify_incremental",
    "verify_key",
]
