"""Stratified scenario curriculum + differential fuzzing harness.

Generates a seeded corpus of layouts deliberately stressing the
structures the flow's algorithms hinge on (:mod:`.strata`), runs every
scenario through the invariant matrix the repo guarantees
(:mod:`.differential`), and shrinks any divergence to a paste-able
minimal repro (:mod:`.shrink`).  ``repro fuzz`` is the CLI face;
``scenario:<stratum>:<seed>`` drops a corpus entry anywhere a bench
design name is accepted.
"""

from .corpus import build_corpus, corpus_seeds, iter_corpus, resolve_strata
from .differential import (
    INVARIANTS,
    DiffContext,
    FuzzReport,
    InvariantResult,
    ScenarioResult,
    invariant_names,
    report_key,
    run_invariant,
    run_invariant_on_layout,
    run_scenario,
)
from .shrink import (
    DEFAULT_MAX_RUNS,
    ShrinkOutcome,
    shrink_failure,
    shrink_rects,
    shrink_scenario_failure,
)
from .strata import (
    BRIGHT_FIELD_INVARIANTS,
    STRATA,
    Scenario,
    Stratum,
    build_scenario,
    scenario_id,
    stratum_names,
)

__all__ = [
    "Scenario",
    "Stratum",
    "STRATA",
    "BRIGHT_FIELD_INVARIANTS",
    "build_scenario",
    "scenario_id",
    "stratum_names",
    "build_corpus",
    "iter_corpus",
    "corpus_seeds",
    "resolve_strata",
    "INVARIANTS",
    "DiffContext",
    "InvariantResult",
    "ScenarioResult",
    "FuzzReport",
    "invariant_names",
    "report_key",
    "run_scenario",
    "run_invariant",
    "run_invariant_on_layout",
    "DEFAULT_MAX_RUNS",
    "ShrinkOutcome",
    "shrink_rects",
    "shrink_failure",
    "shrink_scenario_failure",
]
