"""The differential runner: every scenario through the invariant matrix.

Each invariant re-runs a scenario under two configurations the flow
ships and guarantees *answer-identical* — tiled vs monolithic, warm
ECO vs cold, serial vs process executors — and diffs the flow reports
byte for byte.  The ``oracle`` and ``darkfield`` invariants are
different in kind: instead of comparing two runs they re-check the
result against independently recomputed geometry (the paper's two
conditions, the dark-field interaction graph).  Alternatives that
ship only as test oracles (the scalar geometry kernel, the networkx
and brute matchers, the whole-instance set cover, the scalar graph
core) are compared in the tier-1 tests, not here.

What "byte for byte" means here: the domain outcome
(:func:`report_key` — conflicts, cuts, phases, success, uncorrectable
sets) serializes identically.  Per-run *work accounting* (summed
per-tile graph sizes, the ``pipeline`` cache/timing block) is excluded:
it legitimately differs between a monolithic pass and sixteen tile
passes, and the equivalence contract was never about it.

An invariant returns ``None`` (holds) or a failure detail string
(diverged — the shrinker takes over).  An invariant whose flow raises
fails too, with detail ``raised <Type>: <message>``, so one crashing
scenario never ends a corpus run.
"""

from __future__ import annotations

import json
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..cache import KIND_TILE, ArtifactCache
from ..core.flow import FlowResult, flow_result_from_pipeline, run_aapsm_flow
from ..core.report import flow_result_dict
from ..layout import Layout, Technology
from ..obs import get_logger, get_tracer
from .strata import Scenario, scenario_id

# Detection-report fields that are per-run work accounting, not domain
# outcome: tiled detection sums per-tile graph sizes, so these
# legitimately differ from the monolithic pass while the conflict set,
# cuts, and phases are identical.
ACCOUNTING_FIELDS = frozenset({
    "graph_nodes", "graph_edges", "crossings_removed",
    "step2_edges", "step2_weight", "step3_edges",
})

DEFAULT_TILES = (2, 2)


def report_key(result: FlowResult) -> str:
    """The canonical byte-comparison key: domain outcome only.

    Serializes the timing-free flow report minus the ``pipeline``
    accounting block and the per-run detection accounting fields —
    exactly the sections two answer-equivalent configurations must
    agree on.
    """
    d = flow_result_dict(result, timings=False)
    d.pop("pipeline", None)
    for section in ("detection", "post_detection"):
        for f in ACCOUNTING_FIELDS:
            d[section].pop(f, None)
    return json.dumps(d, sort_keys=True)


def _first_divergence(a: FlowResult, b: FlowResult) -> str:
    """Name the top-level report section where two runs part ways."""
    da = json.loads(report_key(a))
    db = json.loads(report_key(b))
    diverged = [k for k in sorted(set(da) | set(db))
                if da.get(k) != db.get(k)]
    return ", ".join(diverged) or "<none>"


class DiffContext:
    """Per-scenario run cache shared by the invariants.

    The monolithic and tiled baselines are each computed once per
    scenario no matter how many invariants consult them; the tiled run
    warms a memory-backed artifact store the ECO invariant reuses.
    """

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.layout = scenario.layout
        self.tech = scenario.tech
        self.tiles = scenario.tiles or DEFAULT_TILES
        self.store = ArtifactCache()
        self._mono: Optional[FlowResult] = None
        self._tiled: Optional[FlowResult] = None

    def mono(self) -> FlowResult:
        if self._mono is None:
            self._mono = run_aapsm_flow(self.layout, self.tech)
        return self._mono

    def tiled(self) -> FlowResult:
        if self._tiled is None:
            self._tiled = run_aapsm_flow(self.layout, self.tech,
                                         tiles=self.tiles,
                                         cache=self.store)
        return self._tiled


# ----------------------------------------------------------------------
# The invariant matrix
# ----------------------------------------------------------------------
def _check_tiled(ctx: DiffContext) -> Optional[str]:
    """Tiled detection+correction == monolithic, byte for byte."""
    mono, tiled = ctx.mono(), ctx.tiled()
    if report_key(mono) != report_key(tiled):
        return (f"tiled {ctx.tiles} != monolithic "
                f"(diverges in: {_first_divergence(mono, tiled)})")
    return None


def _check_eco(ctx: DiffContext) -> Optional[str]:
    """Warm incremental rerun == cold run, byte for byte.

    Preferred mode: propose the canonical conflict-neutral single-
    feature edit and compare the warm ECO flow on the edited layout
    (over the tiled baseline's store) against a cold run of the same
    edit.  Scenarios with no isolated interior feature (odd-cycle
    chains, T-join grids — everything interacts by design) fall back
    to warm *replay*: rerun the unchanged layout over the warm store
    and require a byte-identical report with zero detect misses.
    """
    from ..pipeline import PipelineConfig
    from ..pipeline.eco import propose_eco_edit, run_eco_flow

    ctx.tiled()  # warm ctx.store
    config = PipelineConfig(tiles=ctx.tiles)
    try:
        edited, _ = propose_eco_edit(ctx.layout, ctx.tech)
    except ValueError:
        warm = run_aapsm_flow(ctx.layout, ctx.tech, tiles=ctx.tiles,
                              cache=ctx.store)
        if report_key(warm) != report_key(ctx.tiled()):
            return ("warm replay != cold run (diverges in: "
                    f"{_first_divergence(warm, ctx.tiled())})")
        hits, misses = warm.pipeline.artifact_cache_counts()[KIND_TILE]
        if misses:
            return (f"warm replay recomputed {misses} tile(s) "
                    f"({hits} hits) — cache keys unstable")
        return None
    eco = run_eco_flow(ctx.layout, edited, ctx.tech, config=config,
                       cache=ctx.store, warm_base=False)
    warm = flow_result_from_pipeline(eco.result)
    cold = run_aapsm_flow(edited, ctx.tech, tiles=ctx.tiles,
                          cache=ArtifactCache())
    if report_key(warm) != report_key(cold):
        return ("warm eco != cold run on edited layout (diverges in: "
                f"{_first_divergence(warm, cold)})")
    return None


def _check_executors(ctx: DiffContext) -> Optional[str]:
    """Process executor (two workers) == serial, on the tiled path.

    Compared against the tiled baseline (not the monolithic one): the
    executor knob only exists on the tiled path, and strata that
    document a tiled/mono divergence (duplicate rects) still require
    every executor to agree with every other.
    """
    parallel = run_aapsm_flow(ctx.layout, ctx.tech, tiles=ctx.tiles,
                              executor="process", jobs=2)
    if report_key(parallel) != report_key(ctx.tiled()):
        return ("executor=process != serial tiled run (diverges in: "
                f"{_first_divergence(parallel, ctx.tiled())})")
    return None


def _check_oracle(ctx: DiffContext) -> Optional[str]:
    """Re-check the flow's own verdict straight from geometry.

    Regenerates the front end on the corrected layout and re-validates
    the phase assignment against the paper's two conditions — without
    trusting the conflict graph, the pipeline's cached verdicts, or
    the flow's ``success`` flag.
    """
    from ..conflict import layout_front_end
    from ..phase.verify import verify_assignment

    mono = ctx.mono()
    if mono.success != (mono.assignment is not None
                        and mono.post_detection.phase_assignable):
        return (f"success={mono.success} inconsistent with "
                f"assignment={'set' if mono.assignment else 'none'}, "
                f"phase_assignable="
                f"{mono.post_detection.phase_assignable}")
    if mono.assignment is None:
        return None
    shifters, pairs = layout_front_end(mono.corrected_layout, ctx.tech)
    problems = verify_assignment(shifters, mono.assignment, ctx.tech,
                                 pairs=pairs)
    if problems:
        head = "; ".join(problems[:3])
        return (f"geometric oracle rejects assignment "
                f"({len(problems)} problem(s): {head})")
    return None


def _check_darkfield(ctx: DiffContext) -> Optional[str]:
    """Dark-field detection is deterministic and its phases 2-color
    the independently rebuilt interaction graph minus the conflicts."""
    from ..darkfield import build_darkfield_graph, detect_darkfield_conflicts

    r1 = detect_darkfield_conflicts(ctx.layout, ctx.tech)
    r2 = detect_darkfield_conflicts(ctx.layout, ctx.tech)
    key = lambda r: (r.num_critical, r.num_edges, r.phase_assignable,
                     sorted(r.conflicts),
                     sorted(r.phases.items()) if r.phases else None)
    if key(r1) != key(r2):
        return "dark-field detection not deterministic across reruns"
    if r1.phases is not None:
        df = build_darkfield_graph(ctx.layout, ctx.tech)
        removed = set(map(tuple, r1.conflicts))
        for pair in df.edge_pair.values():
            if tuple(sorted(pair)) in removed:
                continue
            a, b = pair
            if a in r1.phases and b in r1.phases \
                    and r1.phases[a] == r1.phases[b]:
                return (f"dark-field features {a}/{b} interact but "
                        f"share phase {r1.phases[a]}")
    return None


InvariantFn = Callable[[DiffContext], Optional[str]]

INVARIANTS: Dict[str, InvariantFn] = {
    "tiled": _check_tiled,
    "eco": _check_eco,
    "executors": _check_executors,
    "oracle": _check_oracle,
    "darkfield": _check_darkfield,
}


def invariant_names() -> List[str]:
    """All registered invariants, in matrix order."""
    return list(INVARIANTS)


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
@dataclass
class InvariantResult:
    """One invariant's verdict on one scenario."""

    name: str
    status: str                # "ok" | "fail"
    seconds: float = 0.0
    detail: str = ""

    def as_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {"name": self.name,
                                  "status": self.status,
                                  "seconds": round(self.seconds, 4)}
        if self.detail:
            out["detail"] = self.detail
        return out


@dataclass
class ScenarioResult:
    """All invariant verdicts for one scenario."""

    scenario: Scenario
    invariants: List[InvariantResult] = field(default_factory=list)
    shrunk: Optional[Dict[str, object]] = None

    @property
    def failures(self) -> List[InvariantResult]:
        return [r for r in self.invariants if r.status == "fail"]

    @property
    def ok(self) -> bool:
        return not self.failures

    def as_dict(self) -> Dict[str, object]:
        out = self.scenario.summary_dict()
        out["status"] = "ok" if self.ok else "fail"
        out["checks"] = [r.as_dict() for r in self.invariants]
        if self.shrunk is not None:
            out["shrunk"] = self.shrunk
        return out


@dataclass
class FuzzReport:
    """The corpus-level outcome the CLI serializes."""

    results: List[ScenarioResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def counts(self) -> Dict[str, int]:
        checks = [c for r in self.results for c in r.invariants]
        return {
            "scenarios": len(self.results),
            "failed_scenarios": sum(not r.ok for r in self.results),
            "checks": len(checks),
            "ok": sum(c.status == "ok" for c in checks),
            "fail": sum(c.status == "fail" for c in checks),
        }

    def as_dict(self) -> Dict[str, object]:
        return {"summary": self.counts(),
                "scenarios": [r.as_dict() for r in self.results]}


# ----------------------------------------------------------------------
# Runners
# ----------------------------------------------------------------------
def _check(name: str, ctx: DiffContext) -> Optional[str]:
    """One invariant's verdict on a context: None holds, a string fails.

    A flow that raises is a finding, not a crash of the fuzzer: the
    exception becomes the failure detail ``raised <Type>: <message>``
    (traceback logged at debug level), which the corpus report records
    and the shrinker's predicate counts as a failure.
    """
    check = INVARIANTS[name]
    try:
        return check(ctx)
    except Exception as exc:  # a raising flow fails the check
        get_logger("scenarios").debug(
            "fuzz.raised", invariant=name, scenario=ctx.scenario.name,
            traceback=traceback.format_exc())
        return f"raised {type(exc).__name__}: {exc}"


def run_invariant(ctx: DiffContext, name: str) -> InvariantResult:
    """Run one named invariant against a prepared context."""
    tracer = get_tracer()
    start = time.perf_counter()
    with tracer.span("invariant", cat="fuzz", invariant=name,
                     scenario=ctx.scenario.name):
        detail = _check(name, ctx)
    status = "ok" if detail is None else "fail"
    tracer.count(f"fuzz.checks.{status}")
    return InvariantResult(name, status, time.perf_counter() - start,
                           detail or "")


def run_scenario(scenario: Scenario,
                 invariants: Optional[Sequence[str]] = None
                 ) -> ScenarioResult:
    """One scenario through its invariant matrix.

    ``invariants`` restricts the matrix (CLI ``--invariants``); the
    scenario's own tags gate which of those apply — a stratum that
    documents a divergence (duplicate rects vs the tiled path) simply
    doesn't tag the diverging invariant.
    """
    requested = list(invariants) if invariants is not None \
        else list(scenario.invariants)
    unknown = [n for n in requested if n not in INVARIANTS]
    if unknown:
        known = ", ".join(INVARIANTS)
        raise KeyError(f"unknown invariant(s) {unknown} "
                       f"(known: {known})")
    ctx = DiffContext(scenario)
    result = ScenarioResult(scenario=scenario)
    for name in requested:
        if name not in scenario.invariants:
            continue
        result.invariants.append(run_invariant(ctx, name))
    get_tracer().count("fuzz.scenarios")
    return result


def run_invariant_on_layout(name: str, layout: Layout,
                            tech: Optional[Technology] = None,
                            tiles: Optional[Tuple[int, int]] = None
                            ) -> Optional[str]:
    """Run one invariant on a bare layout; None = holds, str = detail.

    The entry point shared by the shrinker's failure predicate, the
    paste-able test cases it emits, and the promoted regression suite:
    all three re-check exactly the invariant that failed, on exactly
    the rects in hand.
    """
    if tech is None:
        tech = Technology.node_90nm()
    scenario = Scenario(
        name=f"adhoc-{scenario_id(layout, tech, tiles)[:8]}",
        stratum="adhoc", layout=layout, tech=tech, tiles=tiles,
        invariants=tuple(INVARIANTS),
        sid=scenario_id(layout, tech, tiles))
    return _check(name, DiffContext(scenario))
