"""The flow entry points pause the cyclic garbage collector, and the
flow creates no reference cycles, so the pause holds back no memory.

``run_pipeline``, ``run_chip_flow`` and ``run_eco_flow`` disable the
collector for their whole run unless it is already disabled, and
restore it on return and on raise.  The cycle-free tests run flows
with the collector off and require a full collection afterwards to
find nothing unreachable.
"""

import gc

import pytest

import repro.chip.orchestrator as orchestrator
import repro.pipeline.runner as runner
from repro.bench import build_design
from repro.chip import run_chip_flow
from repro.layout import Technology
from repro.pipeline import (
    PipelineConfig,
    propose_eco_edit,
    run_eco_flow,
    run_pipeline,
)
from repro.scenarios import build_scenario, stratum_names

TILED = (2, 2)


class StageFailure(RuntimeError):
    """Raised by a monkeypatched stage to make a flow fail."""


@pytest.fixture
def collector():
    """Restore the collector state the test started with."""
    was_enabled = gc.isenabled()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.fixture(scope="module")
def d1():
    return build_design("D1")


def _pipeline(layout, tech):
    return run_pipeline(layout, tech, PipelineConfig(tiles=TILED))


def _chip(layout, tech):
    return run_chip_flow(layout, tech, tiles=TILED)


def _eco(layout, tech):
    edited, _index = propose_eco_edit(layout, tech)
    return run_eco_flow(layout, edited, tech, PipelineConfig(tiles=TILED))


# Entry point -> (flow, module and name of a stage it calls).  The eco
# flow fails inside its nested run_pipeline.
ENTRY_POINTS = {
    "run_pipeline": (_pipeline, runner, "stage_correct"),
    "run_chip_flow": (_chip, orchestrator, "stitch_results"),
    "run_eco_flow": (_eco, runner, "stage_correct"),
}


class TestCollectorState:
    @pytest.mark.parametrize("raises", [False, True],
                             ids=["returns", "raises"])
    @pytest.mark.parametrize("enabled", [True, False],
                             ids=["enabled", "disabled"])
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_state_restored(self, tech, d1, monkeypatch, collector,
                            entry, enabled, raises):
        """The collector is off inside the flow and back in its entry
        state afterwards.  The eco flow nests run_eco_flow ->
        run_pipeline -> run_chip_flow; on return its stage has run in
        both nested pipelines, each time after a nested chip flow
        returned, so an inner entry point that resumed the collector
        fails here."""
        flow, module, name = ENTRY_POINTS[entry]
        real = getattr(module, name)
        seen = []

        def stage(*args, **kwargs):
            seen.append(gc.isenabled())
            if raises:
                raise StageFailure(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, stage)
        if enabled:
            gc.enable()
        else:
            gc.disable()
        if raises:
            with pytest.raises(StageFailure):
                flow(d1, tech)
        else:
            flow(d1, tech)
        assert seen, f"{name} never ran"
        assert not any(seen), "collector ran inside the flow"
        assert gc.isenabled() is enabled


def _unreachable_after(flow) -> int:
    """Objects a full collection finds unreachable after ``flow`` ran
    with the collector off."""
    gc.collect()
    gc.disable()
    flow()
    return gc.collect()


@pytest.fixture(scope="module")
def warmed(d1):
    """One monolithic and one tiled flow first: first-run imports and
    lazy set-up leave one-off garbage."""
    tech = Technology.node_90nm()
    for tiles in (None, TILED):
        run_pipeline(d1, tech, PipelineConfig(tiles=tiles))


class TestCycleFree:
    @pytest.mark.parametrize("tiles", [None, TILED],
                             ids=["monolithic", "tiled"])
    def test_d1(self, tech, d1, warmed, collector, tiles):
        config = PipelineConfig(tiles=tiles)
        assert _unreachable_after(
            lambda: run_pipeline(d1, tech, config)) == 0

    @pytest.mark.parametrize("stratum", stratum_names())
    def test_smoke_corpus(self, warmed, collector, stratum):
        leaks = {}
        for seed in range(3):
            scenario = build_scenario(stratum, seed)
            for tiles in (None, TILED):
                config = PipelineConfig(tiles=tiles)
                found = _unreachable_after(
                    lambda: run_pipeline(scenario.layout, scenario.tech,
                                         config))
                if found:
                    leaks[(seed, tiles)] = found
        assert not leaks, f"unreachable objects after {stratum} flows"
