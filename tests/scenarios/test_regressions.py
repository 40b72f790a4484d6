"""Promoted scenario regressions: one hand-picked case per stratum.

The full corpus runs in CI's fuzz-smoke job; these are the fast tier-1
distillations — each pins the one invariant its stratum most directly
stresses, on the seed whose geometry was verified by hand when the
curriculum landed.  No shrunk corpus findings existed at promotion
time (the matrix was green), so these are the hand-picked
representatives the issue calls for; genuine shrunk repros join this
file as the fuzzer finds them.
"""

import hashlib

import pytest

from repro.core.flow import run_aapsm_flow
from repro.layout import layout_from_rects
from repro.scenarios import (
    build_scenario,
    report_key,
    run_invariant_on_layout,
    run_scenario,
    shrink_scenario_failure,
)

from ..oracles import cover_oracle_divergence

# sha256 of report_key for duplicate:1024 on the default (monolithic)
# path, as the comparison-sort embedding produced it.
DUPLICATE_1024_REPORT = \
    "2d79cd65164cae49ae86e2b182620c72dca5e5c44bc0d3f3f35a8750e2a1755e"


class TestPromotedScenarios:
    def test_density_tight_windowed_equals_global(self, tech):
        """Seed 3 is the DRC-tight level: every gap near the 140 nm
        floor, the densest correction instance the sweep produces."""
        s = build_scenario("density", 3)
        assert cover_oracle_divergence(s.layout, s.tech) is None

    def test_oddcycle_chain_tiled_equals_monolithic(self):
        """Seed 1 builds two chains, one with a nested second cycle —
        the stitcher must reassemble the long odd cycles exactly."""
        s = build_scenario("oddcycle", 1)
        assert run_invariant_on_layout("tiled", s.layout) is None

    def test_tjoin_grid_conflict_count_exact(self, tech):
        """The T-join witness grid has a known optimum: one conflict
        per independent Figure-1 cluster, nothing more."""
        s = build_scenario("tjoin", 1)
        r = run_aapsm_flow(s.layout, tech)
        assert r.detection.num_conflicts == s.expect_conflicts
        assert r.success

    def test_boundary_seam_conflicts_tiled_equals_monolithic(self):
        """Conflict clusters pinned on the 3x3 grid's seams: owner
        arbitration must not drop or double-count the seam conflicts."""
        s = build_scenario("boundary", 1)
        assert run_invariant_on_layout("tiled", s.layout,
                                       tiles=s.tiles) is None

    def test_darkfield_parity_holds(self):
        s = build_scenario("darkfield", 0)
        assert run_invariant_on_layout("darkfield", s.layout) is None

    def test_duplicate_rects_executors_agree(self):
        """Duplicate rects collide in the coordinate-anchored keys;
        every executor must still produce the identical report."""
        s = build_scenario("duplicate", 0)
        assert run_invariant_on_layout("executors", s.layout) is None

    def test_duplicate_rects_oracle_accepts(self):
        s = build_scenario("duplicate", 1)
        assert run_invariant_on_layout("oracle", s.layout) is None

    def test_duplicate_zero_length_darts_flow(self):
        """Seed 1024's duplicate rects put zero-length edges into the
        planarized conflict graph.  Ordering their darts in the wrong
        half-plane left an odd cycle after bipartization and the flow
        raised; now it runs and reproduces the pinned report."""
        s = build_scenario("duplicate", 1024)
        r = run_aapsm_flow(s.layout, s.tech)
        assert r.detection.num_conflicts == 14
        assert hashlib.sha256(report_key(r).encode()).hexdigest() \
            == DUPLICATE_1024_REPORT

    def test_raising_flow_is_a_recorded_failure(self):
        """Seed 1022's coincident shifter nodes still break the
        bipartization invariant inside the flow.  The fuzzer records
        every check whose flow raises as a failure naming the
        exception, instead of dying."""
        result = run_scenario(build_scenario("duplicate", 1022))
        assert not result.ok
        assert result.failures
        for failure in result.failures:
            assert failure.detail.startswith(
                "raised AssertionError: bipartization invariant violated")

    def test_raising_flow_shrinks_to_a_raising_repro(self):
        """The shrinker's predicate counts a raise as a failure, so a
        small budget already yields a smaller layout that raises."""
        s = build_scenario("duplicate", 1022)
        outcome = shrink_scenario_failure(s, "oracle", max_runs=30)
        assert outcome is not None
        assert len(outcome.rects) < outcome.original_rects
        with pytest.raises(AssertionError,
                           match="bipartization invariant violated"):
            run_aapsm_flow(layout_from_rects(outcome.rects), s.tech)
