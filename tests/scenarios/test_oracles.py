"""The smoke corpus's geometry, matching and correction, checked
against the oracles.

``repro fuzz`` compares configurations the flow ships; the scalar
kernel, the networkx / brute matchers and the whole-instance set cover
ship only in the tests, so their scenario-level differentials live
here.  Every smoke-corpus scenario (six strata x seeds 0-2) must
produce a byte-identical flow report with a kernel or matcher oracle
swapped in behind ``get_kernel`` / ``get_matcher`` (and, under
networkx, the same removed edge ids), and the same
correction with the whole-instance cover swapped in behind
``solve_cover_windows``.  The shortest-path T-join reference, swapped
in behind ``min_tjoin_gadget``, must give the gadget reduction's
report on the same scenarios.
"""

import pytest

from repro.core.flow import run_aapsm_flow
from repro.scenarios import build_scenario, report_key, stratum_names

from ..oracles import (
    BruteMatcher,
    NetworkxMatcher,
    RecordingMatcher,
    ScalarKernel,
    cover_oracle_divergence,
    use_kernel,
    use_matcher,
    use_paths_engine,
)

SMOKE = [(stratum, seed) for stratum in stratum_names() for seed in range(3)]

# Largest gadget component the exponential brute oracle is handed.
# Measured on every stratum at seeds 0-2 and 1000-1011 (2-CPU box):
# components of up to 36 nodes took at most 0.13 s, the next size the
# corpus produces (48) ran past 3 s.
BRUTE_COMPONENT_BUDGET = 36


@pytest.mark.parametrize("stratum,seed", SMOKE)
def test_scalar_kernel_oracle(stratum, seed):
    s = build_scenario(stratum, seed)
    with use_kernel(ScalarKernel()):
        oracle = run_aapsm_flow(s.layout, s.tech)
    assert report_key(oracle) == report_key(run_aapsm_flow(s.layout, s.tech))


@pytest.mark.parametrize("stratum,seed", SMOKE)
def test_networkx_matcher_oracle(stratum, seed):
    pytest.importorskip("networkx")
    s = build_scenario(stratum, seed)
    with use_matcher(NetworkxMatcher()):
        oracle = run_aapsm_flow(s.layout, s.tech)
    base = run_aapsm_flow(s.layout, s.tech)
    assert report_key(oracle) == report_key(base)
    # The simple T-join instance leaves the matcher no tie to break.
    for section in ("detection", "post_detection"):
        assert getattr(oracle, section).removed_edge_ids == \
            getattr(base, section).removed_edge_ids


@pytest.mark.parametrize("stratum,seed", SMOKE)
def test_brute_matcher_oracle(stratum, seed):
    s = build_scenario(stratum, seed)
    recorder = RecordingMatcher()
    with use_matcher(recorder):
        base = run_aapsm_flow(s.layout, s.tech)
    largest = max(recorder.sizes, default=0)
    if largest > BRUTE_COMPONENT_BUDGET:
        pytest.skip(f"largest matching component has {largest} nodes "
                    f"(brute budget {BRUTE_COMPONENT_BUDGET})")
    with use_matcher(BruteMatcher()):
        brute = run_aapsm_flow(s.layout, s.tech)
    assert report_key(brute) == report_key(base)


@pytest.mark.parametrize("stratum,seed", SMOKE)
def test_whole_instance_cover_oracle(stratum, seed):
    s = build_scenario(stratum, seed)
    assert cover_oracle_divergence(s.layout, s.tech) is None


@pytest.mark.parametrize("stratum,seed", SMOKE)
def test_shortest_path_tjoin_agrees(stratum, seed):
    """The shortest-path (Edmonds-Johnson) T-join reference gives the
    gadget reduction's flow report: the optimum is unique under the
    tie-free weights, so the engines must agree byte for byte."""
    s = build_scenario(stratum, seed)
    with use_paths_engine():
        paths = run_aapsm_flow(s.layout, s.tech)
    assert report_key(paths) == report_key(run_aapsm_flow(s.layout, s.tech))
