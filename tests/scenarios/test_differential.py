"""Differential runner tests: the matrix machinery itself.

The full-corpus green run lives in CI (`repro fuzz`); here we keep a
fast representative slice plus the machinery contracts — report keys,
tag gating, failure details, corpus enumeration.
"""

import pytest

from repro.core.flow import run_aapsm_flow
from repro.scenarios import (
    INVARIANTS,
    DiffContext,
    build_corpus,
    build_scenario,
    invariant_names,
    report_key,
    resolve_strata,
    run_invariant,
    run_invariant_on_layout,
    run_scenario,
)


class TestReportKey:
    def test_excludes_pipeline_accounting(self, tech):
        """Tiled and monolithic runs of the same layout produce the
        same key even though their pipeline blocks and per-tile graph
        accounting differ."""
        s = build_scenario("tjoin", 0)
        mono = run_aapsm_flow(s.layout, tech)
        tiled = run_aapsm_flow(s.layout, tech, tiles=(2, 2))
        assert mono.detection.graph_nodes != tiled.detection.graph_nodes
        assert report_key(mono) == report_key(tiled)

    def test_distinguishes_domain_outcomes(self, tech):
        a = run_aapsm_flow(build_scenario("tjoin", 0).layout, tech)
        b = run_aapsm_flow(build_scenario("tjoin", 1).layout, tech)
        assert report_key(a) != report_key(b)


class TestMatrix:
    def test_registry_names(self):
        assert invariant_names() == ["tiled", "eco", "executors",
                                     "oracle", "darkfield"]

    @pytest.mark.parametrize("stratum,seed", [
        ("oddcycle", 0), ("boundary", 0), ("duplicate", 0),
    ])
    def test_representative_scenarios_green(self, stratum, seed):
        result = run_scenario(build_scenario(stratum, seed))
        assert result.ok, [(f.name, f.detail) for f in result.failures]
        # Every run tag appears exactly once, in matrix order.
        names = [c.name for c in result.invariants]
        assert names == [n for n in invariant_names()
                         if n in build_scenario(stratum,
                                                seed).invariants]

    def test_tag_gating_skips_untagged(self):
        """The duplicate stratum never runs the tiled invariant; a
        restriction to just 'tiled' therefore runs nothing."""
        result = run_scenario(build_scenario("duplicate", 0),
                              invariants=["tiled"])
        assert result.invariants == []
        assert result.ok

    def test_unknown_invariant_raises(self):
        with pytest.raises(KeyError, match="known: tiled, eco"):
            run_scenario(build_scenario("tjoin", 0),
                         invariants=["bogus"])

    def test_expected_conflicts_match_tjoin(self, tech):
        s = build_scenario("tjoin", 0)
        r = run_aapsm_flow(s.layout, tech)
        assert r.detection.num_conflicts == s.expect_conflicts

    def test_failure_carries_detail(self, monkeypatch):
        monkeypatch.setitem(INVARIANTS, "tiled",
                            lambda ctx: "injected divergence")
        result = run_scenario(build_scenario("boundary", 0),
                              invariants=["tiled"])
        assert not result.ok
        assert result.failures[0].detail == "injected divergence"
        assert result.as_dict()["status"] == "fail"

    def test_context_caches_baselines(self):
        ctx = DiffContext(build_scenario("boundary", 0))
        assert ctx.mono() is ctx.mono()
        assert ctx.tiled() is ctx.tiled()
        assert ctx.tiles == (3, 3)

    def test_run_invariant_times_checks(self):
        ctx = DiffContext(build_scenario("oddcycle", 0))
        res = run_invariant(ctx, "oracle")
        assert res.status == "ok"
        assert res.seconds >= 0


class TestRunInvariantOnLayout:
    def test_clean_layout_holds(self, tech):
        s = build_scenario("tjoin", 0)
        assert run_invariant_on_layout("tiled", s.layout,
                                       tech=tech) is None

    def test_respects_pinned_tiles(self):
        s = build_scenario("boundary", 0)
        assert run_invariant_on_layout("tiled", s.layout,
                                       tiles=s.tiles) is None


class TestCorpus:
    def test_corpus_order_and_size(self):
        corpus = build_corpus(count=2, seed=0)
        assert len(corpus) == 2 * len(resolve_strata(None))
        assert [s.stratum for s in corpus[:2]] == ["density", "density"]
        assert [s.seed for s in corpus[:2]] == [0, 1]

    def test_corpus_seed_offset(self):
        corpus = build_corpus(strata=["tjoin"], count=2, seed=7)
        assert [s.seed for s in corpus] == [7, 8]

    def test_strata_selection_validates(self):
        with pytest.raises(KeyError):
            build_corpus(strata=["nope"])
        assert resolve_strata(["all"]) == resolve_strata(None)
        # De-duplicated, curriculum order regardless of request order.
        assert resolve_strata(["tjoin", "density", "tjoin"]) == \
            ["density", "tjoin"]
