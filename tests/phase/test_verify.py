"""Scoped verification and the incremental phase driver."""

import pytest

from repro.bench import build_design
from repro.cache import KIND_COLORING, KIND_VERIFY, ArtifactCache, cache_delta
from repro.conflict import build_layout_conflict_graph
from repro.core import run_aapsm_flow
from repro.graph import decompose
from repro.layout import grating_layout
from repro.phase import (
    PHASE_0,
    PHASE_180,
    assign_and_verify_incremental,
    assign_phases,
    verify_assignment,
    verify_key,
)


def corrected_design(name, tech):
    return run_aapsm_flow(build_design(name), tech).corrected_layout


def component_scopes(cg):
    """The shifter ids of each conflict-graph component, in component
    order (shifter ``s`` is node ``s``; auxiliary nodes dropped)."""
    parts = decompose(cg.graph)
    scopes = [set() for _ in range(len(parts))]
    for node, comp in enumerate(parts.comp[:len(cg.shifters)].tolist()):
        scopes[comp].add(node)
    return scopes


class TestScopedVerify:
    def test_scoped_union_equals_full_chip(self, tech):
        """Component scopes partition the full check exactly — every
        constraint appears in exactly one component's scope."""
        lay = corrected_design("D2", tech)
        cg, shifters, pairs = build_layout_conflict_graph(lay, tech)
        assignment = assign_phases(cg)
        # Break a couple of constraints so problems are non-trivial.
        assignment.phases[0] = assignment.phases[1]
        full = verify_assignment(shifters, assignment, tech, pairs=pairs)
        union = []
        for scope in component_scopes(cg):
            union += verify_assignment(shifters, assignment, tech,
                                       pairs=pairs, scope=scope)
        assert sorted(union) == sorted(full)
        assert full  # the broken constraint was actually caught

    def test_scope_filters_out_of_scope_violations(self, tech):
        cg, shifters, pairs = build_layout_conflict_graph(
            grating_layout(4), tech)
        assignment = assign_phases(cg)
        assignment.phases[0] = assignment.phases[1]  # break feature 0
        in_scope = verify_assignment(shifters, assignment, tech,
                                     pairs=pairs, scope={0, 1})
        far_scope = verify_assignment(shifters, assignment, tech,
                                      pairs=pairs,
                                      scope={len(shifters) - 1})
        assert any("condition1" in p for p in in_scope)
        assert far_scope == []

    def test_empty_scope_checks_nothing(self, tech):
        cg, shifters, pairs = build_layout_conflict_graph(
            grating_layout(3), tech)
        assignment = assign_phases(cg)
        assignment.phases[0] = assignment.phases[1]
        assert verify_assignment(shifters, assignment, tech,
                                 pairs=pairs, scope=set()) == []

    def test_scope_recomputes_pairs_when_not_given(self, tech):
        """Scoping must not cost the verifier its oracle independence:
        without pairs it still derives them from geometry."""
        cg, shifters, pairs = build_layout_conflict_graph(
            grating_layout(4), tech)
        assignment = assign_phases(cg)
        scope = set(range(len(shifters)))
        assert (verify_assignment(shifters, assignment, tech, scope=scope)
                == verify_assignment(shifters, assignment, tech,
                                     pairs=pairs, scope=scope))


class TestIncrementalDriver:
    @pytest.mark.parametrize("name", ["D1", "D2"])
    def test_equals_cold_assign_and_verify(self, tech, name):
        lay = corrected_design(name, tech)
        cg, shifters, pairs = build_layout_conflict_graph(lay, tech)
        cold = assign_phases(cg)
        cold_problems = verify_assignment(shifters, cold, tech,
                                          pairs=pairs)
        store = ArtifactCache()
        with cache_delta(store) as d1:
            warm1, p1, n1 = assign_and_verify_incremental(cg, tech, pairs,
                                                          store)
        with cache_delta(store) as d2:
            warm2, p2, n2 = assign_and_verify_incremental(cg, tech, pairs,
                                                          store)
        assert warm1.phases == cold.phases == warm2.phases
        assert sorted(p1) == sorted(cold_problems) == sorted(p2)
        # Cold store: every component recolored and re-verified.
        assert n1 > 0
        assert d1 == {KIND_COLORING: (0, n1), KIND_VERIFY: (0, n1)}
        # Warm store: every component replays both.
        assert d2 == {KIND_COLORING: (n2, 0), KIND_VERIFY: (n2, 0)}

    def test_non_bipartite_returns_none(self, tech):
        cg, _s, pairs = build_layout_conflict_graph(build_design("D1"),
                                                    tech)
        assert assign_phases(cg) is None
        store = ArtifactCache()
        with cache_delta(store) as delta:
            assignment, problems, _n = assign_and_verify_incremental(
                cg, tech, pairs, store)
        assert assignment is None and problems == []
        assert KIND_VERIFY not in delta  # nothing to verify without phases

    def test_phases_are_0_and_180(self, tech):
        cg, _s, pairs = build_layout_conflict_graph(grating_layout(3),
                                                    tech)
        assignment, _p, _s2 = assign_and_verify_incremental(
            cg, tech, pairs, ArtifactCache())
        assert set(assignment.phases.values()) <= {PHASE_0, PHASE_180}

    def test_store_kinds_populated(self, tech):
        cg, _s, pairs = build_layout_conflict_graph(grating_layout(4),
                                                    tech)
        store = ArtifactCache()
        _a, _p, components = assign_and_verify_incremental(cg, tech, pairs,
                                                           store)
        assert store.stats(KIND_COLORING).misses == components
        assert store.stats(KIND_VERIFY).misses == components


class TestVerifyKey:
    def test_depends_on_content_and_tech(self, tech):
        from repro.layout import Technology

        assert verify_key("abc", tech) == verify_key("abc", tech)
        assert verify_key("abc", tech) != verify_key("abd", tech)
        assert (verify_key("abc", tech)
                != verify_key("abc", Technology.node_65nm()))


class TestColumnVerifyOracle:
    """Both verifiers read id columns; their problems — message text,
    order and grouping included, since cached ``verify`` verdicts store
    them verbatim — equal the per-object oracle's on broken
    assignments (``tests/oracles.py:scalar_verify_assignment``)."""

    @staticmethod
    def broken(cg, seed):
        import random

        assignment = assign_phases(cg)
        rng = random.Random(seed)
        for sid in rng.sample(sorted(assignment.phases),
                              len(assignment.phases) // 5):
            assignment.phases[sid] = PHASE_180 + PHASE_0 \
                - assignment.phases[sid]
        return assignment

    @pytest.mark.parametrize("name", ["D1", "D2", "D3"])
    def test_full_and_scoped(self, tech, name):
        import random

        from ..oracles import scalar_verify_assignment

        cg, shifters, pairs = build_layout_conflict_graph(
            corrected_design(name, tech), tech)
        assignment = self.broken(cg, 3)
        expected = scalar_verify_assignment(shifters, assignment, pairs)
        assert expected
        assert verify_assignment(shifters, assignment, tech,
                                 pairs=pairs) == expected
        rng = random.Random(5)
        scope = set(rng.sample(range(len(shifters)), len(shifters) // 3))
        assert verify_assignment(shifters, assignment, tech, pairs=pairs,
                                 scope=scope) \
            == scalar_verify_assignment(shifters, assignment, pairs, scope)

    @pytest.mark.parametrize("name", ["D2", "D3"])
    def test_incremental_groups_per_component(self, tech, name,
                                              monkeypatch):
        """The one-pass verdicts, bucketed by component, on a broken
        coloring: the driver's problems (it checks the coloring it is
        handed) equal the oracle's, component by component."""
        import random

        from repro.phase import incremental

        from ..oracles import scalar_verify_assignment

        cg, shifters, pairs = build_layout_conflict_graph(
            corrected_design(name, tech), tech)
        real = incremental.two_color_incremental

        def broken(graph, store, parts):
            colors = real(graph, store, parts)
            rng = random.Random(7)
            flip = rng.sample(range(len(shifters)), len(shifters) // 5)
            colors[flip] ^= 1
            return colors

        monkeypatch.setattr(incremental, "two_color_incremental", broken)
        assignment, problems, _n = assign_and_verify_incremental(
            cg, tech, pairs, ArtifactCache())
        expected = []
        for scope in component_scopes(cg):
            # Each constraint belongs to the component of its first
            # shifter; both shifters share it.
            expected += scalar_verify_assignment(shifters, assignment,
                                                 pairs, scope)
        assert problems == expected and problems
