"""The column assign against the object decomposition it replaced.

``assign_and_verify_incremental`` decomposes the conflict graph into
columns, asks the store once per component per kind, replays every
coloring in one scatter and derives every verdict from one pass over
both conditions.  ``tests/oracles.py:object_assign_and_verify`` is the
per-component loop over ``GraphComponent`` objects it replaced.  Both
must return the same assignment, problems and component count, count
the same hits and misses, and leave the same entries in the store —
cold, fully warm, with one dirty component, on a graph with an odd
component, and over a directory of format-2 entries.
"""

import pytest

from repro.bench import build_design
from repro.cache import KIND_COLORING, KIND_VERIFY, ArtifactCache, cache_delta
from repro.conflict import build_layout_conflict_graph, layout_front_end
from repro.core import run_aapsm_flow
from repro.phase import assign_and_verify_incremental
from repro.pipeline import isolated_interior_features, perturb_feature

from ..oracles import object_assign_and_verify


def corrected(name, tech):
    return run_aapsm_flow(build_design(name), tech).corrected_layout


def run(assign, layout, tech, store, **kw):
    """One assign over ``store``: its result and the store's delta."""
    cg, _shifters, pairs = build_layout_conflict_graph(layout, tech)
    with cache_delta(store) as delta:
        assignment, problems, count = assign(cg, tech, pairs, store, **kw)
    phases = None if assignment is None else assignment.phases
    return (phases, problems, count), delta


def assert_same(layouts, tech):
    """Both drivers over their own fresh store, layout after layout:
    the same answers, deltas and store entries at every step."""
    column, oracle = ArtifactCache(), ArtifactCache()
    deltas = []
    for layout in layouts:
        got = run(assign_and_verify_incremental, layout, tech, column)
        want = run(object_assign_and_verify, layout, tech, oracle)
        assert got == want
        deltas.append(got[1])
    assert column._memory == oracle._memory
    return deltas


@pytest.mark.parametrize("name", ["D2", "D3"])
def test_cold_and_fully_warm(tech, name):
    layout = corrected(name, tech)
    cold, warm = assert_same([layout, layout], tech)
    count = cold[KIND_COLORING][1]
    assert count > 0
    assert cold == {KIND_COLORING: (0, count), KIND_VERIFY: (0, count)}
    assert warm == {KIND_COLORING: (count, 0), KIND_VERIFY: (count, 0)}


def test_one_dirty_component(tech):
    """An edit that moves one isolated feature dirties exactly its
    component: one recolor and one re-verification, the rest replay."""
    base = corrected("D2", tech)
    shifters, _pairs = layout_front_end(base, tech)
    critical = set(shifters.feature_column().tolist())
    index = next(i for i in isolated_interior_features(base, tech)
                 if i in critical)
    edited = perturb_feature(base, index)
    _cold, eco = assert_same([base, edited], tech)
    hits, misses = eco[KIND_COLORING]
    assert misses == 1 and hits > 0
    assert eco[KIND_VERIFY] == (hits, 1)


def test_odd_component(tech):
    """A graph that is not bipartite: no assignment, no problems, no
    verify lookups; the odd verdict replays on a warm run."""
    layout = build_design("D1")
    cold, warm = assert_same([layout, layout], tech)
    count = cold[KIND_COLORING][1]
    assert cold == {KIND_COLORING: (0, count)}
    assert warm == {KIND_COLORING: (count, 0)}
    cg, _s, pairs = build_layout_conflict_graph(layout, tech)
    assert assign_and_verify_incremental(cg, tech, pairs,
                                         ArtifactCache())[:2] == (None, [])


def test_format2_entries_read_as_misses(tech, tmp_path):
    """A directory written by format 2 (tuple codes under format-2
    content ids) is never read: every lookup misses, nothing raises,
    and the answers are the cold ones."""
    layout = corrected("D2", tech)
    run(object_assign_and_verify, layout, tech,
        ArtifactCache(str(tmp_path)), fmt=2)
    assert any(p.name.startswith("coloring-") for p in tmp_path.iterdir())
    got, delta = run(assign_and_verify_incremental, layout, tech,
                     ArtifactCache(str(tmp_path)))
    want, _ = run(object_assign_and_verify, layout, tech, ArtifactCache())
    assert got == want
    count = got[2]
    assert delta == {KIND_COLORING: (0, count), KIND_VERIFY: (0, count)}
    # The directory now holds both formats; format 3 replays its own.
    _got, warm = run(assign_and_verify_incremental, layout, tech,
                     ArtifactCache(str(tmp_path)))
    assert warm == {KIND_COLORING: (count, 0), KIND_VERIFY: (count, 0)}
