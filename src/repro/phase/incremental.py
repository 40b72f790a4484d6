"""Component-scoped incremental phase assignment and re-verification.

The last whole-chip passes of the warm ECO path used to live here: a
chip-wide 2-coloring and a chip-wide geometric verification on every
run, even when 15 of 16 tiles were known-clean.  Both distribute over
conflict-graph components (a coloring never crosses a component, and
every geometric constraint relates graph-adjacent shifters), so this
driver works per component against the unified artifact store:

* colorings replay through :func:`repro.graph.two_color_incremental`
  (kind ``coloring``, keyed by component content id);
* verifier verdicts replay under kind ``verify``, keyed by component
  content id plus the rule deck.

A component whose geometry an edit left untouched costs two cache
lookups; only dirty components re-run BFS and the geometric checks.
The result is *identical* to the cold chip-wide path — canonical
polarity pins the coloring, and scoped verification partitions the
full check exactly — which the determinism suite asserts.

Cached verdicts store violation strings verbatim.  Shifter ids inside
those strings reflect the revision that produced them; a replayed
verdict with violations may therefore cite stale ids.  That only
affects diagnostics on already-failing layouts — emptiness (the
success signal) is revision-independent.
"""

from __future__ import annotations

import hashlib
from itertools import chain
from typing import List, Optional, Sequence, Tuple

from ..cache import KIND_VERIFY, ArtifactCache
from ..graph import decompose, two_color_incremental
from ..layout import Technology, tech_fingerprint
from ..obs import get_tracer
from ..shifters import OverlapPair, pair_columns
from .assignment import PhaseAssignment, assignment_from_colors
from .verify import condition1_problems, condition2_problems, \
    feature_pair_triples


def verify_key(content_id: str, tech: Technology) -> str:
    """Cache key of one component's verifier verdict.

    The component content id pins the geometry-anchored node/edge
    structure (and with it the deterministic coloring); the rule deck
    is hashed in because overlap extraction — the geometric meaning of
    the checks — depends on it.
    """
    h = hashlib.sha256()
    h.update(f"verify:{content_id};".encode())
    h.update(tech_fingerprint(tech))
    return h.hexdigest()


def assign_and_verify_incremental(
        conflict_graph, tech: Technology,
        pairs: Sequence[OverlapPair],
        store: ArtifactCache,
) -> Tuple[Optional[PhaseAssignment], List[str], int]:
    """Assign phases and verify them, one component at a time.

    Returns ``(assignment, problems, components)``; ``assignment`` is
    None when the graph is not bipartite (problems then empty — there
    is nothing to verify), and ``components`` is the conflict graph's
    component count.  Output equals ``assign_phases`` plus a full-chip
    ``verify_assignment`` on every input, warm or cold.  The store
    counts one ``coloring`` get per component and, once the coloring
    succeeds, one ``verify`` get per component: a hit replayed, a miss
    recomputed.
    """
    graph = conflict_graph.graph
    components = decompose(graph)
    colors = two_color_incremental(graph, store, components=components)
    if colors is None:
        return None, [], len(components)
    assignment = assignment_from_colors(conflict_graph, colors)

    # Constraint grouping is chip-wide work; on a warm run every verdict
    # replays from the store and the grouping would be wasted, so it is
    # deferred until the first component that actually re-verifies.
    groups: Optional[Tuple[list, list]] = None

    def group_constraints() -> Tuple[list, list]:
        """Condition-1 triples and Condition-2 id pairs, each grouped by
        the component of its first shifter, in check order."""
        import numpy as np

        comp_of = np.empty(graph.num_nodes(), dtype=np.int64)
        comp_of[np.fromiter(chain.from_iterable(
            c.nodes for c in components), dtype=np.int64,
            count=graph.num_nodes())] = np.repeat(
                np.arange(len(components)),
                [c.num_nodes for c in components])
        triples = feature_pair_triples(conflict_graph.shifters)
        cols = pair_columns(pairs)
        ends = (cols[:, 0], cols[:, 1])
        return (_grouped(np, comp_of[triples[1]], triples,
                         len(components)),
                _grouped(np, comp_of[ends[0]], ends, len(components)))

    tracer = get_tracer()
    problems: List[str] = []
    for component in components:
        key = verify_key(component.content_id, tech)
        cached = store.get(KIND_VERIFY, key)
        if cached is None:
            if groups is None:
                groups = group_constraints()
            # Spans only for components actually re-verified; replayed
            # verdicts are already visible as verify-kind cache hits.
            with tracer.span("component", cat="component", op="verify",
                             component=component.content_id[:12],
                             nodes=len(component.nodes)) as span:
                verdict = tuple(
                    condition1_problems(groups[0][component.index],
                                        assignment)
                    + condition2_problems(groups[1][component.index],
                                          assignment))
                span.set(violations=len(verdict))
            store.put(KIND_VERIFY, key, verdict)
        else:
            verdict = cached
        problems.extend(verdict)
    return assignment, problems, len(components)


def _grouped(np, comp, columns, count: int) -> list:
    """The rows of parallel id ``columns`` bucketed by their component
    ``comp``: one list of tuples per component, rows in input order."""
    order = np.argsort(comp, kind="stable")
    rows = list(zip(*(col[order].tolist() for col in columns)))
    bounds = np.searchsorted(comp[order],
                             np.arange(count + 1)).tolist()
    return [rows[a:b] for a, b in zip(bounds, bounds[1:])]
