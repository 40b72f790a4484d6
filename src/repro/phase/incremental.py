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

Both run as column passes over the decomposition: the store is asked
once per component per kind, and everything else — the fresh codes,
the replay, the violations of both conditions — is one vectorized pass
each, not a loop over components.  The result is *identical* to the
cold chip-wide path — canonical polarity pins the coloring, and scoped
verification partitions the full check exactly — which the
determinism suite asserts.

Cached verdicts store violation strings verbatim.  Shifter ids inside
those strings reflect the revision that produced them; a replayed
verdict with violations may therefore cite stale ids.  That only
affects diagnostics on already-failing layouts — emptiness (the
success signal) is revision-independent.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Sequence, Tuple

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
    return _verify_key(content_id, tech_fingerprint(tech))


def _verify_key(content_id: str, fingerprint: bytes) -> str:
    h = hashlib.sha256()
    h.update(f"verify:{content_id};".encode())
    h.update(fingerprint)
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
    succeeds, one ``verify`` get per component, in component order: a
    hit replayed, a miss recomputed and put.  One ``verify`` span
    covers the verdicts, with the component count and how many were
    recomputed and replayed.
    """
    graph = conflict_graph.graph
    parts = decompose(graph)
    count = len(parts)
    color = two_color_incremental(graph, store, parts)
    if color is None:
        return None, [], count
    assignment = assignment_from_colors(conflict_graph, color)

    # Every verdict comes from one pass over both conditions; on a warm
    # run every verdict replays from the store and the pass would be
    # wasted, so it waits for the first component that re-verifies.
    verdicts: Optional[Dict[int, Tuple[str, ...]]] = None
    fingerprint = tech_fingerprint(tech)
    get, put = store.get, store.put
    problems: List[str] = []
    recomputed = 0
    with get_tracer().span("verify", cat="component",
                           components=count) as span:
        for index, content_id in enumerate(parts.content_ids):
            key = _verify_key(content_id, fingerprint)
            verdict = get(KIND_VERIFY, key)
            if verdict is None:
                if verdicts is None:
                    verdicts = _verdicts(conflict_graph, pairs, parts.comp,
                                         color, assignment)
                verdict = verdicts.get(index, ())
                put(KIND_VERIFY, key, verdict)
                recomputed += 1
            problems.extend(verdict)
        span.set(recomputed=recomputed, replayed=count - recomputed)
    return assignment, problems, count


def _verdicts(conflict_graph, pairs, comp, color,
              assignment: PhaseAssignment) -> Dict[int, Tuple[str, ...]]:
    """Every component's violations, keyed by component index (a
    component without one is absent).

    One vectorized pass over the color column finds the violating rows
    of Condition 1 (the two shifters of a feature share a color) and
    Condition 2 (the two shifters of an overlap pair differ); each row
    belongs to the component of its first shifter, and a verdict lists
    its Condition-1 problems in feature order, then its Condition-2
    problems in pair order — the verifier's check order.
    """
    import numpy as np

    features, first, second = feature_pair_triples(conflict_graph.shifters)
    cols = pair_columns(pairs)
    a, b = cols[:, 0], cols[:, 1]
    bad1 = np.flatnonzero(color[first] == color[second])
    bad2 = np.flatnonzero(color[a] != color[b])
    grouped: Dict[int, List[str]] = {}
    for owners, problems in (
            (comp[first[bad1]], condition1_problems(
                zip(features[bad1].tolist(), first[bad1].tolist(),
                    second[bad1].tolist()), assignment)),
            (comp[a[bad2]], condition2_problems(
                zip(a[bad2].tolist(), b[bad2].tolist()), assignment))):
        for owner, problem in zip(owners.tolist(), problems):
            grouped.setdefault(owner, []).append(problem)
    return {owner: tuple(found) for owner, found in grouped.items()}
