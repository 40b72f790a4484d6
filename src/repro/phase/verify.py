"""The geometric phase verifier.

Checks the paper's two conditions straight from geometry — it does not
trust the conflict graph — which makes it the independent oracle for
the whole flow's integration tests:

* Condition 1: the two shifters flanking a critical feature carry
  opposite phases.
* Condition 2: overlapping shifters carry the same phase.

:func:`verify_assignment` is the historical full-chip check.  It can
also be *scoped* to a set of shifter ids: both conditions relate
shifters that are graph-adjacent (feature edges, overlap paths), so
every check lives entirely inside one conflict-graph component and
verification distributes over components.  The incremental phase layer
(:mod:`repro.phase.incremental`) exploits exactly that — re-verifying
only components whose content changed — while the unscoped verifier
stays available as the ground truth the scoped union is tested
against.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Set, Tuple

from ..layout import Technology
from ..shifters import OverlapPair, ShifterSet, find_overlap_pairs, \
    pair_columns


def condition1_problems(feature_pairs: Iterable[Tuple[int, int, int]],
                        assignment) -> List[str]:
    """Opposite-phase violations among flanking shifter pairs, given as
    ``(feature index, shifter id, shifter id)`` triples."""
    problems: List[str] = []
    phases = assignment.phases
    for feature, a, b in feature_pairs:
        pa = phases[a]
        if pa == phases[b]:
            problems.append(
                f"condition1: feature {feature} shifters "
                f"{a}/{b} share phase {pa}")
    return problems


def condition2_problems(pairs: Iterable[Tuple[int, int]],
                        assignment) -> List[str]:
    """Same-phase violations among overlapping shifter pairs, given as
    ``(shifter id, shifter id)`` tuples."""
    problems: List[str] = []
    phases = assignment.phases
    for a, b in pairs:
        if phases[a] != phases[b]:
            problems.append(
                f"condition2: overlapping shifters {a}/{b} "
                f"have opposite phases")
    return problems


def feature_pair_triples(shifters: ShifterSet):
    """Every critical feature's ``(feature index, shifter, shifter)``
    ids as three int64 columns, features ascending (the order of
    :meth:`~repro.shifters.ShifterSet.feature_pairs`)."""
    first, second = shifters.feature_pair_ids()
    return shifters.feature_column()[first], first, second


def verify_assignment(shifters: ShifterSet, assignment,
                      tech: Technology,
                      pairs: Optional[Sequence[OverlapPair]] = None,
                      scope: Optional[Set[int]] = None) -> List[str]:
    """Check Conditions 1 and 2 directly from geometry.

    Returns human-readable violation strings (empty = valid).
    ``pairs`` accepts the layout's already-computed overlap pairs (the
    pipeline's front end); they are recomputed from geometry otherwise.
    ``scope`` restricts the check to constraints touching the given
    shifter ids; None checks the whole chip.  Because both endpoints
    of any constraint share a conflict-graph component, scoping by
    component partitions the full check exactly — no constraint is
    double-counted or dropped across a union of component scopes.
    Both checks read id columns: no shifter object is built.
    """
    import numpy as np

    if pairs is None:
        pairs = find_overlap_pairs(shifters, tech)
    cols = pair_columns(pairs)
    triples = feature_pair_triples(shifters)
    ends = (cols[:, 0], cols[:, 1])
    if scope is not None:
        ids = np.fromiter(scope, dtype=np.int64, count=len(scope))
        keep = np.isin(triples[1], ids) | np.isin(triples[2], ids)
        triples = tuple(col[keep] for col in triples)
        keep = np.isin(ends[0], ids) | np.isin(ends[1], ids)
        ends = tuple(col[keep] for col in ends)
    problems = condition1_problems(
        zip(*(col.tolist() for col in triples)), assignment)
    problems += condition2_problems(
        zip(*(col.tolist() for col in ends)), assignment)
    return problems
