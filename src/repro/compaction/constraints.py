"""1-D constraint graphs and longest-path position solving.

The classic symbolic-compaction substrate (Ooi et al., the paper's
reference [3], correct phase conflicts this way): features become
nodes, minimum-distance requirements become directed edges
``x_j >= x_i + d``, and the unique minimal solution honouring per-node
lower bounds is the longest path over the (acyclic) constraint graph.

We use the *spread-only* variant: every node is lower-bounded by its
original coordinate, so geometry only ever moves in +axis direction —
like the paper's end-to-end spaces, it cannot create new violations,
which keeps the area comparison between the two correctors fair.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Tuple


class ConstraintCycleError(ValueError):
    """Raised when the distance constraints contradict each other."""


@dataclass
class ConstraintGraph:
    """Difference constraints ``pos[j] >= pos[i] + d`` plus lower bounds."""

    lower: Dict[int, int] = field(default_factory=dict)
    _edges: Dict[int, List[Tuple[int, int]]] = field(
        default_factory=lambda: defaultdict(list))

    def add_node(self, node: int, lower_bound: int) -> None:
        if node in self.lower:
            self.lower[node] = max(self.lower[node], lower_bound)
        else:
            self.lower[node] = lower_bound

    def add_constraint(self, before: int, after: int, distance: int) -> None:
        """Require ``pos[after] >= pos[before] + distance``."""
        if before == after:
            raise ConstraintCycleError(f"self constraint on {before}")
        self._edges[before].append((after, distance))

    def solve(self) -> Dict[int, int]:
        """Minimal positions satisfying everything (longest path)."""
        indegree: Dict[int, int] = {n: 0 for n in self.lower}
        for before, outs in self._edges.items():
            if before not in self.lower:
                raise KeyError(f"constraint from unknown node {before}")
            for after, _ in outs:
                if after not in self.lower:
                    raise KeyError(f"constraint to unknown node {after}")
                indegree[after] += 1

        order: List[int] = [n for n in sorted(self.lower)
                            if indegree[n] == 0]
        pos = dict(self.lower)
        head = 0
        while head < len(order):
            node = order[head]
            head += 1
            for after, dist in self._edges.get(node, ()):
                if pos[node] + dist > pos[after]:
                    pos[after] = pos[node] + dist
                indegree[after] -= 1
                if indegree[after] == 0:
                    order.append(after)
        if head != len(self.lower):
            raise ConstraintCycleError(
                "cyclic distance constraints (layout order conflict)")
        return pos
