"""Differential and adversarial tests for the native blossom solver.

The oracle is exhaustive search (small instances) and networkx's
implementation (larger instances, when installed).  Matchings are
compared by (cardinality, weight) — edge-level ties are legal — and
every solve runs with the integer dual certificate enabled, so a wrong
optimum cannot pass silently.

No hypothesis / networkx at module scope: this suite is part of the
no-extras tier-1 that guards the default backend.
"""

from __future__ import annotations

import random
from itertools import combinations
from typing import List, Sequence, Tuple

import pytest

from repro.graph import blossom
from repro.graph.blossom import (
    MatchingCertificateError,
    max_weight_matching,
    verify,
)

EdgeT = Tuple[int, int, int]


def solve(nvertex: int, edges: Sequence[EdgeT],
          maxcardinality: bool = True) -> Tuple[int, int]:
    """(cardinality, weight) of the solver's matching, certified."""
    mate_edge, _stages = max_weight_matching(
        nvertex, edges, maxcardinality=maxcardinality, certify=True)
    picked = {k for k in mate_edge if k != -1}
    for k in picked:
        i, j, _w = edges[k]
        assert mate_edge[i] == k and mate_edge[j] == k, \
            "matched edge not symmetric"
    return len(picked), sum(edges[k][2] for k in picked)


def brute(nvertex: int, edges: Sequence[EdgeT],
          maxcardinality: bool = True) -> Tuple[int, int]:
    """Exhaustive-best (cardinality, weight); oracle for small graphs."""
    best = (0, 0)
    for r in range(1, nvertex // 2 + 1):
        for combo in combinations(range(len(edges)), r):
            seen = set()
            ok = True
            for k in combo:
                i, j, _w = edges[k]
                if i in seen or j in seen:
                    ok = False
                    break
                seen.add(i)
                seen.add(j)
            if not ok:
                continue
            w = sum(edges[k][2] for k in combo)
            cand = (r, w) if maxcardinality else (0, w)
            if cand > best:
                best = cand
    return best


def random_graph(rng: random.Random, n: int, density: float,
                 lo: int = 0, hi: int = 30,
                 parallels: bool = False) -> List[EdgeT]:
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < density:
                edges.append((u, v, rng.randint(lo, hi)))
                if parallels and rng.random() < 0.3:
                    edges.append((u, v, rng.randint(lo, hi)))
    return edges


class TestSmallDifferential:
    @pytest.mark.parametrize("seed", range(30))
    def test_random_vs_exhaustive_maxcard(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 9)
        edges = random_graph(rng, n, rng.uniform(0.3, 1.0),
                            parallels=True)
        assert solve(n, edges, True) == brute(n, edges, True)

    @pytest.mark.parametrize("seed", range(30, 60))
    def test_random_vs_exhaustive_plain(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 9)
        edges = random_graph(rng, n, rng.uniform(0.3, 1.0))
        _card, w = solve(n, edges, False)
        _bcard, bw = brute(n, edges, False)
        assert w == bw

    @pytest.mark.parametrize("seed", range(60, 75))
    def test_zero_and_equal_weights(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 8)
        # Heavy ties: weights drawn from {0, 1}.
        edges = random_graph(rng, n, 0.8, lo=0, hi=1)
        assert solve(n, edges, True) == brute(n, edges, True)


class TestAdversarial:
    def test_empty(self):
        assert solve(0, []) == (0, 0)
        assert solve(4, []) == (0, 0)

    def test_single_edge(self):
        assert solve(2, [(0, 1, 7)]) == (1, 7)

    def test_parallel_edges_best_wins(self):
        assert solve(2, [(0, 1, 3), (0, 1, 9), (0, 1, 5)]) == (1, 9)

    def test_maxcardinality_beats_weight(self):
        # Plain max-weight takes the single 21; max-cardinality must
        # take the two 10s.
        edges = [(0, 1, 10), (1, 2, 21), (2, 3, 10)]
        assert solve(4, edges, maxcardinality=False) == (1, 21)
        assert solve(4, edges, maxcardinality=True) == (2, 20)

    @pytest.mark.parametrize("n", [3, 5, 7, 25, 101])
    def test_long_odd_cycles(self, n):
        edges = [(i, (i + 1) % n, 1) for i in range(n)]
        assert solve(n, edges) == ((n - 1) // 2, (n - 1) // 2)

    def test_triangle_with_tail(self):
        # The canonical blossom: shrink the triangle, augment through.
        edges = [(0, 1, 6), (1, 2, 6), (2, 0, 6), (2, 3, 1)]
        assert solve(4, edges) == brute(4, edges)

    def test_nested_blossoms(self):
        # A triangle whose expansion exposes an inner odd cycle: two
        # triangles sharing paths, plus pendants that force expansion.
        edges = [
            (0, 1, 9), (1, 2, 8), (2, 0, 10),
            (1, 3, 5), (3, 4, 4), (4, 2, 5),
            (0, 5, 3), (3, 6, 3),
        ]
        assert solve(7, edges) == brute(7, edges)

    def test_nested_blossom_chain(self):
        # Chain of triangles sharing vertices — repeated shrink/expand.
        edges = []
        for t in range(4):
            a, b, c = 2 * t, 2 * t + 1, 2 * t + 2
            edges += [(a, b, 4), (b, c, 4), (c, a, 4)]
        edges.append((8, 9, 1))
        assert solve(10, edges) == brute(10, edges)

    def test_isolated_vertices_allowed(self):
        # maxcardinality maximizes over *achievable* cardinality.
        assert solve(5, [(0, 1, 2)]) == (1, 2)


class TestCertificate:
    def test_verify_accepts_a_correct_solution(self):
        n, edges = 2, [(0, 1, 5)]
        verify(n, edges, True,
               mate=[1, 0], endpoint=[0, 1],
               dualvar=[5, 5, 0, 0],
               blossomparent=[-1] * 4,
               blossombase=[0, 1, -1, -1],
               blossomendps=[None] * 4)

    def test_verify_rejects_corrupted_duals(self):
        n, edges = 2, [(0, 1, 5)]
        with pytest.raises(MatchingCertificateError):
            verify(n, edges, True,
                   mate=[1, 0], endpoint=[0, 1],
                   dualvar=[5, 3, 0, 0],   # matched edge no longer tight
                   blossomparent=[-1] * 4,
                   blossombase=[0, 1, -1, -1],
                   blossomendps=[None] * 4)

    def test_verify_rejects_unmatched_with_dual(self):
        n, edges = 2, [(0, 1, 5)]
        with pytest.raises(MatchingCertificateError):
            verify(n, edges, False,
                   mate=[-1, -1], endpoint=[0, 1],
                   dualvar=[5, 5, 0, 0],   # unmatched but positive dual
                   blossomparent=[-1] * 4,
                   blossombase=[0, 1, -1, -1],
                   blossomendps=[None] * 4)

    @pytest.mark.parametrize("seed", range(5))
    def test_certify_is_on_by_default_path(self, seed):
        # certify=True end-to-end on graphs that exercise blossoms.
        rng = random.Random(1000 + seed)
        n = 12
        edges = random_graph(rng, n, 0.5, parallels=True)
        card, w = solve(n, edges)
        assert card <= n // 2 and w >= 0


class TestJumpStart:
    """The greedy dual start and its uniform-start fallback."""

    @pytest.fixture(scope="class")
    def gadget_component(self):
        """The largest matching instance of the gadget T-join on a suite
        design's raw dual, in the matcher's max-weight form.

        The raw dual is what Table 1 solves: the detector hands the
        matcher the dual's simple instance, whose gadget components on
        D2 are too small to show the jump start."""
        from repro.bench.suite import build_design
        from repro.conflict.detection import build_layout_conflict_graph
        from repro.graph import (build_dual, build_embedding,
                                 greedy_planarize, min_tjoin_gadget)
        from repro.graph.matching import BlossomMatcher
        from repro.layout import Technology
        from tests.oracles import use_matcher

        instances = []

        class Harvest(BlossomMatcher):
            def match(self, nvertex, edges, transform):
                instances.append(
                    (nvertex, [(u, v, transform - w) for u, v, w in edges]))
                return super().match(nvertex, edges, transform)

        cg, _shifters, _pairs = build_layout_conflict_graph(
            build_design("D2"), Technology.node_90nm())
        greedy_planarize(cg.graph)
        dual = build_dual(build_embedding(cg.graph))
        with use_matcher(Harvest()):
            min_tjoin_gadget(dual.graph, dual.tset)
        return max(instances, key=lambda inst: inst[0])

    def test_greedy_start_saves_stages(self, gadget_component):
        n, edges = gadget_component
        mate_edge, stages = max_weight_matching(n, edges)
        assert -1 not in mate_edge
        # The uniform start pays one stage per matched pair (n / 2).
        assert n >= 20 and 4 * stages < n

    def test_blossom_with_mixed_parity_weights(self):
        """A perfect matching whose solve shrinks a blossom, with odd
        and even weights.  Starting each vertex dual at its heaviest
        incident weight without the parity bump leaves an odd S-S
        slack, and the half-slack dual step breaks the certificate."""
        n = 6
        edges = [(4, 0, 3), (1, 5, 8), (5, 0, 9), (5, 3, 3), (2, 4, 2),
                 (1, 2, 4), (2, 5, 5)]
        assert solve(n, edges) == brute(n, edges) == (3, 10)

    @pytest.mark.parametrize("n,edges", [
        (4, [(1, 3, 6), (1, 2, 4)]),
        (5, [(2, 3, 5), (4, 2, 6), (1, 3, 6), (2, 1, 9), (1, 4, 6)]),
        (6, [(5, 0, 7), (1, 4, 9), (5, 3, 5), (4, 5, 5)]),
    ])
    def test_non_perfect_result_falls_back_to_uniform_start(self, n,
                                                            edges):
        """No perfect matching: certified, the greedy start's unequal
        duals would leave an exposed vertex with a nonzero dual."""
        assert solve(n, edges) == brute(n, edges)

    def test_every_component_is_certified(self, monkeypatch):
        from repro.graph import GeomGraph, min_weight_perfect_matching

        calls = []
        real = blossom.verify

        def counting(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(blossom, "verify", counting)
        g = GeomGraph()
        for base in (0, 10, 20):
            for k in range(4):
                g.add_node(base + k)
            for a, b, w in ((0, 1, 3), (1, 2, 1), (2, 3, 5), (3, 0, 2),
                            (0, 2, 4)):
                g.add_edge(base + a, base + b, weight=w)
        assert len(min_weight_perfect_matching(g)) == 6
        assert calls == [4, 4, 4]

    def test_verify_rejects_corrupted_solved_dual(self, monkeypatch):
        """The certificate of a real jump-started solve, one vertex
        dual off by one, fails."""
        captured = []
        real = blossom.verify

        def capture(*args, **kwargs):
            captured.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(blossom, "verify", capture)
        n = 6
        edges = [(4, 0, 3), (1, 5, 8), (5, 0, 9), (5, 3, 3), (2, 4, 2),
                 (1, 2, 4), (2, 5, 5)]
        max_weight_matching(n, edges)
        (args,) = captured
        real(*args)
        nvertex, edges_, maxcard, mate, endpoint, dualvar = args[:6]
        rest = args[6:]
        for v in range(nvertex):
            for bump in (-1, 1):
                corrupted = list(dualvar)
                corrupted[v] += bump
                with pytest.raises(MatchingCertificateError):
                    real(nvertex, edges_, maxcard, mate, endpoint,
                         corrupted, *rest)


class TestNetworkxCross:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_vs_networkx(self, seed):
        nx = pytest.importorskip("networkx")
        rng = random.Random(2000 + seed)
        n = rng.randint(6, 20)
        edges = random_graph(rng, n, rng.uniform(0.2, 0.7))
        g = nx.Graph()
        g.add_nodes_from(range(n))
        for u, v, w in edges:
            g.add_edge(u, v, weight=w)
        for maxcard in (False, True):
            mate = nx.max_weight_matching(g, maxcardinality=maxcard)
            ref = (len(mate), sum(g[u][v]["weight"] for u, v in mate))
            got = solve(n, edges, maxcard)
            if maxcard:
                assert got == ref
            else:
                assert got[1] == ref[1]
