"""Integer-weight blossom matching on flat arrays.

Galil's primal-dual blossom-shrinking algorithm for maximum-weight
(max-cardinality) matching in general graphs, in the array formulation
of van Rantwijk's classic ``mwmatching`` (the same lineage as
networkx's implementation) — but specialised hard for this repo's hot
path:

* every piece of solver state is a flat Python list indexed by dense
  integer ids (vertices ``0..n-1``, blossoms ``n..2n-1``) — no dicts,
  no adjacency views, no per-access wrapper objects;
* edges are one flat array with the *endpoint trick*: edge ``k`` owns
  endpoints ``2k`` / ``2k+1``, so "the other side of the edge I came
  in through" is a single XOR;
* all arithmetic is exact integer arithmetic.  Dual variables store
  ``2*u(v)`` so integer edge weights keep integer duals throughout,
  which is what makes the optimum *certifiable*: :func:`verify` below
  re-checks dual feasibility, complementary slackness, and blossom
  fullness post-solve in O(E · nesting) integer ops — the cheap
  replacement for networkx's ``verifyOptimum``.

The driver in :mod:`repro.graph.matching` feeds this one connected
component at a time (blossom is super-linear, and the detection flow's
gadget graphs are highly fragmented), with weights transformed so that
maximum-weight max-cardinality matching solves minimum-weight perfect
matching.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

__all__ = ["MatchingCertificateError", "max_weight_matching", "verify"]


class MatchingCertificateError(RuntimeError):
    """The post-solve integer dual certificate failed.

    This can only happen on a solver bug (or a non-integer / corrupted
    input): the duals produced by a correct run always certify.
    """


def max_weight_matching(nvertex: int,
                        edges: Sequence[Tuple[int, int, int]],
                        maxcardinality: bool = True,
                        certify: bool = True) -> Tuple[List[int], int]:
    """Maximum-weight (optionally max-cardinality) matching.

    Args:
        nvertex: vertices are ``0..nvertex-1``.
        edges: ``(i, j, weight)`` triples with ``i != j`` and integer
            weights; parallel edges are allowed.
        maxcardinality: when True, only maximum-cardinality matchings
            are considered (among those, maximum weight wins) — the
            mode the min-weight-perfect-matching reduction needs.
        certify: run :func:`verify` on the final duals.

    Returns:
        ``(mate_edge, stages)`` — ``mate_edge[v]`` is the index into
        ``edges`` of the edge matching ``v`` (-1 when unmatched), and
        ``stages`` counts the augmentation stages performed.

    Start: in max-cardinality mode the solve is jump-started (after
    Cook & Rohe's and Kolmogorov's Blossom V initialisation): each
    vertex's doubled dual is its heaviest incident weight, raised by
    one where needed to share the parity of the maximum weight, and
    the tight edges are matched greedily in Karp-Sipser order.  Every
    edge starts with non-negative slack and every matched edge tight,
    so the stages only add what the greedy pass missed.  The shared
    parity keeps S-S slacks even, so the half-slack dual step stays
    exact.  When that start does not end in a perfect matching, its
    unequal duals cannot certify the exposed vertices, so the instance
    is solved again from the uniform start; ``stages`` counts both
    solves.  Plain max-weight mode always uses the uniform start.
    """
    if nvertex == 0 or not edges:
        return [-1] * nvertex, 0
    mate_edge, stages = _solve(nvertex, edges, maxcardinality, certify,
                               jump_start=maxcardinality)
    if mate_edge is None:
        mate_edge, more = _solve(nvertex, edges, maxcardinality, certify,
                                 jump_start=False)
        stages += more
    return mate_edge, stages


def _solve(nvertex: int, edges: Sequence[Tuple[int, int, int]],
           maxcardinality: bool, certify: bool,
           jump_start: bool) -> Tuple[Optional[List[int]], int]:
    """One primal-dual solve; see :func:`max_weight_matching`.

    Returns ``(None, stages)`` when a jump-started solve ends without
    a perfect matching.
    """
    nedge = len(edges)
    maxweight = max(w for (_i, _j, w) in edges)
    if maxweight < 0:
        maxweight = 0

    # endpoint[p] is the vertex at endpoint p; edge k owns endpoints
    # 2k and 2k+1, so endpoint[p ^ 1] is the far side of p's edge.
    endpoint: List[int] = []
    for (i, j, _w) in edges:
        endpoint.append(i)
        endpoint.append(j)

    # neighbend[v]: remote endpoints of v's incident edges.
    neighbend: List[List[int]] = [[] for _ in range(nvertex)]
    for k, (i, j, _w) in enumerate(edges):
        neighbend[i].append(2 * k + 1)
        neighbend[j].append(2 * k)

    # mate[v]: remote endpoint of v's matched edge, or -1.
    mate = [-1] * nvertex
    # label[b] for top-level blossom b: 0 free, 1 S, 2 T (5 marks
    # scanBlossom breadcrumbs).  Also kept per vertex for T-interior
    # relabeling.
    label = [0] * (2 * nvertex)
    # labelend[b]: remote endpoint of the edge through which b got its
    # label, or -1.
    labelend = [-1] * (2 * nvertex)
    # inblossom[v]: top-level blossom containing vertex v.
    inblossom = list(range(nvertex))
    # Blossom forest: parent, ordered children, base vertex, and the
    # connecting endpoints between consecutive children.
    blossomparent = [-1] * (2 * nvertex)
    blossomchilds: List = [None] * (2 * nvertex)
    blossombase = list(range(nvertex)) + [-1] * nvertex
    blossomendps: List = [None] * (2 * nvertex)
    # bestedge[b]: least-slack edge from b to a different S-blossom
    # (delta2/delta3 candidates); blossombestedges[b] caches the
    # per-neighbour least-slack list for non-trivial S-blossoms.
    bestedge = [-1] * (2 * nvertex)
    blossombestedges: List = [None] * (2 * nvertex)
    unusedblossoms = list(range(nvertex, 2 * nvertex))
    # dualvar[v] = 2u(v) for vertices, z(b) for blossoms.  Starting at
    # maxweight keeps all slacks non-negative and all duals integral.
    dualvar = [maxweight] * nvertex + [0] * nvertex
    if jump_start:
        heaviest: List[Optional[int]] = [None] * nvertex
        for (i, j, wt) in edges:
            for v in (i, j):
                h = heaviest[v]
                if h is None or wt > h:
                    heaviest[v] = wt
        for v, h in enumerate(heaviest):
            if h is not None:
                dualvar[v] = h + ((h - maxweight) & 1)
        # Greedy tight matching in Karp-Sipser order: a free vertex
        # left with exactly one free tight neighbour is matched first
        # (no choice is lost), otherwise the highest-numbered free
        # vertex takes its first free tight neighbour — the order the
        # uniform start's stages scan in.
        tight: List[List[int]] = [[] for _ in range(nvertex)]
        for k, (i, j, wt) in enumerate(edges):
            if i != j and dualvar[i] + dualvar[j] == 2 * wt:
                tight[i].append(2 * k + 1)
                tight[j].append(2 * k)
        free_degree = [len(ends) for ends in tight]
        forced = [v for v in range(nvertex) if free_degree[v] == 1]
        for v in range(nvertex - 1, -1, -1):
            while True:
                if forced:
                    u = forced.pop()
                elif mate[v] == -1:
                    u = v
                else:
                    break
                if mate[u] != -1:
                    continue
                for p in tight[u]:
                    w = endpoint[p]
                    if mate[w] == -1:
                        mate[u] = p
                        mate[w] = p ^ 1
                        for x in (u, w):
                            for q in tight[x]:
                                y = endpoint[q]
                                if mate[y] == -1:
                                    free_degree[y] -= 1
                                    if free_degree[y] == 1:
                                        forced.append(y)
                        break
                if u == v:
                    break
    allowedge = [False] * nedge
    queue: List[int] = []

    def slack(k: int) -> int:
        (i, j, wt) = edges[k]
        return dualvar[i] + dualvar[j] - 2 * wt

    def blossom_leaves(b: int):
        if b < nvertex:
            yield b
        else:
            stack = list(blossomchilds[b])
            while stack:
                t = stack.pop()
                if t < nvertex:
                    yield t
                else:
                    stack.extend(blossomchilds[t])

    def assign_label(w: int, t: int, p: int) -> None:
        b = inblossom[w]
        label[w] = label[b] = t
        labelend[w] = labelend[b] = p
        bestedge[w] = bestedge[b] = -1
        if t == 1:
            # S-blossom: all its vertices become scan sources.
            queue.extend(blossom_leaves(b))
        else:
            # T-blossom: its matched partner becomes an S-blossom.
            base = blossombase[b]
            assign_label(endpoint[mate[base]], 1, mate[base] ^ 1)

    def scan_blossom(v: int, w: int) -> int:
        """Lowest common S-ancestor of the alternating trees through
        v and w, or -1 (the edge closes an augmenting path)."""
        path = []
        base = -1
        while v != -1 or w != -1:
            b = inblossom[v]
            if label[b] & 4:
                base = blossombase[b]
                break
            path.append(b)
            label[b] = 5
            if labelend[b] == -1:
                v = -1  # root of its tree
            else:
                v = endpoint[labelend[b]]        # into the T-blossom
                b = inblossom[v]
                v = endpoint[labelend[b]]        # and up to the next S
            if w != -1:
                v, w = w, v
        for b in path:
            label[b] = 1
        return base

    def add_blossom(base: int, k: int) -> None:
        """Shrink the odd cycle through S-S edge k and base into a new
        blossom."""
        (v, w, _wt) = edges[k]
        bb = inblossom[base]
        bv = inblossom[v]
        bw = inblossom[w]
        b = unusedblossoms.pop()
        blossombase[b] = base
        blossomparent[b] = -1
        blossomparent[bb] = b
        blossomchilds[b] = path = []
        blossomendps[b] = endps = []
        while bv != bb:
            blossomparent[bv] = b
            path.append(bv)
            endps.append(labelend[bv])
            v = endpoint[labelend[bv]]
            bv = inblossom[v]
        path.append(bb)
        path.reverse()
        endps.reverse()
        endps.append(2 * k)
        while bw != bb:
            blossomparent[bw] = b
            path.append(bw)
            endps.append(labelend[bw] ^ 1)
            w = endpoint[labelend[bw]]
            bw = inblossom[w]
        label[b] = 1
        labelend[b] = labelend[bb]
        dualvar[b] = 0
        for leaf in blossom_leaves(b):
            if label[inblossom[leaf]] == 2:
                # Formerly T-labeled vertices become scan sources now.
                queue.append(leaf)
            inblossom[leaf] = b
        # Merge the children's least-slack caches.
        bestedgeto = [-1] * (2 * nvertex)
        for bv in path:
            if blossombestedges[bv] is None:
                nblists = [[p // 2 for p in neighbend[leaf]]
                           for leaf in blossom_leaves(bv)]
            else:
                nblists = [blossombestedges[bv]]
            for nblist in nblists:
                for kk in nblist:
                    (i, j, _wt) = edges[kk]
                    if inblossom[j] == b:
                        i, j = j, i
                    bj = inblossom[j]
                    if (bj != b and label[bj] == 1
                            and (bestedgeto[bj] == -1
                                 or slack(kk) < slack(bestedgeto[bj]))):
                        bestedgeto[bj] = kk
            blossombestedges[bv] = None
            bestedge[bv] = -1
        blossombestedges[b] = [kk for kk in bestedgeto if kk != -1]
        bestedge[b] = -1
        for kk in blossombestedges[b]:
            if bestedge[b] == -1 or slack(kk) < slack(bestedge[b]):
                bestedge[b] = kk

    def expand_blossom(b: int, endstage: bool) -> None:
        """Undo a blossom whose dual hit zero (or at stage end)."""
        for s in blossomchilds[b]:
            blossomparent[s] = -1
            if s < nvertex:
                inblossom[s] = s
            elif endstage and dualvar[s] == 0:
                expand_blossom(s, endstage)
            else:
                for leaf in blossom_leaves(s):
                    inblossom[leaf] = s
        if (not endstage) and label[b] == 2:
            # A T-blossom expanding mid-stage: relabel the even path
            # from the entry child around to the base, and leave the
            # rest free (they may be reached later through different
            # edges).
            entrychild = inblossom[endpoint[labelend[b] ^ 1]]
            j = blossomchilds[b].index(entrychild)
            if j & 1:
                j -= len(blossomchilds[b])
                jstep = 1
                endptrick = 0
            else:
                jstep = -1
                endptrick = 1
            p = labelend[b]
            while j != 0:
                label[endpoint[p ^ 1]] = 0
                label[endpoint[
                    blossomendps[b][j - endptrick] ^ endptrick ^ 1]] = 0
                assign_label(endpoint[p ^ 1], 2, p)
                allowedge[blossomendps[b][j - endptrick] // 2] = True
                j += jstep
                p = blossomendps[b][j - endptrick] ^ endptrick
                allowedge[p // 2] = True
                j += jstep
            bv = blossomchilds[b][j]
            label[endpoint[p ^ 1]] = label[bv] = 2
            labelend[endpoint[p ^ 1]] = labelend[bv] = p
            bestedge[bv] = -1
            j += jstep
            while blossomchilds[b][j] != entrychild:
                bv = blossomchilds[b][j]
                if label[bv] == 1:
                    j += jstep
                    continue
                leaf = -1
                for leaf in blossom_leaves(bv):
                    if label[leaf] != 0:
                        break
                if leaf != -1 and label[leaf] != 0:
                    label[leaf] = 0
                    label[endpoint[mate[blossombase[bv]]]] = 0
                    assign_label(leaf, 2, labelend[leaf])
                j += jstep
        label[b] = labelend[b] = -1
        blossomchilds[b] = blossomendps[b] = None
        blossombase[b] = -1
        blossombestedges[b] = None
        bestedge[b] = -1
        unusedblossoms.append(b)

    def augment_blossom(b: int, v: int) -> None:
        """Rotate blossom b so v becomes its base, flipping the
        matching along the even path."""
        t = v
        while blossomparent[t] != b:
            t = blossomparent[t]
        if t >= nvertex:
            augment_blossom(t, v)
        i = j = blossomchilds[b].index(t)
        if i & 1:
            j -= len(blossomchilds[b])
            jstep = 1
            endptrick = 0
        else:
            jstep = -1
            endptrick = 1
        while j != 0:
            j += jstep
            t = blossomchilds[b][j]
            p = blossomendps[b][j - endptrick] ^ endptrick
            if t >= nvertex:
                augment_blossom(t, endpoint[p])
            j += jstep
            t = blossomchilds[b][j]
            if t >= nvertex:
                augment_blossom(t, endpoint[p ^ 1])
            mate[endpoint[p]] = p ^ 1
            mate[endpoint[p ^ 1]] = p
        blossomchilds[b] = blossomchilds[b][i:] + blossomchilds[b][:i]
        blossomendps[b] = blossomendps[b][i:] + blossomendps[b][:i]
        blossombase[b] = blossombase[blossomchilds[b][0]]

    def augment_matching(k: int) -> None:
        """Flip the matching along the augmenting path through edge k."""
        (v, w, _wt) = edges[k]
        for (s, p) in ((v, 2 * k + 1), (w, 2 * k)):
            while True:
                bs = inblossom[s]
                if bs >= nvertex:
                    augment_blossom(bs, s)
                mate[s] = p
                if labelend[bs] == -1:
                    break  # reached a root
                t = endpoint[labelend[bs]]
                bt = inblossom[t]
                s = endpoint[labelend[bt]]
                j = endpoint[labelend[bt] ^ 1]
                if bt >= nvertex:
                    augment_blossom(bt, j)
                mate[j] = labelend[bt]
                p = labelend[bt] ^ 1

    try:
        # ------------------------------------------------------------------
        # Main loop: one stage per augmentation.
        # ------------------------------------------------------------------
        stages = 0
        for _stage in range(nvertex):
            label[:] = [0] * (2 * nvertex)
            bestedge[:] = [-1] * (2 * nvertex)
            for b in range(nvertex, 2 * nvertex):
                blossombestedges[b] = None
            allowedge[:] = [False] * nedge
            queue[:] = []
            for v in range(nvertex):
                if mate[v] == -1 and label[inblossom[v]] == 0:
                    assign_label(v, 1, -1)
            augmented = False
            while True:
                while queue and not augmented:
                    v = queue.pop()
                    for p in neighbend[v]:
                        k = p // 2
                        w = endpoint[p]
                        if inblossom[v] == inblossom[w]:
                            continue  # internal to a blossom
                        if not allowedge[k]:
                            kslack = slack(k)
                            if kslack <= 0:
                                allowedge[k] = True
                        if allowedge[k]:
                            bw = inblossom[w]
                            if label[bw] == 0:
                                assign_label(w, 2, p ^ 1)
                            elif label[bw] == 1:
                                base = scan_blossom(v, w)
                                if base >= 0:
                                    add_blossom(base, k)
                                else:
                                    augment_matching(k)
                                    augmented = True
                                    break
                            elif label[w] == 0:
                                # Inside a T-blossom but not yet labeled.
                                label[w] = 2
                                labelend[w] = p ^ 1
                        elif label[inblossom[w]] == 1:
                            b = inblossom[v]
                            if bestedge[b] == -1 or kslack < slack(bestedge[b]):
                                bestedge[b] = k
                        elif label[w] == 0:
                            if bestedge[w] == -1 or kslack < slack(bestedge[w]):
                                bestedge[w] = k
                if augmented:
                    break

                # Dual update: the minimum over the four delta types.
                deltatype = -1
                delta = deltaedge = deltablossom = -1
                if not maxcardinality:
                    deltatype = 1
                    delta = min(dualvar[:nvertex])
                for v in range(nvertex):
                    if label[inblossom[v]] == 0 and bestedge[v] != -1:
                        d = slack(bestedge[v])
                        if deltatype == -1 or d < delta:
                            delta = d
                            deltatype = 2
                            deltaedge = bestedge[v]
                for b in range(2 * nvertex):
                    if (blossomparent[b] == -1 and label[b] == 1
                            and bestedge[b] != -1):
                        d = slack(bestedge[b]) // 2
                        if deltatype == -1 or d < delta:
                            delta = d
                            deltatype = 3
                            deltaedge = bestedge[b]
                for b in range(nvertex, 2 * nvertex):
                    if (blossombase[b] >= 0 and blossomparent[b] == -1
                            and label[b] == 2
                            and (deltatype == -1 or dualvar[b] < delta)):
                        delta = dualvar[b]
                        deltatype = 4
                        deltablossom = b
                if deltatype == -1:
                    # No improvement possible: max-cardinality optimum.
                    # One last update makes the duals certify.
                    deltatype = 1
                    delta = max(0, min(dualvar[:nvertex]))

                for v in range(nvertex):
                    lab = label[inblossom[v]]
                    if lab == 1:
                        dualvar[v] -= delta
                    elif lab == 2:
                        dualvar[v] += delta
                for b in range(nvertex, 2 * nvertex):
                    if blossombase[b] >= 0 and blossomparent[b] == -1:
                        if label[b] == 1:
                            dualvar[b] += delta
                        elif label[b] == 2:
                            dualvar[b] -= delta

                if deltatype == 1:
                    break  # optimum reached
                elif deltatype == 2:
                    allowedge[deltaedge] = True
                    (i, j, _wt) = edges[deltaedge]
                    if label[inblossom[i]] == 0:
                        i = j
                    queue.append(i)
                elif deltatype == 3:
                    allowedge[deltaedge] = True
                    (i, _j, _wt) = edges[deltaedge]
                    queue.append(i)
                else:
                    expand_blossom(deltablossom, False)

            if not augmented:
                break
            stages += 1
            # Expand S-blossoms whose dual hit zero: they carry no weight
            # and would only slow the next stage.
            for b in range(nvertex, 2 * nvertex):
                if (blossomparent[b] == -1 and blossombase[b] >= 0
                        and label[b] == 1 and dualvar[b] == 0):
                    expand_blossom(b, True)

        if jump_start and -1 in mate:
            return None, stages
        if certify:
            verify(nvertex, edges, maxcardinality, mate, endpoint,
                   dualvar, blossomparent, blossombase, blossomendps)

        mate_edge = [(-1 if p == -1 else p // 2) for p in mate]
        return mate_edge, stages
    finally:
        # These three recurse through their own closure cells, a
        # reference cycle that would pin every solver list until a
        # cyclic collection; unbinding them lets reference counting
        # free the solver state as soon as this call returns.
        assign_label = expand_blossom = augment_blossom = None


def verify(nvertex: int, edges: Sequence[Tuple[int, int, int]],
           maxcardinality: bool, mate: List[int], endpoint: List[int],
           dualvar: List[int], blossomparent: List[int],
           blossombase: List[int], blossomendps: List) -> None:
    """Check the integer dual certificate; raise on any violation.

    Optimality of a max-weight (max-cardinality) matching follows from:
    all duals non-negative (vertex duals offset by the max-cardinality
    shift), every edge's slack non-negative, matched edges tight
    (slack 0), unmatched vertices' duals zero, and every blossom with a
    positive dual *full* (its internal matching covers all but the
    base).  All quantities are exact integers.
    """
    def fail(msg: str) -> None:
        raise MatchingCertificateError(msg)

    if maxcardinality:
        vdualoffset = max(0, -min(dualvar[:nvertex]))
    else:
        vdualoffset = 0
    if min(dualvar[:nvertex]) + vdualoffset < 0:
        fail("negative vertex dual")
    if nvertex and min(dualvar[nvertex:]) < 0:
        fail("negative blossom dual")
    for k, (i, j, wt) in enumerate(edges):
        s = dualvar[i] + dualvar[j] - 2 * wt
        iblossoms = [i]
        jblossoms = [j]
        while blossomparent[iblossoms[-1]] != -1:
            iblossoms.append(blossomparent[iblossoms[-1]])
        while blossomparent[jblossoms[-1]] != -1:
            jblossoms.append(blossomparent[jblossoms[-1]])
        iblossoms.reverse()
        jblossoms.reverse()
        for (bi, bj) in zip(iblossoms, jblossoms):
            if bi != bj:
                break
            s += 2 * dualvar[bi]
        if s < 0:
            fail(f"edge {k} has negative slack {s}")
        if mate[i] // 2 == k or mate[j] // 2 == k:
            if not (mate[i] // 2 == k and mate[j] // 2 == k):
                fail(f"edge {k} is half-matched")
            if s != 0:
                fail(f"matched edge {k} is not tight (slack {s})")
    for v in range(nvertex):
        if mate[v] < 0 and dualvar[v] + vdualoffset != 0:
            fail(f"unmatched vertex {v} has nonzero dual")
    for b in range(nvertex, 2 * nvertex):
        if blossombase[b] >= 0 and dualvar[b] > 0:
            if len(blossomendps[b]) % 2 != 1:
                fail(f"blossom {b} has even length")
            for p in blossomendps[b][1::2]:
                if mate[endpoint[p]] != p ^ 1 \
                        or mate[endpoint[p ^ 1]] != p:
                    fail(f"blossom {b} with positive dual is not full")
