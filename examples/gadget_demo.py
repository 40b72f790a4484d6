#!/usr/bin/env python3
"""Figures 3-4: the generalized gadget reduction, step by step.

Takes a small T-join instance, shows the edge assignment, the gadget
nodes (true/ghost per incident edge), the divide-node decomposition at
several clique sizes, and verifies that every variant returns the same
minimum T-join weight — then times the optimized (ASP-DAC'01) versus
generalized (this paper) gadgets on a real design's dual.

Run:  python examples/gadget_demo.py
"""

import time

from repro.bench import build_design
from repro.conflict import PCG, build_layout_conflict_graph
from repro.graph import (
    GeomGraph,
    build_dual,
    build_embedding,
    build_gadget_graph,
    greedy_planarize,
    min_tjoin_gadget,
)
from repro.layout import Technology


def small_instance():
    """The wheel-ish graph of paper Figure 3."""
    g = GeomGraph(name="fig3")
    edges = [(0, 1, 3), (1, 2, 4), (2, 3, 2), (3, 0, 5), (0, 2, 1)]
    for u, v, w in edges:
        g.add_edge(u, v, weight=w)
    return g, {0, 2}


def main() -> None:
    g, tset = small_instance()
    print(f"T-join instance: {g.num_nodes()} nodes, {g.num_edges()} "
          f"edges, T={sorted(tset)}")

    print("\ngadget graphs at each decomposition (paper Fig. 4):")
    for chunk, label in ((None, "generalized (single clique)"),
                         (2, "chunks of 2"),
                         (1, "optimized [ASP-DAC'01] (cliques <= 3)")):
        gadget = build_gadget_graph(g, tset, max_clique_size=chunk)
        join = min_tjoin_gadget(g, tset, max_clique_size=chunk)
        print(f"  {label:40s} {gadget.num_nodes:3d} nodes "
              f"{gadget.num_edges:3d} edges  ->  join weight "
              f"{g.total_weight(join)} {sorted(join)}")

    print("\nruntime on a real dual (design D4):")
    tech = Technology.node_90nm()
    cg, _s, _p = build_layout_conflict_graph(build_design("D4"), tech,
                                             PCG)
    greedy_planarize(cg.graph)
    dual = build_dual(build_embedding(cg.graph))
    print(f"  dual: {dual.graph.num_nodes()} faces, "
          f"{dual.graph.num_edges()} edges, |T|={len(dual.tset)}")
    for chunk, label in ((1, "optimized gadgets"),
                         (None, "generalized gadgets")):
        start = time.perf_counter()
        join = min_tjoin_gadget(dual.graph, dual.tset,
                                max_clique_size=chunk)
        elapsed = time.perf_counter() - start
        print(f"  {label:22s} {elapsed * 1000:8.1f} ms  "
              f"(join weight {dual.graph.total_weight(join)})")


if __name__ == "__main__":
    main()
