"""Table 1 (runtime columns): optimized vs generalized gadget matching.

The paper reports an average 16% matching-runtime improvement from the
generalized gadgets; the mechanism is a smaller matching graph (no
divide-node chains).  We time both reductions on identical duals and
record the graph sizes.
"""

import pytest

from repro.bench import (
    build_design,
    design_names,
    gadget_size_row,
)
from repro.conflict import PCG, build_layout_conflict_graph
from repro.graph import (
    build_dual,
    build_embedding,
    greedy_planarize,
    min_tjoin_gadget,
)

DESIGNS = design_names("medium")


def _dual_for(layout, tech):
    cg, _s, _p = build_layout_conflict_graph(layout, tech, PCG)
    greedy_planarize(cg.graph)
    return build_dual(build_embedding(cg.graph))


@pytest.mark.parametrize("name", DESIGNS)
@pytest.mark.parametrize("gadget", ["optimized", "generalized"])
def test_gadget_matching_runtime(benchmark, tech, name, gadget):
    dual = _dual_for(build_design(name), tech)
    chunk = 1 if gadget == "optimized" else None

    join = benchmark.pedantic(
        lambda: min_tjoin_gadget(dual.graph, dual.tset,
                                 max_clique_size=chunk),
        rounds=3, iterations=1)
    assert dual.graph.total_weight(join) >= 0


@pytest.mark.parametrize("name", DESIGNS)
def test_gadget_graph_sizes(benchmark, tech, collect_row, name):
    row = benchmark.pedantic(
        lambda: gadget_size_row(build_design(name), tech),
        rounds=1, iterations=1)
    collect_row("Table 1 — gadget graph sizes (O vs G)", row)
    # The size relation that produces the paper's 16% speedup.
    assert row["G_nodes"] <= row["O_nodes"]


# Alternating repeats per side: one-shot totals vary by about +-25% on a
# shared 2-CPU box, more than the effect measured, so each side is
# timed as its fastest repeat, with the cyclic collector paused as the
# flow pauses it (a collection landing inside one side's timer adds to
# that spread).
REPEATS = 15


def test_generalized_faster_in_aggregate(benchmark, tech, collect_row):
    """The headline runtime claim, measured end to end: each side's
    total over the designs, as the minimum over ``REPEATS`` alternating
    repeats (optimized then generalized on every design, each repeat)."""
    import time

    from repro.gcpause import gc_paused

    def timed(duals):
        total_o = total_g = 0.0
        for dual in duals:
            start = time.perf_counter()
            jo = min_tjoin_gadget(dual.graph, dual.tset, max_clique_size=1)
            total_o += time.perf_counter() - start
            start = time.perf_counter()
            jg = min_tjoin_gadget(dual.graph, dual.tset,
                                  max_clique_size=None)
            total_g += time.perf_counter() - start
            assert (dual.graph.total_weight(jo)
                    == dual.graph.total_weight(jg))
        return total_o, total_g

    def run():
        duals = [_dual_for(build_design(name), tech)
                 for name in DESIGNS[2:]]  # tiny designs are all noise
        best_o = best_g = float("inf")
        for _ in range(REPEATS):
            with gc_paused():
                total_o, total_g = timed(duals)
            best_o = min(best_o, total_o)
            best_g = min(best_g, total_g)
        return best_o, best_g

    total_o, total_g = benchmark.pedantic(run, rounds=1, iterations=1)
    collect_row("Table 1 — matching runtime totals", {
        "designs": ",".join(DESIGNS[2:]),
        "repeats": REPEATS,
        "t_O_total_s": round(total_o, 3),
        "t_G_total_s": round(total_g, 3),
        "speedup_pct": round(100 * (1 - total_g / total_o), 1),
    })
    assert total_g < total_o, (
        "generalized gadgets should beat optimized gadgets "
        f"(O={total_o:.3f}s, G={total_g:.3f}s)")
