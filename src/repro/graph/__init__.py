"""Geometric graph stack (substrates S5-S8).

Construction (:class:`GeomGraph`), planarization by greedy crossing
removal, exact face tracing, geometric duals, the paper's
generalized-gadget T-join reduction, minimum-weight perfect matching,
and the bipartization algorithms the paper compares.
"""

from .bipartize import (
    BipartizationResult,
    greedy_odd_cycle_bipartization,
    greedy_spanning_tree_bipartization,
    optimal_planar_bipartization,
)
from .coloring import (
    ParityDSU,
    ParityLabelling,
    color_component,
    is_bipartite,
    parity_labelling,
    residual_conflicts,
    two_color,
)
from .components import (
    ODD_COMPONENT,
    Decomposition,
    decompose,
    two_color_incremental,
)
from .crossings import count_crossings, find_crossing_pairs, greedy_planarize
from .dual import DualGraph, build_dual
from .embedding import PlanarEmbedding, build_embedding
from .gadgets import (
    GadgetGraph,
    TJoinInfeasibleError,
    build_gadget_graph,
    extract_tjoin,
    min_tjoin_gadget,
)
from .blossom import MatchingCertificateError
from .geomgraph import Edge, GeomGraph
from .matching import (
    MatcherBackend,
    NoPerfectMatchingError,
    get_matcher,
    is_perfect_matching,
    min_weight_perfect_matching,
)
from .odd_cycles import (
    moniwa_iterative_bipartization,
    shortest_odd_cycle,
)

__all__ = [
    "GeomGraph",
    "Edge",
    "find_crossing_pairs",
    "count_crossings",
    "greedy_planarize",
    "PlanarEmbedding",
    "build_embedding",
    "DualGraph",
    "build_dual",
    "min_weight_perfect_matching",
    "is_perfect_matching",
    "NoPerfectMatchingError",
    "MatchingCertificateError",
    "MatcherBackend",
    "get_matcher",
    "TJoinInfeasibleError",
    "GadgetGraph",
    "build_gadget_graph",
    "extract_tjoin",
    "min_tjoin_gadget",
    "two_color",
    "color_component",
    "is_bipartite",
    "residual_conflicts",
    "ParityDSU",
    "ParityLabelling",
    "parity_labelling",
    "Decomposition",
    "decompose",
    "two_color_incremental",
    "ODD_COMPONENT",
    "BipartizationResult",
    "optimal_planar_bipartization",
    "greedy_spanning_tree_bipartization",
    "greedy_odd_cycle_bipartization",
    "shortest_odd_cycle",
    "moniwa_iterative_bipartization",
]
