"""Stratified scenario curriculum: seeded generators for every
structure the algorithms are built around.

The benchmark suite (D1-D8) is one generator family; the paper's
claims cover arbitrary standard-cell layouts.  This module generates a
*curriculum* — in the style of pdf-synth-engine's stratified
degradation stages — whose strata deliberately stress the structures
the flow's algorithms hinge on:

``density``
    Standard-cell sweeps from sparse (a negative control with few or
    no shifter interactions) to DRC-tight (every gap near the 140 nm
    spacing floor, maximal conflict density).
``oddcycle``
    Long odd phase cycles and nested cycle chains — the bipartization
    witnesses of the Berman et al. framing; gadget matching sees long
    augmenting paths and nested blossoms.
``tjoin``
    Grids of independent Figure-1 clusters: many odd faces, a dense
    dual T-join instance with a *known* optimal conflict count.
``boundary``
    Degenerate tile geometry: features straddling 3+ capture windows
    and conflict clusters pinned exactly on tile seams, with the grid
    spec carried on the scenario so every tiled invariant uses it.
``darkfield``
    Layouts tagged for dark-field parity: the dark-field flow
    (features-as-apertures, reference [5]) must be deterministic and
    its phases must pass the dark-field geometric oracle on the same
    layouts the bright-field invariants run on.
``duplicate``
    Duplicate feature rectangles (which make the coordinate-anchored
    shifter keys of tiled stitching ambiguous) plus sliver/near-square
    features.

Every stratum is a pure function of ``(stratum, seed)``: the same pair
produces a byte-identical layout and the same content-derived scenario
id in any process (asserted by the seed-stability suite).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..bench.suite import LayoutSpec
from ..geometry import Rect
from ..layout import (
    GeneratorParams,
    Layout,
    Technology,
    standard_cell_layout,
    tech_fingerprint,
)

# Bump when scenario content hashing changes shape, so persisted corpus
# reports never silently collide across incompatible id schemes.
SCENARIO_ID_FORMAT = 1

# The invariant tags every bright-field scenario supports (names from
# repro.scenarios.differential.INVARIANTS).
BRIGHT_FIELD_INVARIANTS = ("tiled", "eco", "executors", "oracle")

TileSpec = Optional[Tuple[int, int]]


@dataclass(frozen=True, eq=False)
class Scenario(LayoutSpec):
    """One generated corpus entry: layout + deck + grid + invariants.

    A :class:`~repro.bench.suite.LayoutSpec`, so anything that accepts
    a suite design (``repro bench --designs``, the table runners)
    accepts a scenario.  ``sid`` is the content-derived id — a digest
    of the rule deck, the grid spec, and the exact feature geometry —
    so two scenarios with the same id are the same test subject no
    matter which stratum recipe produced them, and a corpus is
    reproducible from ``(stratum, seed)`` alone.
    """

    stratum: str = ""
    layout: Optional[Layout] = None
    tech: Technology = field(default_factory=Technology.node_90nm)
    tiles: TileSpec = None
    invariants: Tuple[str, ...] = BRIGHT_FIELD_INVARIANTS
    expect_conflicts: Optional[int] = None
    sid: str = ""

    def build(self, seed: Optional[int] = None) -> Layout:
        """The scenario's layout; a non-None ``seed`` rebuilds the
        stratum at that seed (the deterministic-variant contract of
        :meth:`LayoutSpec.build`)."""
        if seed is not None and seed != self.seed:
            return build_scenario(self.stratum, seed).layout
        return self.layout

    @property
    def num_polygons(self) -> int:
        return self.layout.num_polygons

    def summary_dict(self) -> Dict[str, object]:
        """JSON-ready identity block for corpus reports."""
        return {
            "id": self.sid,
            "name": self.name,
            "stratum": self.stratum,
            "seed": self.seed,
            "polygons": self.num_polygons,
            "tiles": list(self.tiles) if self.tiles else None,
            "invariants": list(self.invariants),
            "expect_conflicts": self.expect_conflicts,
        }


def scenario_id(layout: Layout, tech: Technology,
                tiles: TileSpec = None) -> str:
    """Content-derived scenario id.

    Hashes the id-format version, the rule deck, the grid spec, and
    the sorted multiset of feature rects — the full test subject and
    nothing else (stratum and seed are recipe, not content), so the id
    is stable across processes, generator refactors that preserve
    geometry, and feature reordering.
    """
    h = hashlib.sha256()
    h.update(f"scenario:{SCENARIO_ID_FORMAT}".encode())
    h.update(tech_fingerprint(tech))
    h.update(f"tiles:{tiles}".encode())
    for rect in sorted((r.x1, r.y1, r.x2, r.y2)
                       for r in layout.features):
        h.update(repr(rect).encode())
    return h.hexdigest()


@dataclass(frozen=True)
class Draft:
    """What a stratum generator emits before id/name assignment."""

    layout: Layout
    tiles: TileSpec = None
    expect_conflicts: Optional[int] = None
    extra_invariants: Tuple[str, ...] = ()


@dataclass(frozen=True)
class Stratum:
    """One curriculum stratum: a seeded recipe plus its invariants."""

    name: str
    description: str
    generate: Callable[[int], Draft]
    invariants: Tuple[str, ...] = BRIGHT_FIELD_INVARIANTS


# ----------------------------------------------------------------------
# Figure-1 building block (shared by several strata)
# ----------------------------------------------------------------------
def _figure1_cluster(layout: Layout, ox: int, oy: int) -> None:
    """One odd-cycle cluster (two gates + a risky wire) at an offset."""
    layout.add_feature(Rect(ox, oy, ox + 90, oy + 1000))
    layout.add_feature(Rect(ox + 340, oy, ox + 430, oy + 1000))
    layout.add_feature(Rect(ox - 150, oy - 290, ox + 300, oy - 200))


# ----------------------------------------------------------------------
# Strata generators — each a pure function of its integer seed
# ----------------------------------------------------------------------
def _gen_density(seed: int) -> Draft:
    """Density sweep: sparse negative control -> DRC-tight."""
    level = seed % 4
    params = (
        # L0: sparse — gaps beyond every interaction distance.
        GeneratorParams(rows=2, cols=6, gate_gap_range=(420, 700),
                        wires_per_row=0.1, risky_wire_fraction=0.0),
        # L1: nominal — the suite's default statistics, smaller.
        GeneratorParams(rows=2, cols=8),
        # L2: dense — tight gaps, frequent risky wires.
        GeneratorParams(rows=2, cols=10, gate_gap_range=(160, 240),
                        wires_per_row=0.5, risky_wire_fraction=0.35),
        # L3: DRC-tight — every gap hugs the 140 nm spacing floor.
        GeneratorParams(rows=3, cols=10, gate_gap_range=(140, 180),
                        wires_per_row=0.6, risky_wire_fraction=0.5,
                        risky_wire_gap=(140, 200)),
    )[level]
    layout = standard_cell_layout(params, seed=seed,
                                  name=f"density-L{level}-s{seed}")
    return Draft(layout=layout)


def _gen_oddcycle(seed: int) -> Draft:
    """Long odd cycles and nested cycle chains.

    Each chain is a row of gates at interacting pitch with a risky
    wire under the first gate (one odd cycle through the chain); on
    alternating chains a second risky wire lands mid-chain, closing a
    second odd cycle that shares the chain's even tail — the nested
    structure gadget matching resolves with nested blossoms.
    """
    rng = random.Random(seed)
    n_gates = 5 + 2 * (seed % 9)            # 5..21 — long chains
    n_chains = 1 + seed % 3
    layout = Layout(name=f"oddcycle-n{n_gates}-c{n_chains}-s{seed}")
    for chain in range(n_chains):
        oy = chain * 3000
        pitch = rng.choice((330, 340, 350))
        for i in range(n_gates):
            x = i * pitch
            layout.add_feature(Rect(x, oy, x + 90, oy + 1000))
        # Wire under the first gate: the canonical odd cycle.
        layout.add_feature(
            Rect(-150, oy - 290, 300, oy - 200))
        if chain % 2 == 1 and n_gates >= 7:
            # A second odd cycle sharing the chain, several gates in.
            k = 2 + rng.randrange(n_gates - 4)
            layout.add_feature(
                Rect(k * pitch - 150, oy - 290,
                     k * pitch + 300, oy - 200))
    return Draft(layout=layout)


def _gen_tjoin(seed: int) -> Draft:
    """Dense T-join witnesses: a grid of independent odd-cycle
    clusters with a known optimal conflict count."""
    cx = 2 + seed % 3
    cy = 2 + (seed // 3) % 2
    layout = Layout(name=f"tjoin-{cx}x{cy}-s{seed}")
    for i in range(cx):
        for j in range(cy):
            _figure1_cluster(layout, i * 2000, j * 2600)
    return Draft(layout=layout, expect_conflicts=cx * cy)


def _gen_boundary(seed: int) -> Draft:
    """Degenerate tile boundaries on a pinned 3x3 grid.

    The die is framed to [0, 6000]^2 by two isolated anchor features,
    so the 3x3 capture windows cut at 2000/4000 on both axes.  Odd-
    cycle clusters are centred on those seams (their conflicts land
    exactly on tile boundaries, exercising owner-region tie-breaking
    and stitch arbitration), and a chip-spanning wire straddles all
    three column windows.
    """
    rng = random.Random(seed)
    layout = Layout(name=f"boundary-s{seed}")
    # Anchors pin the bbox to exactly [0,6000]^2 (isolated: nothing
    # within any interaction distance).
    layout.add_feature(Rect(0, 0, 90, 700))
    layout.add_feature(Rect(5910, 5300, 6000, 6000))
    # A wire straddling >= 3 capture windows (x crosses both seams).
    span_y = 3000 + 10 * (seed % 7)
    layout.add_feature(Rect(200, span_y, 5800, span_y + 90))
    # Clusters straddling seams.  A cluster spans x in [ox-150,
    # ox+430]; centring it on a seam puts the conflict geometry right
    # on the boundary.  Jitter keeps seeds distinct but straddling.
    seams = [2000, 4000]
    n_clusters = 1 + seed % 2
    for i in range(n_clusters):
        seam = seams[(seed + i) % 2]
        jitter = 10 * rng.randrange(-4, 5)
        _figure1_cluster(layout, seam - 215 + jitter, 700 + 3100 * i)
    return Draft(layout=layout, tiles=(3, 3))


def _gen_darkfield(seed: int) -> Draft:
    """Bright-field layouts tagged for dark-field parity checks."""
    params = GeneratorParams(rows=2, cols=7,
                             gate_gap_range=(150, 320),
                             wires_per_row=0.4,
                             risky_wire_fraction=0.3)
    layout = standard_cell_layout(params, seed=seed,
                                  name=f"darkfield-s{seed}")
    return Draft(layout=layout, extra_invariants=("darkfield",))


def _gen_duplicate(seed: int) -> Draft:
    """Duplicate rects and slivers: the coordinate-key edge stratum.

    Exact duplicate features give two shifters the same
    coordinate-anchored key, the identity tiled stitching maps
    conflicts by; slivers and near-squares sit on the critical-width
    classifier's edge.
    """
    rng = random.Random(seed)
    params = GeneratorParams(rows=1, cols=6,
                             gate_gap_range=(180, 340),
                             wires_per_row=0.35,
                             risky_wire_fraction=0.3)
    layout = standard_cell_layout(params, seed=seed,
                                  name=f"duplicate-s{seed}")
    # Exact duplicates of a few existing features.
    feats = list(layout.features)
    for _ in range(1 + seed % 3):
        layout.add_feature(feats[rng.randrange(len(feats))])
    # A sliver (min-width, short) and a near-square, placed far from
    # the rows (row 0 spans y < ~1100; these sit 2000+ above).
    layout.add_feature(Rect(0, 3000, 90, 3000 + 200 + 10 * (seed % 5)))
    layout.add_feature(Rect(1000, 3000, 1095, 3090))
    return Draft(layout=layout)


STRATA: Dict[str, Stratum] = {
    s.name: s for s in (
        Stratum("density",
                "density sweep: sparse -> DRC-tight standard cells",
                _gen_density),
        Stratum("oddcycle",
                "long odd cycles and nested cycle chains",
                _gen_oddcycle),
        Stratum("tjoin",
                "grids of odd-cycle clusters (dense T-join witnesses, "
                "known conflict count)",
                _gen_tjoin),
        Stratum("boundary",
                "features straddling 3+ capture windows, conflicts "
                "pinned on tile seams (pinned 3x3 grid)",
                _gen_boundary),
        Stratum("darkfield",
                "bright-field layouts checked for dark-field parity",
                _gen_darkfield,
                BRIGHT_FIELD_INVARIANTS + ("darkfield",)),
        Stratum("duplicate",
                "duplicate feature rects (colliding coordinate keys) "
                "plus slivers/near-squares",
                _gen_duplicate,
                # No "tiled": duplicate rects make the coordinate ->
                # feature-index mapping ambiguous, so tiled stitching
                # reports geometrically equivalent conflicts under
                # different indices than the monolithic pass — a
                # documented limitation, not a bug this stratum hunts.
                # Tiled runs must still agree with *each other*
                # (executors) and warm with ECO, so those stay.  The
                # duplicates are also the only source of coincident
                # shifter nodes, i.e. zero-length conflict-graph edges;
                # tests/graph/test_geomgraph_flat.py pins how the
                # embedding orders their darts.
                ("eco", "executors", "oracle")),
    )
}


def stratum_names() -> List[str]:
    """All registered strata, in curriculum order."""
    return list(STRATA)


def build_scenario(stratum: str, seed: int,
                   tech: Optional[Technology] = None) -> Scenario:
    """Build the scenario for ``(stratum, seed)`` — the reproducibility
    contract: same pair, same layout bytes, same id, any process."""
    try:
        spec = STRATA[stratum]
    except KeyError:
        known = ", ".join(sorted(STRATA))
        raise KeyError(
            f"unknown stratum {stratum!r} (known: {known})") from None
    if tech is None:
        tech = Technology.node_90nm()
    draft = spec.generate(seed)
    sid = scenario_id(draft.layout, tech, draft.tiles)
    invariants = spec.invariants + tuple(
        t for t in draft.extra_invariants if t not in spec.invariants)
    return Scenario(
        name=f"{stratum}-s{seed}-{sid[:8]}",
        seed=seed,
        description=spec.description,
        stratum=stratum,
        layout=draft.layout,
        tech=tech,
        tiles=draft.tiles,
        invariants=invariants,
        expect_conflicts=draft.expect_conflicts,
        sid=sid,
    )
