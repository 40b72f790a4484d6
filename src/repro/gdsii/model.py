"""In-memory GDSII object model.

Deliberately small: the reproduction needs polygons on layers plus
hierarchy (SREF/AREF) so real design data could be imported; texts are
carried through for fidelity but ignored by the flow.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

Point = Tuple[int, int]


@dataclass
class Boundary:
    """A filled polygon.  ``points`` is a closed ring (first == last)."""

    layer: int
    datatype: int
    points: List[Point]

    def is_rectangle(self) -> Optional[Tuple[int, int, int, int]]:
        """(x1, y1, x2, y2) if the ring is an axis-aligned rectangle."""
        ring = self.points
        if len(ring) == 5 and ring[0] == ring[-1]:
            xs = {p[0] for p in ring}
            ys = {p[1] for p in ring}
            if len(xs) == 2 and len(ys) == 2:
                return (min(xs), min(ys), max(xs), max(ys))
        return None


@dataclass
class Path:
    """A wire path with a width (converted to boundaries on import)."""

    layer: int
    datatype: int
    width: int
    points: List[Point]
    pathtype: int = 0


@dataclass
class SRef:
    """A structure reference (placed sub-cell)."""

    sname: str
    origin: Point
    reflect_x: bool = False
    angle: float = 0.0  # degrees, multiples of 90 supported on flatten
    mag: float = 1.0


@dataclass
class ARef:
    """An array reference: cols x rows placements on a lattice."""

    sname: str
    cols: int
    rows: int
    origin: Point
    col_step: Point  # displacement per column
    row_step: Point  # displacement per row
    reflect_x: bool = False
    angle: float = 0.0
    mag: float = 1.0


@dataclass
class Text:
    layer: int
    texttype: int
    origin: Point
    string: str


@dataclass
class GdsStructure:
    """One GDSII structure (cell)."""

    name: str
    boundaries: List[Boundary] = field(default_factory=list)
    paths: List[Path] = field(default_factory=list)
    srefs: List[SRef] = field(default_factory=list)
    arefs: List[ARef] = field(default_factory=list)
    texts: List[Text] = field(default_factory=list)


@dataclass
class GdsLibrary:
    """A GDSII library: named structures plus units.

    ``unit_user`` is the size of a database unit in user units (usually
    1e-3: dbu = nm, user = um); ``unit_meters`` is the dbu in meters
    (usually 1e-9).
    """

    name: str = "LIB"
    unit_user: float = 1e-3
    unit_meters: float = 1e-9
    structures: Dict[str, GdsStructure] = field(default_factory=dict)

    def add(self, structure: GdsStructure) -> GdsStructure:
        if structure.name in self.structures:
            raise ValueError(f"duplicate structure {structure.name!r}")
        self.structures[structure.name] = structure
        return structure

    def top_structures(self) -> List[GdsStructure]:
        """Structures not referenced by any other structure."""
        referenced = set()
        for s in self.structures.values():
            referenced.update(r.sname for r in s.srefs)
            referenced.update(r.sname for r in s.arefs)
        return [s for name, s in sorted(self.structures.items())
                if name not in referenced]
