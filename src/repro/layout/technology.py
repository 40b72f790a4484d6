"""Technology rule deck for bright-field AAPSM.

The paper evaluates 90 nm designs and "assumes typical values of threshold
width for critical features, shifter dimensions and shifter spacing"
without publishing them; :func:`Technology.node_90nm` encodes a consistent
set of typical values (integer nanometres).  All algorithms take the rule
deck explicitly so the whole flow can be re-run at other nodes.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, replace
from functools import lru_cache


@dataclass(frozen=True)
class Technology:
    """AAPSM-relevant design rules, in integer nanometres.

    Attributes:
        name: human-readable deck name.
        min_feature_width: minimum drawn width of a poly feature.
        min_feature_spacing: minimum space between two poly features.
        critical_width: features with drawn width strictly below this
            threshold are *critical* and must be flanked by
            opposite-phase shifters (paper §1, footnote 1).
        shifter_width: drawn width of a generated phase shifter.
        shifter_spacing: minimum space between two shifters that are
            allowed to carry different phases; shifter pairs closer than
            this are "overlapping" and must share a phase (Condition 2).
        shifter_extension: how far a shifter extends past the line end
            of the feature it guards.
    """

    name: str
    min_feature_width: int
    min_feature_spacing: int
    critical_width: int
    shifter_width: int
    shifter_spacing: int
    shifter_extension: int

    def __post_init__(self) -> None:
        if self.min_feature_width <= 0:
            raise ValueError("min_feature_width must be positive")
        if self.critical_width < self.min_feature_width:
            raise ValueError(
                "critical_width below min_feature_width would make no "
                "feature critical")
        if self.shifter_width <= 0:
            raise ValueError("shifter_width must be positive")
        if self.shifter_spacing <= 0:
            raise ValueError("shifter_spacing must be positive")
        if self.shifter_extension < 0:
            raise ValueError("shifter_extension must be >= 0")

    # ------------------------------------------------------------------
    @staticmethod
    def node_90nm() -> "Technology":
        """Typical 90 nm poly rules (the paper's experimental node)."""
        return Technology(
            name="90nm-poly",
            min_feature_width=90,
            min_feature_spacing=140,
            critical_width=150,
            shifter_width=100,
            shifter_spacing=120,
            shifter_extension=20,
        )

    @staticmethod
    def node_65nm() -> "Technology":
        """A tighter deck used by scaling ablations."""
        return Technology(
            name="65nm-poly",
            min_feature_width=65,
            min_feature_spacing=110,
            critical_width=120,
            shifter_width=80,
            shifter_spacing=100,
            shifter_extension=15,
        )

    def is_critical_width(self, width: int) -> bool:
        """Does a drawn width require phase shifting?"""
        return width < self.critical_width

    def with_(self, **changes) -> "Technology":
        """Functional update helper (``tech.with_(shifter_spacing=200)``)."""
        return replace(self, **changes)


@lru_cache(maxsize=None)
def tech_fingerprint(tech: Technology) -> bytes:
    """The rule deck's cache-key bytes: ``repr(astuple(tech))`` encoded.

    Every content-addressed key (tile results, component verdicts)
    hashes the deck in exactly this byte form, so the encoding must
    never change — existing on-disk caches would silently go cold.
    Memoized because ``dataclasses.astuple`` deep-copies every field:
    computing this per component made it the assign stage's hottest
    line on chip-scale runs, while in practice a run touches one or two
    distinct (hashable, frozen) decks.
    """
    return repr(astuple(tech)).encode()
