"""Phase-shifter model.

A *shifter* is a clear quartz aperture etched to shift the exposure phase
by 180 degrees; in bright-field AAPSM every critical feature is flanked by
two of them on opposite sides of its critical dimension.  This module
only models geometry and identity; phases live in :mod:`repro.phase`.

:class:`ShifterSet` is a batch table: shifters live in parallel
feature / side / rect columns (plus one feature→ids dict built as rows
land), and :class:`Shifter` objects are materialized lazily and
memoized.  The flow reads the columns only — the front end, the
conflict-graph build, detection, correction and the verifier go
through ``rects``, ``feature_column``, ``side_column``, ``rect_of``
and ``feature_pair_ids`` — so it builds no :class:`Shifter`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..geometry import Rect
from ..geometry.rect import RectList

LEFT = "left"
RIGHT = "right"
TOP = "top"
BOTTOM = "bottom"

OPPOSING_SIDES = {LEFT: RIGHT, RIGHT: LEFT, TOP: BOTTOM, BOTTOM: TOP}


@dataclass(frozen=True, slots=True)
class Shifter:
    """One phase shifter.

    Attributes:
        id: dense index into the owning :class:`ShifterSet`.
        feature_index: index of the guarded feature in the layout.
        side: which side of the feature this shifter sits on.
        rect: shifter geometry.
    """

    id: int
    feature_index: int
    side: str
    rect: Rect

    @property
    def center2(self) -> Tuple[int, int]:
        """Twice the shifter centre (exact integer node coordinate)."""
        return self.rect.center2


class ShifterSet:
    """All shifters of a layout, with per-feature lookup.

    Invariant (tested): the shifters of one feature come in opposing
    pairs, so the feature edges of the phase conflict graph form a
    perfect matching on the shifter nodes.

    Append-only; ids are dense insertion indices.  Rows are stored as
    columns, :class:`Shifter` objects materialize on demand, and the
    ``rects`` view is cached until the next append.
    """

    def __init__(self) -> None:
        self._feature: List[int] = []
        self._side: List[str] = []
        self._rect: List[Rect] = []
        self._by_feature: Dict[int, List[int]] = {}
        self._objs: Dict[int, Shifter] = {}
        self._rects: Optional[RectList] = None

    def add(self, feature_index: int, side: str, rect: Rect) -> Shifter:
        sid = len(self._feature)
        self._feature.append(feature_index)
        self._side.append(side)
        self._rect.append(rect)
        self._by_feature.setdefault(feature_index, []).append(sid)
        self._rects = None
        shifter = Shifter(sid, feature_index, side, rect)
        self._objs[sid] = shifter
        return shifter

    def extend_rows(self, rows: Iterable[Tuple[int, str, Rect]]) -> range:
        """Bulk :meth:`add` over ``(feature_index, side, rect)`` rows.

        Ids are assigned sequentially in row order — identical to the
        equivalent loop of :meth:`add` calls — but no :class:`Shifter`
        objects are built.  Returns the ``range`` of assigned ids.
        """
        rows = rows if isinstance(rows, (list, tuple)) else list(rows)
        start = len(self._feature)
        if not rows:
            return range(start, start)
        by_feature = self._by_feature
        for sid, row in enumerate(rows, start):
            by_feature.setdefault(row[0], []).append(sid)
        features, sides, rects = zip(*rows)
        self._feature.extend(features)
        self._side.extend(sides)
        self._rect.extend(rects)
        self._rects = None
        return range(start, len(self._feature))

    def __len__(self) -> int:
        return len(self._feature)

    def __iter__(self) -> Iterator[Shifter]:
        return (self[sid] for sid in range(len(self._feature)))

    def __getitem__(self, shifter_id: int) -> Shifter:
        # Memoize under the dense id: a negative index names a
        # different shifter once more rows are appended.
        if shifter_id < 0:
            shifter_id += len(self._feature)
            if shifter_id < 0:
                raise IndexError("shifter id out of range")
        shifter = self._objs.get(shifter_id)
        if shifter is None:
            shifter = Shifter(shifter_id, self._feature[shifter_id],
                              self._side[shifter_id], self._rect[shifter_id])
            self._objs[shifter_id] = shifter
        return shifter

    @property
    def rects(self) -> List[Rect]:
        """The rect column (cached; shared with the geometry kernels,
        whose :func:`~repro.geometry.rect.rect_columns` memoizes its
        int64 columns on the returned list)."""
        if self._rects is None:
            self._rects = RectList(self._rect)
        return self._rects

    def feature_column(self) -> List[int]:
        """The feature-index column (read-only by convention)."""
        return self._feature

    def side_column(self) -> List[str]:
        """The side column (read-only by convention)."""
        return self._side

    def rect_of(self, shifter_id: int) -> Rect:
        """Rect of a shifter, no :class:`Shifter` needed."""
        return self._rect[shifter_id]

    def feature_indices(self) -> List[int]:
        return sorted(self._by_feature)

    def of_feature(self, feature_index: int) -> List[Shifter]:
        return [self[i] for i in self._by_feature.get(feature_index, ())]

    def feature_pairs(self) -> List[Tuple[Shifter, Shifter]]:
        """The opposing shifter pair of every critical feature, as
        :class:`Shifter` objects, features ascending (the column form
        is :meth:`feature_pair_ids`)."""
        self._check_pairs()
        return [(self[a], self[b])
                for a, b in (self._by_feature[fi]
                             for fi in self.feature_indices())]

    def num_critical(self) -> int:
        """``len(feature_pairs())``, read off the per-feature index: no
        :class:`Shifter` is built, and the exactly-two check is the
        same."""
        self._check_pairs()
        return len(self._by_feature)

    def feature_pair_ids(self):
        """:meth:`feature_pairs` as two int64 id columns.

        ``(first, second)``: the ids of each critical feature's two
        shifters, in id order, features ascending — one numpy pass over
        the feature column, same exactly-two check.
        """
        import numpy as np

        self._check_pairs()
        order = np.argsort(np.array(self._feature, dtype=np.int64),
                           kind="stable")
        return order[0::2], order[1::2]

    def _check_pairs(self) -> None:
        """Raise ValueError unless every guarded feature has exactly
        two shifters (the smallest offending feature is named)."""
        by_feature = self._by_feature
        if set(map(len, by_feature.values())) <= {2}:
            return
        bad = min(fi for fi, ids in by_feature.items() if len(ids) != 2)
        raise ValueError(
            f"feature {bad} has {len(by_feature[bad])} shifters, "
            "expected exactly 2")
