"""Phase-shifter model.

A *shifter* is a clear quartz aperture etched to shift the exposure phase
by 180 degrees; in bright-field AAPSM every critical feature is flanked by
two of them on opposite sides of its critical dimension.  This module
only models geometry and identity; phases live in :mod:`repro.phase`.

:class:`ShifterSet` is a column table: shifters live in int64 feature,
side-code and rect columns, built in bulk (one array pass of
:func:`~repro.shifters.generation.generate_shifters`, or a column slice
of another set), and :class:`Shifter` objects and :class:`Rect` values
are made on demand.  The flow reads the columns only — the front end,
the conflict-graph build, detection, correction and the verifier go
through ``box``, ``feature_column``, ``code_column``, ``rect_of`` and
``feature_pair_ids`` — so it builds no :class:`Shifter` and no
per-shifter :class:`Rect`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from ..geometry import Rect
from ..geometry.rect import RectList

LEFT = "left"
RIGHT = "right"
TOP = "top"
BOTTOM = "bottom"

OPPOSING_SIDES = {LEFT: RIGHT, RIGHT: LEFT, TOP: BOTTOM, BOTTOM: TOP}

# Side codes of the code column.  Codes ascend with the side names, so
# ordering shifters by ``(feature rect, code)`` orders them by
# ``(feature rect, side)``.
SIDES = (BOTTOM, LEFT, RIGHT, TOP)
SIDE_CODE = {side: code for code, side in enumerate(SIDES)}


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
    """All shifters of a layout, as int64 columns.

    ``feature`` holds each shifter's feature index, ``code`` its side
    (an index into :data:`SIDES`) and ``box`` its rect as a ``(4, n)``
    array of ``x1, y1, x2, y2`` rows; ids are dense row indices.  The
    arrays are owned by the set and read-only by convention.

    Invariant (tested): the shifters of one feature come in opposing
    pairs, so the feature edges of the phase conflict graph form a
    perfect matching on the shifter nodes.

    :meth:`add` appends one row (hand-built sets); :class:`Shifter`
    objects are memoized, and the ``rects`` view and the feature-pair
    ids are cached until the next append.
    """

    def __init__(self, feature=None, code=None, box=None) -> None:
        import numpy as np

        if feature is None:
            feature = np.empty(0, dtype=np.int64)
            code = np.empty(0, dtype=np.int64)
            box = np.empty((4, 0), dtype=np.int64)
        if not (len(feature) == len(code) == box.shape[1]
                and box.shape[0] == 4):
            raise ValueError("shifter columns differ in length")
        self._feature = feature
        self._code = code
        self._box = box
        self._objs: Dict[int, Shifter] = {}
        self._rects: Optional[RectList] = None
        self._pair_ids = None

    def add(self, feature_index: int, side: str, rect: Rect) -> Shifter:
        """Append one shifter (an array copy: for hand-built sets)."""
        import numpy as np

        sid = len(self._feature)
        self._feature = np.append(self._feature, feature_index)
        self._code = np.append(self._code, SIDE_CODE[side])
        self._box = np.append(self._box, [[rect.x1], [rect.y1],
                                          [rect.x2], [rect.y2]], axis=1)
        self._rects = None
        self._pair_ids = None
        return self[sid]

    def __len__(self) -> int:
        return len(self._feature)

    def __iter__(self) -> Iterator[Shifter]:
        return (self[sid] for sid in range(len(self._feature)))

    def __getitem__(self, shifter_id: int) -> Shifter:
        # Memoize under the dense id: a negative index names a
        # different shifter once more rows are appended.
        n = len(self._feature)
        if shifter_id < 0:
            shifter_id += n
        if not 0 <= shifter_id < n:
            raise IndexError("shifter id out of range")
        shifter = self._objs.get(shifter_id)
        if shifter is None:
            shifter = Shifter(shifter_id, int(self._feature[shifter_id]),
                              SIDES[self._code[shifter_id]],
                              self.rect_of(shifter_id))
            self._objs[shifter_id] = shifter
        return shifter

    @property
    def box(self):
        """The rect columns as one ``(4, n)`` int64 array: rows ``x1,
        y1, x2, y2`` (``x1, y1, x2, y2 = shifters.box``)."""
        return self._box

    @property
    def rects(self) -> List[Rect]:
        """Every shifter's :class:`Rect` (built on first use and cached;
        the list carries the rect columns, so
        :func:`~repro.geometry.rect.rect_columns` reads them free)."""
        if self._rects is None:
            self._rects = RectList(map(Rect, *self._box.tolist()),
                                   tuple(self._box))
        return self._rects

    def feature_column(self):
        """The feature-index column (int64, read-only by convention)."""
        return self._feature

    def code_column(self):
        """The side-code column (int64 indices into :data:`SIDES`)."""
        return self._code

    def rect_of(self, shifter_id: int) -> Rect:
        """Rect of one shifter, made on demand."""
        return Rect(*self._box[:, shifter_id].tolist())

    def feature_indices(self) -> List[int]:
        import numpy as np

        return np.unique(self._feature).tolist()

    def of_feature(self, feature_index: int) -> List[Shifter]:
        import numpy as np

        return [self[i] for i in
                np.flatnonzero(self._feature == feature_index).tolist()]

    def feature_pairs(self) -> List[Tuple[Shifter, Shifter]]:
        """The opposing shifter pair of every critical feature, as
        :class:`Shifter` objects, features ascending (the column form
        is :meth:`feature_pair_ids`)."""
        first, second = self.feature_pair_ids()
        return [(self[a], self[b])
                for a, b in zip(first.tolist(), second.tolist())]

    def num_critical(self) -> int:
        """``len(feature_pairs())`` with no :class:`Shifter` built; the
        exactly-two check is the same."""
        return len(self.feature_pair_ids()[0])

    def ids_of(self, feature, code):
        """The id of the shifter on side ``code`` of feature ``feature``,
        elementwise over two int64 columns; -1 where there is none."""
        import numpy as np

        first, second = self.feature_pair_ids()
        if not len(first):
            return np.full(len(feature), -1, dtype=np.int64)
        ranked = self._feature[first]
        pos = np.minimum(np.searchsorted(ranked, feature), len(ranked) - 1)
        a, b = first[pos], second[pos]
        ids = np.where(self._code[a] == code, a,
                       np.where(self._code[b] == code, b, -1))
        ids[ranked[pos] != feature] = -1
        return ids

    def feature_pair_ids(self):
        """:meth:`feature_pairs` as two int64 id columns.

        ``(first, second)``: the ids of each critical feature's two
        shifters, in id order, features ascending — one stable sort of
        the feature column, which also checks that every guarded
        feature has exactly two shifters (ValueError naming the
        smallest offending feature).
        """
        if self._pair_ids is None:
            import numpy as np

            feature = self._feature
            order = np.argsort(feature, kind="stable")
            ranked = feature[order]
            starts = np.flatnonzero(np.concatenate((
                [True], ranked[1:] != ranked[:-1]))) if len(ranked) \
                else np.empty(0, dtype=np.int64)
            counts = np.diff(np.append(starts, len(ranked)))
            bad = np.flatnonzero(counts != 2)
            if bad.size:
                k = int(bad[0])
                raise ValueError(
                    f"feature {int(ranked[starts[k]])} has "
                    f"{int(counts[k])} shifters, expected exactly 2")
            self._pair_ids = (order[0::2], order[1::2])
        return self._pair_ids
