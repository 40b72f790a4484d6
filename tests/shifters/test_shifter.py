"""ShifterSet table tests."""

import pytest

from repro.geometry import Rect
from repro.shifters import LEFT, RIGHT, ShifterSet


def _pair(shifters: ShifterSet, feature_index: int, x: int) -> None:
    shifters.add(feature_index, LEFT, Rect(x, 0, x + 10, 100))
    shifters.add(feature_index, RIGHT, Rect(x + 100, 0, x + 110, 100))


class TestNegativeIds:
    def test_last_shifter_follows_appends(self):
        shifters = ShifterSet()
        _pair(shifters, 0, 0)
        assert shifters[-1].id == 1
        _pair(shifters, 1, 1000)
        last = shifters[-1]
        assert last.id == 3
        assert last.rect == Rect(1100, 0, 1110, 100)
        assert shifters[-4] is shifters[0]

    def test_last_shifter_follows_bulk_rows(self):
        shifters = ShifterSet()
        shifters.extend_rows([(0, LEFT, Rect(0, 0, 10, 100)),
                              (0, RIGHT, Rect(100, 0, 110, 100))])
        assert shifters[-1].id == 1
        shifters.extend_rows([(1, LEFT, Rect(1000, 0, 1010, 100)),
                              (1, RIGHT, Rect(1100, 0, 1110, 100))])
        assert shifters[-1].id == 3
        assert shifters[-1] is shifters[3]

    def test_out_of_range(self):
        shifters = ShifterSet()
        _pair(shifters, 0, 0)
        with pytest.raises(IndexError):
            shifters[-3]
        with pytest.raises(IndexError):
            shifters[2]
