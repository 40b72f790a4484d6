"""ShifterSet table tests."""

import pytest

from repro.geometry import Rect
from repro.shifters import LEFT, RIGHT, ShifterSet

from ..oracles import shifter_set


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
        shifters = shifter_set([(0, LEFT, Rect(0, 0, 10, 100)),
                                (0, RIGHT, Rect(100, 0, 110, 100))])
        assert shifters[-1].id == 1
        _pair(shifters, 1, 1000)
        assert shifters[-1].id == 3
        assert shifters[-1] is shifters[3]
        assert shifters[-1].rect == Rect(1100, 0, 1110, 100)

    def test_out_of_range(self):
        shifters = ShifterSet()
        _pair(shifters, 0, 0)
        with pytest.raises(IndexError):
            shifters[-3]
        with pytest.raises(IndexError):
            shifters[2]


class TestFeaturePairColumns:
    """``num_critical`` and ``feature_pair_ids`` are ``feature_pairs``
    without Shifter objects, exactly-two check included."""

    def test_agree_with_feature_pairs(self):
        from repro.bench import build_design
        from repro.layout import Technology
        from repro.shifters import generate_shifters

        shifters = generate_shifters(build_design("D2"),
                                     Technology.node_90nm())
        first, second = shifters.feature_pair_ids()
        assert shifters.num_critical() == len(first)
        assert not shifters._objs  # the column forms built no Shifter
        pairs = shifters.feature_pairs()
        assert list(zip(first.tolist(), second.tolist())) \
            == [(a.id, b.id) for a, b in pairs]

    def test_interleaved_rows(self):
        shifters = shifter_set([(5, LEFT, Rect(0, 0, 10, 100)),
                                (2, LEFT, Rect(500, 0, 510, 100)),
                                (5, RIGHT, Rect(100, 0, 110, 100)),
                                (2, RIGHT, Rect(600, 0, 610, 100))])
        first, second = shifters.feature_pair_ids()
        assert (first.tolist(), second.tolist()) == ([1, 0], [3, 2])
        assert shifters.num_critical() == 2

    def test_same_check_as_feature_pairs(self):
        shifters = ShifterSet()
        _pair(shifters, 0, 0)
        shifters.add(3, LEFT, Rect(900, 0, 910, 100))
        _pair(shifters, 1, 1000)
        shifters.add(1, LEFT, Rect(2000, 0, 2010, 100))
        for method in (shifters.feature_pairs, shifters.num_critical,
                       shifters.feature_pair_ids):
            with pytest.raises(ValueError,
                               match="feature 1 has 3 shifters"):
                method()
