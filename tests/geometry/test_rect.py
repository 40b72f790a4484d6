"""Unit and property tests for rectangles."""


import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geometry import Rect, bounding_box, pairwise_disjoint, union_area

coords = st.integers(-2000, 2000)
rects = st.builds(
    lambda x, y, w, h: Rect(x, y, x + w, y + h),
    coords, coords, st.integers(1, 500), st.integers(1, 500))


class TestRectBasics:
    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            Rect(0, 0, 0, 10)
        with pytest.raises(ValueError):
            Rect(0, 0, 10, 0)
        with pytest.raises(ValueError):
            Rect(5, 0, 4, 10)

    def test_measures(self):
        r = Rect(1, 2, 11, 5)
        assert r.width == 10
        assert r.height == 3
        assert r.area == 30
        assert r.min_dimension == 3
        assert r.max_dimension == 10

    def test_orientation(self):
        assert Rect(0, 0, 90, 1000).is_vertical
        assert not Rect(0, 0, 1000, 90).is_vertical

    def test_center2_exact(self):
        assert Rect(0, 0, 5, 7).center2 == (5, 7)

    def test_spans(self):
        r = Rect(1, 2, 3, 4)
        assert (r.xspan.lo, r.xspan.hi) == (1, 3)
        assert (r.yspan.lo, r.yspan.hi) == (2, 4)


class TestRectRelations:
    def test_touching_intersects_closed(self):
        a = Rect(0, 0, 10, 10)
        b = Rect(10, 0, 20, 10)
        assert a.intersects(b)
        assert not a.strictly_intersects(b)

    def test_intersection_geometry(self):
        a = Rect(0, 0, 10, 10)
        b = Rect(5, 5, 20, 20)
        assert a.intersection(b) == Rect(5, 5, 10, 10)

    def test_intersection_none_when_touching(self):
        assert Rect(0, 0, 10, 10).intersection(Rect(10, 0, 20, 10)) is None

    def test_separation_axis_aligned(self):
        a = Rect(0, 0, 10, 10)
        b = Rect(25, 0, 30, 10)
        assert a.separation_sq(b) == 15 * 15

    def test_separation_diagonal(self):
        a = Rect(0, 0, 10, 10)
        b = Rect(13, 14, 20, 20)
        assert a.separation_sq(b) == 3 * 3 + 4 * 4
        assert a.separation(b) == pytest.approx(5.0)

    def test_separation_overlapping_is_zero(self):
        a = Rect(0, 0, 10, 10)
        assert a.separation_sq(Rect(5, 5, 15, 15)) == 0

    def test_within_distance_strict(self):
        a = Rect(0, 0, 10, 10)
        b = Rect(15, 0, 20, 10)
        assert a.within_distance(b, 6)
        assert not a.within_distance(b, 5)

    @given(rects, rects)
    def test_separation_symmetry(self, a, b):
        assert a.separation_sq(b) == b.separation_sq(a)

    @given(rects, rects)
    def test_separation_zero_iff_closed_intersect(self, a, b):
        assert (a.separation_sq(b) == 0) == a.intersects(b)

    @given(rects, rects)
    def test_between_region_fills_gap(self, a, b):
        from ..oracles import between_region

        between = between_region(a, b)
        if between is None:
            return
        assert not between.strictly_intersects(a)
        assert not between.strictly_intersects(b)
        assert between.intersects(a)
        assert between.intersects(b)


class TestRectConstruction:
    def test_inflated(self):
        assert Rect(0, 0, 10, 10).inflated(5) == Rect(-5, -5, 15, 15)

    def test_translated(self):
        assert Rect(0, 0, 1, 1).translated(3, -2) == Rect(3, -2, 4, -1)

    def test_hull(self):
        assert Rect(0, 0, 1, 1).hull(Rect(5, 5, 6, 7)) == Rect(0, 0, 6, 7)

    @given(rects, rects)
    def test_hull_contains_both(self, a, b):
        h = a.hull(b)
        assert h.contains_rect(a)
        assert h.contains_rect(b)


class TestBoundingBoxAndArea:
    def test_bounding_box_empty(self):
        assert bounding_box([]) is None

    def test_bounding_box(self):
        box = bounding_box([Rect(0, 0, 1, 1), Rect(10, -5, 12, 0)])
        assert box == Rect(0, -5, 12, 1)

    def test_union_area_disjoint(self):
        assert union_area([Rect(0, 0, 10, 10), Rect(20, 0, 30, 10)]) == 200

    def test_union_area_overlapping(self):
        assert union_area([Rect(0, 0, 10, 10), Rect(5, 0, 15, 10)]) == 150

    def test_union_area_contained(self):
        assert union_area([Rect(0, 0, 10, 10), Rect(2, 2, 4, 4)]) == 100

    @given(st.lists(rects, max_size=8))
    def test_union_area_bounds(self, rs):
        area = union_area(rs)
        assert area <= sum(r.area for r in rs)
        if rs:
            assert area >= max(r.area for r in rs)
            box = bounding_box(rs)
            assert area <= box.area

    @given(st.lists(rects, max_size=6))
    def test_union_area_matches_grid_count(self, rs):
        # Count covered unit cells on the coordinate-compressed grid.
        area = union_area(rs)
        if not rs:
            assert area == 0
            return
        xs = sorted({r.x1 for r in rs} | {r.x2 for r in rs})
        ys = sorted({r.y1 for r in rs} | {r.y2 for r in rs})
        total = 0
        for xa, xb in zip(xs, xs[1:]):
            for ya, yb in zip(ys, ys[1:]):
                if any(r.x1 <= xa and r.x2 >= xb and r.y1 <= ya
                       and r.y2 >= yb for r in rs):
                    total += (xb - xa) * (yb - ya)
        assert area == total


class TestPairwiseDisjoint:
    def test_disjoint_true(self):
        assert pairwise_disjoint([Rect(0, 0, 1, 1), Rect(2, 2, 3, 3)])

    def test_touching_is_disjoint(self):
        assert pairwise_disjoint([Rect(0, 0, 1, 1), Rect(1, 0, 2, 1)])

    def test_overlap_false(self):
        assert not pairwise_disjoint([Rect(0, 0, 5, 5), Rect(4, 4, 6, 6)])


class TestRectList:
    """A rect list's memoized columns never outlive a mutation."""

    @staticmethod
    def columned():
        from repro.geometry.rect import RectList, rect_columns

        rects = RectList([Rect(0, 0, 5, 9), Rect(7, 1, 9, 4),
                          Rect(2, 3, 6, 8)])
        assert rect_columns(rects) is rects.columns
        return rects

    @pytest.mark.parametrize("mutate", [
        lambda r: r.append(Rect(1, 1, 2, 2)),
        lambda r: r.extend([Rect(1, 1, 2, 2)]),
        lambda r: r.insert(0, Rect(1, 1, 2, 2)),
        lambda r: r.pop(),
        lambda r: r.remove(r[0]),
        lambda r: r.clear(),
        lambda r: r.sort(key=lambda rect: rect.y1),
        lambda r: r.reverse(),
        lambda r: r.__setitem__(0, Rect(1, 1, 2, 2)),
        lambda r: r.__setitem__(slice(0, 2), []),
        lambda r: r.__delitem__(0),
        lambda r: r.__iadd__([Rect(1, 1, 2, 2)]),
        lambda r: r.__imul__(2),
    ])
    def test_every_mutation_drops_the_columns(self, mutate):
        from repro.geometry.rect import rect_columns

        rects = self.columned()
        mutate(rects)
        assert rects.columns is None
        fresh = rect_columns(list(rects))
        assert [c.tolist() for c in rect_columns(rects)] \
            == [c.tolist() for c in fresh]

    def test_pickles_with_its_columns(self):
        import pickle

        from repro.geometry.rect import RectList

        rects = self.columned()
        back = pickle.loads(pickle.dumps(rects))
        assert isinstance(back, RectList) and back == rects
        assert [c.tolist() for c in back.columns] \
            == [c.tolist() for c in rects.columns]

    @staticmethod
    def column_only():
        import numpy as np

        from repro.geometry.rect import RectList

        box = np.array([[0, 7, 2], [0, 1, 3], [5, 9, 6], [9, 4, 8]],
                       dtype=np.int64)
        return RectList(columns=tuple(box)), [
            Rect(0, 0, 5, 9), Rect(7, 1, 9, 4), Rect(2, 3, 6, 8)]

    def test_column_only_makes_rects_on_demand(self):
        """Built from columns, a rect list reads like the list of its
        rects and keeps none of the rects it makes."""
        from unittest import mock

        rects, want = self.column_only()
        assert len(rects) == 3 and rects == want and want == rects
        assert list(rects) == want and rects[1] == want[1]
        assert rects[-1] == want[-1] and rects[1:] == want[1:]
        assert Rect(7, 1, 9, 4) in rects and bool(rects)
        with pytest.raises(IndexError):
            rects[3]
        post_init = Rect.__post_init__
        made = []

        def counting(rect):
            made.append(rect)
            post_init(rect)

        with mock.patch.object(Rect, "__post_init__", counting):
            list(rects)
            list(rects)
        assert len(made) == 6 and rects._rects is None

    def test_column_only_equality_and_pickle(self):
        import pickle

        from repro.geometry.rect import RectList, rect_columns

        rects, want = self.column_only()
        assert rects == RectList(want) and RectList(want) == rects
        assert rects != want[:2] and rects != RectList(want[:2])
        assert rect_columns(rects) is rects.columns
        back = pickle.loads(pickle.dumps(rects))
        assert back == rects and back._rects is None

    def test_column_only_mutation_keeps_the_rects(self):
        from repro.geometry.rect import rect_columns

        rects, want = self.column_only()
        rects.append(Rect(1, 1, 2, 2))
        assert rects.columns is None
        assert rects == want + [Rect(1, 1, 2, 2)]
        assert [c.tolist() for c in rect_columns(rects)] \
            == [c.tolist() for c in rect_columns(list(rects))]

