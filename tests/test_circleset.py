"""Circular interval arithmetic."""

from fractions import Fraction as F

import pytest

from rigidlab.circleset import CircleSet, intersect_all, intersection_measure
from rigidlab.errors import PreconditionError


def _complement(B):
    """The arcs of [0, 1) that B leaves out, as a CircleSet."""
    ends = [F(0), *(x for arc in B.intervals for x in arc), F(1)]
    return CircleSet.from_pairs([(u, v) for u, v in zip(ends[::2], ends[1::2]) if u < v])


class TestConstruction:
    def test_interval(self):
        B = CircleSet.interval(0, F(2, 3))
        assert B.measure() == F(2, 3)
        assert B.contains(F(1, 2)) and not B.contains(F(3, 4))

    def test_wrapping_input_splits(self):
        B = CircleSet.from_pairs([(F(3, 4), F(5, 4))])
        assert B.intervals == ((F(0), F(1, 4)), (F(3, 4), F(1)))
        assert B.measure() == F(1, 2)

    def test_touching_merge(self):
        B = CircleSet.from_pairs([(0, F(1, 4)), (F(1, 4), F(1, 2))])
        assert B.intervals == ((F(0), F(1, 2)),)

    def test_overlap_rejected(self):
        with pytest.raises(PreconditionError):
            CircleSet.from_pairs([(0, F(1, 2)), (F(1, 4), F(3, 4))])

    def test_full_and_empty(self):
        assert CircleSet.full().measure() == 1
        assert CircleSet.empty().measure() == 0


class TestOperations:
    def test_shift_wraps(self):
        B = CircleSet.interval(0, F(1, 2)).shift(F(3, 4))
        assert B.intervals == ((F(0), F(1, 4)), (F(3, 4), F(1)))

    def test_shift_preserves_measure(self):
        B = CircleSet.from_pairs([(0, F(1, 5)), (F(1, 2), F(7, 10))])
        for t in (F(1, 3), F(9, 10), F(1, 7)):
            assert B.shift(t).measure() == B.measure()

    def test_scale_preimage(self):
        B = CircleSet.interval(0, F(1, 3))
        P = B.scale_preimage(2)
        assert P.measure() == F(1, 3)
        assert P.intervals == ((F(0), F(1, 6)), (F(1, 2), F(2, 3)))

    def test_intersection(self):
        A = CircleSet.interval(0, F(2, 3))
        B = CircleSet.interval(F(1, 2), F(9, 10))
        assert A.intersect(B).intervals == ((F(1, 2), F(2, 3)),)

    def test_complement(self):
        B = CircleSet.from_pairs([(F(1, 4), F(1, 2))])
        C = _complement(B)
        assert C.measure() == F(3, 4)
        assert intersect_all([B, C]).is_empty()

    def test_intersection_measure_shifted(self):
        # y, y+1/3, y+2/3 all in [0, 2/3) is impossible
        B = CircleSet.interval(0, F(2, 3))
        assert intersection_measure(B, [F(1, 3), F(2, 3)]) == 0
        assert intersection_measure(B, [0, 0]) == F(2, 3)

    def test_json_roundtrip(self):
        B = CircleSet.from_pairs([(0, F(1, 5)), (F(2, 5), F(3, 5))])
        assert CircleSet.from_json(B.to_json()) == B
