"""Circular interval arithmetic."""

from fractions import Fraction as F
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigidlab.circleset import CircleSet, intersect_all, intersection_measure
from rigidlab.errors import PreconditionError

from fraction_oracle import FractionCircleSet
from fraction_oracle import intersection_measure as oracle_intersection_measure


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


# Points of [0, 1] over small denominators and, as float-derived shifts are,
# over 2^53.
_points = st.one_of(
    st.fractions(min_value=0, max_value=1, max_denominator=60),
    st.integers(0, 2**53).map(lambda n: F(n, 2**53)),
)
_scales = st.sampled_from([-4, -3, -2, -1, 1, 2, 3, 4])


@st.composite
def _arc_pairs(draw, max_arcs=4):
    """Disjoint arcs over mixed denominators, rotated so that they may wrap
    through 0 or touch across it."""
    ends = sorted(draw(st.lists(_points, max_size=2 * max_arcs, unique=True)))
    rot = draw(_points)
    return [(u + rot, v + rot) for u, v in zip(ends[::2], ends[1::2])]


class TestFractionOracle:
    """The integer-numerator CircleSet against the Fraction-endpoint one it
    replaced, kept in tests/fraction_oracle.py."""

    @settings(max_examples=300, deadline=None)
    @given(pairs=_arc_pairs(), other=_arc_pairs(), t=_points, c=_scales,
           xs=st.lists(_points, max_size=3))
    def test_operations_match(self, pairs, other, t, c, xs):
        A, old = CircleSet.from_pairs(pairs), FractionCircleSet.from_pairs(pairs)
        B, old_b = CircleSet.from_pairs(other), FractionCircleSet.from_pairs(other)
        assert A.intervals == old.intervals
        assert A.to_json() == old.to_json()
        assert A.measure() == old.measure()
        assert A.shift(t).intervals == old.shift(t).intervals
        assert A.shift(float(t)).intervals == old.shift(float(t)).intervals
        assert A.scale_preimage(c).intervals == old.scale_preimage(c).intervals
        assert A.intersect(B).intervals == old.intersect(old_b).intervals
        for x in [*xs, t, float(t), *(u for arc in old.intervals for u in arc)]:
            assert A.contains(x) == old.contains(x)
        assert intersection_measure(A, [t, *xs]) == oracle_intersection_measure(old, [t, *xs])

    @settings(max_examples=200, deadline=None)
    @given(pairs=st.lists(st.tuples(st.fractions(-2, 3, max_denominator=12),
                                    st.fractions(-2, 3, max_denominator=12)), max_size=4))
    def test_construction_refuses_what_the_oracle_refuses(self, pairs):
        """Reversed, overlapping and full-circle inputs."""
        try:
            want = FractionCircleSet.from_pairs(pairs).intervals
        except PreconditionError:
            with pytest.raises(PreconditionError):
                CircleSet.from_pairs(pairs)
        else:
            assert CircleSet.from_pairs(pairs).intervals == want

    @settings(max_examples=200, deadline=None)
    @given(pairs=_arc_pairs(), t=_points, cut=st.fractions(0, 1, max_denominator=97))
    def test_one_set_over_other_denominators_is_equal(self, pairs, t, cut):
        A = CircleSet.from_pairs(pairs)
        assert A.den == lcm(*(x.denominator for arc in A.intervals for x in arc))
        # an arc split at a point of another denominator merges back
        split = list(A.intervals)
        if split and 0 < cut < 1:
            u, v = split.pop()
            w = u + cut * (v - u)
            split += [(u, w), (w, v)]
        same = [CircleSet.from_pairs(split), A.shift(t).shift(-t), A.scale_preimage(1),
                A.intersect(CircleSet.full()), CircleSet.from_json(A.to_json())]
        for S in same:
            assert S == A and hash(S) == hash(A)
