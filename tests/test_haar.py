"""Exact correlation integrals: closed forms and quadrature oracles."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigidlab.circleset import CircleSet
from rigidlab.errors import PreconditionError, UnsupportedShape
from rigidlab.haar import (
    FactorPattern,
    _single_rep_integral,
    haar_correlation_limit,
    triple_progression_integral,
)

import fraction_oracle

B23 = CircleSet.interval(0, F(2, 3))


def digit_group_reps(ell):
    from rigidlab.demos import cor65_representatives

    return cor65_representatives(ell)


def coordinate_pattern(ell):
    return [
        FactorPattern.of(rep_coeffs=tuple(1 if i == j else 0 for i in range(ell)))
        for j in range(ell)
    ]


class TestClosedForms:
    @pytest.mark.parametrize("ell", range(2, 9))
    def test_digit_group_limit(self, ell):
        value = haar_correlation_limit(digit_group_reps(ell), B23, coordinate_pattern(ell))
        assert value == F(2 ** (ell - 1), 3**ell)

    def test_free_coordinate_is_product(self):
        # trivial group: y + y1 with y1 uniform gives mu(B)^2
        val = haar_correlation_limit(
            [()], B23, [FactorPattern.of(free_var=0, free_coef=1)]
        )
        assert val == F(4, 9)

    def test_triple_small_interval(self):
        assert triple_progression_integral(CircleSet.interval(0, F(1, 10))) == F(1, 200)

    def test_triple_extremes(self):
        assert triple_progression_integral(CircleSet.full()) == 1
        assert triple_progression_integral(CircleSet.empty()) == 0

    def test_three_free_coordinates_rejected(self):
        with pytest.raises(UnsupportedShape):
            haar_correlation_limit(
                [()], B23, [FactorPattern.of(free_var=2, free_coef=1)]
            )

    def test_negative_free_variable_rejected(self):
        # vars -2 ... 1 would give four free coordinates past the cap
        with pytest.raises(PreconditionError):
            FactorPattern.of(free_var=-1, free_coef=1)

    def test_free_coefficient_without_free_variable_rejected(self):
        with pytest.raises(PreconditionError):
            FactorPattern.of((1,), None, 5)


class TestQuadratureOracle:
    def grid_value(self, B, factors, M=400):
        """Midpoint-grid oracle over the free coordinate(s) and y."""
        import itertools

        n_free = 0
        for f in factors:
            if f.free_var is not None:
                n_free = max(n_free, f.free_var + 1)
        total = 0.0
        pts = [(i + 0.5) / M for i in range(M)]
        for coords in itertools.product(pts, repeat=n_free + 1):
            y, zs = coords[0], coords[1:]
            # float membership to keep the oracle independent
            def inb(x):
                x %= 1.0
                return any(float(u) <= x < float(v) for u, v in B.intervals)

            ok = inb(y)
            for f in factors:
                if not ok:
                    break
                shift = 0.0
                if f.free_var is not None:
                    shift += f.free_coef * zs[f.free_var]
                ok = inb(y + shift)
            total += ok
        return total / M ** (n_free + 1)

    def test_one_free_random_sets(self):
        rng = random.Random(3)
        for _ in range(3):
            a = F(rng.randint(0, 4), 10)
            b = a + F(rng.randint(1, 4), 10)
            B = CircleSet.interval(a, min(b, F(9, 10)))
            factors = [
                FactorPattern.of(free_var=0, free_coef=1),
                FactorPattern.of(free_var=0, free_coef=2),
            ]
            exact = haar_correlation_limit([()], B, factors)
            approx = self.grid_value(B, factors, M=500)
            assert abs(float(exact) - approx) < 0.01

    def test_two_free_separable(self):
        B = CircleSet.from_pairs([(0, F(1, 4)), (F(1, 2), F(3, 4))])
        factors = [
            FactorPattern.of(free_var=0, free_coef=1),
            FactorPattern.of(free_var=0, free_coef=2),
            FactorPattern.of(free_var=1, free_coef=1),
        ]
        exact = haar_correlation_limit([()], B, factors)
        # separability: equals mu(B) * triple integral
        assert exact == B.measure() * triple_progression_integral(B)

    def test_reps_with_free(self):
        # first factor on a 1/2-rep, second free: average of two products
        B = CircleSet.interval(0, F(3, 5))
        reps = [(F(0),), (F(1, 2),)]
        factors = [
            FactorPattern.of(rep_coeffs=(1,)),
            FactorPattern.of(free_var=0, free_coef=1),
        ]
        exact = haar_correlation_limit(reps, B, factors)
        by_hand = F(1, 2) * (
            B.measure() * B.measure()
            + B.intersect(B.shift(F(1, 2))).measure() * B.measure()
        )
        assert exact == by_hand


class TestDistinctShiftSets:
    """haar_correlation_limit integrates once per distinct set of factor
    terms; it must equal the average of one integral per representative."""

    def test_matches_per_representative_average(self):
        rng = random.Random(8)
        for _ in range(40):
            B = CircleSet.from_pairs(sorted(
                (F(a, 12), F(a + rng.randint(1, 3), 12))
                for a in rng.sample(range(0, 12, 4), rng.randint(1, 3))
            ))
            dim = rng.randint(1, 3)
            reps = [tuple(F(rng.randrange(6), 6) for _ in range(dim))
                    for _ in range(rng.randint(1, 12))]
            pattern = []
            for _ in range(rng.randint(1, 4)):
                coeffs = tuple(rng.randint(-2, 2) for _ in range(dim))
                if rng.random() < 0.3:
                    pattern.append(FactorPattern.of(coeffs, rng.randrange(2), rng.choice([1, 2, -1])))
                else:
                    pattern.append(FactorPattern.of(coeffs))
            want = sum((_single_rep_integral(B, pattern, list(rep)) for rep in reps), F(0)) / len(reps)
            assert haar_correlation_limit(reps, B, pattern) == want

    def test_swapped_shifts_stay_apart(self):
        # (a, b) and (b, a) give the same shifts, but to factors of another
        # free variable or coefficient, so they integrate differently
        B = CircleSet.from_pairs([(0, F(1, 2)), (F(2, 3), F(5, 6))])
        a, b = F(0), F(1, 6)
        cases = [
            ([(None, 0), (0, 1)], [(a, b), (b, a)]),
            ([(0, 1), (0, 2)], [(a, b), (b, a)]),
            ([(0, 1), (0, 2), (1, 2)], [(a, b, a), (a, a, b)]),
        ]
        for terms, reps in cases:
            pattern = [FactorPattern.of(tuple(int(i == j) for i in range(len(terms))), *t)
                       for j, t in enumerate(terms)]
            values = [_single_rep_integral(B, pattern, list(rep)) for rep in reps]
            assert values[0] != values[1]
            assert haar_correlation_limit(reps, B, pattern) == sum(values) / 2

    def test_short_representative_rejected(self):
        with pytest.raises(PreconditionError):
            haar_correlation_limit([(F(1, 3),), ()], B23, [FactorPattern.of(rep_coeffs=(1,))])


@st.composite
def _integrals(draw):
    """(pairs of B, pattern, rep): at most two free variables, coefficients
    of either sign, B over small denominators so the oracle stays quick."""
    ends = sorted(draw(st.lists(st.fractions(0, 1, max_denominator=9), min_size=2, max_size=6,
                                unique=True)))
    pairs = list(zip(ends[::2], ends[1::2]))
    dim = draw(st.integers(0, 2))
    rep = [F(draw(st.integers(0, 11)), draw(st.sampled_from([1, 2, 3, 4, 6, 12]))) for _ in range(dim)]
    pattern = []
    for _ in range(draw(st.integers(2, 4))):
        coeffs = tuple(draw(st.integers(-2, 2)) for _ in range(dim))
        var = draw(st.sampled_from([None, 0, 0, 1]))
        coef = 0 if var is None else draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))
        pattern.append(FactorPattern.of(coeffs, var, coef))
    return pairs, pattern, rep


class TestFractionOracle:
    """_single_rep_integral on integer numerators against the Fraction
    implementation it replaced, kept in tests/fraction_oracle.py."""

    @settings(max_examples=150, deadline=None)
    @given(case=_integrals())
    def test_single_rep_integral_matches(self, case):
        pairs, pattern, rep = case
        want = fraction_oracle.single_rep_integral(
            fraction_oracle.FractionCircleSet.from_pairs(pairs), pattern, rep
        )
        assert _single_rep_integral(CircleSet.from_pairs(pairs), pattern, rep) == want

    def test_behrend_integrals_match(self):
        from rigidlab.behrend import behrend_set

        B = behrend_set(3)
        old = fraction_oracle.FractionCircleSet.from_pairs(B.intervals)
        patterns = [
            [FactorPattern.of(free_var=0, free_coef=1), FactorPattern.of(free_var=0, free_coef=2)],
            [FactorPattern.of((1,)), FactorPattern.of((2,)), FactorPattern.of(free_var=0, free_coef=1)],
            [FactorPattern.of((1,), 0, -1), FactorPattern.of((-1,), 0, 3), FactorPattern.of((2,))],
            [FactorPattern.of((1,), 0, 1), FactorPattern.of((), 0, -2),  # two varying g's
             FactorPattern.of((), 1, 1), FactorPattern.of((3,), 1, 2)],
        ]
        for pattern in patterns:
            for rep in ([F(0)], [F(2, 5)], [F(6, 7)]):
                want = fraction_oracle.single_rep_integral(old, pattern, rep)
                assert _single_rep_integral(B, pattern, rep) == want
