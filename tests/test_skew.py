"""Skew-product correlations, finite-sums tails, Gaussian transfer."""

import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigidlab import families as fm
from rigidlab import lattice as lat
from rigidlab import measure as ms
from rigidlab import skew
from rigidlab.circleset import CircleSet, intersection_measure
from rigidlab.errors import PreconditionError
from rigidlab.gaussians import (
    gaussian_pair_mass,
    interval_probability,
    verify_gaussian_transfer,
)
from rigidlab.haar import FactorPattern, haar_correlation_limit
from rigidlab.schedule import build_schedule
from rigidlab.skew import (
    fs_tail,
    sampled_correlation,
    shifted_intersection_values,
    skew_correlation,
)

B23 = CircleSet.interval(0, F(2, 3))


class TestSkewCorrelation:
    def test_zero_shifts_give_base_measure(self):
        base = ms.uniform_atoms([0, F(1, 7), F(3, 7)])
        assert skew_correlation(base, B23, [0, 0, 0]) == F(2, 3)

    def test_dirac_zero_fibers_unmoved(self):
        assert skew_correlation(ms.dirac(0), B23, [17, 51]) == F(2, 3)

    def test_third_rotation_vanishes(self):
        assert skew_correlation(ms.dirac(F(1, 3)), B23, [1, 2]) == 0

    def test_invariance_shift_zero_prepended(self):
        rng = random.Random(4)
        for _ in range(100):
            atoms = [
                (F(rng.randint(0, 11), 12), F(1, 3)) for _ in range(3)
            ]
            merged = {}
            for x, w in atoms:
                merged[x] = merged.get(x, F(0)) + w
            base = ms.AtomicMeasure(list(merged.items()))
            lo = F(rng.randint(0, 5), 10)
            hi = lo + F(rng.randint(1, 4), 10)
            Bset = CircleSet.interval(lo, min(hi, F(9, 10)))
            shifts = [rng.randint(-20, 20) for _ in range(rng.randint(1, 3))]
            assert skew_correlation(base, Bset, shifts) == skew_correlation(
                base, Bset, [0] + shifts
            )

    def test_matches_haar_limit_for_cyclic_atoms(self):
        # uniform atoms on {k/q} behave exactly like the Haar average of the
        # cyclic annihilator group, for every q up to 12
        for q in range(1, 13):
            base = ms.uniform_atoms([F(k, q) for k in range(q)])
            for shifts in ([1], [1, 2], [2, 3]):
                got = skew_correlation(base, B23, shifts)
                reps = [(F(k, q),) for k in range(q)]
                pattern = [
                    FactorPattern.of(rep_coeffs=(t,)) for t in shifts
                ]
                assert got == haar_correlation_limit(reps, B23, pattern)

    def test_structured_path_matches_exact(self):
        fam = fm.polynomial_family([[0, 1], [0, 0, 1]])
        s = build_schedule(fam, 3)
        G = lat.canonicalize([(2, 0), (0, 3)], 2)
        m = ms.sample_sigma(G, s, fam, 300, seed=8)
        for shifts in ([1], [3, 7], [2, 5, 11]):
            fast, _ = sampled_correlation(m, B23, shifts, 300)
            exact = skew_correlation(m, B23, shifts)
            assert fast == pytest.approx(float(exact), abs=1e-9)

    def test_multi_interval_structured(self):
        fam = fm.polynomial_family([[0, 1]])
        s = build_schedule(fam, 3)
        m = ms.sample_sigma(lat.canonicalize([(2,)], 1), s, fam, 200, seed=8)
        Bset = CircleSet.from_pairs([(0, F(1, 5)), (F(2, 5), F(4, 5))])
        fast, _ = sampled_correlation(m, Bset, [1, 3], 200)
        exact = skew_correlation(m, Bset, [1, 3])
        assert fast == pytest.approx(float(exact), abs=1e-9)


def _float_intersection(base, shifts):
    """Reference: the per-word float sweep the vectorized multi-arc kernel
    replaced, kept verbatim as the oracle it must reproduce bitwise."""
    current = base
    for t in shifts:
        t %= 1.0
        shifted = []
        for u, v in base:
            lo, hi = u - t, v - t
            if lo < 0 and hi > 0:
                shifted.append((lo + 1.0, 1.0))
                shifted.append((0.0, hi))
            elif hi <= 0:
                shifted.append((lo + 1.0, hi + 1.0))
            else:
                shifted.append((lo, hi))
        shifted.sort()
        merged = []
        for u, v in current:
            for c, d in shifted:
                if c >= v:
                    break
                lo, hi = max(u, c), min(v, d)
                if lo < hi:
                    merged.append((lo, hi))
        if not merged:
            return 0.0
        current = merged
    return sum(v - u for u, v in current)


def _budget(B, m):
    """The skew module's written error budget with exact phases (delta = 0)."""
    return len(B.intervals) * (m + 1) * 5 * 2.0**-53


@st.composite
def _arc_sets(draw):
    """1-8 disjoint rational arcs, sometimes rotated to wrap through 0."""
    den = draw(st.sampled_from([2, 3, 7, 10, 27, 1000, 3**13, 2**40]))
    k = draw(st.integers(1, 8))
    ends = draw(
        st.lists(st.integers(0, den), min_size=2, max_size=2 * k, unique=True)
        .map(sorted)
        .filter(lambda e: len(e) >= 2)
    )
    pairs = [(F(a, den), F(b, den)) for a, b in zip(ends[::2], ends[1::2])]
    rot = F(draw(st.integers(0, den - 1)), den)
    return CircleSet.from_pairs([(u + rot, v + rot) for u, v in pairs])


class TestMultiArcKernel:
    """The vectorized multi-arc sweep against the per-word float sweep
    (bitwise) and against exact intersection_measure (within the budget)."""

    @settings(max_examples=150, deadline=None)
    @given(
        B=_arc_sets(),
        m=st.integers(0, 3),
        n=st.sampled_from([1, skew._ROW_BLOCK - 1, 2 * skew._ROW_BLOCK + 1]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_float_sweep_and_exact(self, B, m, n, seed):
        arcs = [(float(u), float(v)) for u, v in B.intervals]
        exact_ends = [x for arc in B.intervals for x in arc]
        ends = [float(x) for x in exact_ends]
        # phases of 0.0 and at endpoint differences (taken in float and
        # exactly) put endpoints of different shifted copies on top of each other
        pool = [0.0] + [(a - b) % 1.0 for a in ends for b in ends]
        pool += [float((a - b) % 1) for a in exact_ends for b in exact_ends]
        rng = np.random.default_rng(seed)
        phases = np.where(
            rng.random((n, m)) < 0.5,
            rng.choice(pool, size=(n, m)),
            rng.random((n, m)),
        )
        got = skew._multi_arc_intersection_lengths(np.array(arcs).reshape(-1, 2), phases)
        want = [_float_intersection(arcs, list(row)) for row in phases]
        assert got.tolist() == want
        closed = None
        if len(B.intervals) == 1:  # the budget covers the closed form too
            (u, v), = B.intervals
            starts = np.zeros((n, m + 1))
            starts[:, 1:] = -phases
            closed = skew._arc_intersection_lengths(starts, float(v - u))
        for i, row in enumerate(phases[:8]):
            exact = intersection_measure(B, [F(t) for t in row])
            assert abs(F(got[i]) - exact) <= _budget(B, m)
            if closed is not None:
                assert abs(F(closed[i]) - exact) <= _budget(B, m)

    def test_no_shifts_and_empty_set(self):
        B = CircleSet.from_pairs(
            [(0, F(1, 27)), (F(2, 27), F(1, 9)), (F(2, 9), F(7, 27)), (F(8, 9), 1)]
        )
        base = ms.uniform_atoms([F(k, 11) for k in range(11)])
        values = shifted_intersection_values(base, B, [])
        arcs = [(float(u), float(v)) for u, v in B.intervals]
        assert values.tolist() == [_float_intersection(arcs, [])] * 11
        assert all(abs(F(v) - B.measure()) <= _budget(B, 0) for v in values)
        empty = shifted_intersection_values(base, CircleSet.empty(), [1, 2])
        assert empty.tolist() == [0.0] * 11

    def test_sampled_words_match_float_sweep(self):
        fam = fm.polynomial_family([[0, 1], [0, 0, 1]])
        s = build_schedule(fam, 3)
        m = ms.sample_sigma(lat.canonicalize([(2, 0), (0, 3)], 2), s, fam, 600, seed=5)
        Bset = CircleSet.from_pairs(
            [(0, F(1, 9)), (F(2, 9), F(1, 3)), (F(2, 3), F(7, 9)), (F(8, 9), 1)]
        )
        shifts = [1, 6, 35]
        got = shifted_intersection_values(m, Bset, shifts)
        arcs = [(float(u), float(v)) for u, v in Bset.intervals]
        cols = [m.phases(t) for t in shifts]
        want = [_float_intersection(arcs, [c[i] for c in cols]) for i in range(len(got))]
        assert got.tolist() == want


def _sorted_closed_form(starts, length):
    """Reference: the single-interval closed form with np.sort and % 1.0 that
    the compare-exchange kernel replaced, kept as the oracle it must
    reproduce bitwise."""
    s = np.sort(starts % 1.0, axis=1)
    gaps = np.diff(s, axis=1)
    wrap = 1.0 - (s[:, -1] - s[:, 0])
    slack = length - 1.0
    total = np.clip(gaps + slack, 0.0, None).sum(axis=1)
    total += np.clip(wrap + slack, 0.0, None)
    return total


# zero, values below 2^-53 and values just off 0 and 1
_EDGE_PHASES = [0.0, 2.0**-60, 5e-324, 2.0**-53, 1 - 2.0**-53, 0.5, 1 / 3]


class TestSingleArcKernel:
    """The sort-free single-interval kernel against the np.sort closed form."""

    @settings(max_examples=200, deadline=None)
    @given(
        m=st.integers(0, 9),
        n=st.sampled_from([1, 7, 300]),
        length=st.sampled_from([1.0, 2 / 3, 0.5, 1e-3, 2.0**-60, float(F(1, 3**13))]),
        fortran=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_sorted_closed_form(self, m, n, length, fortran, seed):
        rng = np.random.default_rng(seed)
        # ties come from a small pool shared by the columns of a row
        pool = np.concatenate([_EDGE_PHASES, rng.random(3)])
        phases = np.where(
            rng.random((n, m)) < 0.6, rng.choice(pool, size=(n, m)), rng.random((n, m))
        )
        starts = np.zeros((n, m + 1), order="F" if fortran else "C")
        starts[:, 1:] = -phases
        got = skew._arc_intersection_lengths(starts, length)
        want = _sorted_closed_form(starts, length)
        if m < 8:
            assert got.tobytes() == want.tobytes()
        else:  # numpy sums 8 or more gaps pairwise, the kernel left to right
            assert np.abs(got - want).max() <= 2 * (m + 1) * 2.0**-53

    @settings(max_examples=300, deadline=None)
    @given(
        xs=st.lists(
            st.one_of(
                st.floats(allow_nan=False, allow_infinity=False),
                st.sampled_from([-0.0, -1.0, -5e-324, -(2.0**-60), -(1 - 2.0**-53), -(2.0**53)]),
                st.sampled_from(_EDGE_PHASES),
            ),
            min_size=1,
            max_size=20,
        )
    )
    def test_floor_reduction_is_mod_one(self, xs):
        x = np.array(xs)
        assert (x - np.floor(x)).tobytes() == (x % 1.0).tobytes()


class TestFsTail:
    def test_all_sums(self):
        assert sorted(fs_tail([1, 2, 4], 0).values()) == [1, 2, 3, 4, 5, 6, 7]

    def test_past_first(self):
        assert sorted(fs_tail([1, 2, 4], 1).values()) == [2, 4, 6]

    def test_factorial_like(self):
        assert sorted(fs_tail([6, 24, 120], 0).values()) == [
            6, 24, 30, 120, 126, 144, 150,
        ]

    def test_alpha_recomputation(self):
        tail = fs_tail([3, 9, 27, 81], 1)
        for alpha, total in tail.sums:
            assert total == sum(tail.generators[i - 1] for i in alpha)
        assert len(tail.sums) == 2**3 - 1

    def test_rejects_non_monotone(self):
        with pytest.raises(PreconditionError):
            fs_tail([5, 3], 0)


class TestGaussianPairMass:
    def test_independence(self):
        got = gaussian_pair_mass(0.0, (-1.5, 0.5), (0, 2))
        want = interval_probability(-1.5, 0.5) * interval_probability(0, 2)
        assert got == pytest.approx(want, abs=1e-8)

    def test_perfect_correlation(self):
        got = gaussian_pair_mass(1.0, (-1, 0), (-1, 0))
        assert got == pytest.approx(interval_probability(-1, 0), abs=1e-12)

    def test_arcsine_closed_form(self):
        import math

        got = gaussian_pair_mass(0.5, (-40, 0), (-40, 0))
        want = 0.25 + math.asin(0.5) / (2 * math.pi)
        assert got == pytest.approx(want, abs=1e-8)
        assert got == pytest.approx(1 / 3, abs=1e-8)

    def test_monotone_in_rho_for_quadrant(self):
        grid = [r / 10 for r in range(-9, 10)]
        masses = [gaussian_pair_mass(r, (-40, 0), (-40, 0)) for r in grid]
        assert all(b > a for a, b in zip(masses, masses[1:]))

    def test_full_line(self):
        assert gaussian_pair_mass(0.3, (-40, 40), (-40, 40)) == pytest.approx(
            1, abs=1e-6
        )


class TestGaussianTransfer:
    def test_dirac_rigid_exact(self):
        fam = fm.polynomial_family([[0, 1], [0, 0, 1]])
        s = build_schedule(fam, 3)
        m = ms.sample_sigma(lat.full(2), s, fam, 100, seed=2)  # delta at 0
        rep = verify_gaussian_transfer(m, s, fam, lat.full(2), (-1, 0), 0.01)
        assert rep.passes(3)
        assert all(r.rigid for r in rep.rows)

    def test_mixed_directions(self):
        fam = fm.polynomial_family([[0, 1], [0, 0, 1]])
        G = lat.canonicalize([(2, 0), (0, 1)], 2)  # e2 rigid, e1 mixing
        sigma, sched, red, _ = ms.build_measure_for_group(fam, G, 5, 10**4, 42)
        rep = verify_gaussian_transfer(sigma, sched, fam, G, (-1, 0), 0.05)
        rigid_rows = [r for r in rep.rows if r.level == 5 and r.rigid]
        mixing_rows = [r for r in rep.rows if r.level == 5 and not r.rigid]
        assert rigid_rows and mixing_rows
        assert rep.passes(5)

    def test_full_line_always_passes(self):
        fam = fm.polynomial_family([[0, 1]])
        s = build_schedule(fam, 2)
        m = ms.sample_sigma(lat.canonicalize([(2,)], 1), s, fam, 500, seed=4)
        rep = verify_gaussian_transfer(
            m, s, fam, lat.canonicalize([(2,)], 1), (-40, 40), 1e-6
        )
        assert rep.passes(2)
