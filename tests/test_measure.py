"""Cell weights, sampling, Fourier analysis, and the dichotomy pipeline."""

import cmath
import math
import random
import tracemalloc
from unittest import mock
from decimal import Decimal
from fractions import Fraction as F
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rigidlab import families as fm
from rigidlab import lattice as lat
from rigidlab import measure as ms
from rigidlab import schedule as sc
from rigidlab import skew
from rigidlab.behrend import behrend_set
from rigidlab.circleset import CircleSet
from rigidlab.demos import build_cor65_group
from rigidlab.errors import CapExceeded, DimensionMismatch, PreconditionError, UnsupportedShape
from rigidlab.schedule import build_schedule
from rigidlab.skew import sampled_correlation

from measure_helpers import dirac, total_weight, uniform_atoms

FAM_N = fm.polynomial_family([[0, 1]])
FAM_N_NSQ = fm.polynomial_family([[0, 1], [0, 0, 1]])


def _cell_weights(structure, k):
    """The exact level-k cell weights: each cell's count over the number of
    representatives."""
    reps = len(structure.rep_points)
    return {cell: F(c, reps) for cell, c in ms._support_cells(structure, k)}


def support_cells(G, k):
    """The exact level-k cell weights that sample_sigma draws from."""
    return _cell_weights(ms.group_cell_structure(G), k)


class TestCellWeights:
    def test_full_group_single_cell(self):
        assert support_cells(lat.full(2), 4) == {(0, 0): F(1)}

    def test_2z(self):
        assert support_cells(lat.canonicalize([(2,)], 1), 2) == {(0,): F(1, 2), (1,): F(1, 2)}

    def test_3z_squared(self):
        cells = support_cells(lat.canonicalize([(3, 0), (0, 3)], 2), 3)
        assert set(cells) == {(a, b) for a in (0, 2, 4) for b in (0, 2, 4)}
        assert set(cells.values()) == {F(1, 9)}

    def test_product_shape_free_coordinate(self):
        # the unconstrained second coordinate is left to uniform digits
        structure = ms.group_cell_structure(lat.canonicalize([(2, 0)], 2))
        assert structure.support == (0,) and structure.free == (1,)
        cells = _cell_weights(structure, 2)
        assert cells == {(0,): F(1, 2), (1,): F(1, 2)}
        assert len(cells) * math.factorial(2) ** len(structure.free) == 4

    def test_rep_collision_merges(self):
        # 3Z at level 2: reps 0, 1/3, 2/3 fall into cells 0, 0, 1
        assert support_cells(lat.canonicalize([(3,)], 1), 2) == {(0,): F(2, 3), (1,): F(1, 3)}

    def test_slanted_infinite_index_rejected(self):
        with pytest.raises(UnsupportedShape):
            ms.group_cell_structure(lat.canonicalize([(2, -1)], 2))

    def test_totals_are_one(self):
        for G in (lat.full(1), lat.canonicalize([(5,)], 1), lat.canonicalize([(2, 0), (0, 3)], 2)):
            for k in (1, 2, 3, 4):
                assert sum(support_cells(G, k).values()) == 1


class TestSampling:
    def test_full_group_is_dirac(self):
        s = build_schedule(FAM_N_NSQ, 3)
        m = ms.sample_sigma(lat.full(2), s, FAM_N_NSQ, 50, seed=1)
        assert m.atoms == ((F(0), F(1)),)

    def test_single_sample_single_atom(self):
        s = build_schedule(FAM_N_NSQ, 3)
        m = ms.sample_sigma(lat.canonicalize([(2, 0), (0, 3)], 2), s, FAM_N_NSQ, 1, seed=3)
        assert len(m.atoms) == 1 and m.atoms[0][1] == 1

    def test_first_level_frequencies(self):
        # G = 2Z, one sequence: level-1 has a single cell (1! = 1), so check
        # level 2 cells {0, 1} hit with empirical frequency near 1/2.
        fam = FAM_N
        s = build_schedule(fam, 2)
        m = ms.sample_sigma(lat.canonicalize([(2,)], 1), s, fam, 10**4, seed=9)
        col = 1  # level-2 column
        freq = sum(
            c for row, c in zip(m.codes, m.counts) if m.categories[col][row[col]] == 0
        ) / m.denominator
        assert abs(freq - 0.5) < 3 * 0.5 / math.sqrt(10**4)

    def test_reproducible(self):
        s = build_schedule(FAM_N_NSQ, 3)
        G = lat.canonicalize([(2, 0), (0, 3)], 2)
        a = ms.sample_sigma(G, s, FAM_N_NSQ, 500, seed=11)
        b = ms.sample_sigma(G, s, FAM_N_NSQ, 500, seed=11)
        assert a.atoms == b.atoms

    def test_weights_sum_to_one(self):
        s = build_schedule(FAM_N_NSQ, 3)
        G = lat.canonicalize([(2, 0), (0, 3)], 2)
        m = ms.sample_sigma(G, s, FAM_N_NSQ, 777, seed=5)
        assert total_weight(m) == 1

    @pytest.mark.parametrize("edit", [lambda row: row[:-1], lambda row: row + row[:1]],
                             ids=["alpha_short", "alpha_over"])
    def test_level_needs_one_alpha_per_sequence(self, edit):
        # one alpha too few raised IndexError in check_schedule; one too many
        # passed it, and the sample's later columns read the wrong alphas
        s = build_schedule(FAM_N_NSQ, 2)
        bad = sc.Schedule(2, s.indices, (edit(s.alphas[0]), s.alphas[1]))
        with pytest.raises(PreconditionError):
            sc.check_schedule(bad, FAM_N_NSQ)
        with pytest.raises(PreconditionError):
            ms.sample_sigma(lat.canonicalize([(2, 0), (0, 3)], 2), bad, FAM_N_NSQ, 50, seed=1)


class TestFourier:
    def test_dirac(self):
        assert ms.fourier_coefficient(dirac(0), 12345) == pytest.approx(1)

    def test_two_point(self):
        m = uniform_atoms([0, F(1, 2)])
        assert abs(ms.fourier_coefficient(m, 1)) < 1e-12
        assert ms.fourier_coefficient(m, 2).real == pytest.approx(1)

    def test_three_point(self):
        m = uniform_atoms([0, F(1, 3), F(2, 3)])
        assert ms.fourier_coefficient(m, 3).real == pytest.approx(1)
        assert abs(ms.fourier_coefficient(m, 1)) < 1e-12

    def test_unit_mass_at_zero(self):
        s = build_schedule(FAM_N_NSQ, 3)
        G = lat.canonicalize([(2, 0), (0, 3)], 2)
        m = ms.sample_sigma(G, s, FAM_N_NSQ, 500, seed=5)
        assert ms.fourier_coefficient(m, 0) == pytest.approx(1, abs=1e-12)

    def test_structured_matches_materialized(self):
        # The per-column phase reduction agrees with direct Fraction
        # evaluation on the materialized atom positions.
        s = build_schedule(FAM_N_NSQ, 3)
        G = lat.canonicalize([(2, 0), (0, 3)], 2)
        m = ms.sample_sigma(G, s, FAM_N_NSQ, 300, seed=13)
        for t in (1, 7, 12345, 10**9 + 7):
            a = ms.fourier_coefficient(m, t)
            b = sum(
                float(w) * cmath.exp(2j * math.pi * float((t * x) % 1))
                for x, w in m.atoms
            )
            assert abs(a - b) < 1e-9

    @settings(max_examples=200, deadline=None)
    @given(
        positions=st.lists(
            st.fractions(min_value=-3, max_value=3, max_denominator=10**15),
            min_size=1,
            max_size=12,
        ),
        t=st.integers(-(10**40), 10**40),
    )
    def test_explicit_phases_match_fraction_oracle(self, positions, t):
        # Explicit atoms go through the one-column modular reduction; it must
        # reproduce the correctly rounded float of (t * x) mod 1 bit for bit.
        m = ms.AtomicMeasure([(x, 1) for x in positions])
        want = np.array([float((t * x) % 1) % 1.0 for x, _ in m.atoms])
        assert m.phases(m.residues(t)).tobytes() == want.tobytes()


def _column_phases(m, t):
    """Reference: the column-by-column gather that the prefix-tree evaluation
    replaced, kept as the oracle it must reproduce bitwise."""
    total = np.zeros(len(m.codes))
    for col, a in enumerate(m.alphas):
        p, q = a.numerator, a.denominator
        base = (int(t) % q) * p % q
        cat_phase = np.array([(int(d) * base % q) / q for d in m.categories[col]])
        total += cat_phase[m.codes[:, col]]
    return total % 1.0


SCHEDULE_BY_SIZE = {
    1: build_schedule(FAM_N, 1),  # one column
    2: build_schedule(FAM_N_NSQ, 4),
}


def _sampled_2z_3z(n_samples, seed):
    G = lat.canonicalize([(2, 0), (0, 3)], 2)
    return ms.sample_sigma(G, SCHEDULE_BY_SIZE[2], FAM_N_NSQ, n_samples, seed)


@st.composite
def _sampled_measures(draw):
    """Sampled measures of random finite-index groups, products with free
    coordinates, the trivial group, or a one-column schedule."""
    if draw(st.booleans()):
        fam, G = FAM_N, lat.canonicalize([(draw(st.integers(1, 6)),)], 1)
    else:
        fam = FAM_N_NSQ
        a, b, c = draw(st.integers(1, 4)), draw(st.integers(0, 3)), draw(st.integers(1, 4))
        G = draw(st.sampled_from([
            lat.canonicalize([(a, b), (0, c)], 2),
            lat.canonicalize([(a, 0)], 2),  # second coordinate free
            lat.canonicalize([(0, c)], 2),  # first coordinate free
            lat.trivial(2),  # every coordinate free
        ]))
    n_samples = draw(st.sampled_from([1, 2, 50, 2000]))
    m = ms.sample_sigma(G, SCHEDULE_BY_SIZE[fam.size], fam, n_samples, draw(st.integers(0, 2**32)))
    factor = draw(st.sampled_from([1, 1, 2, 3, 6]))
    return ms.pushforward_scale(m, factor) if factor > 1 else m


class TestPrefixTreePhases:
    """AtomicMeasure.phases over the prefix tree against the column gather."""

    @settings(max_examples=150, deadline=None)
    @given(m=_sampled_measures(), t=st.integers(-(10**60), 10**60))
    def test_sampled_matches_column_gather(self, m, t):
        assert m.phases(m.residues(t)).tobytes() == _column_phases(m, t).tobytes()

    @settings(max_examples=150, deadline=None)
    @given(
        positions=st.lists(
            st.fractions(min_value=-3, max_value=3, max_denominator=10**15),
            min_size=1,
            max_size=12,
        ),
        factor=st.integers(1, 7),
        t=st.integers(-(10**60), 10**60),
    )
    def test_explicit_and_pushforward_match_column_gather(self, positions, factor, t):
        m = ms.AtomicMeasure([(x, 1) for x in positions])
        for image in (m, ms.pushforward_scale(m, factor)):
            assert image.phases(image.residues(t)).tobytes() == _column_phases(image, t).tobytes()

    def test_one_word(self):
        m = _sampled_2z_3z(1, 3)
        assert m.codes.shape[0] == 1
        for t in (0, 1, -5, 10**60):
            assert m.phases(m.residues(t)).tobytes() == _column_phases(m, t).tobytes()

    def test_pushforward_shares_the_words(self):
        m = _sampled_2z_3z(500, 4)
        image = ms.pushforward_scale(m, 6)
        assert image.codes is m.codes and image._runs is m._runs
        assert image._kernel_digits is m._kernel_digits
        assert image.alphas == tuple(6 * a % 1 for a in m.alphas) != m.alphas

    def _rebuilt(self, m, codes):
        return ms.AtomicMeasure(
            alphas=m.alphas, categories=m.categories, codes=codes,
            counts=m.counts, denominator=m.denominator,
        )

    def test_shuffled_rows_refused(self):
        m = _sampled_2z_3z(500, 4)
        assert len(m.codes) > 2
        self._rebuilt(m, m.codes.copy())  # the sorted rows are accepted
        shuffled = m.codes[np.random.default_rng(0).permutation(len(m.codes))]
        with pytest.raises(PreconditionError):
            self._rebuilt(m, shuffled)
        with pytest.raises(PreconditionError):
            self._rebuilt(m, m.codes[::-1])

    def test_duplicate_rows_refused(self):
        m = _sampled_2z_3z(500, 4)
        doubled = np.repeat(m.codes, 2, axis=0)
        with pytest.raises(PreconditionError):
            self._rebuilt(m, doubled)
        # two empty words are equal rows too; there is no column to compare
        with pytest.raises(PreconditionError):
            ms.AtomicMeasure(
                alphas=(), categories=[], codes=np.empty((2, 0), dtype=np.uint32),
                counts=[1, 1], denominator=2,
            )


def _exact_quotients(q, digits, r):
    """Reference: the per-digit expression the certified kernel replaces."""
    return np.array([(d * r % q) / q for d in digits])


def _kernel_quotients(digits, x1, q):
    """The column kernel's quotients of one column of sorted digits."""
    return ms._column_quotients([(np.array(digits, dtype=np.int64), max(digits), x1, q)])[0]


def _one_column(q, digits):
    """A measure of one column, alpha = 1/q, with the given sorted digits;
    its phases at residue r are that column's digit phases, bit for bit."""
    n = len(digits)
    return ms.AtomicMeasure(
        alphas=(F(1, q),), categories=[list(digits)],
        codes=np.arange(n, dtype=np.uint32).reshape(-1, 1), counts=[1] * n, denominator=n,
    )


def _assert_column_exact(q, digits, r):
    """The column's digit phases, and the kernel itself wherever it applies,
    are the exact quotients bit for bit, and the measure's phases are those
    mod 1; returns whether the kernel applied."""
    exact = _exact_quotients(q, digits, r)
    want = exact.tobytes()
    m = _one_column(q, digits)
    assert m._category_phases([r])[0].tobytes() == want
    assert m.phases([r]).tobytes() == (exact % 1.0).tobytes()
    x1 = r % q
    applies = 0 < x1 and max(digits) < ms._LIMB_FACTOR_LIMIT
    if applies:
        assert _kernel_quotients(digits, x1, q).tobytes() == want
    return applies


@st.composite
def _kernel_columns(draw):
    """(q, sorted digits, r): q up to 2 000 bits; digits in [0, 2^31) with
    0 and often values next to 2^31, on both sides of the size floor; r
    reduced, unreduced or 0 mod q, as often small enough that no digit
    wraps as not: then x1 = r mod q near q, some d * x1 next to a multiple
    of q on either side, or anything."""
    q = draw(st.integers(2, 2**2000))
    n = draw(st.sampled_from([1, 3, ms._KERNEL_FLOOR - 1, ms._KERNEL_FLOOR, 200]))
    digit = st.one_of(
        st.integers(0, ms._LIMB_FACTOR_LIMIT - 1),
        st.integers(ms._LIMB_FACTOR_LIMIT - 100, ms._LIMB_FACTOR_LIMIT - 1),
    )
    digits = sorted({0, *draw(st.lists(digit, min_size=n - 1, max_size=n - 1))})
    top = (q - 1) // max(digits) if max(digits) else q - 1
    if top >= 1 and draw(st.booleans()):
        x1 = draw(st.one_of(st.integers(1, top), st.integers(max(1, top - 1000), top)))
    else:
        d = max(1, draw(st.sampled_from(digits)))
        j = draw(st.integers(1, d))  # d * x1 next to j * q
        x1 = draw(st.one_of(
            st.integers(max(1, q - 1000), q - 1),
            st.integers(-1000, 1000).map(lambda e: (j * q + e) // d % q),
            st.integers(0, q - 1),
        ))
    r = x1 + q * draw(st.sampled_from([0, 0, 1, 7, 2**70]))
    return q, digits, r


class TestCertifiedQuotients:
    """phases' fixed-point column kernel against (d * r % q) / q, compared
    with tobytes: no tolerance anywhere."""

    @settings(max_examples=300, deadline=None)
    @given(column=_kernel_columns())
    def test_matches_exact_quotients(self, column):
        _assert_column_exact(*column)

    def test_exact_and_near_ties(self):
        # q a power of two: for d a power of two, d * x1 / q is a binary
        # midpoint (x1 = 2^53 + 1 needs 54 bits), or just off one
        digits = sorted({*range(100), *(2**j for j in range(26))})
        for q, x1 in (
            (2**80, 2**53 + 1),
            (2**200, (2**53 + 1) * 2**100 + 1),
            (2**200, (2**53 + 1) * 2**100 - 1),
            (2**200 + 1, (2**53 + 1) * 2**100),
        ):
            assert _assert_column_exact(q, digits, x1)

    def test_seeded_near_ties(self):
        # d * x1 / q within 2^-100 of a midpoint of the 53-bit grid, on
        # either side, half of them the midpoint just below a power of two;
        # without its error budget, or with the larger of R's two gaps, the
        # kernel rounds some of these the wrong way
        rng = random.Random(3)
        for _ in range(3000):
            d = rng.choice([3, 12345, rng.randrange(3, ms._LIMB_FACTOR_LIMIT)])
            q = 2**400 + rng.choice([0, 1, rng.randrange(1, 2**100)])
            j = rng.choice([2**53 - 1, rng.randrange(2**52, 2**53)])
            midpoint = (2 * j + 1) << rng.randrange(317, 347)
            offset = rng.choice([-1, 1]) * rng.randrange(1, 2**20) << rng.randrange(200)
            x1 = (midpoint + offset) // d
            if 0 < x1 and d * x1 < q:
                assert _kernel_quotients([0, d], x1, q).tobytes() == (
                    _exact_quotients(q, [0, d], x1).tobytes())

    def test_subnormal_results(self):
        # below 2^-1022 the kernel's scaled rounding would round twice, so
        # those digits come from the integers; the q + 1 columns cross the
        # smallest normal double near d = 2^18
        digits = sorted({*range(100), *range(2**18 - 100, 2**18 + 100), ms._LIMB_FACTOR_LIMIT - 1})
        for q, x1 in ((2**1100 + 12345, 1), (2**1100 + 12345, 2**70 + 5),
                      (2**1040, 1), (2**1040 + 1, 1), (3**700, 2**30 + 1)):
            assert _assert_column_exact(q, digits, x1)
            exact = _exact_quotients(q, digits, x1)
            assert (exact[np.array(digits) > 0] < ms._TINY).any()
        # x1 / q = (k + 1/2 - 2^-60) 2^-1074 for odd k: its 53-bit rounding
        # is the midpoint of two subnormals, so rounding that again to the
        # subnormal grid would round up
        k = 2**20 + 1
        x1 = (2 * k + 1) * 2**59 - 1
        assert _kernel_quotients([1], x1, 2**1134)[0] == x1 / 2**1134

    def test_wrapping_zero_and_large_digit_columns(self):
        digits = list(range(200))
        q = 10**30 + 57
        assert _assert_column_exact(q, digits, q // 3)  # wraps
        assert not _assert_column_exact(q, digits, 5 * q)  # 0 mod q
        large = [0, 5, ms._LIMB_FACTOR_LIMIT, 2**40, *range(2**41, 2**41 + 100)]
        assert _one_column(q, large)._kernel_digits[0] is None
        assert not _assert_column_exact(q, large, 3)
        # d * x1 a little below j * q (phases that round to 1.0 or just under
        # it), on it, or a little above it (tiny phases, refused below about
        # 2^-60), for three digits d of one column and j in 1..d - 1
        rng = random.Random(6)
        digits = sorted({*digits, *(rng.randrange(ms._LIMB_FACTOR_LIMIT) for _ in range(50))})
        phases = []
        for q in (2**200, 2**200 + 1, Q_ODD):
            for d in (3, 199, digits[-1]):
                j = rng.randrange(1, d)
                for e in (-(q >> 40), -(q >> 70), -d, 0, q >> 70, q >> 40):
                    x1 = -(-(j * q + e) // d)  # the least x1 with d * x1 >= j q + e
                    assert _assert_column_exact(q, digits, x1)
                    phases.extend(_exact_quotients(q, digits, x1))
        assert 1.0 in phases and 0 < min(p for p in phases if p) < 2.0**-60


@pytest.fixture(scope="module")
def long_free_columns():
    """The trivial group on (n, n^2) at depth 6: every coordinate is free,
    so the last levels' columns hold up to 120 and 720 digits, past the
    kernel's size floor."""
    s = build_schedule(FAM_N_NSQ, 6)
    m = ms.sample_sigma(lat.trivial(2), s, FAM_N_NSQ, 3000, seed=5)
    assert max(len(digits) for digits in m.categories) > 5 * ms._KERNEL_FLOOR
    return m, [v for k in range(1, 7) for v in fm.evaluate(FAM_N_NSQ, s.indices[k - 1])]


class TestLongFreeColumns:
    """phases on long free columns against the column-gather oracle."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_column_gather(self, long_free_columns, data):
        m, values = long_free_columns
        coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=len(values), max_size=len(values)))
        # near-rigid shifts sum_k a_k phi_j(n_k) leave the deep free columns
        # unwrapped; an arbitrary t wraps them
        t = data.draw(st.one_of(
            st.just(sum(a * v for a, v in zip(coeffs, values))),
            st.integers(-(10**60), 10**60),
        ))
        for image in (m, ms.pushforward_scale(m, data.draw(st.sampled_from([2, 6, 35])))):
            assert image.phases(image.residues(t)).tobytes() == _column_phases(image, t).tobytes()

    def test_kernel_runs_on_schedule_values(self, long_free_columns, monkeypatch):
        m, values = long_free_columns
        calls = []
        kernel = ms._column_quotients
        # one entry per column the kernel takes
        monkeypatch.setattr(ms, "_column_quotients", lambda cols: calls.extend(cols) or kernel(cols))
        for image in (m, ms.pushforward_scale(m, 6)):
            for t in values:
                assert image.phases(image.residues(t)).tobytes() == _column_phases(image, t).tobytes()
        assert len(calls) >= 2 * len(values)


    def test_kernel_takes_every_qualifying_column(self, long_free_columns, monkeypatch):
        # at the schedule values, one kernel call per phases call takes every
        # column it may (none at t = 0), and fewer than 1% of their digits
        # fall back to the integers
        m, values = long_free_columns
        taken, digits, fallback = [], [0], [0]
        kernel, stage = ms._column_quotients, ms._round_fixed_point

        def spy_kernel(cols):
            taken.append(cols)
            out = kernel(cols)
            # a phase below the smallest normal double comes from the integers
            fallback[0] += sum(int(((p > 0) & (p < ms._TINY)).sum()) for p in out)
            return out

        def spy_stage(*args):
            R, refused = stage(*args)
            digits[0] += len(R)
            fallback[0] += int(refused.sum())
            return R, refused

        monkeypatch.setattr(ms, "_column_quotients", spy_kernel)
        monkeypatch.setattr(ms, "_round_fixed_point", spy_stage)
        for image in (m, ms.pushforward_scale(m, 6)):
            for t in [*values, 0]:
                before = len(taken)
                residues = image.residues(t)
                image.phases(residues)
                want = [
                    (len(column), r % a.denominator, a.denominator)
                    for a, column, r in zip(image.alphas, image.categories, residues)
                    if len(column) >= ms._KERNEL_FLOOR and max(column) < ms._LIMB_FACTOR_LIMIT
                    and 0 < r % a.denominator
                ]
                assert len(taken) - before == (1 if want else 0)
                assert [(len(d), x1, q) for cols in taken[before:] for d, _, x1, q in cols] == want
        assert digits[0] > 0 and fallback[0] < 0.01 * digits[0]


def _unique_rows(matrix):
    """Reference: the np.unique row dedup that the packed word keys replaced."""
    return np.unique(matrix, axis=0, return_counts=True)


def _drawn_matrix(G, s, fam, n_samples, seed):
    """Reference: the samples x columns matrix of digits that sample_sigma
    drew before it packed words into keys, with the same RNG calls."""
    structure = ms.group_cell_structure(G)
    rng = np.random.default_rng(seed)
    columns = []
    for k in range(1, s.depth + 1):
        kf = math.factorial(k)
        cells = ms._support_cells(structure, k)
        reps = len(structure.rep_points)
        probs = np.array([c / reps for _, c in cells])
        probs /= probs.sum()
        picks = rng.choice(len(cells), size=n_samples, p=probs)
        per_coord = [None] * fam.size
        for pos, j in enumerate(structure.support):
            values = np.array([int(cell[pos]) for cell, _ in cells], dtype=np.int64)
            per_coord[j] = values[picks]
        for j in structure.free:
            per_coord[j] = rng.integers(0, kf, size=n_samples, dtype=np.int64)
        columns.extend(per_coord)
    return np.column_stack(columns)


def _oracle_sigma(G, s, fam, n_samples, seed):
    """Reference: the column-stack + np.unique(axis=0) sampler's categories,
    codes, counts and float weights."""
    rows, counts = _unique_rows(_drawn_matrix(G, s, fam, n_samples, seed))
    categories = []
    codes = np.empty(rows.shape, dtype=np.uint32)
    for col in range(rows.shape[1]):
        values, inv = np.unique(rows[:, col], return_inverse=True)
        categories.append([int(v) for v in values])
        codes[:, col] = inv
    weights = np.array([float(F(int(c), n_samples)) for c in counts])
    return categories, codes, [int(c) for c in counts], weights


def _word_rows(m):
    """The digit rows of a measure's words."""
    return np.array([[m.categories[col][code] for col, code in enumerate(row)] for row in m.codes])


def _rows_and_keys(matrix, radix):
    """A non-negative matrix below radix through _distinct_rows, one column
    view at a time: its distinct rows, their counts and the number of keys
    passed to np.lexsort.  The rows in _distinct_rows' order must be each
    distinct row count times."""
    with mock.patch.object(np, "lexsort", wraps=np.lexsort) as lexsort:
        rows, counts, order = ms._distinct_rows(((c, radix) for c in matrix.T), len(matrix))
    assert np.array_equal(matrix[order], np.repeat(rows, counts, axis=0))
    return rows, counts, len(lexsort.call_args.args[0])


def _assert_same_rows(matrix, radix):
    got_rows, got_counts, _ = _rows_and_keys(matrix, radix)
    want_rows, want_counts = _unique_rows(matrix)
    assert np.array_equal(got_rows, want_rows)
    assert np.array_equal(got_counts, want_counts)


# sample_sigma inputs: cor66's group (first coordinate Z, second free with k!
# uniform digits), the full group, a finite-index group, the trivial group
# at depth 7 (radix product (1! 2! ... 7!)^2 ~ 2^73.7: two keys), and a
# slanted three-coordinate group with a free third coordinate
FAM_CUBE = fm.polynomial_family([[0, 1], [0, 0, 1], [0, 0, 0, 1]])
SAMPLER_CASES = [
    (lat.canonicalize([lat.standard_basis(2, 1)], 2), SCHEDULE_BY_SIZE[2], FAM_N_NSQ),
    (lat.full(2), SCHEDULE_BY_SIZE[2], FAM_N_NSQ),
    (lat.canonicalize([(2, 0), (0, 3)], 2), SCHEDULE_BY_SIZE[2], FAM_N_NSQ),
    (lat.trivial(2), build_schedule(FAM_N_NSQ, 7), FAM_N_NSQ),
    (lat.canonicalize([(1, 2, 0), (0, 3, 0)], 3), build_schedule(FAM_CUBE, 4), FAM_CUBE),
]


class TestDistinctRows:
    """_distinct_rows and sample_sigma against np.unique(..., axis=0)."""

    @settings(max_examples=150, deadline=None)
    @given(
        rows=st.integers(1, 400),
        cols=st.integers(1, 6),
        high=st.sampled_from([1, 2, 3, 24, 720, 2**62]),
        seed=st.integers(0, 2**32),
    )
    def test_matches_unique(self, rows, cols, high, seed):
        rng = np.random.default_rng(seed)
        _assert_same_rows(rng.integers(0, high, size=(rows, cols), dtype=np.uint64), high)

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.integers(1, 400),
        radices=st.lists(st.sampled_from([1, 2, 7, 720, 2**31, 2**32]), min_size=1, max_size=6),
        seed=st.integers(0, 2**32),
    )
    def test_strided_uint32_columns(self, rows, radices, seed):
        # restriction passes the uint32 columns of a C-order code matrix as
        # they are; the keys take them without a copy to uint64
        rng = np.random.default_rng(seed)
        matrix = np.column_stack([rng.integers(0, r, size=rows, dtype=np.uint32) for r in radices])
        got, counts, order = ms._distinct_rows(zip(matrix.T, radices), rows)
        want, want_counts = _unique_rows(matrix)
        assert got.dtype == np.uint32 and np.array_equal(got, want)
        assert np.array_equal(counts, want_counts)
        assert np.array_equal(matrix[order], np.repeat(got, counts, axis=0))

    def test_one_row_and_all_equal_rows(self):
        _assert_same_rows(np.array([[3, 0, 5]], dtype=np.uint64), 6)
        _assert_same_rows(np.full((50, 4), 7, dtype=np.uint64), 8)
        rows, counts, _ = _rows_and_keys(np.full((50, 4), 7, dtype=np.uint64), 8)
        assert rows.tolist() == [[7] * 4] and counts.tolist() == [50]

    def test_keys_split_before_two_to_the_64(self):
        # radix products up to 2^64 share a key; one more radix-2 column
        # starts a second key, and the largest words still round-trip
        for cols, keys in ((64, 1), (65, 2)):
            matrix = np.array([[0] * cols, [1] * cols, [1] + [0] * (cols - 1)], dtype=np.uint64)
            rows, counts, n_keys = _rows_and_keys(matrix, 2)
            assert n_keys == keys
            assert np.array_equal(rows, np.unique(matrix, axis=0)) and counts.tolist() == [1, 1, 1]
        matrix = np.array([[2**62 - 1, 3], [2**62 - 1, 0], [0, 3]], dtype=np.uint64)
        rows, _, n_keys = _rows_and_keys(matrix, 2**62)
        assert n_keys == 2 and np.array_equal(rows, np.unique(matrix, axis=0))

    @settings(max_examples=300, deadline=None)
    @given(n=st.one_of(st.integers(1, ms.SAMPLE_CAP), st.integers(1, 10**400)), data=st.data())
    def test_float_weights_are_the_fractions_floats(self, n, data):
        # the explicit-atom denominators are lcms of any size
        counts = data.draw(st.lists(st.integers(1, n), min_size=1, max_size=20))
        m = ms.AtomicMeasure(
            alphas=(F(1),), categories=[list(range(len(counts)))],
            codes=np.arange(len(counts), dtype=np.uint32).reshape(-1, 1),
            counts=counts, denominator=n,
        )
        want = np.array([float(F(c, n)) for c in counts])
        assert m.weights_np.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n_samples", [1, 2, 3000])
    def test_sampler_matrices(self, n_samples):
        # the words and counts are the distinct rows of the drawn matrix;
        # the weights are the exact counts over N
        for G, sched, fam in SAMPLER_CASES:
            m = ms.sample_sigma(G, sched, fam, n_samples, seed=5)
            want_rows, want_counts = _unique_rows(_drawn_matrix(G, sched, fam, n_samples, 5))
            assert np.array_equal(_word_rows(m), want_rows)
            assert m.denominator == n_samples
            assert m.counts == [int(c) for c in want_counts]
            floats = np.array([float(F(c, n_samples)) for c in m.counts])
            assert m.weights_np.tobytes() == floats.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        case=st.sampled_from(range(len(SAMPLER_CASES))),
        n_samples=st.sampled_from([1, 2, 3000]),
        seed=st.integers(0, 2**32),
    )
    def test_matches_column_stack_sampler(self, case, n_samples, seed):
        G, sched, fam = SAMPLER_CASES[case]
        m = ms.sample_sigma(G, sched, fam, n_samples, seed)
        categories, codes, counts, weights = _oracle_sigma(G, sched, fam, n_samples, seed)
        assert m.categories == categories
        assert m.codes.dtype == np.uint32 and m.codes.tobytes() == codes.tobytes()
        assert m.codes.shape == codes.shape
        assert m.counts == counts
        assert m.weights_np.tobytes() == weights.tobytes()

    def test_trivial_depth_7_takes_two_keys(self, monkeypatch):
        seen = []
        lexsort = np.lexsort
        monkeypatch.setattr(np, "lexsort", lambda keys: seen.append(len(keys)) or lexsort(keys))
        for G, sched, fam in SAMPLER_CASES:
            ms.sample_sigma(G, sched, fam, 3000, seed=1)
        assert seen == [1, 1, 1, 2, 1]

    def test_sampling_peak_memory(self):
        # cor65's group on (n, n^2) at depth 11 with 10^5 samples, the
        # criterion-8 scan's measure: the samples x 22 int64 matrix, its
        # column list and sorted copy peaked at ~60 MB under tracemalloc
        G, _ = build_cor65_group(FAM_N_NSQ.polys)
        sched = build_schedule(FAM_N_NSQ, 11)
        tracemalloc.start()
        try:
            m = ms.sample_sigma(G, sched, FAM_N_NSQ, 10**5, seed=42)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert m.codes.shape == (48240, 22)
        assert peak < 25 * 10**6

    def test_free_level_cap_fires_before_any_key(self, monkeypatch):
        monkeypatch.setattr(sc, "MAX_DEPTH", 21)
        sched = build_schedule(FAM_N, 21)  # 21! > 2^62
        drawn = []
        distinct_rows = ms._distinct_rows
        monkeypatch.setattr(ms, "_distinct_rows", lambda columns, n: distinct_rows(
            (drawn.append(radix) or (code, radix) for code, radix in columns), n))
        with pytest.raises(CapExceeded, match="k! below 2\\^62"):
            ms.sample_sigma(lat.trivial(1), sched, FAM_N, ms.SAMPLE_CAP, seed=1)
        assert drawn == []
        # support digits have no such cap: 21!/2 lies past int64, its code
        # is its rank 1
        m = ms.sample_sigma(lat.canonicalize([(2,)], 1), sched, FAM_N, 50, seed=1)
        assert m.categories[-1] == [0, math.factorial(21) // 2]
        assert len(drawn) == 21

    def test_free_digits_past_uint32(self):
        # 13! > 2^32: the free column's drawn digits need uint64 codes until
        # they are compacted to the present ones
        sched = build_schedule(FAM_N, 13)
        m = ms.sample_sigma(lat.trivial(1), sched, FAM_N, 50, seed=3)
        categories, codes, counts, _ = _oracle_sigma(lat.trivial(1), sched, FAM_N, 50, 3)
        assert max(m.categories[-1]) >= 2**32
        assert m.categories == categories and m.counts == counts
        assert m.codes.dtype == np.uint32 and m.codes.tobytes() == codes.tobytes()


def _fraction_merge(atoms):
    """Reference: the Fraction-keyed merge of explicit atoms that the integer
    keys replaced, and the one-column structure it led to."""
    merged = {}
    for x, w in atoms:
        key = F(x) % 1
        merged[key] = merged.get(key, F(0)) + F(w)
    atoms = tuple(sorted(merged.items()))
    L = math.lcm(*(x.denominator for x, _ in atoms))
    return atoms, (F(1, L),), [[x.numerator * (L // x.denominator) for x, _ in atoms]]


def _fraction_atoms(m):
    """Reference: the word-by-word Fraction loop that materialized positions
    before integer numerators over one common denominator did."""
    merged = {}
    for row, c in zip(m.codes, m.counts):
        x = F(0)
        for col, code in enumerate(row):
            d = m.categories[col][code]
            if d:
                x += d * m.alphas[col]
        x %= 1
        merged[x] = merged.get(x, F(0)) + F(c, m.denominator)
    return tuple(sorted(merged.items()))


def _assert_explicit(m, atoms):
    want_atoms, want_alphas, want_categories = _fraction_merge(atoms)
    assert m.atoms == want_atoms
    assert m.alphas == want_alphas and m.categories == want_categories
    assert m.denominator == math.lcm(*(F(w).denominator for _, w in atoms))
    assert tuple(F(c, m.denominator) for c in m.counts) == tuple(w for _, w in want_atoms)
    assert m.weights_np.tobytes() == np.array([float(w) for _, w in want_atoms]).tobytes()


_POSITIONS = st.fractions(min_value=-5, max_value=5, max_denominator=10**40)
_WEIGHTS = st.fractions(min_value=F(1, 10**6), max_value=5, max_denominator=10**6)


@st.composite
def _explicit_atoms(draw):
    """Unsorted atoms with duplicates, also after integer shifts, x >= 1 and
    negative x."""
    base = draw(st.lists(_POSITIONS, min_size=1, max_size=10))
    repeats = draw(st.lists(
        st.tuples(st.sampled_from(base), st.integers(-3, 3)), max_size=6
    ))
    positions = base + [x + k for x, k in repeats]
    weights = draw(st.lists(_WEIGHTS, min_size=len(positions), max_size=len(positions)))
    return list(zip(draw(st.permutations(positions)), weights))


@st.composite
def _json_text(draw, value):
    """value as a bundle string: canonical "p/q" or integer, unreduced,
    padded with whitespace, or as a decimal where it has one."""
    forms = [str(value), f"{value.numerator * 6}/{value.denominator * 6}", f" {value} "]
    if value.denominator == 1:
        forms.append(f"{value.numerator}/1")
    if 10**12 % value.denominator == 0:
        forms.append(str(Decimal(value.numerator) / value.denominator))  # exact here
    text = draw(st.sampled_from(forms))
    assert F(text) == value
    return text


class TestExplicitAtoms:
    """The integer-keyed explicit constructor, from_json and atoms against
    the Fraction paths they replaced."""

    @settings(max_examples=150, deadline=None)
    @given(atoms=_explicit_atoms())
    def test_constructor_matches_fraction_merge(self, atoms):
        _assert_explicit(ms.AtomicMeasure(atoms), atoms)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), atoms=_explicit_atoms())
    def test_from_json_matches_fraction_merge(self, data, atoms):
        pairs = [[data.draw(_json_text(x)), data.draw(_json_text(w))] for x, w in atoms]
        _assert_explicit(ms.AtomicMeasure.from_json({"atoms": pairs}), atoms)

    def test_from_json_text_forms(self):
        pairs = [["3", "1/8"], ["-7/4", "2/16"], ["0.25", "0.125"], [" 1/2 ", "1/8"],
                 ["1_000/3", "1/8"], ["-0.5", "2/8"], ["1e-1", "1/8"]]
        atoms = [(F(x), F(w)) for x, w in pairs]
        m = ms.AtomicMeasure.from_json({"atoms": pairs})
        _assert_explicit(m, atoms)
        assert total_weight(m) == 1
        assert ms.AtomicMeasure.from_json(m.to_json()) == m

    @pytest.mark.parametrize("text", ["1/0", "1/-2", "a/2", "1//2", ""])
    def test_from_json_refuses_what_fraction_refuses(self, text):
        with pytest.raises((ValueError, ZeroDivisionError)) as want:
            F(text)
        with pytest.raises(want.type):
            ms.AtomicMeasure.from_json({"atoms": [[text, "1"]]})

    @settings(max_examples=500, deadline=None)
    @given(st.one_of(
        st.text(alphabet="0123456789-+/_. e", max_size=12),
        st.text(alphabet="0123456789-/\u0661\u0662\u00b2\uff13", max_size=6),
        st.tuples(st.integers(-(10**50), 10**50), st.integers(0, 10**50)).map(
            lambda p: f"{p[0]}/{p[1]}"),
    ))
    @example("-")
    @example("1/")
    @example("/2")
    @example("--1")
    @example("+3")
    @example("1/+2")
    @example("-0/7")
    @example("0/0")
    @example("\u0661\u0662/3")  # non-ASCII digits Fraction accepts
    @example("12/\u0663")
    @example("\u00b2")  # a digit to isdigit, not to Fraction
    def test_rational_reads_what_fraction_reads(self, text):
        try:
            want = F(text)
        except (ValueError, ZeroDivisionError) as error:
            with pytest.raises(type(error)):
                ms._rational(text)
        else:
            assert ms._rational(text) == (want.numerator, want.denominator)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(-(10**40), 10**40), st.integers(1, 10**40))
    def test_ratio_text_is_fraction_str(self, p, q):
        assert ms._ratio_text(p, q) == str(F(p, q))

    @settings(max_examples=60, deadline=None)
    @given(m=st.one_of(_sampled_measures(), _explicit_atoms().map(ms.AtomicMeasure)))
    def test_to_json_is_fraction_text(self, m):
        assert m.to_json() == {"atoms": [[str(x), str(w)] for x, w in m.atoms]}

    @settings(max_examples=100, deadline=None)
    @given(m=_sampled_measures(), factor=st.sampled_from([1, 1000, 10**9 + 7]))
    def test_sampled_atoms_match_fraction_loop(self, m, factor):
        # large factors carry the word sums of the column numerators past L
        image = ms.pushforward_scale(m, factor) if factor > 1 else m
        assert image.atoms == _fraction_atoms(image)

    @settings(max_examples=100, deadline=None)
    @given(atoms=_explicit_atoms(), factor=st.integers(1, 7))
    def test_explicit_pushforward_atoms_match_fraction_loop(self, atoms, factor):
        image = ms.pushforward_scale(ms.AtomicMeasure(atoms), factor)
        assert image.atoms == _fraction_atoms(image)


def _bits(coefficients):
    return np.array(list(coefficients), dtype=complex).tobytes()


def _fourier_per_vector(m, values, vectors):
    """Reference: one fourier_coefficient per vector, as verify_dichotomy
    evaluated each level before the shared residue basis."""
    return [ms.fourier_coefficient(m, sum(a * v for a, v in zip(vec, values))) for vec in vectors]


@st.composite
def _level(draw):
    """A level's values phi_j(n_k), huge, zero or negative, and the vectors
    of one coefficient bound in 0..COEFF_CAP."""
    bound = draw(st.integers(0, ms.COEFF_CAP))
    size = draw(st.integers(1, 3 if bound <= 2 else 2))
    values = draw(st.lists(
        st.one_of(st.integers(-(10**60), 10**60), st.sampled_from([0, 1, -1])),
        min_size=size, max_size=size,
    ))
    return values, list(product(range(-bound, bound + 1), repeat=size))


class TestCombinationCoefficients:
    """verify_dichotomy's residue-basis coefficients against one
    fourier_coefficient per vector, bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(m=_sampled_measures(), level=_level())
    def test_sampled_and_pushforward(self, m, level):
        values, vectors = level
        got = ms._combination_coefficients(m, values, vectors)
        assert _bits(got) == _bits(_fourier_per_vector(m, values, vectors))

    @settings(max_examples=80, deadline=None)
    @given(atoms=_explicit_atoms(), factor=st.sampled_from([1, 2, 6]), level=_level())
    def test_explicit_large_denominators(self, atoms, factor, level):
        values, vectors = level
        m = ms.pushforward_scale(ms.AtomicMeasure(atoms), factor)
        got = ms._combination_coefficients(m, values, vectors)
        assert _bits(got) == _bits(_fourier_per_vector(m, values, vectors))

    @pytest.mark.parametrize("seed", [1, 2])
    def test_dichotomy_rows_match_fourier_loop(self, seed):
        G = lat.canonicalize([(2, 0), (0, 3)], 2)
        sigma, sched, _, _ = ms.build_measure_for_group(FAM_N_NSQ, G, 4, 3000, seed)
        for m in (sigma, ms.AtomicMeasure.from_json(sigma.to_json())):
            rep = ms.verify_dichotomy(m, sched, FAM_N_NSQ, G, 2, 0.2)
            want = []
            for k in range(1, sched.depth + 1):
                values = fm.evaluate(FAM_N_NSQ, sched.indices[k - 1])
                vectors = list(product(range(-2, 3), repeat=2))
                want += _fourier_per_vector(m, values, vectors)
            assert _bits(r.coefficient for r in rep.rows) == _bits(want)


def _object_phases(a, basis, qs):
    """Reference: (sum_j a_j R_j mod q) / q per digit from Python ints, the
    expression the fixed-point kernel replaces."""
    return np.array([
        sum(c * r for c, r in zip(a, column)) % q / q
        for column, q in zip(basis.T.tolist(), qs.tolist())
    ])


def _object_coefficients(m, values, vectors):
    """Reference: the dichotomy coefficients as the residue basis gave them
    before the fixed-point kernel, one object combination and reduction per
    column, digit and vector."""
    denominators = [a.denominator for a in m.alphas]
    residues = [m.residues(v) for v in values]
    basis = [
        np.array([[int(d) * r[col] % q for d in digits] for r in residues], dtype=object)
        for col, (q, digits) in enumerate(zip(denominators, m.categories))
    ]
    for a in vectors:
        a = np.array(a, dtype=object)
        yield ms._transform(m, ms._mod1(m._tree_sum([
            (a @ rows % q / q).astype(float) for q, rows in zip(denominators, basis)
        ])))


@pytest.fixture
def refused(monkeypatch):
    """The (q, R_0, ..., R_{l-1}) digits the kernel hands to the exact path."""
    seen = []
    exact = ms._exact_phases

    def spy(a, basis, qs):
        seen.extend((q, *column) for q, column in zip(qs.tolist(), basis.T.tolist()))
        return exact(a, basis, qs)

    monkeypatch.setattr(ms, "_exact_phases", spy)
    return seen


def _kernel_phases(a, basis, qs):
    """The fixed-point kernel's phases of vector a, asserted bitwise equal to
    the object expression; basis is (l, digits) and qs one q per digit."""
    basis = np.array(basis, dtype=object).reshape(len(a), -1)
    qs = np.array(qs, dtype=object)
    limbs = ms._fixed_point_limbs(basis, qs)
    got = ms._combination_phases(a, basis, qs, limbs, basis == 0)
    assert got.tobytes() == _object_phases(a, basis, qs).tobytes()
    return got


Q_ODD = 3**300  # 476 bits: no phase R / Q_ODD is dyadic


class TestCombinationPhases:
    """The fixed-point kernel against the object expression, bit for bit,
    through every branch of its rounding test."""

    def test_limbs_are_the_floor(self):
        rng = random.Random(1)
        qs = [2, 7, 2**32 - 5, 2**128 + 1, Q_ODD]
        basis = [[rng.randrange(q) for q in qs] for _ in range(2)]
        limbs = ms._fixed_point_limbs(np.array(basis, dtype=object), np.array(qs, dtype=object))
        for j, row in enumerate(basis):
            for i, (r, q) in enumerate(zip(row, qs)):
                assert sum(int(limbs[j, k, i]) << (32 * k) for k in range(4)) == (r << 128) // q

    def test_exact_zeros(self, refused):
        x = 12345 * Q_ODD // 99991
        # R_j = 0 for every nonzero a_j: exactly 0.0 without the integers
        assert _kernel_phases((2, 0), [[0], [x]], [Q_ODD]).tolist() == [0.0]
        assert _kernel_phases((0, 0), [[x], [x]], [Q_ODD]).tolist() == [0.0]
        assert refused == []
        # zeros by cancellation: T = 0, or T wraps to just below 2^128
        assert _kernel_phases((1, -1), [[x], [x]], [Q_ODD]).tolist() == [0.0]
        assert _kernel_phases((1, 1), [[x], [Q_ODD - x]], [Q_ODD]).tolist() == [0.0]
        assert _kernel_phases((5, 5, 5), [[x], [x], [-2 * x % Q_ODD]], [Q_ODD]).tolist() == [0.0]
        assert len(refused) == 3

    def test_zero_vector(self, refused):
        rng = random.Random(2)
        qs = [rng.randrange(2, 2**600) for _ in range(50)]
        basis = [[rng.randrange(q) for q in qs] for _ in range(3)]
        assert not _kernel_phases((0, 0, 0), basis, qs).any()
        assert refused == []

    def test_below_the_certified_range(self, refused):
        # phases below ~2^-60 lose their last bits to the 128-bit truncation
        tiny = [1, Q_ODD >> 400, Q_ODD >> 100, Q_ODD >> 70]
        kept = [Q_ODD >> 50, Q_ODD >> 20, Q_ODD // 3]
        _kernel_phases((1,), [tiny + kept], [Q_ODD] * 7)
        assert sorted(r for _, r in refused) == tiny

    def test_near_midpoints(self, refused):
        # R 2^128 / q within 4 units of a midpoint between two doubles is
        # refused, 2^40 units away it is kept; half of the midpoints are the
        # ones just below a power of two, where the gap below is the smaller
        rng = random.Random(4)
        near, far = [], []
        for _ in range(200):
            e = rng.randrange(10)
            midpoint = rng.choice([2 * rng.randrange(2**52, 2**53) + 1, 2**54 - 1]) << (74 - e)
            near.append((midpoint + rng.randint(-4, 4)) * Q_ODD >> 128)
            far.append((midpoint + rng.choice([-1, 1]) * 2**40) * Q_ODD >> 128)
        _kernel_phases((1,), [near + far], [Q_ODD] * 400)
        assert sorted(r for _, r in refused) == sorted(near)

    def test_just_below_one(self, refused):
        # 1 - 2^-60 rounds to 1.0 and is certified; 1 - 1/q also rounds to
        # 1.0, but T = 2^128 - 1 is where a cancellation zero could wrap to
        for q in (Q_ODD, 2**200 + 1):
            got = _kernel_phases((1,), [[q - 1, q - (q >> 60), q - (q >> 52)]], [q] * 3)
            assert got.tolist() == [1.0, 1.0, (q - (q >> 52)) / q]
        assert sorted(refused) == sorted([(Q_ODD, Q_ODD - 1), (2**200 + 1, 2**200)])

    def test_coefficient_cap_three_values(self, refused):
        # every vector of {-5..5}^3 over big and small q, with zero,
        # cancelling and extreme residues among random ones
        rng = random.Random(5)
        qs, basis = [], [[], [], []]
        for q in (2, 3, 2**31 - 1, 2**32 + 15, 2**128 - 159, Q_ODD, rng.randrange(2**599, 2**600)):
            for row in ([0, 1, q - 1], [rng.randrange(q) for _ in range(3)]):
                x = rng.randrange(q)
                columns = [row, [x, x, x], [x, q - x, 0], [x, 2 * x % q, 3 * x % q]]
                for column in columns:
                    qs.append(q)
                    for j in range(3):
                        basis[j].append(column[j] % q)
        bound = ms.COEFF_CAP
        for a in product(range(-bound, bound + 1), repeat=3):
            _kernel_phases(a, basis, qs)
        assert 0 < len(refused) < len(qs) * (2 * bound + 1) ** 3

    def test_small_denominators(self):
        for q in (2, 3, 7, 65521, 2**31 - 1, 2**32 - 5):
            rng = random.Random(q)
            basis = [[rng.randrange(q) for _ in range(64)] for _ in range(2)]
            for a in product(range(-2, 3), repeat=2):
                _kernel_phases(a, basis, [q] * 64)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_random_columns(self, data):
        size = data.draw(st.integers(1, 3))
        qs = data.draw(st.lists(st.integers(2, 2**700), min_size=1, max_size=20))
        basis = [[data.draw(st.integers(0, q - 1)) for q in qs] for _ in range(size)]
        bound = ms.COEFF_CAP
        a = data.draw(st.lists(st.integers(-bound, bound), min_size=size, max_size=size))
        _kernel_phases(tuple(a), basis, qs)

    @pytest.mark.parametrize("factor", [1, 6])
    def test_sampled_columns_and_images(self, factor, monkeypatch):
        # many columns of a sampled measure, and its pushforward image, run
        # through one kernel call per vector
        calls = []
        kernel = ms._combination_phases
        monkeypatch.setattr(ms, "_combination_phases", lambda *a: calls.append(1) or kernel(*a))
        G = lat.canonicalize([(2, 0), (0, 3)], 2)
        for group in (G, lat.trivial(2)):
            m = ms.pushforward_scale(ms.sample_sigma(group, SCHEDULE_BY_SIZE[2], FAM_N_NSQ, 2000, 3), factor)
            assert m.codes.shape[1] > 2
            bound = ms.COEFF_CAP
            vectors = list(product(range(-bound, bound + 1), repeat=2))
            for k in range(1, SCHEDULE_BY_SIZE[2].depth + 1):
                values = fm.evaluate(FAM_N_NSQ, SCHEDULE_BY_SIZE[2].indices[k - 1])
                got = ms._combination_coefficients(m, values, vectors)
                assert _bits(got) == _bits(_object_coefficients(m, values, vectors))
        assert len(calls) == 2 * SCHEDULE_BY_SIZE[2].depth * len(vectors)


class TestPushforward:
    def test_identity(self):
        m = uniform_atoms([0, F(1, 3)])
        assert ms.pushforward_scale(m, 1) == m

    def test_halves_collapse(self):
        m = uniform_atoms([0, F(1, 2)])
        assert ms.pushforward_scale(m, 2).atoms == ((F(0), F(1)),)

    def test_thirds_collapse(self):
        m = uniform_atoms([0, F(1, 3), F(2, 3)])
        assert ms.pushforward_scale(m, 3).atoms == ((F(0), F(1)),)

    def test_mass_preserved_and_fourier_commutes(self):
        s = build_schedule(FAM_N_NSQ, 3)
        G = lat.canonicalize([(2, 0), (0, 3)], 2)
        m = ms.sample_sigma(G, s, FAM_N_NSQ, 400, seed=21)
        p = ms.pushforward_scale(m, 6)
        assert total_weight(p) == 1
        for t in (1, 5, 44):
            assert abs(
                ms.fourier_coefficient(p, t) - ms.fourier_coefficient(m, 6 * t)
            ) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(
        m=st.one_of(_sampled_measures(), _explicit_atoms().map(ms.AtomicMeasure)),
        data=st.data(),
        ts=st.lists(st.integers(-(10**60), 10**60), min_size=2, max_size=2),
        level=_level(),
    )
    def test_image_at_t_is_parent_at_factor_t(self, m, data, ts, level):
        # the definition of the image: evaluated at t, it is its parent at
        # factor * t, bit for bit, and its atoms are the parent's mapped
        q = data.draw(st.sampled_from([a.denominator for a in m.alphas]))
        factor = data.draw(st.one_of(
            st.integers(1, 50).map(lambda k: k * q),  # that column's alpha -> 0
            st.integers(2**100, 2**130),
            st.integers(1, 10**6),
        ))
        image = ms.pushforward_scale(m, factor)
        t = ts[0]
        assert (image.phases(image.residues(t)).tobytes()
                == m.phases(m.residues(factor * t)).tobytes())
        assert (_bits([ms.fourier_coefficient(image, t)])
                == _bits([ms.fourier_coefficient(m, factor * t)]))
        for B in (CircleSet.interval(0, F(2, 3)), behrend_set(3)):
            # a table of the constant polys ts scores at ts, on their marginal
            sub, rows = skew.ShiftResidues(image, (), [(t,) for t in ts]).at(())
            got = sampled_correlation(sub, B, rows)
            sub, rows = skew.ShiftResidues(m, (), [(factor * t,) for t in ts]).at(())
            want = sampled_correlation(sub, B, rows)
            assert [x.hex() for x in got] == [x.hex() for x in want]
        values, vectors = level
        got = ms._combination_coefficients(image, values, vectors)
        want = ms._combination_coefficients(m, [factor * v for v in values], vectors)
        assert _bits(got) == _bits(want)
        mapped = {}
        for x, w in m.atoms:
            mapped[factor * x % 1] = mapped.get(factor * x % 1, 0) + w
        want_atoms = tuple(sorted(mapped.items()))
        assert image.atoms == want_atoms
        assert image.to_json() == {"atoms": [[str(x), str(w)] for x, w in want_atoms]}


class TestDichotomy:
    def test_full_group_dirac_no_deviation(self):
        s = build_schedule(FAM_N_NSQ, 3)
        m = ms.sample_sigma(lat.full(2), s, FAM_N_NSQ, 100, seed=2)
        rep = ms.verify_dichotomy(m, s, FAM_N_NSQ, lat.full(2), 2, 0.01)
        assert max(r.deviation for r in rep.rows) < 1e-9

    def test_zero_vector_exact(self):
        s = build_schedule(FAM_N_NSQ, 3)
        G = lat.canonicalize([(2, 0), (0, 3)], 2)
        m = ms.sample_sigma(G, s, FAM_N_NSQ, 100, seed=2)
        rep = ms.verify_dichotomy(m, s, FAM_N_NSQ, G, 1, 0.5)
        zero_rows = [r for r in rep.rows if r.vector == (0, 0)]
        assert all(r.deviation < 1e-12 for r in zero_rows)

    def test_single_sequence_2z(self):
        fam = FAM_N
        s = build_schedule(fam, 5)
        G = lat.canonicalize([(2,)], 1)
        m = ms.sample_sigma(G, s, fam, 10**4, seed=3)
        rep = ms.verify_dichotomy(m, s, fam, G, 3, 0.15)
        assert rep.passed
        assert max(r.deviation for r in rep.rows if r.level == 5) <= 0.15


class TestBuildMeasurePipeline:
    def test_direct_path(self):
        G = lat.canonicalize([(2, 0), (0, 3)], 2)
        sigma, sched, red, g_tilde = ms.build_measure_for_group(
            FAM_N_NSQ, G, 4, 2000, 42
        )
        assert red.scale == 1
        assert g_tilde == G
        rep = ms.verify_dichotomy(sigma, sched, FAM_N_NSQ, G, 2, 0.2)
        assert rep.passed

    def test_reduction_path_n_2n(self):
        fam = fm.polynomial_family([[0, 1], [0, 2]])
        G = lat.lattice_sum(
            lat.canonicalize([(2, -1)], 2), lat.canonicalize([(0, 1)], 2)
        )
        sigma, sched, red, g_tilde = ms.build_measure_for_group(fam, G, 4, 4000, 42)
        assert red.indices == (1,)
        assert g_tilde == lat.canonicalize([(2,)], 1)
        # dichotomy directly against the original family and group
        rep = ms.verify_dichotomy(sigma, sched_for_original(sched, red), fam, G, 2, 0.2)
        assert rep.passed

    def test_precondition_not_rigidity_group(self):
        fam = fm.polynomial_family([[0, 1], [0, 2]])
        with pytest.raises(PreconditionError):
            ms.build_measure_for_group(fam, lat.trivial(2), 3, 100, 1)
        with pytest.raises(DimensionMismatch):
            ms.build_measure_for_group(fam, lat.full(3), 3, 100, 1)


def sched_for_original(sched, red):
    """The schedule indices drive phi_j of the original family as well; the
    dichotomy evaluator only reads indices, so reuse them directly."""
    return sched
