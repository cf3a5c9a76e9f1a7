"""Cell weights, sampling, Fourier analysis, and the dichotomy pipeline."""

import cmath
import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigidlab import families as fm
from rigidlab import lattice as lat
from rigidlab import measure as ms
from rigidlab.errors import PreconditionError, UnsupportedShape
from rigidlab.schedule import build_schedule

FAM_N = fm.polynomial_family([[0, 1]])
FAM_N_NSQ = fm.polynomial_family([[0, 1], [0, 0, 1]])


def support_cells(G, k):
    """The exact level-k cell weights that sample_sigma draws from."""
    return dict(ms._support_cells(ms.group_cell_structure(G), k))


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
        cells = dict(ms._support_cells(structure, 2))
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
            float(w)
            for row, w in zip(m.codes, m.weights)
            if m.categories[col][row[col]] == 0
        )
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
        assert m.total_weight() == 1


class TestFourier:
    def test_dirac(self):
        assert ms.fourier_coefficient(ms.dirac(0), 12345) == pytest.approx(1)

    def test_two_point(self):
        m = ms.uniform_atoms([0, F(1, 2)])
        assert abs(ms.fourier_coefficient(m, 1)) < 1e-12
        assert ms.fourier_coefficient(m, 2).real == pytest.approx(1)

    def test_three_point(self):
        m = ms.uniform_atoms([0, F(1, 3), F(2, 3)])
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
        assert m.phases(t).tobytes() == want.tobytes()


def _column_phases(m, t):
    """Reference: the column-by-column gather that the prefix-tree evaluation
    replaced, kept as the oracle it must reproduce bitwise."""
    total = np.zeros(len(m.codes))
    ts = int(t) * int(m.scale)
    for col, a in enumerate(m._flat_alphas()):
        p, q = a.numerator, a.denominator
        base = (ts % q) * p % q
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
        assert m.phases(t).tobytes() == _column_phases(m, t).tobytes()

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
            assert image.phases(t).tobytes() == _column_phases(image, t).tobytes()

    def test_one_word(self):
        m = _sampled_2z_3z(1, 3)
        assert m.codes.shape[0] == 1
        for t in (0, 1, -5, 10**60):
            assert m.phases(t).tobytes() == _column_phases(m, t).tobytes()

    def test_pushforward_shares_the_words(self):
        m = _sampled_2z_3z(500, 4)
        image = ms.pushforward_scale(m, 6)
        assert image.codes is m.codes and image._runs is m._runs
        assert image.scale == 6 and m.scale == 1

    def _rebuilt(self, m, codes):
        return ms.AtomicMeasure(
            alphas=m.alphas, categories=m.categories, codes=codes, weights=m.weights
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


class TestPushforward:
    def test_identity(self):
        m = ms.uniform_atoms([0, F(1, 3)])
        assert ms.pushforward_scale(m, 1) == m

    def test_halves_collapse(self):
        m = ms.uniform_atoms([0, F(1, 2)])
        assert ms.pushforward_scale(m, 2).atoms == ((F(0), F(1)),)

    def test_thirds_collapse(self):
        m = ms.uniform_atoms([0, F(1, 3), F(2, 3)])
        assert ms.pushforward_scale(m, 3).atoms == ((F(0), F(1)),)

    def test_mass_preserved_and_fourier_commutes(self):
        s = build_schedule(FAM_N_NSQ, 3)
        G = lat.canonicalize([(2, 0), (0, 3)], 2)
        m = ms.sample_sigma(G, s, FAM_N_NSQ, 400, seed=21)
        p = ms.pushforward_scale(m, 6)
        assert p.total_weight() == 1
        for t in (1, 5, 44):
            assert abs(
                ms.fourier_coefficient(p, t) - ms.fourier_coefficient(m, 6 * t)
            ) < 1e-12


class TestDichotomy:
    def test_full_group_dirac_no_deviation(self):
        s = build_schedule(FAM_N_NSQ, 3)
        m = ms.sample_sigma(lat.full(2), s, FAM_N_NSQ, 100, seed=2)
        rep = ms.verify_dichotomy(m, s, FAM_N_NSQ, lat.full(2), 2, 0.01)
        assert rep.max_deviation() < 1e-9

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
        assert rep.passes(5)
        assert rep.max_deviation(5) <= 0.15


class TestBuildMeasurePipeline:
    def test_direct_path(self):
        G = lat.canonicalize([(2, 0), (0, 3)], 2)
        sigma, sched, red, g_tilde = ms.build_measure_for_group(
            FAM_N_NSQ, G, 4, 2000, 42
        )
        assert red.scale == 1
        assert g_tilde == G
        rep = ms.verify_dichotomy(sigma, sched, FAM_N_NSQ, G, 2, 0.2)
        assert rep.passes(4)

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
        assert rep.passes(4)

    def test_precondition_not_rigidity_group(self):
        fam = fm.polynomial_family([[0, 1], [0, 2]])
        with pytest.raises(PreconditionError):
            ms.build_measure_for_group(fam, lat.trivial(2), 3, 100, 1)


def sched_for_original(sched, red):
    """The schedule indices drive phi_j of the original family as well; the
    dichotomy evaluator only reads indices, so reuse them directly."""
    return sched
