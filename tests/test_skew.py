"""Skew-product correlations, finite-sums tails, Gaussian transfer."""

import math
import random
from fractions import Fraction as F
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rigidlab import families as fm
from rigidlab import lattice as lat
from rigidlab import measure as ms
from rigidlab import skew
from rigidlab.behrend import behrend_set
from rigidlab.circleset import CircleSet, intersection_measure
from rigidlab import demos
from rigidlab.demos import build_cor65_group, cor65_demo, cor66_demo, cor67_demo
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

from measure_helpers import dirac, uniform_atoms

B23 = CircleSet.interval(0, F(2, 3))


class TestSkewCorrelation:
    def test_zero_shifts_give_base_measure(self):
        base = uniform_atoms([0, F(1, 7), F(3, 7)])
        assert skew_correlation(base, B23, [0, 0, 0]) == F(2, 3)

    def test_dirac_zero_fibers_unmoved(self):
        assert skew_correlation(dirac(0), B23, [17, 51]) == F(2, 3)

    def test_third_rotation_vanishes(self):
        assert skew_correlation(dirac(F(1, 3)), B23, [1, 2]) == 0

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
            base = uniform_atoms([F(k, q) for k in range(q)])
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
            fast, _ = sampled_correlation(m, B23, [m.residues(t) for t in shifts])
            exact = skew_correlation(m, B23, shifts)
            assert fast == pytest.approx(float(exact), abs=1e-9)

    def test_multi_interval_structured(self):
        fam = fm.polynomial_family([[0, 1]])
        s = build_schedule(fam, 3)
        m = ms.sample_sigma(lat.canonicalize([(2,)], 1), s, fam, 200, seed=8)
        Bset = CircleSet.from_pairs([(0, F(1, 5)), (F(2, 5), F(4, 5))])
        fast, _ = sampled_correlation(m, Bset, [m.residues(t) for t in (1, 3)])
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
def _arc_sets(draw, max_pairs=8):
    """k <= max_pairs disjoint rational arcs, sometimes rotated to wrap
    through 0, which splits one arc into the pieces [u, 1) and [0, v)."""
    k = draw(st.integers(1, max_pairs))
    den = draw(
        st.sampled_from([d for d in (2, 3, 7, 10, 27, 256, 1000, 3**13, 2**40) if d >= 2 * k])
    )
    ends = sorted(
        draw(st.lists(st.integers(0, den), min_size=2 * k, max_size=2 * k, unique=True))
    )
    pairs = [(F(a, den), F(b, den)) for a, b in zip(ends[::2], ends[1::2])]
    rot = F(draw(st.integers(0, den - 1)), den)
    return CircleSet.from_pairs([(u + rot, v + rot) for u, v in pairs])


def _contact_breaks(arcs):
    """The endpoints mod 1 of the widened contact intervals
    (u_k - v_i - eps, v_k - u_i + eps) of the kernel's candidate table."""
    u, v, eps = arcs[:, 0], arcs[:, 1], skew._CONTACT_EPS
    lo = (u[None, :] - v[:, None]).ravel() - eps
    hi = (v[None, :] - u[:, None]).ravel() + eps
    return np.concatenate([lo, hi]) % 1.0


def _adversarial_phases(B, n, m, seed):
    """(n, m) phases in [0, 1), half of them from a pool that puts endpoints
    of shifted copies on top of each other (0.0 and endpoint differences,
    taken in float and exactly), near the candidate table's contact
    breakpoints (within 1e-12) or on its bucket edges (each edge and the
    float below it, and 1 - 2^-53), half uniform."""
    # int / int true division rounds correctly, as float(Fraction) does
    ends = [e / B.den for e in B.ends]
    arcs = np.array(ends).reshape(-1, 2)
    pool = [0.0, 1.0 - 2.0**-53] + [(a - b) % 1.0 for a in ends for b in ends]
    pool += [(a - b) % B.den / B.den for a in B.ends for b in B.ends]
    pool += [x % 1.0 for b in _contact_breaks(arcs) for x in (b - 1e-12, b, b + 1e-12)]
    edges = np.arange(skew._BUCKETS) / skew._BUCKETS
    pool += edges.tolist() + np.nextafter(edges, 0.0).tolist()
    pool = [x for x in pool if 0.0 <= x < 1.0]
    rng = np.random.default_rng(seed)
    return np.where(
        rng.random((n, m)) < 0.5,
        rng.choice(pool, size=(n, m)),
        rng.random((n, m)),
    )


def _positive_pieces(arcs, shifts):
    """(i, ks) for each piece of positive length that _float_intersection's
    progressive intersection keeps, met the same way: the arc i of B it
    lies in and, per shift t, the arc k of B - t it lies in."""
    current = [(u, v, i, ()) for i, (u, v) in enumerate(arcs)]
    for t in shifts:
        shifted = []
        for k, (u, v) in enumerate(arcs):
            lo, hi = u - t, v - t
            if lo < 0 and hi > 0:
                shifted += [(lo + 1.0, 1.0, k), (0.0, hi, k)]
            elif hi <= 0:
                shifted.append((lo + 1.0, hi + 1.0, k))
            else:
                shifted.append((lo, hi, k))
        current = [
            (max(u, c), min(v, d), i, ks + (k,))
            for u, v, i, ks in current
            for c, d, k in shifted
            if max(u, c) < min(v, d)
        ]
    return [(i, ks) for _, _, i, ks in current]


def _bucket_range(lo, hi):
    """The buckets g whose closed cell [g/G, (g+1)/G] meets the open arc
    (lo, hi) of the circle, exactly; G = skew._BUCKETS."""
    G = skew._BUCKETS
    if hi - lo >= 1:
        return set(range(G))
    first, last = math.floor(lo * G), math.ceil(hi * G) - 1
    return {g % G for g in range(first, last + 1)}


class TestMultiArcKernel:
    """The vectorized multi-arc kernel against the per-word float sweep
    (bitwise) and against exact intersection_measure (within the budget),
    and its candidate table against the pieces that sweep keeps."""

    @staticmethod
    def _check_against_oracles(B, m, n, seed):
        arcs = [(float(u), float(v)) for u, v in B.intervals]
        phases = _adversarial_phases(B, n, m, seed)
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

    @staticmethod
    def _blocks_of(rows, B):
        """The kernel with `rows` rows to a block for B's K arcs."""
        return mock.patch.object(skew, "_BLOCK_PAIRS", rows * len(B.intervals))

    # n for a block of `rows` rows: one row, below, at and across the block
    _SIZES = {"one": lambda r: 1, "below": lambda r: r - 1, "at": lambda r: r,
              "across": lambda r: 2 * r + 1, "past": lambda r: r + 1}

    # n below, at and across a block of `rows` rows; the module's own block
    # size is exercised in test_module_block_size_matches_one_block
    @settings(max_examples=150, deadline=None)
    @given(
        B=_arc_sets(),
        m=st.integers(0, 4),
        rows=st.sampled_from([2, 64, 256]),
        n=st.sampled_from(["one", "below", "at", "across"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_float_sweep_and_exact(self, B, m, rows, n, seed):
        with self._blocks_of(rows, B):
            self._check_against_oracles(B, m, self._SIZES[n](rows), seed)

    # up to 64 arcs, as the digit candidate t = 6; the per-word oracle costs
    # O(K^2) per shift, so fewer and shorter draws than above
    @settings(max_examples=40, deadline=None)
    @given(
        B=_arc_sets(max_pairs=63),
        m=st.integers(1, 4),
        rows=st.sampled_from([2, 256]),
        n=st.sampled_from(["one", "past"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_many_arcs_match_float_sweep_and_exact(self, B, m, rows, n, seed):
        with self._blocks_of(rows, B):
            self._check_against_oracles(B, m, self._SIZES[n](rows), seed)

    def test_module_block_size_matches_one_block(self):
        """At the module's own block size (8192 rows for the 8 Behrend arcs),
        n = 2 blocks + 1 row gives the values of a single block, bit for
        bit, and the float sweep's on the rows around each block edge."""
        B = behrend_set(3)
        arcs = np.array([(float(u), float(v)) for u, v in B.intervals])
        rows = skew._BLOCK_PAIRS // len(arcs)
        phases = _adversarial_phases(B, 2 * rows + 1, 3, seed=12)
        got = skew._multi_arc_intersection_lengths(arcs, phases)
        with self._blocks_of(len(phases), B):
            whole = skew._multi_arc_intersection_lengths(arcs, phases)
        assert got.tobytes() == whole.tobytes()
        edge_rows = [0, rows - 1, rows, rows + 1, 2 * rows - 1, 2 * rows]
        want = [_float_intersection(arcs.tolist(), list(phases[r])) for r in edge_rows]
        assert got[edge_rows].tolist() == want
        assert np.count_nonzero(got) > len(got) // 20

    @settings(max_examples=100, deadline=None)
    @given(
        B=_arc_sets(max_pairs=16),
        m=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_candidates_hold_every_positive_piece(self, B, m, seed):
        """Every (row, arc i) where the float sweep keeps a piece of
        positive length is a contact pair, and each arc k of B - t_j that
        piece lies in is among the candidates of (int(t_j G), i)."""
        arcs = np.array([(float(u), float(v)) for u, v in B.intervals])
        phases = _adversarial_phases(B, 100, m, seed)
        table, _ = skew._candidates(arcs.tobytes())
        pair_rows, pair_arcs = skew._contact_pairs(arcs, phases)
        pairs = set(zip(pair_rows.tolist(), pair_arcs.tolist()))
        for r, row in enumerate(phases):
            cells = (row * skew._BUCKETS).astype(int)
            for i, ks in _positive_pieces(arcs.tolist(), row.tolist()):
                assert (r, i) in pairs
                for cell, k in zip(cells, ks):
                    assert k in table[cell * len(arcs) + i]

    @settings(max_examples=100, deadline=None)
    @given(B=_arc_sets(max_pairs=16))
    @example(B=CircleSet.from_pairs([(0, F(1, 4)), (F(1, 2), F(3, 4))]))
    @example(B=behrend_set(3))
    def test_candidates_keep_a_margin(self, B):
        """The table lists arc k for (bucket g, arc i) whenever the exact
        contact interval (u_k - v_i, v_k - u_i) of the float arcs, widened by
        half of _CONTACT_EPS, meets the closed cell of g: a margin that
        dwarfs the rounding of the table's own float endpoints."""
        arcs = np.array([(float(u), float(v)) for u, v in B.intervals])
        table, _ = skew._candidates(arcs.tobytes())
        margin = F(skew._CONTACT_EPS) / 2
        K = len(arcs)
        for i, (ui, vi) in enumerate(map(lambda a: map(F, a), arcs.tolist())):
            for k, (uk, vk) in enumerate(map(lambda a: map(F, a), arcs.tolist())):
                for g in _bucket_range(uk - vi - margin, vk - ui + margin):
                    assert k in table[g * K + i]

    def test_prefilter_skips_most_behrend_rows(self):
        """On the cor66/cor67 set with uniform phases and m = 3 at least 40%
        of the rows have no contact pair, so the candidate table has not
        decayed into listing every arc."""
        B = behrend_set(3)
        arcs = np.array([(float(u), float(v)) for u, v in B.intervals])
        phases = np.random.default_rng(11).random((4000, 3))
        rows, _ = skew._contact_pairs(arcs, phases)
        assert len(np.unique(rows)) <= 0.6 * len(phases)

    def test_no_shifts_and_empty_set(self):
        B = CircleSet.from_pairs(
            [(0, F(1, 27)), (F(2, 27), F(1, 9)), (F(2, 9), F(7, 27)), (F(8, 9), 1)]
        )
        base = uniform_atoms([F(k, 11) for k in range(11)])
        values = shifted_intersection_values(base, B, [])
        arcs = [(float(u), float(v)) for u, v in B.intervals]
        assert values.tolist() == [_float_intersection(arcs, [])] * 11
        assert all(abs(F(v) - B.measure()) <= _budget(B, 0) for v in values)
        empty = shifted_intersection_values(base, CircleSet.empty(),
                                            [base.residues(t) for t in (1, 2)])
        assert empty.tolist() == [0.0] * 11

    def test_sampled_words_match_float_sweep(self):
        fam = fm.polynomial_family([[0, 1], [0, 0, 1]])
        s = build_schedule(fam, 3)
        m = ms.sample_sigma(lat.canonicalize([(2, 0), (0, 3)], 2), s, fam, 600, seed=5)
        Bset = CircleSet.from_pairs(
            [(0, F(1, 9)), (F(2, 9), F(1, 3)), (F(2, 3), F(7, 9)), (F(8, 9), 1)]
        )
        shifts = [1, 6, 35]
        got = shifted_intersection_values(m, Bset, [m.residues(t) for t in shifts])
        arcs = [(float(u), float(v)) for u, v in Bset.intervals]
        cols = [m.phases(m.residues(t)) for t in shifts]
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
        assert sorted([s for _, s in fs_tail([1, 2, 4], 0).sums]) == [1, 2, 3, 4, 5, 6, 7]

    def test_past_first(self):
        assert sorted([s for _, s in fs_tail([1, 2, 4], 1).sums]) == [2, 4, 6]

    def test_factorial_like(self):
        assert sorted([s for _, s in fs_tail([6, 24, 120], 0).sums]) == [
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


_TABLE_SCHEDULES = [
    (fam, build_schedule(fam, depth))
    for fam, depth in (
        (fm.polynomial_family([[0, 1]]), 6),
        (fm.polynomial_family([[0, 1], [0, 0, 1]]), 5),
        (fm.polynomial_family([[0, 1], [0, 0, 0, 1]]), 4),
    )
]


@st.composite
def _table_cases(draw):
    """A sampled measure (random group, possibly with free coordinates, and
    pushforward scale), generators (its schedule's indices or random
    increasing integers), polys of degree 1-3 and a tail subset."""
    fam, sched = draw(st.sampled_from(_TABLE_SCHEDULES))
    a, b = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    if fam.size == 1:
        G = lat.canonicalize([(a,)], 1)
    else:
        G = draw(st.sampled_from([
            lat.canonicalize([(a, 0), (0, b)], 2),
            lat.canonicalize([(a, 0)], 2),  # second coordinate free
            lat.full(2),
        ]))
    m = ms.sample_sigma(G, sched, fam, draw(st.sampled_from([1, 40, 800])),
                        draw(st.integers(0, 2**32)))
    factor = draw(st.sampled_from([1, 2, 3, 6, 35]))
    if factor > 1:
        m = ms.pushforward_scale(m, factor)
    if draw(st.booleans()):
        gens = sched.indices
    else:
        gens = sorted(draw(st.sets(st.integers(1, 10**40), min_size=1, max_size=7)))
    degree = st.integers(1, 3)
    polys = draw(st.lists(
        degree.flatmap(lambda d: st.tuples(
            st.lists(st.integers(-9, 9), min_size=d, max_size=d),
            st.integers(-9, 9).filter(bool),
        ).map(lambda low_top: (*low_top[0], low_top[1]))),
        min_size=1, max_size=3,
    ))
    alpha = sorted(draw(st.sets(st.integers(1, len(gens)), min_size=1)))
    return m, gens, polys, alpha


def _polys_at(polys, n_alpha):
    return [sum(c * n_alpha**i for i, c in enumerate(p)) for p in polys]


class TestShiftResidues:
    """The finite-sums residue table against direct t * p % q."""

    @settings(max_examples=150, deadline=None)
    @given(case=_table_cases())
    def test_matches_direct_reduction(self, case):
        m, gens, polys, alpha = case
        table = skew.ShiftResidues(m, gens, polys)
        shifts = _polys_at(polys, sum(gens[i - 1] for i in alpha))
        full = [[t * a.numerator % a.denominator for a in m.alphas] for t in shifts]
        assert [m.residues(t) for t in shifts] == full
        scored = table.at(alpha)
        assert scored[1] == [r[:_holding_depth(m, full)] for r in full]
        for B in (B23, CircleSet.from_pairs([(0, F(1, 9)), (F(2, 9), F(1, 3))])):
            _assert_matches_all_words(m, B, full, scored)

    def test_tails_share_one_table(self):
        fam, sched = _TABLE_SCHEDULES[1]
        m = ms.sample_sigma(lat.canonicalize([(2, 0), (0, 3)], 2), sched, fam, 300, 1)
        polys = [(0, 1), (0, 0, 1)]
        table = skew.ShiftResidues(m, sched.indices, polys)
        for k0 in range(sched.depth):
            for alpha, n_alpha in fs_tail(sched.indices, k0).sums:
                full = [m.residues(t) for t in _polys_at(polys, n_alpha)]
                sub, rows = table.at(alpha)
                depth = _holding_depth(m, full)
                assert sub.alphas == m.alphas[:depth]
                assert rows == [r[:depth] for r in full]
        # one entry per multiset of at most two of the five indices
        assert len(table._entries) == 1 + 5 + 15


def _all_words_values(base, B, residues):
    """Reference: the arc kernels on the phases of every word, the values
    that scoring on a depth of the word tree replaced."""
    phases = np.zeros((len(base.codes), len(residues)))
    for col, r in enumerate(residues):
        phases[:, col] = base.phases(r)
    if len(B.intervals) == 1:
        (u, v), = B.intervals
        starts = np.zeros((len(phases), len(residues) + 1))
        starts[:, 1:] = -phases
        return skew._arc_intersection_lengths(starts, float(v - u))
    arcs = np.array([(float(u), float(v)) for u, v in B.intervals]).reshape(-1, 2)
    return skew._multi_arc_intersection_lengths(arcs, phases)


def _active(base, residues):
    """The columns where some shift's residue is nonzero mod q."""
    return tuple(col for col, a in enumerate(base.alphas)
                 if any(r[col] % a.denominator for r in residues))


def _holding_depth(base, residues):
    """The depth of the smallest prefix of base's columns that holds the
    active ones."""
    return max(_active(base, residues), default=-1) + 1


def _word_and_run_values(base, B, residues, scored):
    """(got, want) per word of base: the value of its run of m, for scored =
    (m, shifts) a prefix of base's columns and the residues there, and the
    all-words reference."""
    m, shifts = scored
    row_of = {code: i for i, code in enumerate(map(tuple, m.codes.tolist()))}
    rows = [row_of[code] for code in map(tuple, base.codes[:, :len(m.alphas)].tolist())]
    got = shifted_intersection_values(m, B, shifts)[rows]
    return got, _all_words_values(base, B, residues)


def _assert_matches_all_words(base, B, residues, scored=None):
    """sampled_correlation on scored, the (m, residues) of base's shifts
    that ShiftResidues.at gives (by default base.prefix at the holding
    depth), against every word: each word's value is bitwise that of its
    run of m; m is base's prefix at the smallest depth that holds the active
    columns (base itself at full depth), its rows the distinct codes there
    in order with their words' counts summed exactly; the correlation is
    bitwise np.add.reduce over m's rows, and those sums are within 1e-12 of
    the sums over the words."""
    depth = _holding_depth(base, residues)
    m, shifts = scored or (base.prefix(depth), [r[:depth] for r in residues])
    got, want = _word_and_run_values(base, B, residues, (m, shifts))
    assert got.tobytes() == want.tobytes()
    assert m.alphas == base.alphas[:depth] and (m is base) == (depth == len(base.alphas))
    assert [[x % m.alphas[i].denominator for i, x in enumerate(s)] for s in shifts] == [
        [r[c] % base.alphas[c].denominator for c in range(depth)] for r in residues]
    counts = {}
    for code, c in zip(map(tuple, base.codes[:, :depth].tolist()), base.counts):
        counts[code] = counts.get(code, 0) + c
    assert list(map(tuple, m.codes.tolist())) == sorted(counts)
    assert m.counts == [counts[code] for code in sorted(counts)]
    values = shifted_intersection_values(m, B, shifts)
    weighted = m.weights_np * values
    mean, second = float(np.add.reduce(weighted)), float(np.add.reduce(weighted * values))
    err = math.sqrt(max(0.0, second - mean * mean) / base.denominator)
    assert [x.hex() for x in sampled_correlation(m, B, shifts)] == [mean.hex(), err.hex()]
    words = base.weights_np * want
    assert abs(mean - np.add.reduce(words)) <= 1e-12
    assert abs(second - np.add.reduce(words * want)) <= 1e-12


B_FOUR = CircleSet.from_pairs(
    [(0, F(1, 9)), (F(2, 9), F(1, 3)), (F(2, 3), F(7, 9)), (F(8, 9), 1)]
)
FAM_N_NSQ = fm.polynomial_family([[0, 1], [0, 0, 1]])
# a finite-index group, and one whose second coordinate is free (digits up
# to 5! = 120 per column, past the column kernel's floor)
_RESTRICTION_MEASURES = [
    ms.sample_sigma(G, build_schedule(FAM_N_NSQ, depth), FAM_N_NSQ, 3000, seed=3)
    for G, depth in ((lat.canonicalize([(2, 0), (0, 3)], 2), 4),
                     (lat.canonicalize([(2, 0)], 2), 5))
]


@st.composite
def _zeroed_residues(draw):
    """A sampled measure and 1-3 shifts' residues: random below q, 0 on a
    drawn set of columns in every shift and on drawn (shift, column) pairs
    besides, each plus a multiple of q, so not reduced.  Most drawn sets
    leave an inactive column before an active one."""
    m = draw(st.sampled_from(_RESTRICTION_MEASURES))
    qs = [a.denominator for a in m.alphas]
    n_shifts = draw(st.integers(1, 3))
    off = draw(st.sets(st.integers(0, len(qs) - 1)))
    zero = draw(st.lists(st.lists(st.booleans(), min_size=len(qs), max_size=len(qs)),
                         min_size=n_shifts, max_size=n_shifts))
    rng = random.Random(draw(st.integers(0, 2**32)))
    residues = [
        [(0 if col in off or z else rng.randrange(q)) + q * rng.randrange(3)
         for col, (q, z) in enumerate(zip(qs, row))]
        for row in zero
    ]
    return m, residues


class TestActiveColumnRestriction:
    """sampled_correlation on the prefix that holds the active columns
    against every word's values."""

    @settings(max_examples=60, deadline=None)
    @given(case=_zeroed_residues(), B=st.sampled_from([B23, B_FOUR]))
    def test_matches_all_words(self, case, B):
        m, residues = case
        _assert_matches_all_words(m, B, residues)

    def test_fs_tail_points_match_all_words(self):
        G, _ = build_cor65_group(FAM_N_NSQ.polys)
        sched = build_schedule(FAM_N_NSQ, 8)
        m = ms.pushforward_scale(ms.sample_sigma(G, sched, FAM_N_NSQ, 4000, seed=2), 3)
        table = skew.ShiftResidues(m, sched.indices, FAM_N_NSQ.polys)
        shrunk, kept, last = [], 0, (None, None)
        for alpha, n_alpha in fs_tail(sched.indices, 4).sums:
            full = [m.residues(t) for t in _polys_at(FAM_N_NSQ.polys, n_alpha)]
            scored = table.at(alpha)
            _assert_matches_all_words(m, B23, full, scored)
            depth = _holding_depth(m, full)
            if scored[0] is not m:
                shrunk.append(scored[0])
                # the table keeps its prefix for the next sums of the same
                # depth, and takes a new one for another depth
                assert (scored[0] is last[1]) == (depth == last[0])
                kept += scored[0] is last[1]
            last = depth, scored[0]
        # the late points leave the low levels inactive, and rows shrink
        assert shrunk and all(len(r.codes) < len(m.codes) for r in shrunk)
        assert kept

    def test_image_builds_its_own_restriction(self):
        # the parent's table is scored at the very sum the image's table is
        # then scored at; the image's residues are modulo its own
        # denominators (7 divides some of the parent's), so the parent's
        # prefix would give it wrong phases
        G, _ = build_cor65_group(FAM_N_NSQ.polys)
        sched = build_schedule(FAM_N_NSQ, 8)
        m = ms.sample_sigma(G, sched, FAM_N_NSQ, 4000, seed=2)
        image = ms.pushforward_scale(m, 7)
        n_alpha = sched.indices[4] + sched.indices[6]
        full = [image.residues(t) for t in _polys_at(FAM_N_NSQ.polys, n_alpha)]
        depth = _holding_depth(image, full)
        assert any(image.alphas[c].denominator != m.alphas[c].denominator for c in range(depth))
        parent, _ = skew.ShiftResidues(m, sched.indices, FAM_N_NSQ.polys).at((5, 7))
        parent_full = [m.residues(t) for t in _polys_at(FAM_N_NSQ.polys, n_alpha)]
        assert parent is not m and _holding_depth(m, parent_full) == depth
        table = skew.ShiftResidues(image, sched.indices, FAM_N_NSQ.polys)
        own, _ = table.at((5, 7))
        assert own is not parent and own.alphas == image.alphas[:depth]
        for B in (B23, B_FOUR):
            _assert_matches_all_words(image, B, full, table.at((5, 7)))

    def test_restricted_rows_and_counts(self):
        m = _RESTRICTION_MEASURES[1]
        image = ms.pushforward_scale(m, 7)
        depth = m.codes.shape[1] // 2
        prefix = image.prefix(depth)
        # each call takes its prefix anew; an image's has the image's alphas
        # on the parent's rows
        again = image.prefix(depth)
        assert again is not prefix and np.array_equal(again.codes, prefix.codes)
        own = m.prefix(depth)
        assert own is not prefix and np.array_equal(own.codes, prefix.codes)
        assert prefix.alphas == image.alphas[:depth] and own.alphas == m.alphas[:depth]
        # the rows are the distinct codes of the first columns in order,
        # each counting its words' counts exactly, and the prefix of a
        # prefix is the shallower prefix
        want = {}
        for code, c in zip(map(tuple, m.codes[:, :depth].tolist()), m.counts):
            want[code] = want.get(code, 0) + c
        assert len(want) < len(m.codes)
        assert list(map(tuple, prefix.codes.tolist())) == sorted(want)
        assert prefix.counts == [want[code] for code in sorted(want)]
        assert sum(prefix.counts) == prefix.denominator == m.denominator
        shallow = prefix.prefix(depth - 2)
        assert np.array_equal(shallow.codes, m.prefix(depth - 2).codes)
        assert shallow.counts == m.prefix(depth - 2).counts

    @pytest.mark.parametrize("B", [B23, B_FOUR])
    def test_no_column_and_every_column_active(self, B):
        m = _RESTRICTION_MEASURES[0]
        qs = [a.denominator for a in m.alphas]
        none = [[0] * len(qs), [2 * q for q in qs]]
        _assert_matches_all_words(m, B, none)
        assert m.prefix(0).codes.shape == (1, 0) and m.prefix(0).counts == [m.denominator]
        every = [[q - 1 for q in qs]]
        _assert_matches_all_words(m, B, every)
        assert m.prefix(len(qs)) is m

    @pytest.mark.parametrize("B", [B23, B_FOUR])
    def test_pattern_that_shrinks_nothing(self, B):
        # column 0 is inactive, column 1 active: the prefix that holds it is
        # every column, the measure itself
        m = ms.AtomicMeasure(
            alphas=(F(1, 3), F(1, 7)), categories=[[1], [0, 2, 5]],
            codes=np.array([[0, 0], [0, 1], [0, 2]], dtype=np.uint32),
            counts=[1, 1, 2], denominator=4,
        )
        _assert_matches_all_words(m, B, [[3, 4], [0, 9]])
        assert skew.ShiftResidues(m, (3,), [(0, 1)]).at((1,)) == (m, [[0, 3]])


def _recorded_scan(monkeypatch, demo):
    """Runs demo() with ShiftResidues.at and the demos' sampled_correlation
    recorded: per scored point, (base, B, the residues of every column from
    base.residues of the shifts, (m, residues) as at gave them).  Also
    returns the (measure, depth) of every prefix that was taken."""
    points, prefixes, seen = [], [], []
    at, correlation, prefix = skew.ShiftResidues.at, demos.sampled_correlation, ms.AtomicMeasure.prefix

    def recording_at(table, alpha):
        scored = at(table, alpha)
        n_alpha = sum(table.generators[i - 1] for i in alpha)
        full = [table.base.residues(t) for t in _polys_at(table.polys, n_alpha)]
        seen.append((table.base, full, scored))
        return scored

    def recording_correlation(m, B, residues):
        base, full, scored = seen.pop()
        assert scored == (m, residues)
        points.append((base, B, full, scored))
        return correlation(m, B, residues)

    def recording_prefix(m, depth):
        view = prefix(m, depth)
        if view is not m:
            prefixes.append((id(m), depth))
        return view

    monkeypatch.setattr(skew.ShiftResidues, "at", recording_at)
    monkeypatch.setattr(demos, "sampled_correlation", recording_correlation)
    monkeypatch.setattr(ms.AtomicMeasure, "prefix", recording_prefix)
    demo()
    return points, prefixes


# seeded demo runs small enough to score every point against every word:
# cor65 at depth 7, and cor66 and cor67 as their CLI defaults run them
_DEMO_RUNS = {
    "cor65": lambda: cor65_demo(2, [(0, 1), (0, 0, 1)], depth=7, n_samples=20000, seed=42),
    "cor66": lambda: cor66_demo([0, 1, 1], [0, 3, 2], ell=3, depth=7, n_samples=10**4, seed=42),
    "cor67": lambda: cor67_demo(3, (2, 3, 5, 7, 11, 13), depth=7, n_samples=10**4, seed=42),
}


class TestDepthMarginal:
    """Each scan point of the demos scored on a depth of the word tree."""

    @pytest.mark.parametrize("name", list(_DEMO_RUNS))
    def test_every_scan_point_matches_all_words(self, monkeypatch, name):
        points, prefixes = _recorded_scan(monkeypatch, _DEMO_RUNS[name])
        assert points
        for base, B, full, scored in points:
            _assert_matches_all_words(base, B, full, scored)
        # no fallback: each point's active columns are exactly a prefix
        fallbacks = sum(_active(base, full) != tuple(range(len(m.alphas)))
                        for base, _, full, (m, _) in points)
        assert fallbacks == 0
        # the scan takes each depth of a measure once, and some shrink
        assert prefixes and len(prefixes) == len(set(prefixes))

    def test_dropping_the_deepest_column_is_caught(self, monkeypatch):
        # a mutation of the table that scores each point one column short:
        # the all-words oracle must see a word whose value moves
        at = skew.ShiftResidues.at

        def short(table, alpha):
            m, residues = at(table, alpha)
            depth = max(len(m.alphas) - 1, 0)
            return table.base.prefix(depth), [r[:depth] for r in residues]

        monkeypatch.setattr(skew.ShiftResidues, "at", short)
        points, _ = _recorded_scan(monkeypatch, _DEMO_RUNS["cor65"])
        moved = 0
        for base, B, full, scored in points:
            got, want = _word_and_run_values(base, B, full, scored)
            moved += got.tobytes() != want.tobytes()
            with pytest.raises(AssertionError):
                _assert_matches_all_words(base, B, full, scored)
        assert moved

    @pytest.mark.parametrize("B", [B23, B_FOUR])
    def test_non_prefix_pattern_takes_the_holding_prefix(self, B):
        # at n = 2 the columns 1/3 and 1/5 are active, 1/2 between them is
        # not, and the last 1/2 is not: the table scores on the first three
        rng = np.random.default_rng(4)
        words = np.unique(rng.integers(0, [3, 4, 5, 2], size=(200, 4)), axis=0)
        m = ms.AtomicMeasure(
            alphas=(F(1, 3), F(1, 2), F(1, 5), F(1, 2)),
            categories=[[0, 1, 2], [0, 1, 2, 3], [0, 1, 2, 3, 4], [0, 1]],
            codes=words.astype(np.uint32), counts=list(range(1, len(words) + 1)),
            denominator=len(words) * (len(words) + 1) // 2,
        )
        full = [m.residues(2)]
        assert _active(m, full) == (0, 2)
        scored = skew.ShiftResidues(m, (2,), [(0, 1)]).at((1,))
        assert len(scored[0].alphas) == 3 and scored[1] == [full[0][:3]]
        assert len(scored[0].codes) < len(m.codes)
        _assert_matches_all_words(m, B, full, scored)


def _normal_mass(lo, hi, panels=200):
    """Reference: the standard normal density integrated over [lo, hi] by
    a composite 20-point Gauss-Legendre rule, summing positive terms only."""
    rule = _gauss_legendre(20)
    width = (hi - lo) / panels
    total = 0.0
    for i in range(panels):
        mid = lo + (i + 0.5) * width
        total += sum(w * math.exp(-((mid + x * width / 2) ** 2) / 2) for x, w in rule)
    return total * width / 2 / math.sqrt(2 * math.pi)


class TestIntervalProbability:
    @pytest.mark.parametrize("lo, hi", [(8, 9), (5, 6), (3, 40), (0.5, 2)])
    def test_relative_accuracy_in_the_upper_tail(self, lo, hi):
        want = _normal_mass(lo, hi)
        assert abs(interval_probability(lo, hi) - want) <= 1e-12 * want


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

    # One rho on each side of every branch cut of the orthant values: the 6,
    # 12 and 20 node Sheppard rules (0.3, 0.75) and the asymptotic form
    # (0.925), with both signs.
    BRANCH_RHOS = [s * r for r in (0.29, 0.31, 0.74, 0.76, 0.92, 0.93, 0.95, 0.999)
                   for s in (1, -1)]

    @pytest.mark.parametrize("rho", BRANCH_RHOS)
    def test_sheppard_quadrant_on_every_branch(self, rho):
        got = gaussian_pair_mass(rho, (-math.inf, 0), (-math.inf, 0))
        assert got == pytest.approx(0.25 + math.asin(rho) / (2 * math.pi), abs=1e-14)

    @pytest.mark.parametrize("rho", BRANCH_RHOS + [0.0])
    def test_symmetries(self, rho):
        # (X, Y) and (Y, X), (-X, -Y) have the same law
        intervals = [(-1, 0), (-0.5, 2), (0.3, 1.7), (-math.inf, 0.4), (-2, math.inf)]
        for I in intervals:
            for J in intervals:
                p = gaussian_pair_mass(rho, I, J)
                assert gaussian_pair_mass(rho, J, I) == pytest.approx(p, abs=1e-15)
                flipped = gaussian_pair_mass(rho, (-I[1], -I[0]), (-J[1], -J[0]))
                assert flipped == pytest.approx(p, abs=1e-15)

    @pytest.mark.parametrize("rho", BRANCH_RHOS + [0.0, 1.0, -1.0])
    def test_partition_of_the_plane_sums_to_one(self, rho):
        xs = (-math.inf, -1.2, 0.1, 0.9, math.inf)
        ys = (-math.inf, -0.4, 0.5, 2.0, math.inf)
        total = sum(
            gaussian_pair_mass(rho, I, J)
            for I in zip(xs, xs[1:])
            for J in zip(ys, ys[1:])
        )
        assert total == pytest.approx(1, abs=1e-12)

    def test_matches_conditional_cdf_quadrature(self):
        # The reference is good to ~1e-15, so 1e-12 also catches a misplaced
        # branch cut (Sheppard's 20 nodes at rho = 0.99 are off by ~2e-10).
        rhos = self.BRANCH_RHOS + [0.0, 0.1, -0.5, 0.6, 0.85, -0.88, 0.99, -0.99, 0.9999]
        rects = [((-1, 0), (-1, 0)), ((-0.5, 2), (0.3, 1.7)), ((-3, 40), (0, 0.25)),
                 ((-math.inf, 0.4), (-2, math.inf)), ((1, 3), (-3, -1)),
                 ((-40, 2), (-3, 2)), ((0.2, 0.2), (-1, 1)), ((-2.5, -0.1), (-math.inf, 1.5))]
        worst = max(
            abs(gaussian_pair_mass(rho, I, J) - _conditional_cdf_mass(rho, I, J))
            for rho in rhos
            for I, J in rects
        )
        assert worst <= 1e-12

    @pytest.mark.parametrize("rho", [0.0, 0.5, 0.95])
    def test_relative_accuracy_in_the_lower_tail(self, rho):
        # orthant values near 1 would leave (-7, -6)^2 off by ~3e-4 of its
        # mass at rho = 0.5 and give 0.0 at rho = 0; the reference keeps its
        # relative accuracy there
        I = (-7, -6)
        want = _conditional_cdf_mass(rho, I, I)
        assert abs(gaussian_pair_mass(rho, I, I) - want) <= 1e-12 * want

    @pytest.mark.parametrize("rho", [0.5, -0.5, 0.95, 0.99])
    def test_mixed_tails_mirror_each_coordinate(self, rho):
        # a side below 0 is mirrored on its own coordinate with rho negated,
        # so a rectangle with one side in each tail is its upper-right mirror
        # image, whichever of I and J is the lower one
        lower, upper = (-7, -6), (6, 7)
        want = gaussian_pair_mass(-rho, upper, upper)
        assert gaussian_pair_mass(rho, lower, upper) == want
        assert gaussian_pair_mass(rho, upper, lower) == want


def _gauss_legendre(n):
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1], by
    Newton's method on the three-term recurrence."""
    rule = []
    for i in range(1, n + 1):
        x = math.cos(math.pi * (i - 0.25) / (n + 0.5))
        for _ in range(50):
            p0, p1 = 1.0, x
            for m in range(2, n + 1):
                p0, p1 = p1, ((2 * m - 1) * x * p1 - (m - 1) * p0) / m
            dp = n * (x * p1 - p0) / (x * x - 1)
            step = p1 / dp
            x -= step
            if abs(step) < 1e-15:
                break
        rule.append((x, 2 / ((1 - x * x) * dp * dp)))
    return rule


_GL20 = _gauss_legendre(20)


def _conditional_cdf_mass(rho, I, J):
    """Reference: P(X in I, Y in J) for |rho| < 1 as the integral over I
    (clipped to [-9, 9]) of phi(x) times the conditional probability of J,
    by composite 20-point Gauss-Legendre on panels no wider than the
    conditional standard deviation, split where the conditional mean crosses
    an end of J.  Only math.erfc is used.  In the lower tail every term is a
    product of small positive values, so the mass keeps its relative
    accuracy there."""

    def ndtr(x):
        return 0.5 * math.erfc(-x / math.sqrt(2))

    a, b = max(I[0], -9.0), min(I[1], 9.0)
    c, d = J
    s = math.sqrt((1 - rho) * (1 + rho))
    cuts = {v / rho for v in J if rho and math.isfinite(v) and a < v / rho < b}
    ends = sorted({a, b} | cuts)
    total = 0.0
    for lo, hi in zip(ends, ends[1:]):
        n = math.ceil((hi - lo) / min(0.25, s))
        h = (hi - lo) / n
        for i in range(n):
            mid = lo + (i + 0.5) * h
            for x, w in _GL20:
                t = mid + x * h / 2
                total += (w * h / 2 * math.exp(-t * t / 2) / math.sqrt(2 * math.pi)
                          * (ndtr((d - rho * t) / s) - ndtr((c - rho * t) / s)))
    return total


class TestGaussianTransfer:
    def test_dirac_rigid_exact(self):
        fam = fm.polynomial_family([[0, 1], [0, 0, 1]])
        s = build_schedule(fam, 3)
        m = ms.sample_sigma(lat.full(2), s, fam, 100, seed=2)  # delta at 0
        rep = verify_gaussian_transfer(m, s, fam, lat.full(2), (-1, 0), 0.01)
        assert rep.passed
        assert all(r.rigid for r in rep.rows)

    def test_mixed_directions(self):
        fam = fm.polynomial_family([[0, 1], [0, 0, 1]])
        G = lat.canonicalize([(2, 0), (0, 1)], 2)  # e2 rigid, e1 mixing
        sigma, sched, red, _ = ms.build_measure_for_group(fam, G, 5, 10**4, 42)
        rep = verify_gaussian_transfer(sigma, sched, fam, G, (-1, 0), 0.05)
        rigid_rows = [r for r in rep.rows if r.level == 5 and r.rigid]
        mixing_rows = [r for r in rep.rows if r.level == 5 and not r.rigid]
        assert rigid_rows and mixing_rows
        assert rep.passed

    def test_full_line_always_passes(self):
        fam = fm.polynomial_family([[0, 1]])
        s = build_schedule(fam, 2)
        m = ms.sample_sigma(lat.canonicalize([(2,)], 1), s, fam, 500, seed=4)
        rep = verify_gaussian_transfer(
            m, s, fam, lat.canonicalize([(2,)], 1), (-40, 40), 1e-6
        )
        assert rep.passed
