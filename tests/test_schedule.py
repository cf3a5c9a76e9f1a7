"""Diophantine schedule construction and exact residual checking."""

import hashlib
import json
import math
from collections.abc import Sequence
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rigidlab import families as fm
from rigidlab import schedule as sc
from rigidlab.errors import PreconditionError, SearchExhausted
from rigidlab.schedule import (
    _M_CANDIDATES,
    Schedule,
    _calibration,
    _first_hit,
    _near_integer,
    _pick_alpha,
    _round_half_even,
    build_schedule,
    check_schedule,
    circle_norm,
)

FAM_N = fm.polynomial_family([[0, 1]])
FAM_N_NSQ = fm.polynomial_family([[0, 1], [0, 0, 1]])


def schedule_sha256(s: Schedule) -> str:
    return hashlib.sha256(json.dumps(s.to_json(), sort_keys=True).encode()).hexdigest()


class TestCircleNorm:
    def test_values(self):
        assert circle_norm(Fraction(5, 4)) == Fraction(1, 4)
        assert circle_norm(Fraction(-1, 3)) == Fraction(1, 3)
        assert circle_norm(Fraction(7)) == 0
        assert circle_norm(Fraction(1, 2)) == Fraction(1, 2)


class TestBuildSchedule:
    def test_single_sequence_depth_one(self):
        s = build_schedule(FAM_N, 1)
        assert s.depth == 1
        assert check_schedule(s, FAM_N).all_pass()

    def test_depth_one_index_one_admissible(self):
        # A hand schedule with n_1 = 1 and the window-top alpha passes: the
        # level-1 calibration bound 1/2 is loose enough.
        hand = Schedule(1, (1,), ((Fraction(1, 4),),))
        assert check_schedule(hand, FAM_N).all_pass()

    def test_pair_depth_three(self):
        s = build_schedule(FAM_N_NSQ, 3)
        assert s.depth == 3
        assert check_schedule(s, FAM_N_NSQ).all_pass()

    def test_factorial_divisibility(self):
        s = build_schedule(FAM_N_NSQ, 5)
        for k, n in enumerate(s.indices, start=1):
            assert n % math.factorial(k) == 0

    def test_dependent_family_rejected(self):
        with pytest.raises(PreconditionError):
            build_schedule(fm.polynomial_family([[0, 1], [0, 2]]), 2)

    def test_constant_drift_rejected(self):
        # (n+1, n) has a combination tending to 1: not asymptotically
        # independent even though the full relation group is trivial.
        with pytest.raises(PreconditionError):
            build_schedule(fm.polynomial_family([[1, 1], [0, 1]]), 2)

    def test_budget_exhaustion_reports(self):
        fam = fm.polynomial_family([[1, 1], [2, 0, 1]])
        with pytest.raises(SearchExhausted):
            build_schedule(fam, 4, search_budget=200)

    def test_deep_zero_constant_family(self):
        s = build_schedule(FAM_N_NSQ, 8, search_budget=20000)
        assert check_schedule(s, FAM_N_NSQ).all_pass()
        # pins the chosen indices and alphas, not just their validity
        assert schedule_sha256(s) == (
            "b25947e2e2e64f4fd59a33568c4207c263101056fbabf8436787db115a8ee244"
        )

    def test_same_degree_independent_pair(self):
        fam = fm.polynomial_family([[0, 0, 1], [0, 1, 1]])
        s = build_schedule(fam, 3, search_budget=8000)
        assert check_schedule(s, fam).all_pass()
        assert schedule_sha256(s) == (
            "584ee7e7908c1b107f1e7beccff1018656943a5bf5dcc837a80161651f662a78"
        )

    def test_shifted_family_shallow(self):
        fam = fm.polynomial_family([[1, 1], [2, 0, 1]])
        s = build_schedule(fam, 2, search_budget=8000)
        assert check_schedule(s, fam).all_pass()
        assert schedule_sha256(s) == (
            "31df049307f05ba75807a2a7af896649758eb63a454761e1ab7d547a35166c48"
        )


    @pytest.mark.parametrize(
        "polys, depth, digest",
        [
            ([[0, 1], [0, 0, 1]], 6,
             "c218e9ade5a1001cdb86cdeba95bf75ba9ac189478cb9a303c203d2b748f941b"),
            ([[0, 1], [0, 0, 1]], 7,
             "debc943f907775bd4c931bf1b5569c0bd2804c2523d390338ba6ff5e81073a24"),
            ([[0, 1], [0, 0, 1]], 11,
             "e9fa5b0c9c113af7869cf8464e27896c552f2893f81fa717c48df17c143a06a7"),
            ([[0, 1], [0, 0, 1]], 13,
             "59b984e4a44fc845c6d988dce0143ac7e168bfbe05cac26aa0fba5c95dced833"),
            ([[1, 1], [2, 0, 1]], 2,
             "31df049307f05ba75807a2a7af896649758eb63a454761e1ab7d547a35166c48"),
        ],
        ids=["n_nsq-6", "n_nsq-7", "n_nsq-11", "n_nsq-13", "shifted-2"],
    )
    def test_benchmarked_schedules_pinned(self, polys, depth, digest):
        # The schedules the demos, the CLI pipeline and criterion 8 build at
        # the default budget: a change in search order fails here.
        s = build_schedule(fm.polynomial_family(polys), depth)
        assert schedule_sha256(s) == digest


def _alpha_candidates(
    phi_j: int, others: Sequence[int], window_top: Fraction, calib: Fraction
):
    """Every candidate alpha the picker may try, in its order, one by one.

    Each candidate is an unreduced pair (num, den) with den > 0.  Every one
    but the last comes from an integer m in the window's range, so it lies in
    (0, window_top] and its calibration residual phi alpha - c is exactly m.
    Three streams of m follow one another (targeted, structured multiples,
    plain m upward from the low end), repeats skipped, then the window top as
    the last resort.
    """
    if phi_j == 0:
        return
    c_num, c_den = calib.numerator, calib.denominator
    sign, den = (1 if phi_j > 0 else -1), c_den * abs(phi_j)
    if phi_j > 0:
        lo_m = -calib  # exclusive
        hi_m = window_top * phi_j - calib  # inclusive
        lo_int = math.floor(lo_m) + 1
        hi_int = math.floor(hi_m)
    else:
        # alpha > 0 needs c + m < 0: m in [window_top*phi - c, -c)
        lo_int = math.ceil(window_top * phi_j - calib)
        hi_int = math.ceil(-calib) - 1
    if hi_int < lo_int:
        # No exact-calibration candidate; fall back to the window top.
        yield window_top.numerator, window_top.denominator
        return
    g = math.gcd(*others)
    unit = abs(phi_j) // math.gcd(phi_j, g) if g else 1

    def m_streams():
        for o in filter(None, others):
            v_lo, v_hi = sorted(sign * o * (c_num + m * c_den) for m in (lo_int, hi_int))
            s_lo, s_hi = -(-v_lo // den), v_hi // den
            for s in range(s_lo, s_hi + 1, max(1, (s_hi - s_lo + 1) // 24))[:25]:
                yield _round_half_even(s * phi_j * c_den - o * c_num, o * c_den)
        if unit > 1:
            yield from range(-(-lo_int // unit) * unit, hi_int + 1, unit)[:_M_CANDIDATES]
        yield from range(lo_int, hi_int + 1)[:_M_CANDIDATES]

    seen = set()
    for m in m_streams():
        if lo_int <= m <= hi_int and m not in seen:
            seen.add(m)
            yield sign * (c_num + m * c_den), den
    yield window_top.numerator, window_top.denominator


def pick_alpha_loop(phi, others, top, calib, exact_only):
    """The candidate loop _pick_alpha replaced: every candidate tested in turn
    on integer residues, through the module's _near_integer."""
    c_num, d = calib.numerator, calib.denominator
    fallback = (top.numerator, top.denominator)
    for num, den in _alpha_candidates(phi, others, top, calib):
        if (num, den) == fallback:
            residual = phi * num * d - c_num * den  # over den * d
            if exact_only and residual % (den * d):
                return None
            if not sc._near_integer(residual, den * d, d):
                continue
        if all(sc._near_integer(o * num, den, d) for o in others):
            return Fraction(num, den)
    return None


def pick_alpha_reference(phi, others, top, calib, exact_only, k):
    """The Fraction loop the integer picker replaced, over the same candidates."""
    tight = Fraction(1, 2 * math.factorial(k) ** 2)
    for num, den in _alpha_candidates(phi, others, top, calib):
        a = Fraction(num, den)
        if exact_only and (phi * a - calib).denominator != 1:
            return None  # window-top fallback reached; defer
        if not 0 < a <= top:
            continue
        if circle_norm(phi * a - calib) >= tight:
            continue
        if any(circle_norm(o * a) >= tight for o in others):
            continue
        return a
    return None


nonzero = st.integers(-(10**12), 10**12).filter(bool)
windows = st.builds(Fraction, st.integers(1, 3), st.integers(1, 10**15))


class TestIntegerResidues:
    @settings(max_examples=500, deadline=None)
    @given(
        st.integers(-(10**60), 10**60),
        st.integers(1, 10**60),
        st.integers(1, 10**60),
    )
    @example(7, 4, 4)  # ||7/4|| = 1/4 is not below 1/4
    @example(-5, 2, 3)  # ||-5/2|| = 1/2
    def test_near_integer_matches_circle_norm(self, num, den, bound):
        assert _near_integer(num, den, bound) == (
            circle_norm(Fraction(num, den)) < Fraction(1, bound)
        )

    @settings(max_examples=500, deadline=None)
    @given(st.integers(-(10**40), 10**40), st.integers(-(10**20), 10**20).filter(bool))
    @example(5, 2)  # a tie rounds down to the even 2
    @example(7, 2)  # and up to the even 4
    @example(7, -2)  # -7/2 goes to -4
    @example(-3, 2)  # -3/2 goes to -2
    def test_round_half_even_matches_fraction_round(self, p, q):
        assert _round_half_even(p, q) == round(Fraction(p, q))

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 8),
        nonzero,
        st.lists(st.integers(-(10**12), 10**12), min_size=1, max_size=3),
        windows,
        st.booleans(),
    )
    def test_pick_alpha_matches_fraction_loop(self, k, phi, others, top, exact_only):
        calib = _calibration(k)
        assert _pick_alpha(phi, others, top, calib, exact_only) == (
            pick_alpha_reference(phi, others, top, calib, exact_only, k)
        )

    @pytest.mark.parametrize("k", range(1, 9))
    @pytest.mark.parametrize("phi", [12345, -12345])
    def test_narrow_window_falls_back_to_top(self, k, phi):
        # A window too narrow for any integer m leaves only the window top;
        # exact_only defers it unless its calibration residual is an integer.
        top = Fraction(1, 10**12)
        calib = _calibration(k)
        others = [phi * 7 + 1]
        assert list(_alpha_candidates(phi, others, top, calib)) == [(1, 10**12)]
        for exact_only in (True, False):
            assert _pick_alpha(phi, others, top, calib, exact_only) == (
                pick_alpha_reference(phi, others, top, calib, exact_only, k)
            )

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 8), nonzero, st.lists(nonzero, max_size=3), windows)
    def test_candidates_hold_window_and_calibration(self, k, phi, others, top):
        calib = _calibration(k)
        cands = list(_alpha_candidates(phi, others, top, calib))
        assert cands[-1] == (top.numerator, top.denominator)
        for num, den in cands[:-1]:
            assert den > 0
            a = Fraction(num, den)
            assert 0 < a <= top
            assert (phi * a - calib).denominator == 1


def first_hit_brute(a, b, m, w, count):
    return next((x for x in range(count) if (a * x + b) % m <= w), None)


class TestFirstHit:
    @settings(max_examples=500, deadline=None)
    @given(
        st.integers(-(10**60), 10**60),
        st.integers(-(10**60), 10**60),
        st.integers(1, 10**60),
        st.integers(0, 10**60),
        st.integers(0, 200),
    )
    @example(0, 5, 10**60, 0, 7)  # a = 0: no hit
    @example(0, 3, 10**60, 2, 7)  # a = 0 with b inside the window: L = 0
    @example(10**59 + 1, 10**58, 10**60, 0, 200)  # W = 0: residue 0 only
    @example(3, -7, 10**20, 4, 0)  # count 0
    def test_matches_brute_force_on_the_stream_window(self, a, b, den, w, count):
        # the off-diagonal window (a t + b + W) mod den <= 2W, W <= (den - 1) // 2
        w %= (den - 1) // 2 + 1
        x = _first_hit(a, b + w, den, 2 * w)
        brute = first_hit_brute(a, b + w, den, 2 * w, count)
        if brute is not None:
            assert x == brute
        else:
            assert x is None or x >= count
        if x is not None:
            assert (a * x + b + w) % den <= 2 * w

    @pytest.mark.parametrize("m", [1, 2, 3, 7, 12, 30])
    def test_whole_period_on_small_moduli(self, m):
        # a x mod m repeats with period m, so a brute force over one period
        # decides every case, no-hit included
        for a in range(-m, 2 * m):
            for b in range(m):
                for w in range(m):
                    assert _first_hit(a, b, m, w) == first_hit_brute(a, b, m, w, m)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(-(10**6), 10**6), st.integers(-(10**6), 10**6), st.integers(1, 5000), st.data())
    def test_whole_period_on_random_moduli(self, a, b, m, data):
        w = data.draw(st.integers(0, m - 1))
        assert _first_hit(a, b, m, w) == first_hit_brute(a, b, m, w, m)


def structured_others(phi):
    """Other coordinates that share factors with phi, vanish, or not."""
    return st.lists(
        st.one_of(
            st.integers(-5, 5).map(lambda s: s * phi),
            st.just(0),
            st.tuples(st.integers(-(10**30), 10**30), st.sampled_from([1, 2, 6, 24])).map(
                lambda p: p[0] * p[1]
            ),
            st.integers(-(10**8), 10**8),
            st.integers(-(10**40), 10**40),
        ),
        min_size=1,
        max_size=3,
    )


class TestPickAlpha:
    @settings(max_examples=600, deadline=None)
    @given(
        st.integers(1, 4),
        st.one_of(st.integers(-(10**8), 10**8), st.integers(-(10**30), 10**30))
        .filter(bool)
        .flatmap(lambda phi: st.tuples(st.just(phi), structured_others(phi))),
        # wide windows (small denominators) let the m streams run past
        # candidates that pass one other and fail the next
        st.builds(
            Fraction,
            st.integers(1, 3),
            st.sampled_from([10**6, 10**12]).flatmap(lambda n: st.integers(1, n)),
        ),
        st.booleans(),
    )
    @example(2, (-866434, [-32835072, 22316668]), Fraction(1, 50), False)
    @example(2, (445, [-48921259, -12474913]), Fraction(3), False)
    def test_matches_candidate_loop(self, k, phi_others, top, exact_only):
        phi, others = phi_others
        calib = _calibration(k)
        assert _pick_alpha(phi, others, top, calib, exact_only) == (
            pick_alpha_loop(phi, others, top, calib, exact_only)
        )

    def test_shifted_build_skips_refused_candidates(self, monkeypatch):
        # The shifted family's depth-2 build refuses ~117 candidates per pick
        # one by one in the candidate loop.  Count the residue tests and the
        # first-hit searches of the build against those of the loop.
        fam = fm.polynomial_family([[1, 1], [2, 0, 1]])
        counts = {"near": 0, "hits": 0}
        near, first_hit = sc._near_integer, sc._first_hit

        def counted(key, f):
            def wrapper(*args):
                counts[key] += 1
                return f(*args)
            return wrapper

        monkeypatch.setattr(sc, "_near_integer", counted("near", near))
        monkeypatch.setattr(sc, "_first_hit", counted("hits", first_hit))
        s = build_schedule(fam, 2)
        tests, searches = counts["near"], counts["hits"]
        monkeypatch.setattr(sc, "_pick_alpha", pick_alpha_loop)
        counts["near"] = 0
        assert schedule_sha256(build_schedule(fam, 2)) == schedule_sha256(s)
        loop_tests = counts["near"]
        assert loop_tests > 100_000
        # what is left is mostly the targeted stream, tested one by one
        assert tests <= 0.3 * loop_tests
        assert searches <= 0.1 * loop_tests


class TestCheckSchedule:
    def test_depth_zero_refused(self):
        with pytest.raises(PreconditionError):
            Schedule(0, (), ())
        with pytest.raises(PreconditionError):
            Schedule.from_json({"depth": 0, "indices": [], "alphas": []})
        with pytest.raises(PreconditionError):
            build_schedule(FAM_N_NSQ, 0)

    def test_perturbed_alpha_fails_and_is_located(self):
        s = build_schedule(FAM_N_NSQ, 3)
        doubled = (
            s.alphas[0],
            s.alphas[1],
            (s.alphas[2][0] * 2, s.alphas[2][1]),
        )
        report = check_schedule(Schedule(3, s.indices, doubled), FAM_N_NSQ)
        assert not report.all_pass()
        # the doubled alpha must surface in the window or calibration family
        assert not (report.passed["window"] and report.passed["calibration"])

    def test_report_records_every_property(self):
        s = build_schedule(FAM_N_NSQ, 2)
        report = check_schedule(s, FAM_N_NSQ)
        assert set(report.passed) == set(("window", "calibration", "offdiagonal", "history"))
        assert all(report.passed.values())
        assert report.violations == {}

    def test_roundtrip_json(self):
        s = build_schedule(FAM_N_NSQ, 3)
        again = Schedule.from_json(s.to_json())
        assert again == s


class TestUniformityBound:
    def test_top_level_phase_matches_cell_within_assembled_bound(self):
        """Finite-depth form of the uniform phase approximation.

        For sampled cell words w and all small integer vectors a, the circle
        distance between (sum_j a_j phi_j(n_K)) * g(w) and
        sum_j a_j w_j(K)/K! must stay below the bound assembled from the
        schedule's own exact residuals (triangle inequality through the
        levels), not an asserted constant.
        """
        import random

        fam = FAM_N_NSQ
        K = 4
        s = build_schedule(fam, K, search_budget=20000)
        size = fam.size
        rng = random.Random(11)
        values = [fm.evaluate(fam, n) for n in s.indices]
        calib = [
            Fraction(1, math.factorial(k)) + Fraction(1, 2 * math.factorial(k) ** 2)
            for k in range(1, K + 1)
        ]
        for _ in range(100):
            word = [
                tuple(rng.randrange(math.factorial(k)) for _ in range(size))
                for k in range(1, K + 1)
            ]
            g = sum(
                word[k][r] * s.alphas[k][r] for k in range(K) for r in range(size)
            )
            for a in [(1, 0), (0, 1), (1, 1), (2, -1), (-2, 2), (1, -2)]:
                total = sum(a_j * values[K - 1][j] for j, a_j in enumerate(a))
                target = sum(
                    Fraction(a_j * word[K - 1][j], math.factorial(K))
                    for j, a_j in enumerate(a)
                )
                # assembled bound: per coordinate j, sum over levels and
                # coordinates of the exact schedule residuals times the cell
                # digits involved.
                bound = Fraction(0)
                for j, a_j in enumerate(a):
                    if not a_j:
                        continue
                    phi = values[K - 1][j]
                    contrib = Fraction(0)
                    for k in range(K - 1):
                        for r in range(size):
                            contrib += word[k][r] * circle_norm(
                                phi * s.alphas[k][r]
                            )
                    for r in range(size):
                        res = circle_norm(
                            phi * s.alphas[K - 1][r]
                            - (calib[K - 1] if r == j else 0)
                        )
                        contrib += word[K - 1][r] * res
                        if r == j:
                            contrib += word[K - 1][r] * Fraction(
                                1, 2 * math.factorial(K) ** 2
                            )
                    bound += abs(a_j) * contrib
                dist = circle_norm(total * g - target)
                assert dist <= bound
