"""Counterexample demos: exact ledgers and small-scale scans."""

import hashlib
import json
from fractions import Fraction as F
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigidlab import demos
from rigidlab import lattice as lat
from rigidlab.demos import (
    build_cor65_group,
    cor65_demo,
    cor66_demo,
    cor67_demo,
    cor67_exact_limit,
    cor67_uniform_limit,
    cor65_representatives,
)
from rigidlab.behrend import behrend_set
from rigidlab.errors import PreconditionError
from rigidlab.skew import fs_tail


def report_sha256(report) -> str:
    return hashlib.sha256(json.dumps(report.to_json(), sort_keys=True).encode()).hexdigest()


class TestCor65Group:
    def test_pair_n_nsq(self):
        g, padded = build_cor65_group([(0, 1), (0, 0, 1)])
        assert padded == ()
        assert lat.index_in_ambient(g) == 3
        # a == b mod 3 characterization
        assert lat.member(g, (1, 1)) and lat.member(g, (3, 0))
        assert not lat.member(g, (1, 0))

    def test_padding_needed(self):
        # (n, n^2) inside degree-3 space: pad the cubic coordinate
        g, padded = build_cor65_group([(0, 1), (0, 0, 1, 0)])
        assert padded == (3,)
        assert lat.index_in_ambient(g) != lat.INFINITE
        # padded direction joined with coefficient 3
        assert lat.member(g, (0, 0, 3))
        assert not lat.member(g, (0, 0, 1))

    @pytest.mark.parametrize("ell", range(2, 6))
    def test_representatives_are_the_annihilator(self, ell):
        # the hand-built digit set is the annihilator of H = <(1, 1, 0, ...),
        # 3 e_2, ..., 3 e_ell>, which lat.annihilator reaches more slowly
        units = [[3 * (i == j) for i in range(ell)] for j in range(1, ell)]
        H = lat.canonicalize([[1, 1] + [0] * (ell - 2), *units], ell)
        assert set(cor65_representatives(ell)) == set(lat.annihilator(H).finite_reps)


class TestCor65ExactLedger:
    @pytest.mark.parametrize("ell", range(2, 9))
    def test_closed_forms(self, ell):
        from rigidlab.circleset import CircleSet
        from rigidlab.haar import FactorPattern, haar_correlation_limit

        reps = cor65_representatives(ell)
        pattern = [
            FactorPattern.of(rep_coeffs=tuple(1 if i == j else 0 for i in range(ell)))
            for j in range(ell)
        ]
        limit = haar_correlation_limit(reps, CircleSet.interval(0, F(2, 3)), pattern)
        assert limit == F(2 ** (ell - 1), 3**ell)
        nu_power = F(2, 3) ** (ell + 1)
        gap = nu_power - limit
        assert gap == F(2 ** (ell - 1), 3 ** (ell + 1))
        assert gap >= 2 * F(1, 3 ** (ell + 1))

    def test_ell2_values(self):
        rep = cor65_demo(2, [(0, 1), (0, 0, 1)], depth=5, n_samples=2000, seed=3)
        assert rep.limit == F(2, 9)
        assert rep.nu_power == F(8, 27)
        assert rep.gap == F(2, 27)
        assert rep.epsilon == F(1, 27)
        assert rep.exact_ledger_ok
        assert report_sha256(rep) == (
            "da59d0fa19bec4bcf1d9a80549e78e7d9b9209bd0df032d352d44830547e53fb"
        )

    def test_ell3_values(self):
        rep = cor65_demo(
            3, [(0, 1), (0, 0, 1), (0, 0, 0, 1)], depth=4, n_samples=1000, seed=3,
            k0_max=2,
        )
        assert rep.limit == F(4, 27)
        assert rep.nu_power == F(16, 81)
        assert rep.gap == F(4, 81)
        assert rep.exact_ledger_ok

    def test_cutoff_search_stops_at_last_nonempty_tail(self):
        # depth 3 has tails only for k0 = 0, 1, 2; k0_max = 3 must not reach
        # an empty tail, and a negative k0_max is refused.
        rep = cor65_demo(2, [(0, 1), (0, 0, 1)], depth=3, n_samples=100, seed=1, k0_max=3)
        assert rep.cutoff is None
        assert rep.scan is None
        assert rep.to_json()["k0"] is None
        with pytest.raises(PreconditionError, match="k0_max"):
            cor65_demo(2, [(0, 1), (0, 0, 1)], depth=3, n_samples=100, seed=1, k0_max=-1)

    def test_dependent_rejected(self):
        with pytest.raises(PreconditionError, match="linearly independent"):
            cor65_demo(2, [(0, 1), (0, 2)], 3, 100, 1)
        # rank 2 < 3 with no row a multiple of another: n^2 + n = n + n^2
        with pytest.raises(PreconditionError, match="linearly independent"):
            cor65_demo(3, [(0, 1), (0, 0, 1), (0, 1, 1)], 3, 100, 1)

    def test_scan_small_and_reproducible(self):
        rep = cor65_demo(2, [(0, 1), (0, 0, 1)], depth=6, n_samples=10**4, seed=7)
        assert rep.passed
        scan = rep.scan
        assert scan.inconclusive_count == 0
        assert all(p.verdict == "BELOW" for p in scan.points)
        # FS-scan soundness: the pipeline is deterministic from the seed, so
        # re-running reproduces every reported correlation bit for bit.
        again = cor65_demo(2, [(0, 1), (0, 0, 1)], depth=6, n_samples=10**4, seed=7)
        pts, pts2 = scan.points, again.scan.points
        assert [(p.alpha, p.correlation) for p in pts] == [
            (p.alpha, p.correlation) for p in pts2
        ]

    def test_each_tail_point_evaluated_once(self, monkeypatch):
        # The cutoff search scores each finite sum at most once: the reported
        # tail, plus the failing singleton {k0} in front of it.
        from rigidlab import skew

        calls, alphas = [], []
        original, at = skew.shifted_intersection_values, skew.ShiftResidues.at

        def counting(base, B, shifts):
            calls.append(tuple(shifts))
            return original(base, B, shifts)

        def recording(table, alpha):
            alphas.append(tuple(alpha))
            return at(table, alpha)

        monkeypatch.setattr(skew, "shifted_intersection_values", counting)
        monkeypatch.setattr(skew.ShiftResidues, "at", recording)
        rep = cor65_demo(2, [(0, 1), (0, 0, 1)], depth=5, n_samples=2000, seed=3)
        assert rep.cutoff is not None and rep.cutoff > 0
        reported = [p.alpha for p in rep.scan.points]
        assert len(calls) == len(alphas) == len(set(alphas)) == len(reported) + 1
        assert set(alphas) - set(reported) == {(rep.cutoff,)}


class _SumTable:
    """Stands in for ShiftResidues: at(alpha) hands the sum's index set, in
    place of its residues, to the stubbed correlation, which looks its
    verdict up."""

    def __init__(self, base, generators, polys):
        self.base, self.generators = base, tuple(generators)

    def at(self, alpha):
        return self.base, tuple(alpha)


# (correlation, stderr) per verdict against the threshold 0.5
_STUB_VALUES = {
    demos.BELOW: (0.0, 0.0), demos.ABOVE: (1.0, 0.0), demos.INCONCLUSIVE: (0.5, 0.5)
}


def _upward_search(shifts, k0_max, depth):
    """Reference: the restart search over k0 = 0, 1, ..., min(k0_max, depth -
    1), each scan running over tail(k0) in fs_tail order up to its first
    point that is not BELOW; returns the first passing k0 and its points."""
    for k0 in range(min(k0_max, depth - 1) + 1):
        points = []
        for alpha, n_alpha in fs_tail(shifts.generators, k0).sums:
            m, residues = shifts.at(alpha)
            corr, err = demos.sampled_correlation(m, None, residues)
            if corr + 3 * err <= 0.5:
                verdict = demos.BELOW
            elif corr - 3 * err > 0.5:
                verdict = demos.ABOVE
            else:
                verdict = demos.INCONCLUSIVE
            points.append(demos.ScanPoint(alpha, n_alpha, corr, err, verdict))
            if verdict != demos.BELOW:
                break
        if all(p.verdict == demos.BELOW for p in points):
            return k0, points
    return None, None


@st.composite
def _verdict_cases(draw):
    """A depth, a k0_max and a verdict per finite sum: BELOW but on a few
    drawn sums, so that searches pass at every cutoff as well as fail.  A
    depth of 0 and a negative k0_max leave no cutoff to search."""
    depth = draw(st.integers(0, 7))
    k0_max = draw(st.integers(-1, 8))
    alphas = [alpha for alpha, _ in fs_tail(range(1, depth + 1), 0).sums] if depth else []
    failing = draw(st.dictionaries(
        st.sampled_from(alphas), st.sampled_from([demos.ABOVE, demos.INCONCLUSIVE]),
        max_size=len(alphas))) if depth else {}
    return depth, k0_max, {alpha: failing.get(alpha, demos.BELOW) for alpha in alphas}


class TestCutoffSearchOracle:
    @settings(max_examples=300, deadline=None)
    @given(case=_verdict_cases())
    def test_matches_upward_search(self, case):
        depth, k0_max, verdicts = case
        scored = []

        def correlation(m, B, alpha):
            scored.append(alpha)
            return _STUB_VALUES[verdicts[alpha]]

        schedule = SimpleNamespace(depth=depth, indices=tuple(3**i for i in range(depth)))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(demos, "ShiftResidues", _SumTable)
            mp.setattr(demos, "sampled_correlation", correlation)
            want, want_points = _upward_search(_SumTable(None, schedule.indices, ()), k0_max, depth)
            scored.clear()
            cutoff, scans = demos.smallest_passing_cutoff(None, None, (), schedule, k0_max, 0.5)
        assert cutoff == want
        assert len(scored) == len(set(scored))
        last = min(k0_max, depth - 1)
        if cutoff is None:
            assert scans == {}
            assert len(scored) <= (2 ** (depth - last) - 1 if last >= 0 else 0)
            return
        assert list(scans) == [cutoff] and scans[cutoff].points == want_points
        assert len(want_points) == 2 ** (depth - cutoff) - 1
        # past the reported tail, only the failing group G_cutoff up to its
        # first point that is not BELOW (the singleton where that one fails)
        group = [a for a, _ in fs_tail(schedule.indices, cutoff - 1).sums
                 if a[0] == cutoff] if cutoff else []
        failed = next((i + 1 for i, a in enumerate(group) if verdicts[a] != demos.BELOW), 0)
        assert set(scored) == {p.alpha for p in want_points} | set(group[:failed])
        assert len(scored) == len(want_points) + failed


class TestCor66:
    def test_exact_ledger_and_scan(self):
        rep = cor66_demo([0, 1, 1], [0, 3, 2], ell=3, depth=6, n_samples=8000, seed=11, k0_max=5)
        assert rep.exact_ledger_ok
        assert rep.limit == rep.triple_integral
        assert rep.triple_integral <= rep.bound
        # low coordinate rigid, top mixing
        assert rep.rigid_coefficients[0] == pytest.approx(1.0, abs=0.05)
        assert rep.mixing_coefficient < 0.2
        assert report_sha256(rep) == (
            "fa9d6b608c64ea05cca625e9bd54d442d6e07217f049316cae26b31dc281b310"
        )

    def test_degree_rejections(self):
        with pytest.raises(PreconditionError):
            cor66_demo([0, 0, 1], [0, 0, 2], 2, 3, 100, 1)  # 2p - q = 0
        with pytest.raises(PreconditionError):
            cor66_demo([0, 0, 1], [0, 0, 1, 1], 2, 3, 100, 1)  # deg mismatch


class TestCor67:
    def test_exact_limits(self):
        B = behrend_set(3)
        uniform = cor67_uniform_limit(B)
        assert uniform == B.measure() * __import__(
            "rigidlab.haar", fromlist=["triple_progression_integral"]
        ).triple_progression_integral(B)
        assert uniform <= B.measure() ** 3 / 2 * B.measure()
        # two-point exact computation for p = 2 by hand:
        # avg over y1 in {0, 1/2}, y2 uniform
        from rigidlab.circleset import intersect_all

        by_hand = F(0)
        for y1 in (F(0), F(1, 2)):
            sets = [B, B.shift(-y1), B.shift(-2 * y1)]
            by_hand += intersect_all(sets).measure() * B.measure() / 2
        assert cor67_exact_limit(B, 2) == by_hand

    def test_empty_target_is_zero(self):
        from rigidlab.circleset import CircleSet

        assert cor67_uniform_limit(CircleSet.empty()) == 0

    def test_large_prime_riemann_bound(self):
        # distance to the uniform value decays like a Riemann sum error
        B = behrend_set(3)
        uniform = cor67_uniform_limit(B)
        for p in (97, 499, 997):
            diff = abs(cor67_exact_limit(B, p) - uniform)
            assert diff <= F(3, p)

    def test_demo_passes_with_large_enough_prime(self):
        rep = cor67_demo(3, [5, 11], depth=6, n_samples=8000, seed=11, k0_max=4)
        assert rep.exact_ledger_ok
        assert rep.passed
        by_prime = {r.prime: r for r in rep.rows}
        assert by_prime[11].cutoff is not None
        # limits decrease toward uniform
        assert by_prime[11].limit < by_prime[5].limit
        assert report_sha256(rep) == (
            "6c53e9c3c5f446bff620d763bc2c38775b4e211a2f295028f2fa82c19b70f4c7"
        )
