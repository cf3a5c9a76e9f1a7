"""Deciders vs. brute-force oracles over relation-group elements."""

import random
from itertools import product

import pytest

from rigidlab import deciders as dec
from rigidlab import families as fm
from rigidlab import lattice as lat
from rigidlab.errors import PreconditionError


def enumerate_relation_elements(A, coeff_bound=10):
    """All elements of A with basis coefficients in [-coeff_bound, bound]."""
    if A.is_trivial():
        return []
    out = []
    for coeffs in product(range(-coeff_bound, coeff_bound + 1), repeat=A.rank):
        v = tuple(
            sum(c * row[i] for c, row in zip(coeffs, A.basis))
            for i in range(A.ambient_dim)
        )
        if any(v):
            out.append(v)
    return out


def brute_force_split(fam, F, coeff_bound=10):
    """Oracle: scan relation elements for a violating vector."""
    A = fm.relation_group(fam)
    F = set(F)
    for a in enumerate_relation_elements(A, coeff_bound):
        escape = [j + 1 for j, x in enumerate(a) if x and (j + 1) not in F]
        if len(escape) == 1 and abs(a[escape[0] - 1]) == 1:
            return False, a, escape[0]
    return True, None, None


def random_poly_family(rng, max_dim=4, max_deg=4, coeff=5):
    size = rng.randint(1, max_dim)
    polys = []
    for _ in range(size):
        deg = rng.randint(1, max_deg)
        p = [rng.randint(-coeff, coeff) for _ in range(deg + 1)]
        if not any(p[1:]):
            p[rng.randint(1, deg)] = rng.choice([-2, -1, 1, 2])
        polys.append(p)
    return fm.polynomial_family(polys)


def with_dependent_member(fam, rng):
    """fam plus c1*phi_1 + c2*phi_size, a member in the span of the others,
    so that some splits are infeasible (random draws almost never have one)."""
    first, last = fam.polys[0], fam.polys[-1]
    c1, c2 = rng.choice([-2, -1, 1, 2]), rng.randint(-2, 2)
    width = max(len(first), len(last))
    pad = lambda p: list(p) + [0] * (width - len(p))
    combo = [c1 * x + c2 * y for x, y in zip(pad(first), pad(last))]
    if not any(combo[1:]):
        combo = list(first)
    return fm.polynomial_family(list(fam.polys) + [combo])


FAM_N_2N = fm.polynomial_family([[0, 1], [0, 2]])
FAM_N_NSQ = fm.polynomial_family([[0, 1], [0, 0, 1]])
FAM_6_10_15 = fm.polynomial_family([[0, 6], [0, 10], [0, 15]])


class TestIsRigidityGroup:
    def test_equal_group(self):
        assert dec.is_rigidity_group(lat.canonicalize([(2, -1)], 2), FAM_N_2N)

    def test_trivial_too_small(self):
        assert not dec.is_rigidity_group(lat.trivial(2), FAM_N_2N)

    def test_full_always_works(self):
        for fam in (FAM_N_2N, FAM_N_NSQ, FAM_6_10_15):
            assert dec.is_rigidity_group(lat.full(fam.size), fam)


class TestSplitFeasible:
    def test_n_2n_f2(self):
        assert dec.split_feasible(FAM_N_2N, {2}).feasible

    def test_n_2n_f1_witness(self):
        v = dec.split_feasible(FAM_N_2N, {1})
        assert not v.feasible
        assert v.witness_coordinate == 2
        assert v.witness_vector == (-2, 1)

    def test_n_2n_empty(self):
        assert dec.split_feasible(FAM_N_2N, set()).feasible

    def test_witness_postconditions(self):
        rng = random.Random(40)
        for _ in range(60):
            fam = random_poly_family(rng, max_dim=3, max_deg=3, coeff=4)
            A = fm.relation_group(fam)
            size = fam.size
            for mask in range(1 << size):
                F = {j + 1 for j in range(size) if mask >> j & 1}
                v = dec.split_feasible(fam, F)
                if not v.feasible:
                    a, j = v.witness_vector, v.witness_coordinate
                    assert lat.member(A, a)
                    escape = [
                        i + 1 for i, x in enumerate(a) if x and (i + 1) not in F
                    ]
                    assert escape == [j]
                    assert abs(a[j - 1]) == 1


class TestAllSplits:
    def test_6_10_15_all_feasible(self):
        table = dec.all_splits(FAM_6_10_15)
        assert len(table) == 8
        assert all(v.feasible for v in table.values())

    def test_n_2n_table(self):
        table = dec.all_splits(FAM_N_2N)
        feasible = {F for F, v in table.items() if v.feasible}
        assert feasible == {
            frozenset(),
            frozenset({2}),
            frozenset({1, 2}),
        }

    def test_n_nsq_all_feasible(self):
        table = dec.all_splits(FAM_N_NSQ)
        assert all(v.feasible for v in table.values())

    def test_slices_each_support_set_once(self, monkeypatch):
        # F + {j} is the same support set for every j outside F it adds;
        # all_splits slices it once and keeps no slice across calls.
        rng, dep_rng = random.Random(7), random.Random(8)
        families = [with_dependent_member(random_poly_family(rng, 4, 3), dep_rng)
                    for _ in range(12)]
        want = [{F: dec.split_feasible(fam, F) for F in dec.all_splits(fam)}
                for fam in families]
        sliced = []
        original = lat.intersect_coordinate_subspace

        def spy(A, S):
            sliced.append(frozenset(S))
            return original(A, S)

        monkeypatch.setattr(lat, "intersect_coordinate_subspace", spy)
        for fam, table in zip(families, want):
            sliced.clear()
            assert dec.all_splits(fam) == table
            assert sliced and len(sliced) == len(set(sliced))
            sliced.clear()
            dec.all_splits(fam)
            assert sliced


class TestInterpolationCondition:
    def test_6_10_15(self):
        assert dec.interpolation_condition(FAM_6_10_15).holds

    def test_n_2n(self):
        v = dec.interpolation_condition(FAM_N_2N)
        assert not v.holds
        assert v.witness_vector == (-2, 1)
        assert v.witness_coordinate == 2

    def test_n_nsq(self):
        assert dec.interpolation_condition(FAM_N_NSQ).holds

    def test_inadequate_family_fails(self):
        assert not dec.interpolation_condition(
            fm.polynomial_family([[1, 1], [0, 1]])
        ).holds

    def test_equivalent_to_all_splits_feasible(self):
        # Interpolation holds iff every subset F is feasible (exact
        # biconditional at the algebraic level).
        rng = random.Random(77)
        for _ in range(60):
            fam = random_poly_family(rng, max_dim=3, max_deg=3, coeff=4)
            interp = dec.interpolation_condition(fam).holds
            if fam.size > 6:
                continue
            all_ok = all(v.feasible for v in dec.all_splits(fam).values())
            adequate = fm.is_adequate(fam).adequate
            assert interp == (all_ok and adequate)


class TestPolyGroupCondition:
    def test_n_2n(self):
        assert dec.poly_group_condition(FAM_N_2N, {2})
        assert not dec.poly_group_condition(FAM_N_2N, {1})

    def test_sum_family(self):
        f = fm.polynomial_family([[0, 1], [0, 0, 1], [0, 1, 1]])
        assert not dec.poly_group_condition(f, {1, 2})

    def test_rejects_constant_terms(self):
        with pytest.raises(PreconditionError):
            dec.poly_group_condition(fm.polynomial_family([[1, 1], [0, 1]]), set())

    def test_cross_path_equivalence(self):
        # Coefficient-space route agrees with the relation-lattice route on
        # random zero-constant families, over every subset F.
        rng = random.Random(13)
        for _ in range(100):
            size = rng.randint(1, 4)
            polys = []
            for _ in range(size):
                deg = rng.randint(1, 4)
                p = [0] + [rng.randint(-5, 5) for _ in range(deg)]
                if not any(p):
                    p[deg] = 1
                polys.append(p)
            fam = fm.polynomial_family(polys)
            for mask in range(1 << size):
                F = {j + 1 for j in range(size) if mask >> j & 1}
                assert dec.poly_group_condition(fam, F) == dec.split_feasible(
                    fam, F
                ).feasible


class TestSplitWitnessGroup:
    def test_n_2n_f2(self):
        H = dec.split_witness_group(FAM_N_2N, {2})
        assert H == lat.canonicalize([(2, 0), (0, 1)], 2)
        assert lat.member(H, (0, 1))
        assert not lat.member(H, (1, 0))
        assert lat.member(H, (2, -1))

    def test_independent_full(self):
        assert dec.split_witness_group(FAM_N_NSQ, {1, 2}) == lat.full(2)

    def test_independent_empty(self):
        H = dec.split_witness_group(FAM_N_NSQ, set())
        assert H == lat.canonicalize([(2, 0), (0, 2)], 2)

    def test_infeasible_raises(self):
        with pytest.raises(PreconditionError):
            dec.split_witness_group(FAM_N_2N, {1})

    def test_witness_group_soundness(self):
        rng, dep_rng = random.Random(31), random.Random(32)
        refused = 0
        for _ in range(40):
            drawn = random_poly_family(rng, max_dim=3, max_deg=3, coeff=4)
            for fam in (drawn, with_dependent_member(drawn, dep_rng)):
                A = fm.relation_group(fam)
                size = fam.size
                for bad in ({0}, {size + 1}):
                    with pytest.raises(PreconditionError):
                        dec.split_witness_group(fam, bad)
                for mask in range(1 << size):
                    F = {j + 1 for j in range(size) if mask >> j & 1}
                    if not dec.split_feasible(fam, F).feasible:
                        with pytest.raises(PreconditionError):
                            dec.split_witness_group(fam, F)
                        refused += 1
                        continue
                    H = dec.split_witness_group(fam, F)
                    assert lat.index_in_ambient(H) != lat.INFINITE
                    for row in A.basis:
                        assert lat.member(H, row)
                    for j in range(1, size + 1):
                        assert lat.member(H, lat.standard_basis(size, j)) == (j in F)
        assert refused > 0


class TestOracleAgreement:
    def test_decider_matches_brute_force(self):
        rng, dep_rng = random.Random(2024), random.Random(2025)
        infeasible = 0
        for _ in range(60):
            drawn = random_poly_family(rng, max_dim=3, max_deg=3)
            for fam in (drawn, with_dependent_member(drawn, dep_rng)):
                size = fam.size
                table = dec.all_splits(fam)
                for mask in range(1 << size):
                    F = {j + 1 for j in range(size) if mask >> j & 1}
                    verdict = dec.split_feasible(fam, F)
                    # Verdict, witness vector and coordinate, field by field.
                    assert table[frozenset(F)] == verdict
                    oracle_ok, oracle_a, _ = brute_force_split(fam, F)
                    # Every brute-force violation must be caught.
                    if not oracle_ok:
                        assert not verdict.feasible
                    # Every decider infeasibility ships a valid witness.
                    if not verdict.feasible:
                        infeasible += 1
                        a, j = verdict.witness_vector, verdict.witness_coordinate
                        A = fm.relation_group(fam)
                        assert lat.member(A, a)
                        escape = [
                            i + 1 for i, x in enumerate(a) if x and (i + 1) not in F
                        ]
                        assert escape == [j] and abs(a[j - 1]) == 1
        assert infeasible > 0
