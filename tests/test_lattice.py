"""Lattice algebra: worked examples frozen against brute-force oracles,
plus the structural invariants."""

import math
import random
import signal
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rigidlab import deciders as dec
from rigidlab import families as fm
from rigidlab import lattice as lat
from rigidlab.errors import CapExceeded, DimensionMismatch, PreconditionError


def brute_span_membership(gens, v, box=12):
    """Oracle: is v an integer combination of gens with coefficients in a box?"""
    if not gens:
        return all(x == 0 for x in v)
    for coeffs in product(range(-box, box + 1), repeat=len(gens)):
        w = [sum(c * g[i] for c, g in zip(coeffs, gens)) for i in range(len(v))]
        if tuple(w) == tuple(v):
            return True
    return False


def brute_kernel_vectors(matrix, dim, bound=10):
    """Oracle: all a with |a_i| <= bound and a M = 0."""
    cols = len(matrix[0])
    out = []
    for a in product(range(-bound, bound + 1), repeat=dim):
        if all(sum(a[i] * matrix[i][j] for i in range(dim)) == 0 for j in range(cols)):
            if any(a):
                out.append(a)
    return out


class TestCanonicalize:
    def test_already_canonical(self):
        L = lat.canonicalize([(2, 0), (0, 2)], 2)
        assert L.basis == ((2, 0), (0, 2))

    def test_dependent_rows_collapse(self):
        L = lat.canonicalize([(2, 4), (4, 8)], 2)
        assert L.basis == ((2, 4),)

    def test_sign_and_zero_rows(self):
        # Oracle: brute-force span enumeration on the |entries| <= 4 box agrees.
        L = lat.canonicalize([(-2, 1), (2, -1), (0, 0)], 2)
        assert L.basis == ((2, -1),)
        for v in product(range(-4, 5), repeat=2):
            assert lat.member(L, v) == brute_span_membership([(-2, 1)], v)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            lat.canonicalize([(1, 2, 3)], 2)


class TestMember:
    def test_simple(self):
        L = lat.canonicalize([(2, -1)], 2)
        assert lat.member(L, (4, -2))
        assert not lat.member(L, (1, 0))

    def test_kernel_element(self):
        # 5*6 - 3*10 + 0*15 = 0, checked by hand.
        K = lat.kernel([[6], [10], [15]], 3, 1)
        assert lat.member(K, (5, -3, 0))

    def test_dim_check(self):
        with pytest.raises(DimensionMismatch):
            lat.member(lat.canonicalize([(1,)], 1), (1, 2))


class TestKernel:
    def test_n_2n(self):
        # Coefficient matrix of (n, 2n): rows (0,1), (0,2); relation a+2b=0.
        K = lat.kernel([[0, 1], [0, 2]], 2, 2)
        assert K.basis == ((2, -1),)

    def test_n_nsq_trivial(self):
        K = lat.kernel([[0, 1, 0], [0, 0, 1]], 2, 3)
        assert K.is_trivial()

    def test_6_10_15(self):
        K = lat.kernel([[6], [10], [15]], 3, 1)
        assert K.rank == 2
        assert lat.member(K, (5, -3, 0))
        assert lat.member(K, (0, 3, -2))
        # Saturated: every brute-force relation is a member.
        for a in brute_kernel_vectors([[6], [10], [15]], 3, bound=10):
            assert lat.member(K, a)

    def test_kernel_membership_duality_random(self):
        rng = random.Random(7)
        for trial in range(1000):
            dim = rng.randint(1, 7)
            cols = rng.randint(0, 4)
            bound = 0 if trial % 10 == 0 else 100  # every tenth M is zero
            M = [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(dim)]
            if dim > 1 and rng.random() < 0.2:
                M[rng.randrange(dim)] = [0] * cols
            K = lat.kernel(M, dim, cols)
            for row in K.basis:
                assert all(
                    sum(row[i] * M[i][j] for i in range(dim)) == 0 for j in range(cols)
                )
            if not any(map(any, M)):
                assert K == lat.full(dim)
            # Saturated: a primitive combination of the basis is a member.
            if K.basis:
                c = [rng.randint(-3, 3) for _ in K.basis]
                v = [sum(x * row[i] for x, row in zip(c, K.basis)) for i in range(dim)]
                g = math.gcd(*v)
                if g:
                    assert lat.member(K, [x // g for x in v])
            a = tuple(rng.randint(-4, 4) for _ in range(dim))
            in_kernel = all(
                sum(a[i] * M[i][j] for i in range(dim)) == 0 for j in range(cols)
            )
            assert lat.member(K, a) == in_kernel


class TestCoordinateSlices:
    def test_full_set_is_identity(self):
        L = lat.canonicalize([(2, -1)], 2)
        assert lat.intersect_coordinate_subspace(L, {1, 2}) == L

    def test_no_element_survives(self):
        # Oracle: brute force over |coeff| <= 10 finds no element with a_2 = 0.
        L = lat.canonicalize([(2, -1)], 2)
        assert lat.intersect_coordinate_subspace(L, {1}).is_trivial()

    def test_axis_of_full_lattice(self):
        Z2 = lat.full(2)
        assert lat.intersect_coordinate_subspace(Z2, {2}).basis == ((0, 1),)

    def test_slice_oracle_random(self):
        rng = random.Random(11)
        for _ in range(50):
            dim = rng.randint(2, 4)
            gens = [
                tuple(rng.randint(-3, 3) for _ in range(dim))
                for _ in range(rng.randint(1, dim))
            ]
            L = lat.canonicalize(gens, dim)
            keep = {j for j in range(1, dim + 1) if rng.random() < 0.6}
            S = lat.intersect_coordinate_subspace(L, keep)
            # Every slice element is an L-element supported on `keep`.
            for row in S.basis:
                assert lat.member(L, row)
                assert all(row[j - 1] == 0 for j in range(1, dim + 1) if j not in keep)
            # Brute force over small combinations finds nothing outside S.
            if L.basis:
                for coeffs in product(range(-3, 4), repeat=L.rank):
                    v = tuple(
                        sum(c * g[i] for c, g in zip(coeffs, L.basis))
                        for i in range(dim)
                    )
                    if all(v[j - 1] == 0 for j in range(1, dim + 1) if j not in keep):
                        assert lat.member(S, v)


class TestCoordinateImageGcd:
    def test_span_2_minus1(self):
        L = lat.canonicalize([(2, -1)], 2)
        assert lat.coordinate_image_gcd(L, 1) == 2
        assert lat.coordinate_image_gcd(L, 2) == 1

    def test_trivial(self):
        assert lat.coordinate_image_gcd(lat.trivial(3), 2) == 0

    def test_6_10_15_crt(self):
        # Oracle: CRT reasoning mod 2, 3, 5 says the images are 5Z, 3Z, 2Z.
        K = lat.kernel([[6], [10], [15]], 3, 1)
        assert [lat.coordinate_image_gcd(K, j) for j in (1, 2, 3)] == [5, 3, 2]

    def test_matches_enumeration(self):
        rng = random.Random(3)
        for _ in range(40):
            dim = rng.randint(1, 4)
            gens = [
                tuple(rng.randint(-5, 5) for _ in range(dim))
                for _ in range(rng.randint(1, dim))
            ]
            L = lat.canonicalize(gens, dim)
            if L.is_trivial():
                continue
            # every combination of the basis rows with coefficients in
            # [-20, 20], as broadcast grids; |v| stays far inside int64
            grids = np.meshgrid(*[np.arange(-20, 21)] * L.rank, indexing="ij", sparse=True)
            for j in range(1, dim + 1):
                column = [g[j - 1] for g in L.basis]
                assert 20 * sum(map(abs, column)) < 2**62
                v = sum(c * int(x) for c, x in zip(grids, column))
                best = int(np.gcd.reduce(np.abs(v), axis=None))
                if best:
                    assert lat.coordinate_image_gcd(L, j) == best


class TestLatticeSum:
    def test_even_first_coordinate(self):
        S = lat.lattice_sum(
            lat.canonicalize([(2, -1)], 2), lat.canonicalize([(0, 1)], 2)
        )
        assert S.basis == ((2, 0), (0, 1))
        for v in product(range(-4, 5), repeat=2):
            assert lat.member(S, v) == (v[0] % 2 == 0)

    def test_trivial_neutral(self):
        L = lat.canonicalize([(3, 1)], 2)
        assert lat.lattice_sum(L, lat.trivial(2)) == L

    def test_axes_sum_to_full(self):
        S = lat.lattice_sum(
            lat.canonicalize([(1, 0)], 2), lat.canonicalize([(0, 1)], 2)
        )
        assert S == lat.full(2)


class TestIndex:
    def test_finite(self):
        assert lat.index_in_ambient(lat.canonicalize([(2, 0), (0, 1)], 2)) == 2
        assert lat.index_in_ambient(lat.canonicalize([(2, 0), (0, 3)], 2)) == 6

    def test_rank_deficient(self):
        assert lat.index_in_ambient(lat.canonicalize([(2, -1)], 2)) == lat.INFINITE


class TestFiniteIndexExtension:
    def test_already_working_group(self):
        G = lat.canonicalize([(2, 0), (0, 1)], 2)
        H = lat.finite_index_extension(G, [(1, 0)])
        assert H == G

    def test_trivial_in_z1(self):
        H = lat.finite_index_extension(lat.trivial(1), [(1,)])
        assert H.basis == ((2,),)

    def test_diagonal_parity_group(self):
        G = lat.canonicalize([(1, 1)], 2)
        H = lat.finite_index_extension(G, [(1, 0), (0, 1)])
        assert lat.index_in_ambient(H) == 2
        assert lat.member(H, (1, 1))
        assert not lat.member(H, (1, 0))
        assert not lat.member(H, (0, 1))

    def test_excluded_inside_raises(self):
        with pytest.raises(PreconditionError):
            lat.finite_index_extension(lat.full(2), [(1, 0)])

    def test_postconditions_random(self):
        rng = random.Random(1234)
        checked = 0
        for _ in range(300):
            dim = rng.randint(1, 4)
            gens = [
                tuple(rng.randint(-4, 4) for _ in range(dim))
                for _ in range(rng.randint(0, dim))
            ]
            G = lat.canonicalize(gens, dim)
            excluded = []
            for _ in range(rng.randint(1, 3)):
                v = tuple(rng.randint(-5, 5) for _ in range(dim))
                if not lat.member(G, v):
                    excluded.append(v)
            if not excluded:
                continue
            H = lat.finite_index_extension(G, excluded)
            assert lat.index_in_ambient(H) != lat.INFINITE
            for g in G.basis:
                assert lat.member(H, g)
            for v in excluded:
                assert not lat.member(H, v)
            checked += 1
        assert checked > 150


@contextmanager
def time_limit(seconds, what):
    """Raise TimeoutError in the block after `seconds`: a hang fails the test."""

    def too_slow(signum, frame):
        raise TimeoutError(f"{what} did not finish in {seconds} s")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def extension_search_oracle(G, excluded):
    """The full-dimension search the quotient one replaced: for N = 2, 3, ...
    canonicalize G + N Z^l from its raw rows and test every excluded vector
    in all l coordinates."""
    excluded = [tuple(v) for v in excluded]
    for v in excluded:
        if lat.member(G, v):
            raise PreconditionError(
                f"excluded vector {v} already lies in G; no extension exists"
            )
    dim, n = G.ambient_dim, 2
    while True:
        scaled = [[n * (i == j) for j in range(dim)] for i in range(dim)]
        H = lat.canonicalize(list(G.basis) + scaled, dim)
        if not any(lat.member(H, v) for v in excluded):
            return H
        n += 1


def _outcome(search, G, excluded):
    """The basis `search` returns, or the text of its PreconditionError.

    A search that never finds N (a wrong quotient can keep an excluded
    vector inside every G + N Z^l) fails on the time limit.
    """
    try:
        with time_limit(10, "the extension search"):
            return search(G, excluded).basis
    except PreconditionError as err:
        return str(err)


@st.composite
def extension_instances(draw, nonempty=False):
    """(G, excluded) over Z^1..Z^6.  G is trivial, full, spanned by rows with
    unit pivots only, unit rows plus arbitrary ones, rank-deficient or
    arbitrary; excluded mixes arbitrary vectors with unit vectors."""
    dim = draw(st.integers(1, 6))
    vec = st.tuples(*[st.integers(-3, 3)] * dim)
    unit = lambda j: tuple(int(i == j) for i in range(dim))
    kind = draw(st.sampled_from(["trivial", "full", "unit", "mixed", "deficient", "any"]))
    gens = []
    if kind == "full":
        gens = [unit(j) for j in range(dim)]
    if kind in ("unit", "mixed"):
        for u in draw(st.lists(st.integers(0, dim - 1), unique=True)):
            tail = draw(st.tuples(*[st.integers(-3, 3)] * (dim - u - 1)))
            gens.append((0,) * u + (1,) + tail)
    if kind in ("mixed", "any"):
        gens += draw(st.lists(vec, max_size=dim + 1))
    if kind == "deficient":
        gens = draw(st.lists(vec, max_size=dim - 1))
    G = lat.canonicalize(gens, dim)
    # Bounds the torsion of Z^l / G, hence N and the oracle's scan.
    assume(math.prod(next(x for x in row if x) for row in G.basis) <= 1000)
    units = [unit(j) for j in draw(st.lists(st.integers(0, dim - 1), unique=True))]
    excluded = draw(st.permutations(draw(st.lists(vec, max_size=3)) + units))
    if nonempty:
        excluded = [v for v in excluded if not lat.member(G, v)]
        assume(excluded)
    return G, excluded


@st.composite
def families_with_dependents(draw):
    """1 to 7 polynomials of degree <= 3; about half of them are integer
    combinations of two earlier members (repeats, multiples, sums), so that
    A(phi) is nontrivial and some splits are infeasible."""
    polys = []
    for _ in range(draw(st.integers(1, 7))):
        if polys and draw(st.booleans()):
            p, q = draw(st.sampled_from(polys)), draw(st.sampled_from(polys))
            a, b = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
            poly = [a * x + b * y for x, y in zip(p, q)]
        else:
            poly = draw(st.lists(st.integers(-3, 3), min_size=4, max_size=4))
        assume(any(poly[1:]))  # constant members are refused
        polys.append(poly)
    return polys


class TestQuotientSearch:
    """finite_index_extension against the full-dimension search it replaced."""

    @settings(max_examples=400, deadline=None)
    @given(extension_instances())
    def test_matches_full_dimension_search(self, instance):
        G, excluded = instance
        assert _outcome(lat.finite_index_extension, G, excluded) == _outcome(
            extension_search_oracle, G, excluded
        )

    @settings(max_examples=200, deadline=None)
    @given(extension_instances(nonempty=True))
    def test_n_is_smallest(self, instance):
        # H = G + N Z^l, where N Z^l lies inside H; as H is not Z^l, N is
        # the exponent of Z^l / H, the smallest n >= 2 with n Z^l in H.
        # Every M in 2..N-1 leaves some excluded vector in G + M Z^l.
        G, excluded = instance
        dim = G.ambient_dim
        with time_limit(10, "the extension search"):
            H = lat.finite_index_extension(G, excluded)
        scaled = lambda m: [[m * (i == j) for j in range(dim)] for i in range(dim)]
        index = lat.index_in_ambient(H)
        assert index != lat.INFINITE
        n = next(
            m for m in range(2, index + 1) if all(lat.member(H, r) for r in scaled(m))
        )
        assert lat.canonicalize(list(G.basis) + scaled(n), dim) == H
        for m in range(2, n):
            H_m = lat.canonicalize(list(G.basis) + scaled(m), dim)
            assert any(lat.member(H_m, v) for v in excluded)

    @settings(max_examples=100, deadline=None)
    @given(families_with_dependents())
    def test_split_witness_group_matches(self, polys):
        fam = fm.polynomial_family(polys)
        A = fm.relation_group(fam)
        size = fam.size
        for mask in range(1 << size):
            F = {j + 1 for j in range(size) if mask >> j & 1}
            G = lat.lattice_sum(
                A, lat.canonicalize([lat.standard_basis(size, i) for i in sorted(F)], size)
            )
            excluded = [lat.standard_basis(size, j) for j in range(1, size + 1) if j not in F]
            expected = _outcome(extension_search_oracle, G, excluded)
            with time_limit(10, "the witness search"):
                if isinstance(expected, str):
                    with pytest.raises(PreconditionError):
                        dec._split_witness_group(A, F)
                else:
                    assert dec._split_witness_group(A, F).basis == expected


class TestAnnihilator:
    def test_2z(self):
        A = lat.annihilator(lat.canonicalize([(2,)], 1))
        assert A.finite_reps == ((Fraction(0),), (Fraction(1, 2),))
        assert A.torus_directions.is_trivial()

    def test_trivial_gives_full_circle(self):
        A = lat.annihilator(lat.trivial(1))
        assert A.finite_reps == ((Fraction(0),),)
        assert A.torus_directions.basis == ((1,),)

    def test_2z_x_3z(self):
        A = lat.annihilator(lat.canonicalize([(2, 0), (0, 3)], 2))
        reps = set(A.finite_reps)
        expected = {
            (Fraction(i, 2), Fraction(j, 3)) for i in range(2) for j in range(3)
        }
        assert reps == expected
        # Direct check of the character condition for every representative.
        for y in reps:
            assert (2 * y[0]) % 1 == 0 and (3 * y[1]) % 1 == 0

    def test_rep_annihilates_basis(self):
        rng = random.Random(5)
        for _ in range(40):
            dim = rng.randint(1, 3)
            gens = [
                tuple(rng.randint(-4, 4) for _ in range(dim))
                for _ in range(rng.randint(1, dim))
            ]
            G = lat.canonicalize(gens, dim)
            A = lat.annihilator(G)
            for y in A.finite_reps:
                for a in G.basis:
                    assert sum(Fraction(c) * yc for c, yc in zip(a, y)) % 1 == 0
            for d in A.torus_directions.basis:
                for a in G.basis:
                    assert sum(c * dc for c, dc in zip(a, d)) == 0

    def test_rep_count_equals_index(self):
        rng = random.Random(17)
        for _ in range(30):
            dim = rng.randint(1, 3)
            diag = [rng.randint(1, 5) for _ in range(dim)]
            # Upper triangular with a nonzero diagonal: full rank, and the
            # index is the product of the diagonal.
            gens = [
                tuple(0 if i < j else diag[j] if i == j else rng.randint(-9, 9) for i in range(dim))
                for j in range(dim)
            ]
            G = lat.canonicalize(gens, dim)
            A = lat.annihilator(G)
            assert lat.index_in_ambient(G) == math.prod(diag)
            assert len(A.finite_reps) == math.prod(diag)

    def test_cap(self):
        G = lat.canonicalize([(1009, 0), (0, 1013)], 2)
        with pytest.raises(CapExceeded):
            lat.annihilator(G)


class TestCharacterIntegral:
    def test_basic(self):
        G = lat.canonicalize([(2,)], 1)
        assert lat.character_integral(G, (2,)) == 1
        assert lat.character_integral(G, (1,)) == 0

    def test_diagonal(self):
        G = lat.canonicalize([(1, 1)], 2)
        assert lat.character_integral(G, (3, 3)) == 1

    def test_kernel_member(self):
        K = lat.kernel([[6], [10], [15]], 3, 1)
        assert lat.character_integral(K, (5, -3, 0)) == 1

    def test_duality_by_character_sum(self):
        # (1/|reps|) sum over reps of e^{2 pi i <a,y>} must hit exactly the
        # membership indicator for finite-index G (double annihilator).
        import cmath

        rng = random.Random(23)
        for _ in range(10):
            dim = rng.randint(1, 2)
            diag = [rng.randint(1, 4) for _ in range(dim)]
            gens = [
                [diag[j] if i == j else rng.randint(0, 2) for i in range(dim)]
                for j in range(dim)
            ]
            G = lat.canonicalize(gens, dim)
            if lat.index_in_ambient(G) == lat.INFINITE:
                continue
            A = lat.annihilator(G)
            for a in product(range(-5, 6), repeat=dim):
                s = sum(
                    cmath.exp(2j * cmath.pi * float(sum(Fraction(c) * y for c, y in zip(a, rep))))
                    for rep in A.finite_reps
                ) / len(A.finite_reps)
                assert abs(s - lat.character_integral(G, a)) < 1e-12


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda d: st.lists(
            st.tuples(*[st.integers(-30, 30)] * d), min_size=0, max_size=d + 1
        ).map(lambda vs: (d, vs))
    )
)
def test_canonical_idempotence(data):
    dim, vecs = data
    L = lat.canonicalize(vecs, dim)
    assert lat.canonicalize(L.basis, dim) == L


def _det(m):
    """Integer determinant by cofactor expansion along the first row."""
    if not m:
        return 1
    return sum(
        (-1) ** j * m[0][j] * _det([row[:j] + row[j + 1 :] for row in m[1:]])
        for j in range(len(m))
    )


def _minor_gcd(basis, dim):
    """gcd of the k x k minors of a k x dim basis: the index [S : G] of G in
    its saturation S."""
    g = 0
    for cols in combinations(range(dim), len(basis)):
        g = math.gcd(g, _det([[row[c] for c in cols] for row in basis]))
    return g


def _bases(dim_max, entry):
    """(dim, 0 to dim + 1 generators with entries in [-entry, entry])."""
    return st.integers(1, dim_max).flatmap(
        lambda d: st.lists(
            st.tuples(*[st.integers(-entry, entry)] * d), min_size=0, max_size=d + 1
        ).map(lambda vs: (d, vs))
    )


@settings(max_examples=100, deadline=None)
@given(_bases(3, 4))
def test_annihilator_full_rank_matches_brute_force(data):
    # A full-rank G of index N has N Z^l inside it, so A_G lies in the
    # N-torsion of T^l: it is the set of c/N with B c / N integral.
    dim, vecs = data
    G = lat.canonicalize(vecs, dim)
    N = lat.index_in_ambient(G)
    assume(N != lat.INFINITE and N**dim <= 20_000)
    expected = {
        tuple(Fraction(x, N) for x in c)
        for c in product(range(N), repeat=dim)
        if all(sum(b * x for b, x in zip(row, c)) % N == 0 for row in G.basis)
    }
    A = lat.annihilator(G)
    assert set(A.finite_reps) == expected
    assert list(A.finite_reps) == sorted(expected)
    assert A.torus_directions.is_trivial()


@settings(max_examples=150, deadline=None)
@given(_bases(4, 6))
def test_annihilator_any_rank_oracles(data):
    dim, vecs = data
    G = lat.canonicalize(vecs, dim)
    count = _minor_gcd(G.basis, dim)
    assume(count <= 3_000)
    A = lat.annihilator(G)
    assert len(A.finite_reps) == count
    dirs = A.torus_directions
    transpose = [[row[j] for row in G.basis] for j in range(dim)]
    assert dirs == lat.kernel(transpose, dim, G.rank)
    assert dirs.rank == dim - G.rank
    for d in dirs.basis:
        assert all(sum(a * x for a, x in zip(row, d)) == 0 for row in G.basis)
    for y in A.finite_reps:
        assert all(0 <= c < 1 for c in y)
        for row in G.basis:
            assert sum(a * c for a, c in zip(row, y)) % 1 == 0
    # y and y' differ by the torus exactly when every integer vector
    # orthogonal to the directions pairs integrally with y - y'.
    perp = lat.kernel(
        [[d[j] for d in dirs.basis] for j in range(dim)], dim, dirs.rank
    )
    images = {
        tuple(sum(a * c for a, c in zip(s, y)) % 1 for s in perp.basis)
        for y in A.finite_reps
    }
    assert len(images) == count


def test_annihilator_on_repeated_pivot_basis():
    # An elimination that let xgcd(p, p) undo its own pivot step looped
    # forever on this basis; the alarm turns a hang into a failure.
    with time_limit(10, "annihilator"):
        G = lat.canonicalize([(-3, -6, 5), (-5, 6, -4), (-7, 0, 2)], 3)
        A = lat.annihilator(G)
    assert len(A.finite_reps) == 54 == lat.index_in_ambient(G)
    assert A.torus_directions.is_trivial()
