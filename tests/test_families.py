"""Sequence families: relation groups, adequacy, evaluation, reduction."""

import random
from fractions import Fraction

import pytest

from rigidlab import families as fam
from rigidlab import lattice as lat
from rigidlab.errors import (
    PrecisionInsufficient,
    PreconditionError,
    UndecidableFromSamples,
)

SQRT2 = "1.41421356237309504880"


def poly_eval(coeffs, n):
    return sum(c * n**i for i, c in enumerate(coeffs))


class TestConstruction:
    def test_constant_rejected(self):
        with pytest.raises(PreconditionError):
            fam.polynomial_family([[5]])

    def test_empty_rejected(self):
        with pytest.raises(PreconditionError):
            fam.polynomial_family([])

    def test_beatty_requires_assertion(self):
        with pytest.raises(PreconditionError):
            fam.beatty_family([SQRT2], independent=False)

    def test_ragged_table_rejected(self):
        with pytest.raises(PreconditionError):
            fam.explicit_family([[1, 2, 3], [1, 2]])


class TestRelationGroup:
    def test_n_2n(self):
        f = fam.polynomial_family([[0, 1], [0, 2]])
        assert fam.relation_group(f).basis == ((2, -1),)

    def test_shifted_pair_trivial(self):
        f = fam.polynomial_family([[1, 1], [2, 0, 1]])
        assert fam.relation_group(f).is_trivial()

    def test_6n_10n_15n(self):
        f = fam.polynomial_family([[0, 6], [0, 10], [0, 15]])
        expected = lat.kernel([[6], [10], [15]], 3, 1)
        assert fam.relation_group(f) == expected

    def test_beatty_trivial(self):
        f = fam.beatty_family([SQRT2], independent=True)
        assert fam.relation_group(f).is_trivial()

    def test_explicit_requires_assertion(self):
        f = fam.explicit_family([[1, 2, 3], [2, 4, 6]])
        with pytest.raises(UndecidableFromSamples):
            fam.relation_group(f)

    def test_explicit_echoes_assertion(self):
        L = lat.canonicalize([(2, -1)], 2)
        f = fam.explicit_family([[1, 2, 3], [2, 4, 6]], relations=L)
        assert fam.relation_group(f) == L

    def test_basis_vectors_are_exact_polynomial_relations(self):
        rng = random.Random(99)
        for _ in range(50):
            size = rng.randint(1, 4)
            polys = []
            for _ in range(size):
                deg = rng.randint(1, 4)
                p = [rng.randint(-5, 5) for _ in range(deg + 1)]
                if not any(p[1:]):
                    p[deg] = 1
                polys.append(p)
            f = fam.polynomial_family(polys)
            A = fam.relation_group(f)
            width = f.max_degree + 1
            for a in A.basis:
                combo = [0] * width
                for c, p in zip(a, f.coefficient_matrix()):
                    for i, x in enumerate(p):
                        combo[i] += c * x
                assert not any(combo)


class TestAdequacy:
    def test_n_2n_adequate(self):
        verdict = fam.is_adequate(fam.polynomial_family([[0, 1], [0, 2]]))
        assert verdict.adequate

    def test_difference_tending_to_one(self):
        verdict = fam.is_adequate(fam.polynomial_family([[1, 1], [0, 1]]))
        assert not verdict.adequate
        assert verdict.certificate in ((1, -1), (-1, 1))
        # Certificate really tends to a nonzero constant: (n+1) - n = 1.
        a = verdict.certificate
        for n in (10, 100):
            val = a[0] * (n + 1) + a[1] * n
            assert val == a[0] * 1

    def test_shifted_monomials(self):
        f = fam.polynomial_family([[1, 1], [2, 0, 1], [3, 0, 0, 1]])
        assert fam.is_adequate(f).adequate

    def test_growth_property_when_adequate(self):
        # Sampled consequence: nonzero combinations either vanish as exact
        # relations or grow strictly between n = 10^3 and 10^4.
        rng = random.Random(5)
        for _ in range(10):
            size = rng.randint(1, 3)
            polys = []
            for _ in range(size):
                deg = rng.randint(1, 3)
                p = [rng.randint(-4, 4) for _ in range(deg + 1)]
                if not any(p[1:]):
                    p[deg] = 2
                polys.append(p)
            f = fam.polynomial_family(polys)
            if not fam.is_adequate(f):
                continue
            A = fam.relation_group(f)
            for _ in range(200):
                a = tuple(rng.randint(-10, 10) for _ in range(size))
                v1 = abs(sum(ai * poly_eval(p, 10**3) for ai, p in zip(a, polys)))
                v2 = abs(sum(ai * poly_eval(p, 10**4) for ai, p in zip(a, polys)))
                if v1 == 0 and v2 == 0:
                    assert lat.member(A, a)
                else:
                    assert v2 > v1


class TestEvaluate:
    def test_polynomials(self):
        f = fam.polynomial_family([[0, 1], [0, 0, 1]])
        assert fam.evaluate(f, 3) == (3, 9)
        g = fam.polynomial_family([[1, 1], [2, 0, 1]])
        assert fam.evaluate(g, 2) == (3, 6)

    def test_beatty_sqrt2(self):
        f = fam.beatty_family([SQRT2], independent=True)
        assert fam.evaluate(f, 5) == (7,)  # 5 sqrt(2) = 7.071...
        assert fam.evaluate(f, 12) == (16,)  # 16.97...

    def test_beatty_precision_guard(self):
        # alpha = 0.50 with error 10^-2: 2*alpha = 1.00 is too close to 1.
        f = fam.beatty_family(["0.50"], independent=True)
        with pytest.raises(PrecisionInsufficient):
            fam.evaluate(f, 2)

    def test_beatty_precision_from_exponent(self):
        # 1.4142e2 = 141.42 is written to 1/100, so 7 alpha = 989.94 may
        # reach 990.01 and floor(7 alpha) is not certified.
        f = fam.beatty_family(["1.4142e2", "2.5E1"], independent=True)
        assert f.alpha_errors == (Fraction(1, 100), Fraction(1))
        with pytest.raises(PrecisionInsufficient):
            fam.evaluate(f, 7)

    def test_explicit_table(self):
        f = fam.explicit_family([[5, 7, 9]])
        assert fam.evaluate(f, 2) == (7,)
        with pytest.raises(PreconditionError):
            fam.evaluate(f, 4)


class TestReduceFamily:
    def test_n_2n_nsq(self):
        f = fam.polynomial_family([[0, 1], [0, 2], [0, 0, 1]])
        G = lat.lattice_sum(fam.relation_group(f), lat.canonicalize([(0, 1, 0)], 3))
        red, g_tilde = fam.reduce_family(f, G)
        assert red.indices == (1, 3)
        assert red.relations[1] == (2, 0)
        assert red.denominators[1] == 1
        assert red.scale == 1

    def test_independent_pair_identity(self):
        f = fam.polynomial_family([[0, 1], [0, 0, 1]])
        red, g_tilde = fam.reduce_family(f, lat.full(2))
        assert red.indices == (1, 2)
        assert red.scale == 1
        assert g_tilde == lat.full(2)

    def test_2n_3n(self):
        f = fam.polynomial_family([[0, 2], [0, 3]])
        G = lat.canonicalize([(3, -2)], 2)
        red, g_tilde = fam.reduce_family(f, G)
        assert red.indices == (1,)
        assert red.relations[0] == (1,) and red.denominators[0] == 1
        assert red.relations[1] == (3,) and red.denominators[1] == 2
        assert red.scale == 2
        # Image of (3,-2): 3*(scale/b_1)*1 + (-2)*(scale/b_2)*3 = 6 - 6 = 0.
        assert g_tilde.is_trivial()

    def test_requires_containment(self):
        f = fam.polynomial_family([[0, 1], [0, 2]])
        with pytest.raises(PreconditionError):
            fam.reduce_family(f, lat.trivial(2))

    def test_relation_replay_and_image_correctness(self):
        rng = random.Random(21)
        done = 0
        while done < 40:
            size = rng.randint(1, 4)
            polys = []
            for _ in range(size):
                deg = rng.randint(1, 3)
                p = [0] + [rng.randint(-4, 4) for _ in range(deg)]
                if not any(p[1:]):
                    p[deg] = 1
                polys.append(p)
            f = fam.polynomial_family(polys)
            if not fam.is_adequate(f):
                continue
            A = fam.relation_group(f)
            extra = [
                tuple(rng.randint(-2, 2) for _ in range(size))
                for _ in range(rng.randint(0, 2))
            ]
            G = lat.lattice_sum(A, lat.canonicalize(extra, size))
            red, g_tilde = fam.reduce_family(f, G)
            matrix = f.coefficient_matrix()
            width = len(matrix[0])
            # Identity replay: sum_r b_r p_{j_r} = b_j p_j coefficient-wise,
            # with the gcd normalization and scale = prod b_j.
            import math

            prod = 1
            for j in range(size):
                combo = [0] * width
                for b, idx in zip(red.relations[j], red.indices):
                    for i, x in enumerate(matrix[idx - 1]):
                        combo[i] += b * x
                target = [red.denominators[j] * x for x in matrix[j]]
                assert combo == target
                assert red.denominators[j] > 0
                if j + 1 in red.indices:
                    unit = tuple(int(idx == j + 1) for idx in red.indices)
                    assert red.relations[j] == unit and red.denominators[j] == 1
                g = red.denominators[j]
                for b in red.relations[j]:
                    g = math.gcd(g, b)
                assert g == 1
                prod *= red.denominators[j]
            assert prod == red.scale
            c = len(red.indices)
            # d in G iff image in G~ (both directions, sampled).
            for _ in range(100):
                if G.basis:
                    coeffs = [rng.randint(-3, 3) for _ in G.basis]
                    d = tuple(
                        sum(cf * row[i] for cf, row in zip(coeffs, G.basis))
                        for i in range(size)
                    )
                    a = tuple(
                        sum(red.image_map[r][j] * d[j] for j in range(size))
                        for r in range(c)
                    )
                    assert lat.member(g_tilde, a)
            for _ in range(100):
                d = tuple(rng.randint(-3, 3) for _ in range(size))
                if lat.member(G, d):
                    continue
                a = tuple(
                    sum(red.image_map[r][j] * d[j] for j in range(size))
                    for r in range(c)
                )
                assert not lat.member(g_tilde, a)
            done += 1


class TestDetectRelations:
    def test_finds_doubling(self):
        table = [[n for n in range(1, 101)], [2 * n for n in range(1, 101)]]
        f = fam.explicit_family(table)
        L = fam.detect_relations(f, coeff_bound=3, tail_window=50)
        assert L.basis == ((2, -1),)

    def test_squares_trivial(self):
        table = [[n for n in range(1, 101)], [n * n for n in range(1, 101)]]
        f = fam.explicit_family(table)
        assert fam.detect_relations(f, 3, 50).is_trivial()

    def test_oscillation_trivial(self):
        table = [
            [n for n in range(1, 101)],
            [n + (-1) ** n for n in range(1, 101)],
        ]
        f = fam.explicit_family(table)
        assert fam.detect_relations(f, 1, 50).is_trivial()
