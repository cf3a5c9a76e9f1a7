"""Exact correlation integrals against Haar measures of annihilator groups.

The integrals have the shape

    avg over finite reps y* of  int_T 1_B(y) prod_f 1_B(y + shift_f) dy,

where each factor's shift is an affine combination of the representative's
coordinates and up to two free torus coordinates that integrate out as
independent uniforms.  Everything is computed in rational arithmetic.

For a fixed representative, a factor tied to a free coordinate z with integer
coefficient c contributes through

    g(y) = int_T prod_f 1_B(y + t_f + c_f z) dz,

the measure of an intersection of rigidly translating arc unions.  g is
piecewise linear in y with kinks only where two endpoint trajectories of
different speeds meet, all of which are rational and enumerable.  The outer
integrand is then piecewise polynomial of degree <= number of free
coordinates, and a three-interior-node rule integrates each piece exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .circleset import CircleSet, intersect_all
from .errors import PreconditionError, UnsupportedShape

MAX_FREE_COORDS = 2


@dataclass(frozen=True)
class FactorPattern:
    """shift = sum(rep_coeffs . rep) + free_coef * z_{free_var}."""

    rep_coeffs: tuple[int, ...] = ()
    free_var: int | None = None
    free_coef: int = 0

    @staticmethod
    def of(rep_coeffs=(), free_var=None, free_coef=0) -> "FactorPattern":
        if free_var is not None and free_coef == 0:
            raise PreconditionError("free variable declared with zero coefficient")
        return FactorPattern(tuple(int(c) for c in rep_coeffs), free_var, int(free_coef))


def _three_node_integral(f, lo: Fraction, hi: Fraction) -> Fraction:
    """Exact integral of a polynomial of degree <= 2 from samples at the
    quarter points (all interior, so indicator pieces are unambiguous)."""
    length = hi - lo
    q = length / 4
    return length * (2 * f(lo + q) - f(lo + 2 * q) + 2 * f(lo + 3 * q)) / 3


def _g_value(B: CircleSet, offsets: list[Fraction], coefs: list[int], y: Fraction) -> Fraction:
    sets = [B.shift(-(y + t)).scale_preimage(c) for t, c in zip(offsets, coefs)]
    return intersect_all(sets).measure()


def _g_kinks(B: CircleSet, offsets: list[Fraction], coefs: list[int]) -> set[Fraction]:
    """y-values where the z-measure can change slope.

    Endpoint trajectories of factor f sit at z with c_f z = e - t_f - y
    (mod 1); two trajectories of factors with different coefficients meet at
    rationals y solving c_g(e - t_f) - c_f(e' - t_g) - y(c_g - c_f) in
    gcd(c_f, c_g) Z.
    """
    ends = B.endpoints()
    kinks: set[Fraction] = set()
    n = len(offsets)
    for i in range(n):
        for j in range(i + 1, n):
            ci, cj = coefs[i], coefs[j]
            if ci == cj:
                continue
            denom = cj - ci
            # The kinks y = (base + g k)/denom, g = gcd(ci, cj), form a
            # progression of step s = g/|denom| <= 1, since g divides denom.
            s = Fraction(gcd(ci, cj), abs(denom))
            for e in ends:
                for e2 in ends:
                    base = cj * (e - offsets[i]) - ci * (e2 - offsets[j])
                    t = (base / denom) % s  # the least kink in [0, 1)
                    while t < 1:
                        kinks.add(t)
                        t += s
    return kinks


def _single_rep_integral(
    B: CircleSet, factors: Sequence[FactorPattern], rep: list[Fraction]
) -> Fraction:
    if B.is_empty():
        return Fraction(0)
    static_shifts: list[Fraction] = []
    free_groups: dict[int, tuple[list[Fraction], list[int]]] = {}
    for f in factors:
        t = sum((c * r for c, r in zip(f.rep_coeffs, rep) if c), Fraction(0)) % 1
        if f.free_var is None:
            static_shifts.append(t)
        else:
            offs, cs = free_groups.setdefault(f.free_var, ([], []))
            offs.append(t)
            cs.append(f.free_coef)
    constant_factor = Fraction(1)
    varying: list[tuple[list[Fraction], list[int]]] = []
    for offs, cs in free_groups.values():
        if len(offs) == 1:
            constant_factor *= B.measure()  # single translate integrates freely
        else:
            varying.append((offs, cs))
    if not varying and len(B.intervals) == 1:
        # arcs of equal length: sum of max(0, gap - (1 - L)) over the cyclic
        # gaps between the sorted start offsets
        (u, v), = B.intervals
        starts = sorted({Fraction(0)} | {(-t) % 1 for t in static_shifts})
        slack = v - u - 1
        total = max(Fraction(0), 1 - (starts[-1] - starts[0]) + slack)
        for a, b in zip(starts, starts[1:]):
            total += max(Fraction(0), b - a + slack)
        return constant_factor * total
    static_sets = [B] + [B.shift(-t) for t in static_shifts]
    if not varying:
        return constant_factor * intersect_all(static_sets).measure()

    breakpoints: set[Fraction] = set()
    for s in static_sets:
        breakpoints.update(s.endpoints())
    for offs, cs in varying:
        breakpoints.update(_g_kinks(B, offs, cs))
    cuts = sorted({b % 1 for b in breakpoints} | {Fraction(0), Fraction(1)})
    if cuts[-1] != 1:
        cuts.append(Fraction(1))

    def integrand(y: Fraction) -> Fraction:
        for s in static_sets:
            if not s.contains(y):
                return Fraction(0)
        val = constant_factor
        for offs, cs in varying:
            val *= _g_value(B, offs, cs, y)
        return val

    total = Fraction(0)
    for lo, hi in zip(cuts, cuts[1:]):
        if hi > lo:
            total += _three_node_integral(integrand, lo, hi)
    return total


def haar_correlation_limit(
    reps: Sequence[Sequence[Fraction]],
    B: CircleSet,
    pattern: Sequence[FactorPattern],
) -> Fraction:
    """Exact limit integral avg_reps int 1_B(y) prod_f 1_B(y + shift_f) dy."""
    if not reps:
        raise PreconditionError("at least one representative required")
    if any(f.free_var is not None and f.free_var >= MAX_FREE_COORDS for f in pattern):
        raise UnsupportedShape("at most two free torus coordinates supported")
    need = max((len(f.rep_coeffs) for f in pattern), default=0)
    if any(len(rep) < need for rep in reps):
        raise PreconditionError("pattern uses more rep coordinates than provided")
    # The integrand is a product of indicators 1_B(y + shift + c z), and
    # 1_B^2 = 1_B, so a representative enters only through the set of its
    # factors' (shift mod 1, free variable, coefficient).  Key each by that
    # set, the shifts as integer numerators over the common denominator D,
    # and integrate once per distinct key, weighted by its multiplicity.
    reps = [[Fraction(r) for r in rep] for rep in reps]
    D = lcm(*(r.denominator for rep in reps for r in rep))
    distinct: dict[frozenset, list] = {}
    for rep in reps:
        nums = [r.numerator * (D // r.denominator) for r in rep]
        key = frozenset(
            (sum(c * n for c, n in zip(f.rep_coeffs, nums)) % D, f.free_var, f.free_coef)
            for f in pattern
        )
        distinct.setdefault(key, [rep, 0])[1] += 1
    total = sum(
        (count * _single_rep_integral(B, pattern, rep) for rep, count in distinct.values()),
        Fraction(0),
    )
    return total / len(reps)


def triple_progression_integral(B: CircleSet) -> Fraction:
    """int int 1_B(y) 1_B(y+z) 1_B(y+2z) dy dz, exact."""
    pattern = [
        FactorPattern.of(free_var=0, free_coef=1),
        FactorPattern.of(free_var=0, free_coef=2),
    ]
    return haar_correlation_limit([()], B, pattern)
