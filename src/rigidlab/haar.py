"""Exact correlation integrals against Haar measures of annihilator groups.

The integrals have the shape

    avg over finite reps y* of  int_T 1_B(y) prod_f 1_B(y + shift_f) dy,

where each factor's shift is an affine combination of the representative's
coordinates and up to two free torus coordinates that integrate out as
independent uniforms.  For a fixed representative, a factor tied to a free
coordinate z with integer coefficient c contributes through

    g(y) = int_T prod_f 1_B(y + t_f + c_f z) dz,

the measure of an intersection of rigidly translating arc unions.  g is
piecewise linear in y with kinks only where two endpoint trajectories of
different speeds meet, all of which are rational and enumerable.  The outer
integrand is then piecewise polynomial of degree <= number of free
coordinates, and a three-interior-node rule integrates each piece exactly.
Each integral runs on integer numerators over one common denominator and
builds a single Fraction at the end.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import combinations, product
from math import gcd, lcm
from typing import Sequence

from .circleset import CircleSet, _meet, _num, _preimage
from .errors import PreconditionError, UnsupportedShape

MAX_FREE_COORDS = 2


@dataclass(frozen=True)
class FactorPattern:
    """shift = sum(rep_coeffs . rep) + free_coef * z_{free_var}."""

    rep_coeffs: tuple[int, ...] = ()
    free_var: int | None = None
    free_coef: int = 0

    def __post_init__(self):
        if (self.free_var is None) != (self.free_coef == 0):
            raise PreconditionError("free_coef must be nonzero exactly when free_var is set")
        if self.free_var is not None and self.free_var < 0:
            raise PreconditionError("free variable index must be nonnegative")

    @staticmethod
    def of(rep_coeffs=(), free_var=None, free_coef=0) -> "FactorPattern":
        return FactorPattern(tuple(int(c) for c in rep_coeffs), free_var, int(free_coef))


def _g_kinks(ends: set[int], group: list[tuple[int, int]], K: int, scale: int) -> set[int]:
    """Numerators over K*scale of the y in [0, 1) where the z-measure of a
    group's (offset, coefficient) factors can change slope; ends and offsets
    are over K, and scale is a multiple of every coefficient difference.
    Endpoint trajectories of factor f sit at z with c_f z = e - t_f - y
    (mod 1); two trajectories of factors with different coefficients meet at
    rationals y solving c_g(e - t_f) - c_f(e' - t_g) - y(c_g - c_f) in
    gcd(c_f, c_g) Z.
    """
    kinks: set[int] = set()
    for (ti, ci), (tj, cj) in combinations(group, 2):
        if ci == cj:
            continue
        # The kinks y = (base + g k)/(cj - ci), g = gcd(ci, cj), form a
        # progression of step g/|cj - ci| <= 1, since g divides cj - ci.
        step, q = gcd(ci, cj) * K * (scale // abs(cj - ci)), scale // (cj - ci)
        for e, e2 in product(ends, repeat=2):
            base = (cj * (e - ti) - ci * (e2 - tj)) * q
            kinks.update(range(base % step, K * scale, step))
    return kinks


def _single_rep_integral(B: CircleSet, factors: Sequence[FactorPattern], rep: list) -> Fraction:
    # Every shift as an integer numerator over K, a multiple of B's denominator.
    K = lcm(B.den, *(r.denominator for r in rep))
    rep = [_num(r, K) for r in rep]
    ends = [e * (K // B.den) for e in B.ends]
    static, free = [0], {}
    for f in factors:
        t = sum(c * r for c, r in zip(f.rep_coeffs, rep)) % K
        if f.free_var is None:
            static.append(t)
        else:
            free.setdefault(f.free_var, []).append((t, f.free_coef))
    # a free coordinate of one factor is a single translate: it integrates to mu(B)
    varying = [g for g in free.values() if len(g) > 1]
    constant_factor = B.measure() ** (len(free) - len(varying))

    # One denominator for the whole integral: cuts over M = K*scale, the
    # quarter nodes over N = 4M, and each g's arcs over D = N*C.
    scale = lcm(*(ci - cj for g in varying for _, ci in g for _, cj in g if ci != cj))
    C = lcm(*(c for g in varying for _, c in g))
    M, N = K * scale, 4 * K * scale
    cuts = {0, M} | {(e - t) % K * scale for e in ends for t in static}
    cuts = sorted(cuts.union(*(_g_kinks({e % K for e in ends}, g, K, scale) for g in varying)))
    ends_n, static_n = [e * 4 * scale for e in ends], [t * 4 * scale for t in static]
    # factor (t, c) works over N*r, r = C/|c|, so that its preimage lands over D
    groups = [[(r, c, t * 4 * scale * r, [e * r for e in ends_n])
               for t, c in g for r in [C // abs(c)]] for g in varying]

    def integrand(y: int) -> int:
        """The product of the g's at y/N, as a numerator over D^len(groups)."""
        val = 1
        for group in groups:
            meet = reduce(_meet, [_preimage(e, N * r, c, t + y * r) for r, c, t, e in group])
            val *= sum(meet[1::2]) - sum(meet[::2])
        return val

    total = 0
    for lo, hi in zip(cuts, cuts[1:]):
        # The interior quarter nodes y + q, y + 2q, y + 3q integrate degree
        # <= 2 exactly and sit off every jump; static membership is constant
        # between cuts, so it is tested at the middle node alone.
        y, q = 4 * lo, hi - lo
        if all(bisect_right(ends_n, (y + 2 * q + t) % N) % 2 for t in static_n):
            total += q * (2 * integrand(y + q) - integrand(y + 2 * q) + 2 * integrand(y + 3 * q))
    return constant_factor * Fraction(total, 3 * M * (N * C) ** len(groups))


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
        nums = [_num(r, D) for r in rep]
        key = frozenset(
            (sum(c * n for c, n in zip(f.rep_coeffs, nums)) % D, f.free_var, f.free_coef)
            for f in pattern
        )
        distinct.setdefault(key, [rep, 0])[1] += 1
    total = sum(count * _single_rep_integral(B, pattern, rep) for rep, count in distinct.values())
    return total / len(reps)


def triple_progression_integral(B: CircleSet) -> Fraction:
    """int int 1_B(y) 1_B(y+z) 1_B(y+2z) dy dz, exact."""
    pattern = [
        FactorPattern.of(free_var=0, free_coef=1),
        FactorPattern.of(free_var=0, free_coef=2),
    ]
    return haar_correlation_limit([()], B, pattern)
