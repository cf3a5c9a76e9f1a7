"""The Fraction-endpoint CircleSet and single-representative Haar integral,
kept as the oracle that the integer-numerator implementations in
rigidlab.circleset and rigidlab.haar are compared against."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from numbers import Rational
from typing import Iterable, Sequence

from rigidlab.errors import PreconditionError
from rigidlab.haar import FactorPattern

_ONE = Fraction(1)


def _frac(x) -> Fraction:
    if isinstance(x, Rational):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x)  # floats are dyadic rationals, exact
    if isinstance(x, str):
        return Fraction(x)
    raise PreconditionError(f"cannot interpret {x!r} as an exact endpoint")


def _normalize(intervals: Iterable[tuple[Fraction, Fraction]]):
    """Sort, wrap into [0,1), merge touching pieces, check disjointness."""
    pieces = []
    for u, v in intervals:
        if v <= u:
            raise PreconditionError(f"empty or reversed interval [{u}, {v})")
        if v - u >= 1:
            return ((Fraction(0), _ONE),)
        u, v = u % 1, v % 1 if v % 1 else _ONE
        if u < v:
            pieces.append((u, v))
        else:  # wraps through 0
            pieces.append((u, _ONE))
            if v:
                pieces.append((Fraction(0), v))
    pieces.sort()
    merged = []
    for u, v in pieces:
        if merged and u < merged[-1][1]:
            raise PreconditionError("intervals overlap")
        if merged and u == merged[-1][1]:
            merged[-1] = (merged[-1][0], v)
        else:
            merged.append((u, v))
    # An arc through 0 stays as its two pieces [u,1) and [0,v); the normal
    # form is "sorted, linearly merged", which every constructor reproduces.
    return tuple(merged)


@dataclass(frozen=True)
class FractionCircleSet:
    """Disjoint half-open arcs [u, v) with rational endpoints in [0, 1)."""

    intervals: tuple[tuple[Fraction, Fraction], ...]

    @staticmethod
    def from_pairs(pairs: Sequence[tuple]) -> "FractionCircleSet":
        return FractionCircleSet(_normalize([(_frac(u), _frac(v)) for u, v in pairs]))

    @staticmethod
    def interval(u, v) -> "FractionCircleSet":
        return FractionCircleSet.from_pairs([(u, v)])

    @staticmethod
    def empty() -> "FractionCircleSet":
        return FractionCircleSet(())

    @staticmethod
    def full() -> "FractionCircleSet":
        return FractionCircleSet(((Fraction(0), _ONE),))

    def measure(self) -> Fraction:
        return sum((v - u for u, v in self.intervals), Fraction(0))

    def is_empty(self) -> bool:
        return not self.intervals

    def contains(self, x) -> bool:
        x = _frac(x) % 1
        return any(u <= x < v for u, v in self.intervals)

    def shift(self, t) -> "FractionCircleSet":
        """The set + t (mod 1)."""
        t = _frac(t) % 1
        if not self.intervals:
            return self
        return FractionCircleSet(_normalize([(u + t, v + t) for u, v in self.intervals]))

    def scale_preimage(self, c: int) -> "FractionCircleSet":
        """{x : c x mod 1 in self}, |c| shrunk copies."""
        if c == 0:
            raise PreconditionError("scaling by zero")
        out = []
        m = abs(c)
        for u, v in self.intervals:
            for k in range(m):
                # For c < 0 the preimage ((v+k)/c, (u+k)/c] is open on the
                # left; every downstream use is measure-wise, so the closure
                # convention is immaterial and the half-open form is kept.
                out.append(tuple(sorted(((u + k) / c, (v + k) / c))))
        return FractionCircleSet(_normalize(out))

    def intersect(self, other: "FractionCircleSet") -> "FractionCircleSet":
        if not self.intervals or not other.intervals:
            return FractionCircleSet.empty()
        out = []
        for a, b in self.intervals:
            for c, d in other.intervals:
                lo, hi = max(a, c), min(b, d)
                if lo < hi:
                    out.append((lo, hi))
        return FractionCircleSet(tuple(sorted(out)))

    def endpoints(self) -> list[Fraction]:
        out = []
        for u, v in self.intervals:
            out.append(u)
            out.append(v % 1)
        return out

    def to_json(self) -> dict:
        return {"intervals": [[str(u), str(v)] for u, v in self.intervals]}


def intersect_all(sets: Sequence[FractionCircleSet]) -> FractionCircleSet:
    if not sets:
        return FractionCircleSet.full()
    acc = sets[0]
    for s in sets[1:]:
        if acc.is_empty():
            break
        acc = acc.intersect(s)
    return acc


def intersection_measure(base: FractionCircleSet, shifts: Sequence) -> Fraction:
    """mu(base intersect (base - t_1) intersect ... ), exact."""
    sets = [base] + [base.shift(-_frac(t)) for t in shifts]
    return intersect_all(sets).measure()


def _three_node_integral(f, lo: Fraction, hi: Fraction) -> Fraction:
    """Exact integral of a polynomial of degree <= 2 from samples at the
    quarter points (all interior, so indicator pieces are unambiguous)."""
    length = hi - lo
    q = length / 4
    return length * (2 * f(lo + q) - f(lo + 2 * q) + 2 * f(lo + 3 * q)) / 3


def _g_value(B: FractionCircleSet, offsets: list[Fraction], coefs: list[int], y: Fraction) -> Fraction:
    sets = [B.shift(-(y + t)).scale_preimage(c) for t, c in zip(offsets, coefs)]
    return intersect_all(sets).measure()


def _g_kinks(B: FractionCircleSet, offsets: list[Fraction], coefs: list[int]) -> set[Fraction]:
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


def single_rep_integral(
    B: FractionCircleSet, factors: Sequence[FactorPattern], rep: list[Fraction]
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
