"""Exact arithmetic on finite unions of half-open arcs of the circle [0, 1).

A set is kept as sorted integer endpoints over one canonical denominator, the
lcm of its endpoints' reduced denominators.  Every operation (shift, scaling
preimage, intersection, membership) brings its operands to a common
denominator with one lcm and then compares and adds integers; Fractions are
built only at the boundary (intervals, measure, to_json), so
downstream correlation integrals stay exact.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from numbers import Rational
from typing import Iterable, Sequence

from .errors import PreconditionError


def _frac(x) -> Fraction:
    if isinstance(x, (Rational, float, str)):  # floats are dyadic rationals, exact
        return Fraction(x)
    raise PreconditionError(f"cannot interpret {x!r} as an exact endpoint")


def _num(x: Fraction, L: int) -> int:
    """The numerator of x over L, a multiple of its denominator."""
    return x.numerator * (L // x.denominator)


def _normalize(pairs: Iterable[tuple[int, int]], L: int) -> list[int]:
    """Wrap arcs [u/L, v/L) into [0, 1), sort, merge touching pieces and check
    disjointness; the endpoints come back flat, as integers over L.  An arc
    through 0 stays as its two pieces [u, L) and [0, v): the normal form is
    "sorted, linearly merged", which every constructor reproduces."""
    pieces = []
    for u, v in pairs:
        if v <= u:
            raise PreconditionError(f"empty or reversed interval [{u}/{L}, {v}/{L})")
        if v - u >= L:
            return [0, L]
        u, v = u % L, v % L or L
        if u < v:
            pieces.append((u, v))
        else:  # wraps through 0
            pieces.append((u, L))
            if v:
                pieces.append((0, v))
    pieces.sort()
    ends: list[int] = []
    for u, v in pieces:
        if ends and u < ends[-1]:
            raise PreconditionError("intervals overlap")
        if ends and u == ends[-1]:
            ends[-1] = v
        else:
            ends += (u, v)
    return ends


def _preimage(ends: Sequence[int], L: int, c: int, t: int = 0) -> list[int]:
    """{x : c x + t/L mod 1 in ends/L}, as endpoints over L|c|.  For c < 0 each
    arc is open on the left; every use is measure-wise, so the half-open form
    is kept."""
    sign = 1 if c > 0 else -1
    pieces = []
    for k in range(-t, abs(c) * L - t, L):
        for u, v in zip(ends[::2], ends[1::2]):
            a, b = sign * (u + k), sign * (v + k)
            pieces.append((a, b) if c > 0 else (b, a))
    return _normalize(pieces, abs(c) * L)


def _meet(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The intersection of two sorted, disjoint endpoint lists over one
    denominator, in one merge."""
    out: list[int] = []
    i = j = 0
    while i < len(a) and j < len(b):
        lo, hi = max(a[i], b[j]), min(a[i + 1], b[j + 1])
        if lo < hi:
            out += (lo, hi)
        if a[i + 1] < b[j + 1]:
            i += 2
        else:
            j += 2
    return out


def _canonical(L: int, ends: Sequence[int]) -> "CircleSet":
    g = gcd(L, *ends)
    return CircleSet(L // g, tuple(e // g for e in ends))


@dataclass(frozen=True)
class CircleSet:
    """Disjoint half-open arcs [u, v) in [0, 1): ends holds u0 < v0 < u1 < ...
    as integers over den, the lcm of their reduced denominators, so equality
    and hashing are set equality."""

    den: int
    ends: tuple[int, ...]

    @staticmethod
    def from_pairs(pairs: Sequence[tuple]) -> "CircleSet":
        fracs = [(_frac(u), _frac(v)) for u, v in pairs]
        L = lcm(*(x.denominator for pair in fracs for x in pair))
        return _canonical(L, _normalize([(_num(u, L), _num(v, L)) for u, v in fracs], L))

    @staticmethod
    def interval(u, v) -> "CircleSet":
        return CircleSet.from_pairs([(u, v)])

    @staticmethod
    def empty() -> "CircleSet":
        return CircleSet(1, ())

    @staticmethod
    def full() -> "CircleSet":
        return CircleSet(1, (0, 1))

    @property
    def intervals(self) -> tuple[tuple[Fraction, Fraction], ...]:
        e, L = self.ends, self.den
        return tuple((Fraction(u, L), Fraction(v, L)) for u, v in zip(e[::2], e[1::2]))

    def measure(self) -> Fraction:
        return Fraction(sum(self.ends[1::2]) - sum(self.ends[::2]), self.den)

    def is_empty(self) -> bool:
        return not self.ends

    def contains(self, x) -> bool:
        x = _frac(x)
        # inside an arc iff an odd number of endpoints lie at or below x mod 1
        y = x.numerator % x.denominator * self.den // x.denominator
        return bisect_right(self.ends, y) % 2 == 1

    def shift(self, t) -> "CircleSet":
        """The set + t (mod 1)."""
        t = _frac(t)
        L = lcm(self.den, t.denominator)
        s = L // self.den
        return _canonical(L, _preimage([e * s for e in self.ends], L, 1, -_num(t, L)))

    def scale_preimage(self, c: int) -> "CircleSet":
        """{x : c x mod 1 in self}, |c| shrunk copies."""
        if c == 0:
            raise PreconditionError("scaling by zero")
        return _canonical(abs(c) * self.den, _preimage(self.ends, self.den, c))

    def intersect(self, other: "CircleSet") -> "CircleSet":
        L = lcm(self.den, other.den)
        s, r = L // self.den, L // other.den
        return _canonical(L, _meet([e * s for e in self.ends], [e * r for e in other.ends]))

    def to_json(self) -> dict:
        return {"intervals": [[str(u), str(v)] for u, v in self.intervals]}

    @staticmethod
    def from_json(obj: dict) -> "CircleSet":
        return CircleSet.from_pairs([(Fraction(u), Fraction(v)) for u, v in obj["intervals"]])


def intersect_all(sets: Sequence[CircleSet]) -> CircleSet:
    if not sets:
        return CircleSet.full()
    acc = sets[0]
    for s in sets[1:]:
        if acc.is_empty():
            break
        acc = acc.intersect(s)
    return acc


def intersection_measure(base: CircleSet, shifts: Sequence) -> Fraction:
    """mu(base intersect (base - t_1) intersect ... ), exact."""
    sets = [base] + [base.shift(-_frac(t)) for t in shifts]
    return intersect_all(sets).measure()
