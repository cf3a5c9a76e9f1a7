"""Exact arithmetic on finite unions of half-open arcs of the circle [0, 1).

Endpoints are rationals; every operation (shift, scaling preimage,
intersection, measure) is closed over that representation, so downstream
correlation integrals stay exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Iterable, Sequence

from .errors import PreconditionError

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
class CircleSet:
    """Disjoint half-open arcs [u, v) with rational endpoints in [0, 1)."""

    intervals: tuple[tuple[Fraction, Fraction], ...]

    @staticmethod
    def from_pairs(pairs: Sequence[tuple]) -> "CircleSet":
        return CircleSet(_normalize([(_frac(u), _frac(v)) for u, v in pairs]))

    @staticmethod
    def interval(u, v) -> "CircleSet":
        return CircleSet.from_pairs([(u, v)])

    @staticmethod
    def empty() -> "CircleSet":
        return CircleSet(())

    @staticmethod
    def full() -> "CircleSet":
        return CircleSet(((Fraction(0), _ONE),))

    def measure(self) -> Fraction:
        return sum((v - u for u, v in self.intervals), Fraction(0))

    def is_empty(self) -> bool:
        return not self.intervals

    def contains(self, x) -> bool:
        x = _frac(x) % 1
        return any(u <= x < v for u, v in self.intervals)

    def shift(self, t) -> "CircleSet":
        """The set + t (mod 1)."""
        t = _frac(t) % 1
        if not self.intervals:
            return self
        return CircleSet(_normalize([(u + t, v + t) for u, v in self.intervals]))

    def scale_preimage(self, c: int) -> "CircleSet":
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
        return CircleSet(_normalize(out))

    def intersect(self, other: "CircleSet") -> "CircleSet":
        if not self.intervals or not other.intervals:
            return CircleSet.empty()
        out = []
        for a, b in self.intervals:
            for c, d in other.intervals:
                lo, hi = max(a, c), min(b, d)
                if lo < hi:
                    out.append((lo, hi))
        return CircleSet(tuple(sorted(out)))

    def endpoints(self) -> list[Fraction]:
        out = []
        for u, v in self.intervals:
            out.append(u)
            out.append(v % 1)
        return out

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
