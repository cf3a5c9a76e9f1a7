"""Skew-product correlations over atomic base measures and finite-sums scans.

The system is T(x, y) = (x, y + x) on the torus square with base measure
sigma and Lebesgue fibers; the correlation of A = T x B along integer shifts
reduces per atom to the measure of an intersection of rotated copies of B.
skew_correlation sums that measure exactly over the rational atoms of any
base measure and is the reference value.  sampled_correlation is the Monte
Carlo estimate used by the scans: it goes through the per-column phase
reduction and a vectorized arc intersection, so the only inexactness is the
final float, not the reduction of huge shifts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

import numpy as np

from .circleset import CircleSet, intersection_measure
from .errors import PreconditionError
from .measure import AtomicMeasure


@dataclass(frozen=True)
class SkewSystem:
    """T(x, y) = (x, y + x) mod 1 with nu = base x Lebesgue."""

    base: AtomicMeasure

    def correlation(self, B: CircleSet, shifts: Sequence[int]):
        return skew_correlation(self, B, shifts)


def _arc_intersection_lengths(starts: np.ndarray, length: float) -> np.ndarray:
    """Measure of the intersection of arcs [s_i, s_i + length) per row.

    Equal-length arcs: with cyclic gaps g_i between sorted start points the
    intersection has measure sum_i max(0, g_i - (1 - length)).
    """
    s = np.sort(starts % 1.0, axis=1)
    gaps = np.diff(s, axis=1)
    wrap = 1.0 - (s[:, -1] - s[:, 0])
    slack = length - 1.0
    total = np.clip(gaps + slack, 0.0, None).sum(axis=1)
    total += np.clip(wrap + slack, 0.0, None)
    return total


def skew_correlation(sys: SkewSystem, B: CircleSet, shifts: Sequence[int]) -> Fraction:
    """nu(A and T^-s1 A and ...) for A = T x B, exact over the base atoms."""
    shifts = [int(t) for t in shifts]
    total = Fraction(0)
    for x, w in sys.base.atoms:
        total += w * intersection_measure(B, [(t * x) % 1 for t in shifts])
    return total


def sampled_correlation(
    base: AtomicMeasure, B: CircleSet, shifts: Sequence[int], n_samples: int
) -> tuple[float, float]:
    """Float correlation over the words of a sampled base, plus the Monte
    Carlo standard error of the mean for n_samples draws."""
    weights = base.weights_np
    values = shifted_intersection_values(base, B, shifts)
    mean = float(np.dot(weights, values))
    second = float(np.dot(weights, values * values))
    variance = max(0.0, second - mean * mean)
    return mean, math.sqrt(variance / n_samples)


def shifted_intersection_values(
    base: AtomicMeasure, B: CircleSet, shifts: Sequence[int]
) -> np.ndarray:
    """Per-word measure of B meet (B - s1 x) meet ... as floats."""
    n_atoms = len(base.codes)
    phase_cols = [base.phases(t) for t in shifts]
    if len(B.intervals) == 1:
        (u, v), = B.intervals
        length = float(v - u)
        starts = np.zeros((n_atoms, len(shifts) + 1))
        for col, phases in enumerate(phase_cols, start=1):
            starts[:, col] = -phases  # B - t x starts at u - t x; offsets cancel u
        return _arc_intersection_lengths(starts, length)
    base_intervals = [(float(u), float(v)) for u, v in B.intervals]
    values = np.empty(n_atoms)
    for i in range(n_atoms):
        values[i] = _float_intersection(base_intervals, [col[i] for col in phase_cols])
    return values


def _float_intersection(base: list[tuple[float, float]], shifts: list[float]) -> float:
    """Float sweep for mu(B meet (B - t1) meet ...) with multi-interval B."""
    current = base
    for t in shifts:
        t %= 1.0
        shifted = []
        for u, v in base:
            lo, hi = u - t, v - t
            if lo < 0 and hi > 0:
                shifted.append((lo + 1.0, 1.0))
                shifted.append((0.0, hi))
            elif hi <= 0:
                shifted.append((lo + 1.0, hi + 1.0))
            else:
                shifted.append((lo, hi))
        shifted.sort()
        merged = []
        for u, v in current:
            for c, d in shifted:
                if c >= v:
                    break
                lo, hi = max(u, c), min(v, d)
                if lo < hi:
                    merged.append((lo, hi))
        if not merged:
            return 0.0
        current = merged
    return sum(v - u for u, v in current)


@dataclass(frozen=True)
class FSTail:
    """All finite sums of the generators with indices past start_index."""

    generators: tuple[int, ...]
    start_index: int
    sums: tuple[tuple[tuple[int, ...], int], ...]  # (index set, sum)

    def values(self) -> list[int]:
        return [s for _, s in self.sums]


def fs_tail(generators: Sequence[int], start_index: int) -> FSTail:
    gens = tuple(int(g) for g in generators)
    if any(b <= a for a, b in zip(gens, gens[1:])):
        raise PreconditionError("generators must be strictly increasing")
    if not 0 <= start_index < len(gens):
        raise PreconditionError("start index must satisfy 0 <= k0 < m")
    live = list(range(start_index + 1, len(gens) + 1))
    sums = []
    for r in range(1, len(live) + 1):
        for alpha in combinations(live, r):
            sums.append((alpha, sum(gens[i - 1] for i in alpha)))
    return FSTail(gens, start_index, tuple(sums))
