"""Skew-product correlations over atomic base measures and finite-sums scans.

The system is T(x, y) = (x, y + x) on the torus square with base measure
sigma and Lebesgue fibers; the correlation of A = T x B along integer shifts
reduces per atom to the measure of an intersection of rotated copies of B.
skew_correlation sums that measure exactly over the rational atoms of any
base measure and is the reference value.  sampled_correlation is the Monte
Carlo estimate used by the scans: it goes through the per-column phase
reduction and one of two vectorized arc kernels, the closed form over cyclic
gaps for a single-interval B (_arc_intersection_lengths) and the endpoint
sweep with a running cover count for a multi-interval B
(_multi_arc_intersection_lengths), so the only inexactness is the final
float, not the reduction of huge shifts.  The closed form orders each word's
m + 1 arc starts with a compare-exchange network over whole columns instead
of a row sort; min and max are exact, so for m < 8 its values are those of
the sorted form bit for bit (beyond, numpy's row sum would add the gaps
pairwise, the kernel still adds them left to right), and the budget below is
unchanged.

Error budget of a per-word value, against the exact measure for the exact
phases, with K the arcs of B, m the shifts and 2^-53 the unit roundoff:

- each phase t carries delta <= c^2 * 2^-53 for a word of c columns (c
  correctly rounded column phases, c - 1 additions of partial sums below c);
- each arc endpoint rounds its rational once and then u - t (plus 1.0) once
  or twice, so it sits within delta + 1.5 * 2^-53 of the exact endpoint, and
  the computed sets differ from the exact ones in measure by at most
  2K(m + 1) times that;
- a value sums at most K(m + 1) + 1 nonnegative segment lengths of total at
  most 1, each one subtraction: at most (K(m + 1) + 1) * 2^-53 more.

So either kernel is within K(m + 1) * (2 delta + 5 * 2^-53) of the exact
value, K = 1 for the single-interval form (whose gaps, slack and wrap term
round at most four times each and whose pairwise sum obeys the same bound).
For the cor66/cor67 scans at their CLI defaults (K = 8, m <= 3, c = 14)
that is below 2e-12, far under their Monte Carlo standard errors of ~1e-3.
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

# rows per block of the multi-arc sweep: bounds its (rows, 2K(m+1)) temporaries
_ROW_BLOCK = 256


def _arc_intersection_lengths(starts: np.ndarray, length: float) -> np.ndarray:
    """Measure of the intersection of arcs [s_i, s_i + length) per row.

    Equal-length arcs: with cyclic gaps g_i between sorted start points the
    intersection has measure sum_i max(0, g_i - (1 - length)).  The starts
    are reduced by x - floor(x), which is x % 1.0 bit for bit, and each row
    is sorted by a compare-exchange network over the columns; np.minimum and
    np.maximum are exact, so the columns come out as np.sort's.  The terms
    are added left to right, as numpy's row sum adds fewer than 8 terms.
    """
    reduced = starts - np.floor(starts)
    s = [reduced[:, j] for j in range(reduced.shape[1])]
    for last in range(len(s) - 1, 0, -1):
        for j in range(last):
            s[j], s[j + 1] = np.minimum(s[j], s[j + 1]), np.maximum(s[j], s[j + 1])
    slack = length - 1.0
    total = np.zeros(len(reduced))
    for lo, hi in zip(s, s[1:]):
        total += np.maximum(hi - lo + slack, 0.0)
    total += np.maximum(1.0 - (s[-1] - s[0]) + slack, 0.0)
    return total


def skew_correlation(base: AtomicMeasure, B: CircleSet, shifts: Sequence[int]) -> Fraction:
    """nu(A and T^-s1 A and ...) for A = T x B, exact over the base atoms."""
    shifts = [int(t) for t in shifts]
    total = Fraction(0)
    for x, w in base.atoms:
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


def _multi_arc_intersection_lengths(arcs: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """Measure of S_0 meet S_1 meet ... per row, with S_0 = B and S_j = B - t_j.

    arcs holds the K float arcs (u, v) of B, phases the (n, m) shifts t_j in
    [0, 1).  Each arc of each S_j starts at u - t (plus 1.0 when negative)
    and ends at v - t (plus 1.0 when <= 0); an arc with u - t < 0 < v - t
    wraps through 0 and covers it.  Sorting the 2K(m+1) endpoints of a row
    and taking the running cover count, the intersection is the union of
    the elementary segments covered m + 1 times, summed left to right.
    """
    n, m = phases.shape
    u, v = arcs[:, 0], arcs[:, 1]
    steps = np.repeat([1, -1], len(arcs) * (m + 1))
    values = np.empty(n)
    for first in range(0, n, _ROW_BLOCK):
        block = phases[first:first + _ROW_BLOCK]
        t = np.zeros((len(block), m + 1, 1))
        t[:, 1:, 0] = block
        lo, hi = u - t, v - t
        starts = np.where(lo < 0, lo + 1.0, lo).reshape(len(block), -1)
        ends = np.where(hi <= 0, hi + 1.0, hi).reshape(len(block), -1)
        events = np.concatenate([starts, ends], axis=1)
        order = np.argsort(events, axis=1)
        edges = np.pad(
            np.take_along_axis(events, order, axis=1), ((0, 0), (1, 1)),
            constant_values=(0.0, 1.0),
        )
        covered = np.count_nonzero((lo < 0) & (hi > 0), axis=(1, 2))
        cover = np.cumsum(np.column_stack([covered, steps[order]]), axis=1)
        segments = np.where(cover == m + 1, np.diff(edges, axis=1), 0.0)
        # cumsum adds left to right; .sum() is pairwise and would change the
        # last bits
        values[first:first + len(block)] = np.cumsum(segments, axis=1)[:, -1]
    return values


def shifted_intersection_values(
    base: AtomicMeasure, B: CircleSet, shifts: Sequence[int]
) -> np.ndarray:
    """Per-word measure of B meet (B - s1 x) meet ... as floats."""
    n_atoms = len(base.codes)
    if len(B.intervals) == 1:
        (u, v), = B.intervals
        # B - t x starts at u - t x; offsets cancel u
        starts = np.zeros((n_atoms, len(shifts) + 1), order="F")
        for col, t in enumerate(shifts, start=1):
            np.negative(base.phases(t), out=starts[:, col])
        return _arc_intersection_lengths(starts, float(v - u))
    phases = np.empty((n_atoms, len(shifts)))
    for col, t in enumerate(shifts):
        phases[:, col] = base.phases(t)
    arcs = np.array([(float(u), float(v)) for u, v in B.intervals]).reshape(-1, 2)
    return _multi_arc_intersection_lengths(arcs, phases)


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
