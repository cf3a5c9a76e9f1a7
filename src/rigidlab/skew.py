"""Skew-product correlations over atomic base measures and finite-sums scans.

The system is T(x, y) = (x, y + x) on the torus square with base measure
sigma and Lebesgue fibers; the correlation of A = T x B along integer shifts
reduces per atom to the measure of an intersection of rotated copies of B.
skew_correlation sums that measure exactly over the rational atoms of any
base measure and is the reference value.  sampled_correlation is the Monte
Carlo estimate used by the scans: it takes the exact per-column residues of
each shift (AtomicMeasure.residues, or the ShiftResidues table for the
finite-sums scans), goes through their phases and one of two vectorized arc
kernels, the closed form over cyclic gaps for a single-interval B
(_arc_intersection_lengths) and the endpoint sweep with a running cover
count for a multi-interval B (_multi_arc_intersection_lengths), so the only
inexactness is the final float, not the reduction of huge shifts.  The
closed form orders each word's m + 1 arc starts with a compare-exchange
network over whole columns instead of a row sort; min and max are exact, so
for m < 8 its values are those of the sorted form bit for bit (beyond,
numpy's row sum would add the gaps pairwise, the kernel still adds them left
to right), and the budget below is unchanged.  In front of the sweep, a
conservative contact prefilter (_contact_rows) keeps only the rows where
some arc of B meets every shifted copy; the others are 0.0 without a sweep.
On the cor66/cor67 scans it keeps about 23% of the rows, and 19% of all
rows are nonzero.

Each scan point is scored on the marginal of its active columns, those
where some shift's residue is nonzero mod q (ShiftResidues.at gives it with
the residues on its columns, and keeps it for the next points: the sums that
share their least index share a pattern): phases and kernels run on its
rows, weighted by their summed counts (11 times fewer rows than words on the
depth-11 cor65 scan).  An inactive column's digit phases are +0.0, which
adds no bit to a partial sum >= +0.0, so a row's value is bitwise that of
each of its words; the budget holds.
The weighted sums are np.add.reduce, in the order numpy's source fixes, so
no BLAS kernel or thread count moves a bit.

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

The prefilter adds nothing to this budget: its values are the sweep's bit
for bit.  It reads the same float phases as the sweep and widens each
contact interval by epsilon = 1e-9 on each side, many orders above the few
ulp by which a float endpoint u - t can miss its real value.  So a row it
drops has no segment of positive float length covered by every copy, the
sweep would give it 0.0 too, and a kept row gets the sweep's own value.

So either kernel is within K(m + 1) * (2 delta + 5 * 2^-53) of the exact
value, K = 1 for the single-interval form (whose gaps, slack and wrap term
round at most four times each and whose pairwise sum obeys the same bound).
For the cor66/cor67 scans at their CLI defaults (K = 8, m <= 3, c = 14)
that is below 2e-12, far under their Monte Carlo standard errors of ~1e-3.
The weighted sums over n rows round each weight w and product once, and
each pairwise sum adds at most ceil(log2 n) * 2^-53 * sum w * v.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from typing import Sequence

import numpy as np

from .circleset import CircleSet, intersection_measure
from .errors import PreconditionError
from .measure import AtomicMeasure

# rows per block of the multi-arc sweep: bounds its (rows, 2K(m+1)) temporaries
_ROW_BLOCK = 256
# widening of the prefilter's contact intervals: many orders above the float
# error of an arc endpoint (a few ulp), so the prefilter never drops a row
# the sweep gives a positive value
_CONTACT_EPS = 1e-9


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
    m: AtomicMeasure, B: CircleSet, residues: Sequence[Sequence[int]]
) -> tuple[float, float]:
    """Float correlation over the words of a sampled m, plus the Monte Carlo
    standard error of the mean for its denominator draws.  The residues are
    per shift, as in shifted_intersection_values."""
    values = shifted_intersection_values(m, B, residues)
    weighted = m.weights_np * values
    mean, second = float(np.add.reduce(weighted)), float(np.add.reduce(weighted * values))
    return mean, math.sqrt(max(0.0, second - mean * mean) / m.denominator)


def _contact_table(arcs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Breakpoints and packed arc masks of the multi-arc prefilter.

    Arc i = [u_i, v_i) of B meets arc k of B - t in a segment of positive
    length only for t in (u_k - v_i, v_k - u_i) mod 1.  Widened by
    _CONTACT_EPS on each side, these K^2 contact intervals cut [0, 1) at
    their sorted, distinct endpoints b_0 < ... < b_{P-1}.  For t in the open
    cell c between b_{c-1} and b_c (cell 0 starts at 0, cell P ends at 1),
    table[2c] holds the K-bit mask of the arcs i that B - t meets; for t
    equal to b_c, table[2c + 1] holds the OR of cells c and c + 1.  The
    masks are np.packbits rows of bools, so any K fits.
    """
    k = len(arcs)
    u, v = arcs[:, 0], arcs[:, 1]
    lo = (u[None, :] - v[:, None]).ravel() - _CONTACT_EPS  # pair (i, k) at i*K + k
    hi = (v[None, :] - u[:, None]).ravel() + _CONTACT_EPS
    whole = hi - lo >= 1.0
    lo, hi = lo - np.floor(lo), hi - np.floor(hi)
    breaks = np.unique(np.concatenate([lo, hi]))
    arc = np.repeat(np.arange(k), k)
    part = ~whole
    # +1 from the cell after lo, -1 from the cell after hi, and +1 from cell 0
    # for intervals that wrap through 0 or cover the circle
    opens = np.concatenate([
        (np.searchsorted(breaks, lo[part]) + 1) * k + arc[part],
        arc[whole | (lo >= hi)],
    ])
    closes = (np.searchsorted(breaks, hi[part]) + 1) * k + arc[part]
    size = (len(breaks) + 1) * k
    delta = np.bincount(opens, minlength=size) - np.bincount(closes, minlength=size)
    cells = np.cumsum(delta.reshape(-1, k), axis=0) > 0
    table = np.empty((2 * len(cells) - 1, k), dtype=bool)
    table[0::2] = cells
    table[1::2] = cells[:-1] | cells[1:]
    return breaks, np.packbits(table, axis=1)


def _arc_sweep(arcs: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """Measure of S_0 meet S_1 meet ... per row, with S_0 = B and S_j = B - t_j.

    arcs holds the K float arcs (u, v) of B, phases the (n, m) shifts t_j in
    [0, 1).  Each arc of each S_j starts at u - t (plus 1.0 when negative)
    and ends at v - t (plus 1.0 when <= 0); an arc with u - t < 0 < v - t
    wraps through 0 and covers it.  Sorting the 2K(m+1) endpoints of a row
    and taking the running cover count, the intersection is the union of
    the elementary segments covered m + 1 times, summed left to right.
    Each row's value depends on that row alone.
    """
    n, m = phases.shape
    u, v = arcs[:, 0], arcs[:, 1]
    values = np.empty(n)
    for first in range(0, n, _ROW_BLOCK):
        block = phases[first:first + _ROW_BLOCK]
        t = np.zeros((len(block), m + 1, 1))
        t[:, 1:, 0] = block
        lo, hi = u - t, v - t
        starts = np.where(lo < 0, lo + 1.0, lo).reshape(len(block), -1)
        ends = np.where(hi <= 0, hi + 1.0, hi).reshape(len(block), -1)
        # endpoints in [0, 1] order as their int64 bits; the low bit marks
        # a start (+1 to the cover count) and sorts after an end it ties,
        # which only reorders segments of length 0.0
        keys = np.concatenate([starts, ends], axis=1).view(np.int64) << 1
        keys[:, :starts.shape[1]] |= 1
        keys.sort(axis=1)
        edges = np.pad((keys >> 1).view(np.float64), ((0, 0), (1, 1)),
                       constant_values=(0.0, 1.0))
        covered = np.count_nonzero((lo < 0) & (hi > 0), axis=(1, 2))
        cover = np.cumsum(np.column_stack([covered, 2 * (keys & 1) - 1]), axis=1)
        segments = np.where(cover == m + 1, np.diff(edges, axis=1), 0.0)
        # cumsum adds left to right; .sum() is pairwise and would change the
        # last bits
        values[first:first + len(block)] = np.cumsum(segments, axis=1)[:, -1]
    return values


def _contact_rows(arcs: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """Indices of the rows where S_0 meet ... meet S_m can have positive
    measure, with S_0 = B and S_j = B - t_j as in _arc_sweep.

    A segment covered by every S_j lies in some arc i of S_0, which then
    meets every S_j, so a row is kept only if the AND over j of the masks
    _contact_table gives t_j is nonzero.  The widening dwarfs the few-ulp
    error of any float endpoint, so every row the sweep gives a positive
    value is kept.  With m = 0 every row is kept, with an empty B none.
    """
    n, m = phases.shape
    if not len(arcs):
        return np.arange(0)
    if m == 0:
        return np.arange(n)
    breaks, table = _contact_table(arcs)
    mask = None
    for col in phases.T:
        cell = np.searchsorted(breaks, col)
        at_break = breaks[np.minimum(cell, len(breaks) - 1)] == col
        hits = table[2 * cell + at_break]
        mask = hits if mask is None else mask & hits
    return np.flatnonzero(mask.any(axis=1))


def _multi_arc_intersection_lengths(arcs: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """_arc_sweep's values: the sweep runs on the _contact_rows alone, which
    gives each of them the value it gets among all rows, and every other
    row is 0.0."""
    values = np.zeros(len(phases))
    rows = _contact_rows(arcs, phases)
    values[rows] = _arc_sweep(arcs, phases[rows])
    return values


def shifted_intersection_values(
    base: AtomicMeasure, B: CircleSet, shifts: Sequence[Sequence[int]]
) -> np.ndarray:
    """Per-word measure of B meet (B - s1 x) meet ... as floats.

    Each shift s comes as its per-column residues, base.residues(s) or a row
    that ShiftResidues.at gives for base.
    """
    phases = np.empty((len(base.codes), len(shifts)))
    for col, residues in enumerate(shifts):
        phases[:, col] = base.phases(residues)
    if len(B.intervals) == 1:
        (u, v), = B.intervals
        # B - t x starts at u - t x; offsets cancel u
        starts = np.zeros((len(phases), len(shifts) + 1), order="F")
        np.negative(phases, out=starts[:, 1:])
        return _arc_intersection_lengths(starts, float(v - u))
    arcs = np.array([(float(u), float(v)) for u, v in B.intervals]).reshape(-1, 2)
    return _multi_arc_intersection_lengths(arcs, phases)


@dataclass(frozen=True)
class FSTail:
    """All finite sums of the generators with indices past start_index."""

    generators: tuple[int, ...]
    start_index: int
    sums: tuple[tuple[tuple[int, ...], int], ...]  # (index set, sum)


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


class ShiftResidues:
    """Exact per-column residues of polynomial shifts at finite sums.

    For n = sum_{i in alpha} n_i over generators n_i (1-based indices), n^d is
    the sum, over the multisets M of d indices drawn from alpha, of mult(M) *
    prod_{i in M} n_i, with mult(M) = d! / prod(multiplicity!) the multinomial
    coefficient.  The table holds, per multiset of at most the polys' degree,
    base.residues(mult(M) * prod_{i in M} n_i), filled on first use; the empty
    multiset is the constant term's.  So at(alpha) costs additions of
    residues below q and one reduction per column of a sum of magnitude at
    most sum_d |c_d| * C(|alpha| + d - 1, d) * q, instead of reducing the huge
    p(n_alpha); the result is base.residues(p(n_alpha)) exactly.
    """

    def __init__(
        self,
        base: AtomicMeasure,
        generators: Sequence[int],
        polys: Sequence[Sequence[int]],
    ):
        self.base = base
        self.generators = tuple(generators)
        self.polys = tuple(polys)
        self._degree = max(len(p) for p in polys) - 1
        self._moduli = np.array([a.denominator for a in base.alphas], dtype=object)
        self._entries: dict[tuple[int, ...], np.ndarray] = {}
        self._marginal = None, None  # (active, base.restriction(active))

    def _entry(self, multiset: tuple[int, ...]) -> np.ndarray:
        entry = self._entries.get(multiset)
        if entry is None:
            mult = math.factorial(len(multiset))
            for count in Counter(multiset).values():
                mult //= math.factorial(count)
            value = mult * math.prod(self.generators[i - 1] for i in multiset)
            entry = np.array(self.base.residues(value), dtype=object)
            self._entries[multiset] = entry
        return entry

    def at(self, alpha: Sequence[int]) -> tuple[AtomicMeasure, list[list[int]]]:
        """(m, residues): per poly p, base.residues(p(n_alpha)), n_alpha the
        sum of the generators indexed by alpha (distinct 1-based indices), on
        the columns of m, base's marginal on the active columns or base."""
        power_sums = [
            sum(self._entry(m) for m in combinations_with_replacement(alpha, d))
            for d in range(self._degree + 1)
        ]
        residues = [
            list(sum(c * s for c, s in zip(p, power_sums) if c) % self._moduli)
            for p in self.polys
        ]
        active = tuple(col for col in range(len(self._moduli)) if any(r[col] for r in residues))
        if self._marginal[0] != active:
            self._marginal = active, self.base.restriction(active)
        if self._marginal[1] is None:
            return self.base, residues
        return self._marginal[1], [[r[c] for c in active] for r in residues]
