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
(_arc_intersection_lengths) and a progressive intersection over contact
candidates for a multi-interval B (_multi_arc_intersection_lengths), so the
only inexactness is the final float, not the reduction of huge shifts.  The
closed form orders each word's m + 1 arc starts with a compare-exchange
network over whole columns instead of a row sort; min and max are exact, so
for m < 8 its values are those of the sorted form bit for bit (beyond,
numpy's row sum would add the gaps pairwise, the kernel still adds them left
to right), and the budget below is unchanged.  The multi-arc kernel reads,
per shift t, the arcs of B - t that can meet each arc of B from a table over
power-of-two buckets of t built once per B (_candidates), and intersects
only the (row, arc) pairs that every shift can reach; the other rows are 0.0
without a piece.  On the cor66/cor67 scans (seed 42) 13.8% of the rows hold
such a pair, and 7.9% of all rows are nonzero.

Each scan point is scored on the smallest prefix of the columns that holds
its active ones, those where some shift's residue is nonzero mod q (on the
demos' scans, exactly the top levels down to the sum's least index):
ShiftResidues.at gives that depth of the word tree, AtomicMeasure.prefix,
with the residues on its columns, and keeps it for the next points of the
same depth.  Phases and kernels run on its runs, weighted by their summed
counts (11 times fewer rows than words on the depth-11 cor65 scan).  An
inactive column's digit phases are +0.0, which adds no bit to a partial sum
>= +0.0, so a run's value is bitwise that of each of its words; the budget
holds.
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
- a value sums at most K(m + 1) + 1 nonnegative piece lengths of total at
  most 1 (disjoint pieces between the 2K(m + 1) endpoints), each one
  subtraction: at most (K(m + 1) + 1) * 2^-53 more.

The candidate table adds nothing to this budget: the kernel's values are
those of the endpoint sweep with a running cover count, bit for bit.  A
piece's endpoints are arc endpoints picked by max and min, which are exact;
the pieces are the sweep's covered segments less those of length 0.0, which
add +0.0 and change nothing; and both add left to right in start order.
The table widens each contact interval by epsilon = 1e-9 on each side, many
orders above the few ulp by which a float endpoint u - t can miss its real
value, and then takes whole buckets, so it never drops an arc of B - t that
meets an arc of B in a segment of positive float length.

So either kernel is within K(m + 1) * (2 delta + 5 * 2^-53) of the exact
value, K = 1 for the single-interval form (whose gaps, slack and wrap term
round at most four times each and whose pairwise sum obeys the same bound).
For the cor66/cor67 scans at their CLI defaults (K = 8, m <= 3, c = 14)
that is below 2e-12, far under their Monte Carlo standard errors of ~1e-3.
The weighted sums over n rows round each weight w and product once, and
each pairwise sum adds at most ceil(log2 n) * 2^-53 * sum w * v.
"""

from __future__ import annotations

import functools
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

# buckets of the multi-arc candidate table, a power of two: int(t * _BUCKETS)
# is floor(t * _BUCKETS) exactly for t in [0, 1)
_BUCKETS = 256
# (row, arc) pairs per block of the multi-arc kernel: bounds its temporaries
_BLOCK_PAIRS = 1 << 15
# widening of the contact intervals: many orders above the float error of an
# arc endpoint (a few ulp), so the table never drops a piece of positive length
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


@functools.lru_cache(maxsize=8)
def _candidates(ends: bytes) -> tuple[np.ndarray, np.ndarray]:
    """Candidate table of the multi-arc kernel for the (K, 2) float arcs of B,
    given as their bytes so that a scan builds it once per B.

    Arc i = [u_i, v_i) of B meets arc k of B - t in a segment of positive
    length only for t in (u_k - v_i, v_k - u_i) mod 1.  Widened by
    _CONTACT_EPS on each side, this contact interval meets the buckets
    g = int(t * _BUCKETS) from floor(lo * G) to floor(hi * G) (G = _BUCKETS,
    lo shifted into [0, 1), the range taken mod G).  Row g * K + i of the
    table lists the arcs k whose interval meets bucket g, in increasing
    order and padded with K; reach[g] is the np.packbits mask of the arcs i
    with a candidate in bucket g, so any K fits.
    """
    arcs = np.frombuffer(ends).reshape(-1, 2)
    k = len(arcs)
    u, v = arcs[:, 0], arcs[:, 1]
    lo = u[None, :] - v[:, None] - _CONTACT_EPS  # pair (i, k) at [i, k]
    hi = v[None, :] - u[:, None] + _CONTACT_EPS
    shift = np.floor(lo)
    first = np.floor((lo - shift) * _BUCKETS)
    span = np.where(hi - lo >= 1.0, _BUCKETS, np.floor((hi - shift) * _BUCKETS) - first)
    g = np.arange(_BUCKETS, dtype=np.int16)[:, None, None]
    meets = (g - first.astype(np.int16)) % _BUCKETS <= span.astype(np.int16)  # (G, K, K)
    cell, arc = np.nonzero(meets.reshape(-1, k))  # cell g * K + i, arcs k in order
    rank = np.arange(len(arc)) - np.searchsorted(cell, cell)
    table = np.full((len(meets) * k, rank.max(initial=0) + 1), k, np.min_scalar_type(k))
    table[cell, rank] = arc
    reach = np.packbits(meets.any(axis=2), axis=1)
    table.flags.writeable = reach.flags.writeable = False  # the cache shares them
    return table, reach


def _contact_pairs(arcs: np.ndarray, phases: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rows, arcs): the pairs (row, i), in increasing order, of the (n, m)
    phases and the arcs i of B that every shift t_j of the row can bring into
    contact with B - t_j (the AND over j of _candidates' reach at t_j), so
    every arc i holding a piece of positive float length; with m = 0, all.
    """
    _, reach = _candidates(arcs.tobytes())
    mask = np.full((len(phases), reach.shape[1]), 255, np.uint8)
    for col in phases.T:
        mask &= reach.take((col * _BUCKETS).astype(np.intp), axis=0)
    rows = np.flatnonzero(mask.any(axis=1))
    pair_rows, pair_arcs = np.nonzero(np.unpackbits(mask[rows], axis=1, count=len(arcs)))
    return rows[pair_rows], pair_arcs


def _multi_arc_intersection_lengths(arcs: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """Measure of S_0 meet S_1 meet ... per row, with S_0 = B and S_j = B - t_j.

    arcs holds the K float arcs (u, v) of B, phases the (n, m) shifts t_j in
    [0, 1).  Blocks of rows run a progressive intersection over their
    _contact_pairs: a pair (row, i) starts as the piece arc i, and each shift
    meets every piece with the arcs of S_j that _candidates lists.  Such an
    arc starts at u - t (plus 1.0 when negative) and ends at v - t (plus 1.0
    when <= 0); one with u - t < 0 < v - t wraps through 0 and is met as
    [start, 1.0] and [0.0, end].  Pieces of positive length are kept; a row's
    are disjoint, and their lengths add left to right in start order, the
    r-th pieces of all rows at once.  A row's value depends on that row
    alone; with no pair it is 0.0.
    """
    k, n = len(arcs), len(phases)
    values = np.zeros(n)
    if not k:
        return values
    table, _ = _candidates(arcs.tobytes())
    u, v = np.append(arcs[:, 0], 2.0), np.append(arcs[:, 1], 2.0)  # padding arc K misses [0, 1]
    step = max(1, _BLOCK_PAIRS // k)
    for first in range(0, n, step):
        block = phases[first:first + step]
        row, i = _contact_pairs(arcs, block)
        lo, hi = u[i], v[i]
        for col in block.T:
            t = col[row, None]
            cand = table[(t[:, 0] * _BUCKETS).astype(np.intp) * k + i]
            start, end = u[cand], v[cand]
            start -= t
            end -= t
            wrap = (start < 0) & (end > 0)
            np.add(start, 1.0, out=start, where=start < 0)
            np.add(end, 1.0, out=end, where=end <= 0)
            a_lo = np.maximum(start, lo[:, None], out=start)
            a_hi = np.minimum(np.where(wrap, 1.0, end), hi[:, None])
            p, c = np.nonzero(a_hi > a_lo)
            w, c_w = np.nonzero(wrap)
            b_hi = np.minimum(hi[w], end[w, c_w])  # [0.0, end] meets [lo, hi), lo >= 0.0
            keep = b_hi > lo[w]
            w = w[keep]
            lo = np.concatenate([a_lo[p, c], lo[w]])
            hi = np.concatenate([a_hi[p, c], b_hi[keep]])
            row, i = np.concatenate([row[p], row[w]]), np.concatenate([i[p], i[w]])
        order = np.lexsort((lo, row))
        row, length = row[order], (hi - lo)[order]
        rank = np.arange(len(row)) - np.searchsorted(row, row)
        out = values[first:first + step]
        for r in range(rank.max(initial=-1) + 1):
            at = rank == r
            out[row[at]] += length[at]
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
    alphas = _tail_alphas(start_index, len(gens))
    return FSTail(gens, start_index, tuple((a, sum(gens[i - 1] for i in a)) for a in alphas))


def _tail_alphas(start_index: int, m: int) -> list[tuple[int, ...]]:
    """The index sets of fs_tail's sums, in its order: past start_index among
    m generators (1-based), by size and then lexicographically."""
    live = range(start_index + 1, m + 1)
    return [alpha for r in range(1, len(live) + 1) for alpha in combinations(live, r)]


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
        self._prefix = None, None  # (depth, base.prefix(depth))

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
        the columns of m, base's prefix up to its last active column."""
        power_sums = [
            sum(self._entry(m) for m in combinations_with_replacement(alpha, d))
            for d in range(self._degree + 1)
        ]
        residues = [
            list(sum(c * s for c, s in zip(p, power_sums) if c) % self._moduli)
            for p in self.polys
        ]
        depth = max((col + 1 for r in residues for col, x in enumerate(r) if x), default=0)
        if self._prefix[0] != depth:
            self._prefix = depth, self.base.prefix(depth)
        return self._prefix[1], [r[:depth] for r in residues]
