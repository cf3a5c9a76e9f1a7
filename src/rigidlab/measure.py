"""Atomic torus measures sampled from schedules and their Fourier analysis.

Every measure keeps a product structure: each atom is a word of cell digits
(one digit per column), and the represented point is
scale * sum digit * alpha mod 1.  Sampled measures have one column per
schedule level and coordinate; explicit rational atoms are one column with
alpha = 1/L, L the lcm of their denominators.  Fourier coefficients at huge
integer arguments t go through exact integers first: residues(t) gives
t * scale * p mod q per column alpha = p/q (skew.ShiftResidues gives the same
residues for the finite-sums scans without reducing t), and phases gives each
digit the correctly rounded (d * r mod q) / q, so no precision is lost to
floating-point reduction of astronomically large products; the float stage
after it only ever adds a handful of numbers in [0, 1).  verify_dichotomy
needs sigma-hat at every combination sum_j a_j phi_j(n_k) of a level: it reduces
each digit against each phi_j(n_k) once, to R_j = d * r_j mod q, and every
combination's digit residues are sum_j a_j R_j mod q, the integers phases
would reduce, so the correctly rounded floats are the same.

Free columns skip the big-integer division.  A free coordinate's column holds
up to k! small digits d, and at a near-rigid shift its residue x1 = r mod q
is so small that no digit wraps (max(d) * x1 < q), so each phase is the
correctly rounded d * x1 / q.  phases takes these from a float kernel
(_certified_quotients) on columns of at least _KERNEL_FLOOR digits below
2^26.  With y = x1 * 2^s / q scaled into [1/2, 1) and split once in integers
into hi + mid (hi the correctly rounded y, mid the correctly rounded
remainder), d * hi is exact as two products of at most 53 bits and one
Fast2Sum (Dekker, 1971), and a second Fast2Sum gives R + u = head + tail,
tail = e + d * mid.  Error budget: each of the three float stages, rounding
mid, d * mid and tail, errs by at most 2^-53 of its result, plus 2^-1075 if
it underflows, so

    |d * y - (R + u)| <= 2^-52 (|d * mid| + |tail|)(1 + 2^-52) + 2^-1047.

A digit keeps R only if |u| + 2^-51 (|d * mid| + |tail|) + 2^-1000 lies
strictly inside half the gap from R to either neighbouring double (Ziv's
rounding test, 1991); then R is the correctly rounded d * y, and R * 2^-s,
exact where it is a normal double, the correctly rounded d * x1 / q.  Every
other digit (ties, near-ties, d = 0, subnormal results) is recomputed from
the integers, so the phases stay bitwise those of the exact expression.

The combinations skip the big-integer reduction the same way
(_combination_phases).  Each R_j becomes F_j = floor(R_j 2^128 / q) =
R_j 2^128 / q - e_j, 0 <= e_j < 1, once per level, held in four 32-bit limbs.
Per vector a, T = sum_j a_j F_j mod 2^128 is an exact int64 sum per limb,
carried and masked.  With s = sum_j a_j R_j mod q and A = sum_j |a_j|, T
equals 2^128 s / q - sum_j a_j e_j unless that falls outside [0, 2^128): so
|T 2^-128 - s / q| < A 2^-128, or the sum wrapped, and then T < A or
T >= 2^128 - A.  The limbs v_i = L_i 2^(32 i - 128) are exact doubles; head +
e = v_3 + v_2 by Fast2Sum, w = v_1 + v_0, tail = e + w, and Fast2Sum again
gives R + u = head + tail.  No nonzero value lies below 2^-128, so nothing
underflows, and only w and tail are rounded, each by at most 2^-53 of
itself:

    |s / q - (R + u)| < 2^-53 (w + |tail|) + A 2^-128.

A digit keeps R only if |u| + 2^-52 (w + |tail|) + A 2^-127, which exceeds
that bound also after its own rounding, lies strictly inside half the
smaller gap from R to a neighbouring double.  That also refuses a wrap to
T < A, where R < A 2^-128 and half the gap is below 2^-53 R.  A wrap to
T >= 2^128 - A rounds R to 1.0 with -u below the test's budget, so R = 1.0 is
kept only where -u exceeds that budget.  Digits whose R_j are 0 for every
nonzero a_j are exactly 0.0; every other refused digit (exact zeros by
cancellation, phases below about 2^-60, near-ties) comes from the integers.

Exact positions and weights stay in integers as well.  Word i weighs
counts[i] / W for one denominator W (n_samples when sampled, the lcm of the
weight denominators for explicit atoms).  atoms sums each word's numerator
over the common denominator L of the column alphas and merges the counts of
equal numerators, and the explicit-atom constructor (and with it from_json)
merges and sorts on the numerators x * L mod L.  Canonical atom texts are
read into integers and written from them; only atoms builds Fractions.

The words of a measure are distinct rows of its code matrix in increasing
lexicographic order (sample_sigma's lexsort of its packed mixed-radix word
keys and the explicit-atom arange produce them so), so the words sharing
columns 0..j form contiguous runs.  phases, the dichotomy coefficients and
atoms (on integer numerators) walk that prefix tree column by column: each
run adds its column's value once to its parent run's partial sum, instead of
every word gathering every column.  Each word still receives the same float
additions in the same order, so the result is bitwise that of the
word-by-word sum.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, product
from typing import Sequence

import numpy as np

from . import families as fm
from . import lattice as lat
from .errors import CapExceeded, PreconditionError, UnsupportedShape
from .schedule import Schedule, build_schedule, check_schedule

SAMPLE_CAP = 10**7
COEFF_CAP = 5
# The certified column kernel takes digits below 2^26, so that each digit
# times a 27-bit half of a double is exact, and columns of at least
# _KERNEL_FLOOR digits: its fixed cost, ~30 us per column, against ~0.6 us
# per digit of the exact expression, is paid back from ~50 digits on
# (measured on the cor66/cor67 scan columns, 2-CPU x86-64 machine).
_DIGIT_LIMIT = 2**26
_KERNEL_FLOOR = 64
_TINY = float(np.finfo(float).tiny)  # 2^-1022, the smallest normal double


@dataclass(frozen=True)
class GroupCellStructure:
    """Product decomposition of lambda_G used by the sampler.

    support holds the coordinates (0-indexed) genuinely constrained by G;
    free coordinates carry plain Lebesgue measure.  rep_points are the
    annihilator representatives of the support part.
    """

    support: tuple[int, ...]
    free: tuple[int, ...]
    rep_points: tuple[tuple[Fraction, ...], ...]


def group_cell_structure(G: lat.Lattice) -> GroupCellStructure:
    free = tuple(
        j for j in range(G.ambient_dim) if all(row[j] == 0 for row in G.basis)
    )
    support = tuple(j for j in range(G.ambient_dim) if j not in free)
    if not support:
        return GroupCellStructure((), free, ((),))
    sub = lat.canonicalize(
        [[row[j] for j in support] for row in G.basis], len(support)
    )
    if lat.index_in_ambient(sub) == lat.INFINITE:
        raise UnsupportedShape(
            "cell weights support finite-index groups and products with "
            "unconstrained coordinates only"
        )
    ann = lat.annihilator(sub)
    return GroupCellStructure(support, free, ann.finite_reps)


def _support_cells(structure: GroupCellStructure, k: int):
    """Merged (cell digits on support coords, count) pairs at level k; a
    cell weighs its count of representatives over len(rep_points)."""
    kf = math.factorial(k)
    merged: dict[tuple[int, ...], int] = {}
    for rep in structure.rep_points:
        cell = tuple(y.numerator * kf // y.denominator for y in rep)  # y in [0, 1)
        merged[cell] = merged.get(cell, 0) + 1
    return sorted(merged.items())


def _prefix_runs(codes: np.ndarray) -> list[tuple[np.ndarray | None, np.ndarray]]:
    """Per column j, (parent, code) of the runs of rows sharing columns 0..j.

    parent[r] is the run at column j - 1 that run r extends (None where the
    runs map one to one or extend a single parent, so no gather is needed)
    and code[r] its column-j code.  The last column's runs are the rows.
    Refuses rows that are not strictly increasing in lexicographic order:
    each row must exceed the one before at the first column they differ.
    """
    n, cols = codes.shape
    step = codes[1:] != codes[:-1]  # where row i + 1 differs from row i
    at = (np.arange(n - 1), step.argmax(axis=1)) if cols else None
    if n > 1 and (at is None or not (codes[1:][at] > codes[:-1][at]).all()):
        raise PreconditionError(
            "words must be distinct code rows in increasing lexicographic order"
        )
    splits = np.logical_or.accumulate(step, axis=1)
    runs = []
    prev_ids = np.zeros(n, dtype=np.intp)
    prev_count = min(n, 1)
    for col in range(cols):
        starts = np.ones(n, dtype=bool)
        starts[1:] = splits[:, col]
        first = np.flatnonzero(starts)
        parent = None
        if prev_count not in (1, len(first)):
            parent = prev_ids[first]
        # intp codes index without a cast on every phases call
        runs.append((parent, codes[first, col].astype(np.intp)))
        prev_ids = np.cumsum(starts) - 1
        prev_count = len(first)
    return runs


class AtomicMeasure:
    """Finite weighted point set on [0, 1) in product form.

    Distinct words are encoded as category columns: codes[i, col] indexes the
    exact digit categories[col][...] of word i, the word's position is
    scale * sum_col digit * alpha_col mod 1, and its weight is the integer
    count counts[i] over the one denominator shared by all words (weights_np
    holds the correctly rounded floats).  sample_sigma builds one column
    per schedule level and coordinate; explicit rational atoms become one
    column with alpha = 1/L (L the lcm of the denominators) and digit
    x * L mod L.  Exact positions are materialized on demand by atoms, from
    integer numerators over one common denominator; Fourier analysis reduces
    t * digit * alpha mod 1 with raw integer arithmetic (residues, then per
    category in phases), so huge arguments lose nothing before the final
    float.

    The rows of codes must be distinct and strictly increasing in
    lexicographic order (PreconditionError otherwise): phases evaluates them
    over the prefix tree of runs that order makes contiguous, built once here
    and shared by pushforward_scale images.
    """

    def __init__(
        self,
        atoms=None,
        *,
        alphas=None,
        categories=None,
        codes=None,
        counts=None,
        denominator=None,
    ):
        self._atoms = None
        if atoms is not None:
            parsed = []  # (x numerator, x denominator, w numerator, w denominator)
            for x, w in atoms:
                parsed.append(_rational(x) + _rational(w))
                if parsed[-1][2] <= 0:
                    raise PreconditionError("atom weights must be positive")
            x_dens, w_dens = {a[1] for a in parsed}, {a[3] for a in parsed}
            L, denominator = math.lcm(*x_dens), math.lcm(*w_dens)
            x_step = {q: L // q for q in x_dens}
            w_step = {q: denominator // q for q in w_dens}
            merged: dict[int, int] = {}
            for xn, xd, wn, wd in parsed:
                key = xn * x_step[xd] % L  # x mod 1 = key / L
                merged[key] = merged.get(key, 0) + wn * w_step[wd]
            digits = sorted(merged)
            alphas = ((Fraction(1, L),),)
            categories = [digits]
            codes = np.arange(len(digits), dtype=np.uint32).reshape(-1, 1)
            counts = [merged[d] for d in digits]
        elif codes is None:
            raise PreconditionError("measure needs atoms or a sampled structure")
        self.alphas = alphas
        self.categories = categories  # list per column of digit values
        self.codes = codes  # uint32 array (n_words, n_columns)
        self.counts = counts  # word i weighs counts[i] / denominator, ints
        self.denominator = denominator
        # int/int true division is correctly rounded at any size, so each
        # entry is float(Fraction(c, denominator)) bit for bit
        self.weights_np = np.array([c / denominator for c in counts])
        self.scale = 1  # pushforward_scale images multiply it
        self._runs = _prefix_runs(codes)
        self._float_columns: dict = {}  # filled by _float_column; images share it

    def _flat_alphas(self) -> list[Fraction]:
        return [a for level in self.alphas for a in level]

    @property
    def atoms(self) -> tuple:
        """Distinct (position, weight) Fractions in increasing position order."""
        if self._atoms is None:
            L, pairs = self._integer_atoms()
            self._atoms = tuple((Fraction(x, L), Fraction(c, self.denominator)) for x, c in pairs)
        return self._atoms

    def _integer_atoms(self) -> tuple[int, list[tuple[int, int]]]:
        """(L, [(x, c), ...]): the atoms x / L with weight c / denominator.

        Each word's position is the integer numerator scale * sum d * p * (L/q)
        over the common denominator L of the column alphas p/q, summed over
        the prefix tree; words merge their counts on equal numerators mod L.
        """
        flat = self._flat_alphas()
        L = math.lcm(*(a.denominator for a in flat))
        scale = int(self.scale)
        columns = []
        for a, digits in zip(flat, self.categories, strict=True):
            step = scale * a.numerator * (L // a.denominator)
            columns.append(np.array([int(d) * step % L for d in digits], dtype=object))
        merged: dict[int, int] = {}
        for x, c in zip(self._tree_sum(columns, object).tolist(), self.counts):
            x %= L
            merged[x] = merged.get(x, 0) + c
        return L, [(x, merged[x]) for x in sorted(merged)]

    def residues(self, t: int) -> list[int]:
        """Per column, t * scale * p mod q for the column's alpha p/q.

        The column phase of t is this residue over q; it is reduced with
        integer divmod (no gcd normalization), so huge t lose nothing.
        """
        ts = int(t) * int(self.scale)
        return [(ts % a.denominator) * a.numerator % a.denominator
                for a in self._flat_alphas()]

    def phases(self, residues: Sequence[int]):
        """numpy array of (t * position mod 1) per word, given residues(t).

        Any integers congruent to residues(t) modulo the column denominators
        give the same result.  Each column's digit phases are the correctly
        rounded (d * r mod q) / q, bit for bit (_digit_phases): from the
        exact integers, or, on a long column of small digits whose residue
        does not wrap, from the float kernel _certified_quotients.  Its
        budget (module docstring): per digit, the exact scaled quotient lies
        within 2^-52 (|d * mid| + |tail|)(1 + 2^-52) + 2^-1047 of R + u, and
        R is kept only where |u| + 2^-51 (|d * mid| + |tail|) + 2^-1000 is
        below half the gap from R to its neighbours; the other digits fall
        back to the exact integers.
        """
        denominators = [a.denominator for a in self._flat_alphas()]
        return _mod1(self._tree_sum([
            _digit_phases(q, digits, r, self._float_column(col))
            for col, (q, digits, r) in enumerate(
                zip(denominators, self.categories, residues, strict=True))
        ]))

    def _float_column(self, col: int):
        """(float64 digits, largest digit) of a column the certified kernel
        may take, at least _KERNEL_FLOOR digits all in [0, 2^26), else None.
        Built on first use into a dict that pushforward_scale images share,
        so a measure converts each column once."""
        if col not in self._float_columns:
            digits = self.categories[col]
            self._float_columns[col] = (
                (np.array(digits, dtype=float), max(digits))
                if len(digits) >= _KERNEL_FLOOR and 0 <= min(digits)
                and max(digits) < _DIGIT_LIMIT else None
            )
        return self._float_columns[col]

    def _tree_sum(self, columns, dtype=float) -> np.ndarray:
        """Per word, the sum of its category values, one array per column.

        The values are summed over the prefix tree: partial_j =
        partial_{j-1}[parent_j] + column_j[code_j], starting from zero, which
        adds each run's value once and gives every word the word-by-word sum
        0 + column_0 + ... + column_{c-1} in that order, bit for bit.
        """
        partial = np.zeros(min(len(self.codes), 1), dtype=dtype)  # the empty prefix
        for (parent, code), column in zip(self._runs, columns, strict=True):
            if parent is not None:
                partial = partial[parent]
            partial = partial + column[code]
        return partial

    def to_json(self) -> dict:
        L, pairs = self._integer_atoms()
        return {
            "atoms": [[_ratio_text(x, L), _ratio_text(c, self.denominator)] for x, c in pairs],
        }

    @staticmethod
    def from_json(obj: dict) -> "AtomicMeasure":
        return AtomicMeasure(obj["atoms"])

    def __eq__(self, other):
        return isinstance(other, AtomicMeasure) and self.atoms == other.atoms

    def __repr__(self):
        words, cols = self.codes.shape
        return f"AtomicMeasure({words} words, {cols} columns)"


def _digit_phases(q: int, digits, r: int, floats) -> np.ndarray:
    """(d * r mod q) / q per digit d, correctly rounded.

    floats is the column's _float_column entry.  Where it exists, r mod q is
    nonzero and no digit wraps (max(d) * (r mod q) < q), the quotients come
    from _certified_quotients; otherwise from the exact integers.
    """
    if floats is not None:
        x1 = r % q
        if x1 and floats[1] * x1 < q:
            return _certified_quotients(floats[0], x1, q)
    # int/int true division is correctly rounded at any size
    return np.array([(int(d) * r % q) / q for d in digits])


def _certified_quotients(d: np.ndarray, x1: int, q: int) -> np.ndarray:
    """d * x1 / q per digit, the correctly rounded float of the exact
    quotient, for float digits d in [0, 2^26) with max(d) * x1 < q.

    hi = m / 2^53 is halved exactly into (m >> 27) / 2^26 + (m mod 2^27) /
    2^53, so each digit's two products are exact; the error budget is the
    module docstring's.  Its test b = 2^-51 (|d * mid| + |tail|) + 2^-1000
    exceeds the bound also after its own rounding, and g / 2, half the
    smaller gap from R to a neighbouring double, is a power of two, so the
    float comparison |u| + b < g / 2 is never true when the exact one is
    false.  R * 2^-s is exact where it exceeds the smallest normal double.
    The digits the test refuses are recomputed from the exact integers.
    """
    s = q.bit_length() - x1.bit_length()
    if x1 << s >= q:
        s -= 1
    hi = (x1 << s) / q  # in [1/2, 1]
    m = int(hi * 2.0**53)
    mid = ((x1 << (s + 53)) - m * q) / (q << 53)
    p1 = d * ((m >> 27) / 2.0**26)
    p2 = d * ((m & (2**27 - 1)) / 2.0**53)  # |p2| <= |p1|: Fast2Sum applies
    head = p1 + p2
    dm = d * mid
    tail = (p2 - (head - p1)) + dm
    R = head + tail  # |tail| <= |head|
    u = tail - (R - head)
    budget = (np.abs(dm) + np.abs(tail)) * 2.0**-51 + 2.0**-1000
    gap = np.minimum(np.nextafter(R, np.inf) - R, R - np.nextafter(R, -np.inf))
    out = np.ldexp(R, -s)
    for i in np.flatnonzero(~((np.abs(u) + budget < 0.5 * gap) & (out > _TINY))):
        out[i] = int(d[i]) * x1 / q  # d[i] is an exact integer; below q: no reduction
    return out


def _mod1(x: np.ndarray) -> np.ndarray:
    """x mod 1: equals x % 1.0 bit for bit on finite values, and is cheaper."""
    return x - np.floor(x)


def _rational(x) -> tuple[int, int]:
    """Fraction(x) as (numerator, denominator).  Canonical ASCII "p" and "p/q"
    (digits, an optional leading "-", q > 0) skip Fraction; every other form
    goes through it, so what is accepted and refused is what it does."""
    if isinstance(x, str) and x.isascii():
        p, slash, q = x.partition("/")
        if (p[1:] if p[:1] == "-" else p).isdigit() and (q.isdigit() or not slash):
            p, q = int(p), int(q) if slash else 1
            if q:
                g = math.gcd(p, q)
                return p // g, q // g
    x = Fraction(x)
    return x.numerator, x.denominator


def _ratio_text(p: int, q: int) -> str:
    """str(Fraction(p, q)) for q > 0, without building the Fraction."""
    g = math.gcd(p, q)
    return str(p // g) if g == q else f"{p // g}/{q // g}"


def _fold(words: list, code: np.ndarray, radix: int) -> None:
    """Append one column to the mixed-radix words: code holds uint64 values
    in [0, radix), and words is a list of (key, radices) pairs, the first
    key most significant.  The column joins the last key, or a new one where
    the product of that key's radices times radix would pass 2^64."""
    if math.prod(words[-1][1]) * radix > 2**64:
        words.append((np.zeros(len(code), dtype=np.uint64), []))
    key, radices = words[-1]
    key *= np.uint64(radix)
    key += code
    radices.append(radix)


def _distinct_words(words: list) -> tuple[list, np.ndarray]:
    """The distinct words of a non-empty _fold list, in increasing order of
    their keys, first key first, as a list of the same form, and the count
    of each: one lexsort over the keys and a comparison of adjacent rows."""
    order = np.lexsort([key for key, _ in reversed(words)])
    ordered = [(key[order], radices) for key, radices in words]
    changed = np.zeros(len(order) - 1, dtype=bool)
    for key, _ in ordered:
        changed |= key[1:] != key[:-1]
    first = np.flatnonzero(np.concatenate(([True], changed)))
    return [(key[first], radices) for key, radices in ordered], np.diff(first, append=len(order))


def _unpack(words: list):
    """Yield (column, code) for every column of a _fold list, last column
    first: each key's codes are the digits of its mixed-radix value."""
    col = sum(len(radices) for _, radices in words)
    for key, radices in reversed(words):
        for radix in reversed(radices):
            col -= 1
            key, code = np.divmod(key, np.uint64(radix))
            yield col, code


def sample_sigma(
    G: lat.Lattice,
    s: Schedule,
    fam: fm.SequenceFamily,
    n_samples: int,
    seed: int,
) -> AtomicMeasure:
    """Monte Carlo draws from the product of level measures P_k.

    Each draw picks, independently per level, a support cell according to
    lambda_G and uniform digits on the free coordinates; equal words merge,
    and each weighs its integer count over N = n_samples.  Reproducible from
    the seed.

    No samples x columns matrix is built.  Right after its draw, each column
    becomes a code that increases with its digit (a support coordinate's
    rank among the level's cell values, a free coordinate's digit itself,
    of radix k!) and is folded into uint64 mixed-radix keys, most
    significant column first (_fold).  A key starts anew before the product
    of its radices would pass 2^64, so no key overflows: a key with radices
    r_1, ..., r_m holds sum_i c_i prod_{i' > i} r_i' <= prod_i r_i - 1 <
    2^64.  As the codes increase with the digits, the order of the key lists
    is the lexicographic order of the words, so one lexsort and a comparison
    of adjacent rows give the distinct words in the order AtomicMeasure
    requires (_distinct_words).  Their codes, read back from the keys
    (_unpack), index each column's digits in increasing order.
    """
    if n_samples < 1:
        raise PreconditionError("need at least one sample")
    if seed < 0:
        raise PreconditionError("the seed must be non-negative")
    if n_samples > SAMPLE_CAP:
        raise CapExceeded(f"{n_samples} samples exceed the cap {SAMPLE_CAP}")
    if s.depth < 1:
        raise PreconditionError("sampling needs a schedule of depth at least 1")
    if G.ambient_dim != fam.size:
        raise PreconditionError("group dimension differs from family size")
    report = check_schedule(s, fam)
    if not report.all_pass():
        raise PreconditionError("schedule does not pass its exact residual check")
    structure = group_cell_structure(G)
    if structure.free and math.factorial(s.depth) > 2**62:
        raise CapExceeded(
            "free-coordinate sampling is limited to levels with k! below 2^62"
        )
    rng = np.random.default_rng(seed)
    words = [(np.zeros(n_samples, dtype=np.uint64), [])]
    digits = []  # per column, its digits indexed by code (range(k!) when free)
    for k in range(1, s.depth + 1):
        kf = math.factorial(k)
        cells = _support_cells(structure, k)
        reps = len(structure.rep_points)
        probs = np.array([c / reps for _, c in cells])  # correctly rounded weights
        probs /= probs.sum()
        picks = rng.choice(len(cells), size=n_samples, p=probs)
        per_coord = [None] * fam.size
        for pos, j in enumerate(structure.support):
            values = sorted({cell[pos] for cell, _ in cells})
            rank = {v: i for i, v in enumerate(values)}
            ranks = np.array([rank[cell[pos]] for cell, _ in cells], dtype=np.uint64)
            per_coord[j] = (ranks[picks], values)
        for j in structure.free:
            drawn = rng.integers(0, kf, size=n_samples, dtype=np.int64)
            per_coord[j] = (drawn.view(np.uint64), range(kf))
        for code, values in per_coord:
            _fold(words, code, len(values))
            digits.append(values)
    distinct, counts = _distinct_words(words)
    categories = [None] * len(digits)
    codes = np.empty((len(counts), len(digits)), dtype=np.uint32)
    for col, code in _unpack(distinct):
        present, codes[:, col] = np.unique(code, return_inverse=True)
        categories[col] = [digits[col][c] for c in present.tolist()]
    return AtomicMeasure(
        alphas=s.alphas, categories=categories, codes=codes,
        counts=counts.tolist(), denominator=n_samples,
    )


def _transform(m: AtomicMeasure, phases: np.ndarray) -> complex:
    """sum w * e^{2 pi i phase} over the words, given their phases t * x mod 1."""
    angles = 2 * math.pi * phases
    w = m.weights_np
    return complex(np.dot(w, np.cos(angles)), np.dot(w, np.sin(angles)))


def fourier_coefficient(m: AtomicMeasure, t: int) -> complex:
    """sigma-hat(t) = sum w * e^{2 pi i t x}, double precision output."""
    return _transform(m, m.phases(m.residues(t)))


def _combination_coefficients(
    m: AtomicMeasure, values: Sequence[int], vectors: Sequence[Sequence[int]]
):
    """sigma-hat(sum_j a_j values_j) per vector a, bitwise those of
    fourier_coefficient.

    residues(t) and each digit's product d * r mod q are linear in t modulo
    the column denominator q, so the digit residues of sum_j a_j values_j are
    sum_j a_j R_j mod q, with R_j the digit residues of values_j, computed
    once per value for the digits of all columns side by side.  With more
    vectors than values, each vector's phases come from the fixed-point
    kernel _combination_phases over the limbs of floor(R_j * 2^128 / q),
    built once here; otherwise (the unit vectors of the Gaussian transfer)
    building them costs more than it saves, and every digit takes one
    small-integer combination and one reduction, _exact_phases.  Either way
    each digit's phase is the correctly rounded (sum_j a_j R_j mod q) / q,
    as phases gives it.
    """
    denominators = [a.denominator for a in m._flat_alphas()]
    residues = [m.residues(v) for v in values]
    # q per digit, and an (l, digits) matrix whose row j holds d * r mod q
    # per digit d, r its column's residue of values_j
    qs = np.array([q for q, digits in zip(denominators, m.categories) for _ in digits],
                  dtype=object)
    basis = np.array([
        [int(d) * r[col] % q
         for col, (q, digits) in enumerate(zip(denominators, m.categories)) for d in digits]
        for r in residues
    ], dtype=object)
    bounds = list(accumulate(len(digits) for digits in m.categories[:-1]))
    table = (_fixed_point_limbs(basis, qs), basis == 0) if len(vectors) > len(values) else None
    for a in vectors:
        phases = (_exact_phases(a, basis, qs) if table is None
                  else _combination_phases(a, basis, qs, *table))
        yield _transform(m, _mod1(m._tree_sum(np.split(phases, bounds))))


def _exact_phases(a: Sequence[int], basis: np.ndarray, qs: np.ndarray) -> np.ndarray:
    """(sum_j a_j basis[j] mod q) / q per digit, from the exact integers."""
    # Python ints: the combination stays exact, and int/int true division
    # is correctly rounded at any size
    return (np.array(a, dtype=object) @ basis % qs / qs).astype(float)


def _fixed_point_limbs(basis: np.ndarray, qs: np.ndarray) -> np.ndarray:
    """F = floor(R * 2^128 / q) of every basis entry R in [0, q), as an int64
    (l, 4, digits) array of its 32-bit limbs, least significant first."""
    raw = b"".join(f.to_bytes(16, "little") for f in ((basis << 128) // qs).flat)
    limbs = np.frombuffer(raw, dtype="<u4").reshape(*basis.shape, 4)
    return limbs.transpose(0, 2, 1).astype(np.int64, order="C")


def _combination_phases(a, basis, qs, limbs, zero) -> np.ndarray:
    """(sum_j a_j R_j mod q) / q per digit, correctly rounded, for R_j =
    basis[j], its limbs from _fixed_point_limbs and zero = basis == 0.

    The float stage, its error budget and Ziv's test are the module
    docstring's; sum |a_j| < 2^31 keeps the limb sums inside int64.  The
    digits the test refuses are recomputed by _exact_phases.
    """
    total = np.zeros(limbs.shape[1:], dtype=np.int64)
    exact_zero = np.ones(len(qs), dtype=bool)
    for j, c in enumerate(a):
        if c:
            total += c * limbs[j]
            exact_zero &= zero[j]
    for i in range(3):
        total[i + 1] += total[i] >> 32  # arithmetic shift: floor division
    total &= 2**32 - 1
    v0, v1, v2, v3 = (limb * 2.0 ** (32 * i - 128) for i, limb in enumerate(total))
    head = v3 + v2  # Fast2Sum: v3 = 0 or v3 > v2
    w = v1 + v0
    tail = (v2 - (head - v3)) + w
    R = head + tail  # Fast2Sum: head = 0 or |tail| <= |head|
    u = tail - (R - head)
    budget = (w + np.abs(tail)) * 2.0**-52 + sum(abs(c) for c in a) * 2.0**-127
    # half the smaller gap from R to a neighbouring double, a power of two
    half_gap = 0.5 * np.spacing(np.nextafter(R, 0.0))
    keep = (np.abs(u) + budget < half_gap) & ((R < 1.0) | (-u > budget))
    # where every F_j with a_j != 0 is 0, so is T, and R = 0.0 is exact
    refused = np.flatnonzero(~(keep | exact_zero))
    R[refused] = _exact_phases(a, basis[:, refused], qs[refused])
    return R


def pushforward_scale(m: AtomicMeasure, factor: int) -> AtomicMeasure:
    """Image measure under x -> factor * x mod 1; equal images merge in atoms."""
    if factor < 1:
        raise PreconditionError("scale factor must be a positive integer")
    image = copy.copy(m)  # shares codes, counts and their prefix runs
    image.scale = m.scale * factor
    image._atoms = None  # positions move; materialized again on demand
    return image


@dataclass
class DichotomyRow:
    level: int
    vector: tuple[int, ...]
    coefficient: complex
    target: int
    deviation: float


@dataclass
class DichotomyReport:
    rows: list[DichotomyRow]
    tolerance: float

    def max_deviation(self, level: int | None = None) -> float:
        rows = [r for r in self.rows if level is None or r.level == level]
        return max(r.deviation for r in rows)

    def passes(self, top_level: int) -> bool:
        return self.max_deviation(top_level) <= self.tolerance

    def to_csv(self) -> str:
        lines = ["k,a,abs_coeff,target,deviation"]
        for r in self.rows:
            vec = " ".join(str(c) for c in r.vector)
            lines.append(
                f"{r.level},{vec},{abs(r.coefficient):.12g},{r.target},{r.deviation:.12g}"
            )
        return "\n".join(lines) + "\n"


def verify_dichotomy(
    m: AtomicMeasure,
    s: Schedule,
    fam: fm.SequenceFamily,
    G: lat.Lattice,
    coeff_bound: int,
    tol: float,
) -> DichotomyReport:
    """Compare sigma-hat(sum a_j phi_j(n_k)) with the exact group character.

    The target is 1 for a in G and 0 otherwise; the report carries the
    deviation per (level, vector) and passes when the top level stays within
    the tolerance.
    """
    if coeff_bound < 0:
        raise PreconditionError("coefficient bound must be nonnegative")
    if coeff_bound > COEFF_CAP:
        raise CapExceeded(
            f"coefficient bound {coeff_bound} exceeds the cap {COEFF_CAP}"
        )
    vectors = list(product(range(-coeff_bound, coeff_bound + 1), repeat=fam.size))
    targets = [lat.character_integral(G, a) for a in vectors]
    rows = []
    for k in range(1, s.depth + 1):
        vals = fm.evaluate(fam, s.indices[k - 1])
        coeffs = _combination_coefficients(m, vals, vectors)
        for a, target, coeff in zip(vectors, targets, coeffs):
            rows.append(
                DichotomyRow(k, a, coeff, target, abs(coeff - target))
            )
    return DichotomyReport(rows, tol)


def build_measure_for_group(
    fam: fm.SequenceFamily,
    G: lat.Lattice,
    depth: int,
    n_samples: int,
    seed: int,
):
    """Reduction, schedule, sampling and rescaling in one pipeline.

    Returns (measure, schedule, reduction, image_group); the measure targets
    the rigidity/mixing dichotomy of (fam, G) through the image group of the
    reduction and the final scale pushforward.  `fm.reduce_family` owns the
    preconditions: a polynomial, adequate family and a G of its dimension
    that contains A(phi).
    """
    red, g_tilde = fm.reduce_family(fam, G)
    subfam = fm.subfamily(fam, red)
    sched = build_schedule(subfam, depth)
    rho = sample_sigma(g_tilde, sched, subfam, n_samples, seed)
    sigma = pushforward_scale(rho, red.scale)
    return sigma, sched, red, g_tilde
