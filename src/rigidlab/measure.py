"""Atomic torus measures sampled from schedules and their Fourier analysis.

Every measure keeps a product structure: each atom is a word of cell digits
(one digit per column), and the represented point is the sum of digit *
alpha over the columns, mod 1.  Sampled measures have one column per schedule
level and coordinate; explicit rational atoms are one column with alpha =
1/L, L the lcm of their denominators; the pushforward image under x -> f * x
has the alphas f * alpha mod 1.  Fourier coefficients at huge integer
arguments t go through exact integers first: residues(t) gives t * p mod q
per column alpha = p/q (skew.ShiftResidues gives the same residues for the
finite-sums scans without reducing t), and phases gives each digit the
correctly rounded (d * r mod q) / q, so no precision is lost to
floating-point reduction of astronomically large products; the float stage
after it only ever adds a handful of numbers in [0, 1).  sigma-hat at one t
(fourier_coefficient, the Gaussian transfer's too) goes through phases;
verify_dichotomy needs it at every combination sum_j a_j phi_j(n_k) of a
level: it reduces each digit against each phi_j(n_k) once, to R_j = d * r_j
mod q, and every combination's digit residues are sum_j a_j R_j mod q, the
integers phases would reduce, so the correctly rounded floats are the same.

Two kinds of phase skip the big-integer division through one 128-bit fixed
point: each gives an integer T, as int64 sums of its 32-bit limbs, and an
integer A < 2^31 (so limb products fit int64) with |T 2^-128 - y| < A 2^-128
for the wanted y in [0, 1], unless T wrapped.  Long columns
(_column_quotients), at x1 = r mod q > 0: with s = max(0, bits(q) - bits(max(d)
x1) - 1) and F = floor(x1 2^(128+s) / q) = x1 2^(128+s) / q - e, 0 <= e < 1,
each digit d gives T = d F mod 2^128, y = frac(d x1 2^s / q), A = d and the
phase R 2^-s (s > 0 only where no digit wraps, max(d) x1 2^s < q); T = 2^128 y
- d e unless it wrapped to T >= 2^128 - A.  A near-rigid shift's free x1 is
that small, and without the shift A 2^-128 would refuse most of its digits.
Combinations (_combination_phases): F_j = floor(R_j 2^128 / q) =
R_j 2^128 / q - e_j, 0 <= e_j < 1, once per level, and per vector a, T =
sum_j a_j F_j mod 2^128, y = (sum_j a_j R_j mod q) / q and A = sum_j |a_j|;
T = 2^128 y - sum_j a_j e_j unless the sum wrapped, to T < A or T >= 2^128 - A.

The rounding stage (_round_fixed_point) carries the limbs; v_i = L_i 2^(32 i
- 128) are exact doubles, head + e = v_3 + v_2 by Fast2Sum (Dekker, 1971),
w = v_1 + v_0, tail = e + w, and Fast2Sum again gives R + u = head + tail.
Nothing underflows (no nonzero value is below 2^-128), and only w and tail
are rounded, each by at most 2^-53 of itself:

    |y - (R + u)| < 2^-53 (w + |tail|) + A 2^-128.

A digit keeps R only if |u| + 2^-52 (w + |tail|) + A 2^-127, which exceeds
that bound also after its own rounding, lies strictly inside half the
smaller gap from R to a neighbouring double (Ziv's rounding test, 1991).
That refuses a wrap to T < A, where R < A 2^-128 and half the gap is below
2^-53 R; a wrap to T >= 2^128 - A rounds R to 1.0 with -u below the budget,
so R = 1.0 is kept only where -u exceeds it.  Digits whose T is 0 by
construction (d = 0, or R_j = 0 for every nonzero a_j) are exactly 0.0.
Every other refused digit (zeros by cancellation, combination phases below
about 2^-60, near-ties), and every column phase R 2^-s below the smallest
normal double (the shift would round twice), comes from the integers, so
the phases stay bitwise those of the exact expression.

Exact positions and weights stay in integers as well.  Word i weighs
counts[i] / W for one denominator W (n_samples when sampled, the lcm of the
weight denominators for explicit atoms).  atoms sums each word's numerator
over the common denominator L of the column alphas and merges the counts of
equal numerators, and the explicit-atom constructor (and with it from_json)
merges and sorts on the numerators x * L mod L.  Canonical atom texts are
read into integers and written from them; only atoms builds Fractions.

The words of a measure are distinct rows of its code matrix in increasing
lexicographic order (_distinct_rows and the explicit-atom arange produce
them so), so the words sharing columns 0..j form contiguous runs.  phases,
the dichotomy coefficients and atoms (on integer numerators) walk that
prefix tree column by column: each run adds its column's value once to its
parent run's partial sum, instead of every word gathering every column.
Each word still receives the same float additions in the same order, so the
result is bitwise that of the word-by-word sum.
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
VECTOR_CAP = 10**4  # (2 * coeff_bound + 1)^size coefficient vectors per level
# Limb factors (column digits, a combination's sum |a_j|) stay below 2^31.
# The column kernel takes columns of _KERNEL_FLOOR digits or more: ~60 us
# per call and ~10 us per column, then ~0.05 us per digit against ~0.45 us
# exact, pay back from ~25 digits in a batch and ~160 alone (range(n)
# digits, 2-CPU x86-64 machine).
_LIMB_FACTOR_LIMIT = 2**31
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
    sum_col digit * alphas[col] mod 1, and its weight is the integer
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
    and shared by pushforward_scale images; restriction builds its marginal
    on some columns (their distinct rows with summed counts).
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
            alphas = (Fraction(1, L),)
            categories = [digits]
            codes = np.arange(len(digits), dtype=np.uint32).reshape(-1, 1)
            counts = [merged[d] for d in digits]
        elif codes is None:
            raise PreconditionError("measure needs atoms or a sampled structure")
        self.alphas = tuple(alphas)  # one Fraction per column
        self.categories = categories  # list per column of digit values
        self.codes = codes  # uint32 array (n_words, n_columns)
        self.counts = counts  # word i weighs counts[i] / denominator, ints
        self.denominator = denominator
        # int/int true division is correctly rounded at any size, so each
        # entry is float(Fraction(c, denominator)) bit for bit
        self.weights_np = np.array([c / denominator for c in counts])
        self._runs = _prefix_runs(codes)
        # per column, (int64 digits, largest digit) where the column kernel
        # may take it, else None; pushforward_scale images share the list
        self._kernel_digits = [
            (np.array(digits, dtype=np.int64), max(digits))
            if len(digits) >= _KERNEL_FLOOR and 0 <= min(digits)
            and max(digits) < _LIMB_FACTOR_LIMIT else None
            for digits in categories
        ]

    @property
    def atoms(self) -> tuple:
        """Distinct (position, weight) Fractions in increasing position order."""
        if self._atoms is None:
            L, pairs = self._integer_atoms()
            self._atoms = tuple((Fraction(x, L), Fraction(c, self.denominator)) for x, c in pairs)
        return self._atoms

    def _integer_atoms(self) -> tuple[int, list[tuple[int, int]]]:
        """(L, [(x, c), ...]): the atoms x / L with weight c / denominator.

        Each word's position is the integer numerator sum d * p * (L/q) over
        the common denominator L of the column alphas p/q, summed over the
        prefix tree; words merge their counts on equal numerators mod L.
        """
        L = math.lcm(*(a.denominator for a in self.alphas))
        columns = []
        for a, digits in zip(self.alphas, self.categories, strict=True):
            step = a.numerator * (L // a.denominator)
            columns.append(np.array([int(d) * step % L for d in digits], dtype=object))
        merged: dict[int, int] = {}
        for x, c in zip(self._tree_sum(columns, object).tolist(), self.counts):
            x %= L
            merged[x] = merged.get(x, 0) + c
        return L, [(x, merged[x]) for x in sorted(merged)]

    def residues(self, t: int) -> list[int]:
        """Per column, t * p mod q for the column's alpha p/q.

        The column phase of t is this residue over q; it is reduced with
        integer divmod (no gcd normalization), so huge t lose nothing.
        """
        t = int(t)
        return [(t % a.denominator) * a.numerator % a.denominator for a in self.alphas]

    def phases(self, residues: Sequence[int]):
        """numpy array of (t * position mod 1) per word, given residues(t) or
        any integers congruent to them modulo the column denominators."""
        return _mod1(self._tree_sum(self._category_phases(residues)))

    def _category_phases(self, residues: Sequence[int]) -> list[np.ndarray]:
        """Per column, (d * r mod q) / q per digit d, correctly rounded: as
        +0.0 where x1 = r mod q is 0, from one _column_quotients call over
        the other _kernel_digits columns, if any, and from the exact integers
        elsewhere."""
        out, batch = [], {}
        for col, (a, digits, r) in enumerate(
                zip(self.alphas, self.categories, residues, strict=True)):
            q, table = a.denominator, self._kernel_digits[col]
            x1 = r % q
            if not x1:  # every phase is 0 / q = +0.0
                out.append(np.zeros(len(digits)))
            elif table is not None:
                batch[col] = (*table, x1, q)
                out.append(None)
            else:  # int/int true division is correctly rounded at any size
                out.append(np.array([(int(d) * r % q) / q for d in digits]))
        if batch:
            for col, phases in zip(batch, _column_quotients(list(batch.values()))):
                out[col] = phases
        return out

    def restriction(self, active: tuple[int, ...]):
        """The marginal on the active columns, their codes' distinct rows with
        their words' counts summed exactly; None where every word keeps its row."""
        if len(active) == self.codes.shape[1]:
            return None
        codes, sizes, order = _distinct_rows(
            ((self.codes[:, col], len(self.categories[col])) for col in active),
            len(self.codes))
        if len(sizes) == len(self.codes):
            return None
        counts = np.add.reduceat(np.array(self.counts, dtype=object)[order],
                                 np.cumsum(sizes) - sizes)
        return AtomicMeasure(
            alphas=[self.alphas[c] for c in active], codes=codes,
            categories=[self.categories[c] for c in active],
            counts=counts.tolist(), denominator=self.denominator,
        )

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


def _distinct_rows(columns, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(codes, sizes, order) for n words given as (code, radix) columns, each
    code n unsigned integers below radix: the distinct words as matrix rows
    in increasing lexicographic order (uint32 where every radix is at most
    2^32, else uint64), the count of each, and the lexsort order of the
    words (each distinct word's copies in turn).

    The columns fold into uint64 mixed-radix keys, the first column most
    significant.  A key starts anew before the product of its radices would
    pass 2^64, so none overflows: with radices r_1, ..., r_m it holds sum_i
    c_i prod_{i' > i} r_i' <= prod_i r_i - 1.  The key lists then order as
    the words do: one lexsort, a comparison of adjacent keys, and the codes
    read back as mixed-radix digits.
    """
    keys = [(np.zeros(n, dtype=np.uint64), [])]  # (key, its radices)
    for code, radix in columns:
        if math.prod(keys[-1][1]) * radix > 2**64:
            keys.append((np.zeros(n, dtype=np.uint64), []))
        key, radices = keys[-1]
        key *= np.uint64(radix)
        key += code
        radices.append(radix)
    order = np.lexsort([key for key, _ in reversed(keys)])
    keys = [(key[order], radices) for key, radices in keys]
    changed = np.any([key[1:] != key[:-1] for key, _ in keys], axis=0)
    first = np.flatnonzero(np.concatenate(([True], changed)))
    radices = [radix for _, rs in keys for radix in rs]
    codes = np.empty((len(first), len(radices)),
                     dtype=np.uint32 if max(radices, default=1) <= 2**32 else np.uint64)
    col = len(radices)
    for key, rs in reversed(keys):
        key = key[first]
        for radix in reversed(rs):
            col -= 1
            key, codes[:, col] = np.divmod(key, np.uint64(radix))
    return codes, np.diff(first, append=n), order


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

    No samples x columns matrix is built: each column goes to _distinct_rows
    right after its draw, as a code that increases with its digit (a support
    coordinate's rank among the level's cell values, a free coordinate's
    digit, of radix k!), and the codes of the distinct rows are compacted
    to index each column's present digits in increasing order.
    """
    if n_samples < 1:
        raise PreconditionError("need at least one sample")
    if seed < 0:
        raise PreconditionError("the seed must be non-negative")
    if n_samples > SAMPLE_CAP:
        raise CapExceeded(f"{n_samples} samples exceed the cap {SAMPLE_CAP}")
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
    digits = []  # per column, its digits indexed by code (range(k!) when free)

    def columns():
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
                digits.append(values)
                yield code, len(values)

    codes, counts, _ = _distinct_rows(columns(), n_samples)
    categories = []
    for col, values in enumerate(digits):
        present, codes[:, col] = np.unique(codes[:, col], return_inverse=True)
        categories.append([values[c] for c in present.tolist()])
    return AtomicMeasure(
        alphas=[a for level in s.alphas for a in level], categories=categories,
        codes=codes.astype(np.uint32, copy=False), counts=counts.tolist(), denominator=n_samples,
    )


def _transform(m: AtomicMeasure, phases: np.ndarray) -> complex:
    """sum w * e^{2 pi i phase} over the words, given their phases t * x mod 1."""
    angles = 2 * math.pi * phases
    w = m.weights_np
    return complex(np.add.reduce(w * np.cos(angles)), np.add.reduce(w * np.sin(angles)))


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
    once per value for the digits of all columns side by side.  Each
    vector's phases, the correctly rounded (sum_j a_j R_j mod q) / q, come
    from _combination_phases over the limbs of floor(R_j * 2^128 / q).
    """
    denominators = [a.denominator for a in m.alphas]
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
    limbs, zero = _fixed_point_limbs(basis, qs), basis == 0
    for a in vectors:
        phases = _combination_phases(a, basis, qs, limbs, zero)
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
    basis[j], its limbs from _fixed_point_limbs and zero = basis == 0:
    _round_fixed_point with A = sum_j |a_j| < 2^31 (module docstring), and
    _exact_phases on the digits it refuses."""
    total = np.zeros(limbs.shape[1:], dtype=np.int64)
    exact_zero = np.ones(len(qs), dtype=bool)
    for j, c in enumerate(a):
        if c:
            total += c * limbs[j]
            # where every F_j with a_j != 0 is 0, so is T
            exact_zero &= zero[j]
    R, refused = _round_fixed_point(total, sum(abs(c) for c in a), exact_zero)
    refused = np.flatnonzero(refused)
    R[refused] = _exact_phases(a, basis[:, refused], qs[refused])
    return R


def _column_quotients(columns) -> list[np.ndarray]:
    """(d * x1 mod q) / q per digit d, correctly rounded, for columns
    (digits, top, x1, q) of int64 digits in [0, 2^31), top = max(digits) and
    0 < x1 < q: one _round_fixed_point call over all their digits (module
    docstring).  Refused digits, and those whose R 2^-s is below the
    smallest normal double, come from the exact integers."""
    shifts = [max(0, q.bit_length() - (max(top, 1) * x1).bit_length() - 1)
              for _, top, x1, q in columns]
    limbs = _fixed_point_limbs(
        np.array([[x1 << s for (*_, x1, _), s in zip(columns, shifts)]], dtype=object),
        np.array([q for *_, q in columns], dtype=object),
    )[0]
    sizes = [len(digits) for digits, *_ in columns]
    d = np.concatenate([digits for digits, *_ in columns])
    zero = d == 0
    R, refused = _round_fixed_point(np.repeat(limbs, sizes, axis=1) * d, d, zero)
    # times 2^-s: exact, or subnormal and refused (numpy's ldexp with an
    # array of exponents is several times slower)
    out = R * np.repeat([2.0**-s for s in shifts], sizes)
    refused = np.flatnonzero(refused | (out < _TINY) & ~zero)
    ends = np.cumsum(sizes)
    for i, c in zip(refused, np.searchsorted(ends, refused, side="right")):
        _, _, x1, q = columns[c]
        out[i] = int(d[i]) * x1 % q / q
    return np.split(out, ends[:-1])


def _round_fixed_point(total: np.ndarray, A, exact_zero: np.ndarray):
    """(R, refused) for the (4, digits) int64 limb sums of T, least
    significant first (carried in place), with |T 2^-128 - y| < A 2^-128: R
    is the correctly rounded y where refused is False (module docstring).
    exact_zero marks the digits whose T is 0 by construction."""
    for i in range(3):
        total[i + 1] += total[i] >> 32  # arithmetic shift: floor division
    total &= 2**32 - 1
    v0, v1, v2, v3 = (limb * 2.0 ** (32 * i - 128) for i, limb in enumerate(total))
    head = v3 + v2  # Fast2Sum: v3 = 0 or v3 > v2
    w = v1 + v0
    tail = (v2 - (head - v3)) + w
    R = head + tail  # Fast2Sum: head = 0 or |tail| <= |head|
    u = tail - (R - head)
    budget = (w + np.abs(tail)) * 2.0**-52 + A * 2.0**-127
    # half the smaller gap, the one below R, a power of two: R (1 - 2^-53)
    # is R or its predecessor, and leaves R's binade only at powers of two
    half_gap = 0.5 * np.spacing(R * (1 - 2.0**-53))
    keep = (np.abs(u) + budget < half_gap) & ((R < 1.0) | (-u > budget))
    return R, ~(keep | exact_zero)


def pushforward_scale(m: AtomicMeasure, factor: int) -> AtomicMeasure:
    """Image measure under x -> factor * x mod 1; equal images merge in atoms."""
    if factor < 1:
        raise PreconditionError("scale factor must be a positive integer")
    image = copy.copy(m)  # shares codes, counts and their prefix runs
    image.alphas = tuple(factor * a % 1 for a in m.alphas)
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
    passed: bool

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
    deviation per (level, vector) and passes when every deviation at the
    schedule's top level is at most tol.
    """
    if not tol >= 0:
        raise PreconditionError(f"tolerance must be a nonnegative number, got {tol}")
    if coeff_bound < 0:
        raise PreconditionError("coefficient bound must be nonnegative")
    if coeff_bound > COEFF_CAP:
        raise CapExceeded(
            f"coefficient bound {coeff_bound} exceeds the cap {COEFF_CAP}"
        )
    if (2 * coeff_bound + 1) ** fam.size > VECTOR_CAP:
        raise CapExceeded(f"{2 * coeff_bound + 1}^{fam.size} coefficient vectors exceed the "
                          f"cap {VECTOR_CAP}")
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
    return DichotomyReport(rows, all(r.deviation <= tol for r in rows if r.level == s.depth))


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
