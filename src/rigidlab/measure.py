"""Atomic torus measures sampled from schedules and their Fourier analysis.

Every measure keeps a product structure: each atom is a word of cell digits
(one digit per column), and the represented point is
scale * sum digit * alpha mod 1.  Sampled measures have one column per
schedule level and coordinate; explicit rational atoms are one column with
alpha = 1/L, L the lcm of their denominators.  Fourier coefficients at huge
integer arguments t are computed through exact per-column phases
(t * scale * alpha mod 1 as a rational, then digit multiples mod 1), so no
precision is lost to floating-point reduction of astronomically large
products; the float stage only ever adds a handful of numbers in [0, 1).

The words of a measure are distinct rows of its code matrix in increasing
lexicographic order (np.unique and the explicit-atom arange produce them so),
so the words sharing columns 0..j form contiguous runs.  phases walks that
prefix tree column by column: each run adds its column's phase once to its
parent run's partial sum, instead of every word gathering every column.  Each
word still receives the same float additions in the same order, so the
result is bitwise that of the word-by-word sum.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Sequence

import numpy as np

from . import deciders as dec
from . import families as fm
from . import lattice as lat
from .errors import CapExceeded, PreconditionError, UnsupportedShape
from .schedule import DEFAULT_BUDGET, Schedule, build_schedule, check_schedule

SAMPLE_CAP = 10**7
COEFF_CAP = 5


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
    """Merged (cell digits on support coords, weight) pairs at level k."""
    kf = math.factorial(k)
    merged: dict[tuple[int, ...], Fraction] = {}
    share = Fraction(1, len(structure.rep_points))
    for rep in structure.rep_points:
        cell = tuple(int(y * kf) for y in rep)
        merged[cell] = merged.get(cell, Fraction(0)) + share
    return sorted(merged.items())


def _strictly_increasing(codes: np.ndarray) -> bool:
    """Whether each row exceeds the one before at the first column they differ."""
    n, cols = codes.shape
    if n < 2:
        return True
    if cols == 0:
        return False
    rows = np.arange(n - 1)
    first = (codes[1:] != codes[:-1]).argmax(axis=1)
    return bool((codes[1:][rows, first] > codes[:-1][rows, first]).all())


def _prefix_runs(codes: np.ndarray) -> list[tuple[np.ndarray | None, np.ndarray]]:
    """Per column j, (parent, code) of the runs of rows sharing columns 0..j.

    parent[r] is the run at column j - 1 that run r extends (None where the
    runs map one to one or extend a single parent, so no gather is needed)
    and code[r] its column-j code.  The last column's runs are the rows.
    Refuses rows that are not strictly increasing in lexicographic order.
    """
    if not _strictly_increasing(codes):
        raise PreconditionError(
            "words must be distinct code rows in increasing lexicographic order"
        )
    n, cols = codes.shape
    step = codes[1:] != codes[:-1]  # where row i + 1 differs from row i
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
    exact digit categories[col][...] of word i, and the word's position is
    scale * sum_col digit * alpha_col mod 1.  sample_sigma builds one column
    per schedule level and coordinate; explicit rational atoms become one
    column with alpha = 1/L (L the lcm of the denominators) and digit x * L.
    Exact positions are cached for explicit atoms and materialized on demand
    for samples; Fourier analysis reduces t * digit * alpha mod 1 with raw
    integer arithmetic per category, so huge arguments lose nothing before
    the final float.

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
        weights=None,
        scale=1,
    ):
        self._atoms = None
        self._weights_np = None
        if atoms is not None:
            merged: dict = {}
            for x, w in atoms:
                w = Fraction(w)
                if w <= 0:
                    raise PreconditionError("atom weights must be positive")
                key = x if isinstance(x, Fraction) else Fraction(x)
                key %= 1
                merged[key] = merged.get(key, Fraction(0)) + w
            self._atoms = tuple(sorted(merged.items()))
            L = math.lcm(*(x.denominator for x, _ in self._atoms))
            alphas = ((Fraction(1, L),),)
            categories = [[x.numerator * (L // x.denominator) for x, _ in self._atoms]]
            codes = np.arange(len(self._atoms), dtype=np.uint32).reshape(-1, 1)
            weights = tuple(w for _, w in self._atoms)
        elif codes is None:
            raise PreconditionError("measure needs atoms or a sampled structure")
        self.alphas = alphas
        self.categories = categories  # list per column of digit values
        self.codes = codes  # uint32 array (n_words, n_columns)
        self.weights = weights  # exact Fractions per word
        self.scale = scale
        self._runs = _prefix_runs(codes)

    def total_weight(self) -> Fraction:
        return sum(self.weights, Fraction(0))

    @property
    def weights_np(self):
        if self._weights_np is None:
            self._weights_np = np.array([float(w) for w in self.weights])
        return self._weights_np

    def _flat_alphas(self) -> list[Fraction]:
        return [a for level in self.alphas for a in level]

    @property
    def atoms(self) -> tuple:
        if self._atoms is None:
            merged: dict = {}
            flat = self._flat_alphas()
            for row, w in zip(self.codes, self.weights):
                x = Fraction(0)
                for col, code in enumerate(row):
                    d = self.categories[col][code]
                    if d:
                        x += d * flat[col]
                x = (self.scale * x) % 1
                merged[x] = merged.get(x, Fraction(0)) + w
            self._atoms = tuple(sorted(merged.items()))
        return self._atoms

    def phases(self, t: int):
        """numpy array of (t * position mod 1) per word.

        Per column, theta = t * scale * alpha mod 1 is reduced with integer
        divmod (no gcd normalization), each category digit multiplies in
        modularly, and only then does float enter.  The column phases are
        summed over the prefix tree: partial_j = partial_{j-1}[parent_j] +
        phase_j[code_j], starting from 0.0, which is the word-by-word sum
        0.0 + phase_0 + ... + phase_{c-1} bit for bit.
        """
        partial = np.zeros(min(len(self.codes), 1))  # the empty prefix
        ts = int(t) * int(self.scale)
        for (parent, code), a, digits in zip(
            self._runs, self._flat_alphas(), self.categories
        ):
            p, q = a.numerator, a.denominator
            base = (ts % q) * p % q
            # int/int true division is correctly rounded at any size
            cat_phase = np.array([(int(d) * base % q) / q for d in digits])
            if parent is not None:
                partial = partial[parent]
            partial = partial + cat_phase[code]
        # equals partial % 1.0 bit for bit on finite values, and is cheaper
        return partial - np.floor(partial)

    def to_json(self) -> dict:
        return {
            "atoms": [[str(x), str(w)] for x, w in self.atoms],
        }

    @staticmethod
    def from_json(obj: dict) -> "AtomicMeasure":
        return AtomicMeasure(
            [(Fraction(x), Fraction(w)) for x, w in obj["atoms"]]
        )

    def __eq__(self, other):
        return isinstance(other, AtomicMeasure) and self.atoms == other.atoms

    def __repr__(self):
        words, cols = self.codes.shape
        return f"AtomicMeasure({words} words, {cols} columns)"


def dirac(position=0) -> AtomicMeasure:
    return AtomicMeasure([(Fraction(position), Fraction(1))])


def uniform_atoms(positions: Sequence) -> AtomicMeasure:
    n = len(positions)
    return AtomicMeasure([(Fraction(x), Fraction(1, n)) for x in positions])


def sample_sigma(
    G: lat.Lattice,
    s: Schedule,
    fam: fm.SequenceFamily,
    n_samples: int,
    seed: int,
) -> AtomicMeasure:
    """Monte Carlo draws from the product of level measures P_k.

    Each draw picks, independently per level, a support cell according to
    lambda_G and uniform digits on the free coordinates; equal words merge
    with accumulated weight count/N.  Reproducible from the seed.
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
    size = fam.size
    rng = np.random.default_rng(seed)
    columns = []
    for k in range(1, s.depth + 1):
        kf = math.factorial(k)
        cells = _support_cells(structure, k)
        probs = np.array([float(w) for _, w in cells])
        probs /= probs.sum()
        picks = rng.choice(len(cells), size=n_samples, p=probs)
        per_coord = [None] * size
        for pos, j in enumerate(structure.support):
            values = np.array([int(cell[pos]) for cell, _ in cells], dtype=np.int64)
            per_coord[j] = values[picks]
        for j in structure.free:
            if kf > 2**62:
                raise CapExceeded(
                    "free-coordinate sampling is limited to levels with "
                    "k! below 2^62"
                )
            per_coord[j] = rng.integers(0, kf, size=n_samples, dtype=np.int64)
        columns.extend(per_coord)
    matrix = np.column_stack(columns)
    distinct, inverse, counts = np.unique(
        matrix, axis=0, return_inverse=True, return_counts=True
    )
    categories = []
    codes = np.empty(distinct.shape, dtype=np.uint32)
    for col in range(distinct.shape[1]):
        values, inv = np.unique(distinct[:, col], return_inverse=True)
        categories.append([int(v) for v in values])
        codes[:, col] = inv
    weights = tuple(Fraction(int(c), n_samples) for c in counts)
    return AtomicMeasure(
        alphas=s.alphas, categories=categories, codes=codes, weights=weights
    )


def fourier_coefficient(m: AtomicMeasure, t: int) -> complex:
    """sigma-hat(t) = sum w * e^{2 pi i t x}, double precision output."""
    angles = 2 * math.pi * m.phases(t)
    w = m.weights_np
    return complex(np.dot(w, np.cos(angles)), np.dot(w, np.sin(angles)))


def pushforward_scale(m: AtomicMeasure, factor: int) -> AtomicMeasure:
    """Image measure under x -> factor * x mod 1; equal images merge in atoms."""
    if factor < 1:
        raise PreconditionError("scale factor must be a positive integer")
    image = copy.copy(m)  # shares codes, weights and their prefix runs
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
    rows = []
    for k in range(1, s.depth + 1):
        vals = fm.evaluate(fam, s.indices[k - 1])
        for a in product(range(-coeff_bound, coeff_bound + 1), repeat=fam.size):
            t = sum(c * v for c, v in zip(a, vals))
            coeff = fourier_coefficient(m, t)
            target = lat.character_integral(G, a)
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
    search_budget: int = DEFAULT_BUDGET,
):
    """Reduction, schedule, sampling and rescaling in one pipeline.

    Returns (measure, schedule, reduction, image_group); the measure targets
    the rigidity/mixing dichotomy of (fam, G) through the image group of the
    reduction and the final scale pushforward.
    """
    if fam.kind != fm.POLYNOMIAL:
        raise PreconditionError("measure pipeline requires a polynomial family")
    if not fm.is_adequate(fam):
        raise PreconditionError("family is not adequate")
    if not dec.is_rigidity_group(G, fam):
        raise PreconditionError(
            "G does not contain the relation group A(phi); it is not a "
            "rigidity group for this family"
        )
    red, g_tilde = fm.reduce_family(fam, G)
    subfam = fm.subfamily(fam, red)
    sched = build_schedule(subfam, depth, search_budget)
    rho = sample_sigma(g_tilde, sched, subfam, n_samples, seed)
    sigma = pushforward_scale(rho, red.scale)
    return sigma, sched, red, g_tilde
