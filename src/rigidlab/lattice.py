"""Exact arithmetic on subgroups of Z^l and their torus annihilators.

A subgroup of Z^l is stored in row-style Hermite normal form: pivot columns
strictly increase, pivots are positive, and every entry above a pivot is
reduced into [0, pivot).  The form is unique, so two lattices are equal as
groups exactly when their stored bases are equal, and equality is a tuple
comparison.

`_hnf_rows` is the one echelon elimination.  `canonicalize` stores its rows;
`kernel` and coordinate slices read theirs off a zero block of it.  Rank over
Q is the number of HNF rows.  `annihilator` reads a torus's directions and
the saturation of a group off two such kernels.

All arithmetic is exact (Python integers / fractions).  Values are immutable
after construction and every operation is a pure function.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterable, Sequence

from .errors import CapExceeded, DimensionMismatch, PreconditionError

IntVec = tuple[int, ...]

INFINITE = math.inf

#: annihilator(..) refuses to enumerate more coset representatives than this
DEFAULT_INDEX_CAP = 10**6


def _as_intvec(v: Sequence[int]) -> IntVec:
    return tuple(int(x) for x in v)


def integer_entries(values: Iterable, what: str) -> IntVec:
    """`values` as an IntVec, refusing anything that is not an integer.

    For input from outside the program: int() would truncate 1.5 to 1 and
    read True or "3" as numbers, so floats, bools and strings are refused.
    """
    out = tuple(values)
    for x in out:
        if isinstance(x, bool) or not isinstance(x, numbers.Integral):
            raise PreconditionError(f"{what} must be integers, got {x!r}")
    return tuple(int(x) for x in out)


def _hnf_rows(rows: list[list[int]]) -> list[IntVec]:
    """Bring integer row vectors into row-style Hermite normal form.

    Classic fraction-free elimination: for each column, combine rows with the
    extended gcd until one pivot remains, then reduce the entries above it.
    """
    rows = [list(r) for r in rows if any(r)]
    if not rows:
        return []
    ncols = len(rows[0])
    basis: list[list[int]] = []
    pivot_cols: list[int] = []
    for col in range(ncols):
        carrier = None
        rest = []
        for r in rows:
            if r[col] != 0:
                if carrier is None:
                    carrier = r
                else:
                    g, s, t = xgcd(carrier[col], r[col])
                    a, b = carrier[col] // g, r[col] // g
                    carrier, r = (
                        [s * x + t * y for x, y in zip(carrier, r)],
                        [-b * x + a * y for x, y in zip(carrier, r)],
                    )
                    if any(r):
                        rest.append(r)
            else:
                if any(r):
                    rest.append(r)
        if carrier is not None:
            if carrier[col] < 0:
                carrier = [-x for x in carrier]
            basis.append(carrier)
            pivot_cols.append(col)
        rows = rest
        if not rows:
            break
    # Reduce entries above each pivot into [0, pivot), left to right so a
    # later reduction never disturbs an already-reduced pivot column.
    for i in range(1, len(basis)):
        col = pivot_cols[i]
        p = basis[i][col]
        for j in range(i):
            q = basis[j][col] // p
            if q:
                basis[j] = [x - q * y for x, y in zip(basis[j], basis[i])]
    return [tuple(r) for r in basis]


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, s, t) with g = gcd(a, b) = s*a + t*b, g >= 0 for (a,b) != 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


@dataclass(frozen=True)
class Lattice:
    """A subgroup of Z^ambient_dim with canonical (HNF) basis rows."""

    ambient_dim: int
    basis: tuple[IntVec, ...]

    def __post_init__(self):
        if self.ambient_dim < 1:
            raise PreconditionError("ambient dimension must be a positive integer")

    @property
    def rank(self) -> int:
        return len(self.basis)

    def is_trivial(self) -> bool:
        return not self.basis

    def to_json(self) -> dict:
        return {"ambient_dim": self.ambient_dim, "basis": [list(r) for r in self.basis]}

    @staticmethod
    def from_json(obj: dict) -> "Lattice":
        (dim,) = integer_entries([obj["ambient_dim"]], "ambient dimension")
        return canonicalize(
            [integer_entries(row, "basis entries") for row in obj["basis"]], dim
        )


def canonicalize(vectors: Iterable[Sequence[int]], ambient_dim: int) -> Lattice:
    """Canonical lattice spanned by `vectors` inside Z^ambient_dim."""
    vecs = [_as_intvec(v) for v in vectors]
    for v in vecs:
        if len(v) != ambient_dim:
            raise DimensionMismatch(
                f"vector of length {len(v)} in ambient dimension {ambient_dim}"
            )
    return Lattice(ambient_dim, tuple(_hnf_rows([list(v) for v in vecs])))


def trivial(ambient_dim: int) -> Lattice:
    return Lattice(ambient_dim, ())


def full(ambient_dim: int) -> Lattice:
    rows = tuple(
        tuple(1 if i == j else 0 for j in range(ambient_dim)) for i in range(ambient_dim)
    )
    return Lattice(ambient_dim, rows)


def standard_basis(ambient_dim: int, j: int) -> IntVec:
    """e_j, 1-indexed."""
    if not 1 <= j <= ambient_dim:
        raise DimensionMismatch(f"e_{j} does not exist in Z^{ambient_dim}")
    return tuple(1 if i == j - 1 else 0 for i in range(ambient_dim))


def member(L: Lattice, v: Sequence[int]) -> bool:
    """Exact membership via back-substitution along the HNF pivots."""
    v = _as_intvec(v)
    if len(v) != L.ambient_dim:
        raise DimensionMismatch(f"vector length {len(v)} vs ambient {L.ambient_dim}")
    return _in_span(L.basis, v)


def _in_span(basis: Sequence[Sequence[int]], v: Sequence[int]) -> bool:
    """Is v an integer combination of the HNF rows `basis` (same length)?"""
    residue = list(v)
    for row in basis:
        col = next(i for i, x in enumerate(row) if x)
        if residue[col] % row[col]:
            return False
        q = residue[col] // row[col]
        if q:
            residue = [x - q * y for x, y in zip(residue, row)]
    return not any(residue)


def _zero_block_rows(rows: list[list[int]], k: int) -> list[IntVec]:
    """HNF rows of `rows` whose first k entries vanish, with those k dropped.

    Pivot columns increase down an HNF, so a lattice vector whose first k
    entries vanish combines only rows whose pivot lies at or past column k:
    these rows generate every such vector, and their tails are again in HNF.
    """
    return [r[k:] for r in _hnf_rows(rows) if not any(r[:k])]


def kernel(matrix: Sequence[Sequence[int]], rows: int, cols: int) -> Lattice:
    """Full integer left kernel {a in Z^rows : a M = 0} of a rows x cols matrix.

    The rows of [M | I] span {(a M, a)}; the rows of its HNF with a zero M
    block generate the kernel, which is therefore already saturated.
    """
    m = [list(_as_intvec(r)) for r in matrix]
    if len(m) != rows or any(len(r) != cols for r in m):
        raise DimensionMismatch("matrix shape disagrees with declared rows/cols")
    work = [m[i] + [1 if j == i else 0 for j in range(rows)] for i in range(rows)]
    return Lattice(rows, tuple(_zero_block_rows(work, cols)))


def intersect_coordinate_subspace(L: Lattice, coords: Iterable[int]) -> Lattice:
    """Sublattice of elements supported on the 1-indexed coordinate set."""
    keep = set(coords)
    if any(not 1 <= j <= L.ambient_dim for j in keep):
        raise DimensionMismatch("coordinate index out of range")
    drop = [j - 1 for j in range(1, L.ambient_dim + 1) if j not in keep]
    work = [[row[c] for c in drop] + list(row) for row in L.basis]
    return Lattice(L.ambient_dim, tuple(_zero_block_rows(work, len(drop))))


def coordinate_image_gcd(L: Lattice, j: int) -> int:
    """g >= 0 with {a_j : a in L} = g Z (1-indexed coordinate)."""
    if not 1 <= j <= L.ambient_dim:
        raise DimensionMismatch(f"coordinate {j} out of range")
    g = 0
    for row in L.basis:
        g = math.gcd(g, row[j - 1])
    return g


def lattice_sum(L1: Lattice, L2: Lattice) -> Lattice:
    if L1.ambient_dim != L2.ambient_dim:
        raise DimensionMismatch("lattice sum of different ambient dimensions")
    return canonicalize(list(L1.basis) + list(L2.basis), L1.ambient_dim)


def index_in_ambient(L: Lattice):
    """[Z^l : L] when finite (product of HNF pivots), else INFINITE."""
    if L.rank < L.ambient_dim:
        return INFINITE
    idx = 1
    for i, row in enumerate(L.basis):
        idx *= row[i]
    return idx


def finite_index_extension(G: Lattice, excluded: Sequence[Sequence[int]]) -> Lattice:
    """Smallest N >= 2 such that H = G + N Z^l excludes all given vectors.

    The search runs in quotient coordinates.  Let U be the columns where
    G's HNF has a pivot equal to 1, and R the others.  The other rows of G
    vanish on U, since their entries there are reduced into [0, 1).
    Subtracting v_u times the unit row of u, for each u in U, sends v to a
    vector v' supported on R.  The map v -> v' identifies Z^l modulo the
    unit rows with Z^R, and sends G onto the lattice G' of the other rows
    restricted to R (already in HNF) and N Z^l onto N Z^R.  The unit rows
    lie in G, so v lies in H exactly when v' lies in H' = G' + N Z^R, and H
    is spanned by the unit rows together with the rows of HNF(H') placed
    back on R.  Those rows are already echelon, so
    canonicalize only reduces them above their pivots, and returns the HNF
    of G + N Z^l itself.  Each N costs one HNF on |R| columns.

    A vector outside G has a nonzero image x in Z^l/G = Z^r + T, T finite.
    x stays outside N (Z^l/G), so the vector stays outside H, once N is a
    multiple of the exponent of T larger than every coordinate of x in Z^r;
    so the scan terminates.
    """
    excluded = [_as_intvec(v) for v in excluded]
    for v in excluded:
        if member(G, v):
            raise PreconditionError(
                f"excluded vector {v} already lies in G; no extension exists"
            )
    dim = G.ambient_dim
    units, others = {}, []
    for row in G.basis:
        col = next(i for i, x in enumerate(row) if x)
        if row[col] == 1:
            units[col] = row
        else:
            others.append(row)
    rest = [c for c in range(dim) if c not in units]

    def quotient(v: Sequence[int]) -> list[int]:
        for col, row in units.items():
            q = v[col]
            if q:
                v = [x - q * y for x, y in zip(v, row)]
        return [v[c] for c in rest]

    g_rest = [[row[c] for c in rest] for row in others]
    targets = [quotient(v) for v in excluded]
    n = 2
    while True:
        h = _hnf_rows(
            g_rest + [[n if c == r else 0 for c in rest] for r in rest]
        )
        if not any(_in_span(h, t) for t in targets):
            lifted = []
            for row in h:
                full_row = [0] * dim
                for c, x in zip(rest, row):
                    full_row[c] = x
                lifted.append(full_row)
            return canonicalize(list(units.values()) + lifted, dim)
        n += 1


def annihilator(G: Lattice) -> "TorusSubgroup":
    """Exact parametrization of A_G = {y in T^l : <a, y> in Z for all a in G}.

    With B the HNF basis of G (rank k), the connected part of A_G is the
    torus spanned by kernel(B^T), and the kernel S of those directions is the
    saturation of G.  G and S span the same rational space, so their HNFs
    share the pivot columns P, and on P both are upper triangular with
    B_P = C S_P for an integral triangular C.  A vector y supported on P lies
    in A_G when B_P y_P = m is integral, and two such vectors differ by the
    torus exactly when S_P (y - y')_P = C^-1 (m - m') is integral, i.e. when
    m - m' lies in C Z^k.  The box 0 <= m_i < d_i over C's diagonal
    d_i = B[i][P_i] / S[i][P_i] meets each class once, so the representatives
    are sum m_i w_i mod 1, with w_i the columns of B_P^-1 placed on P: one
    per component, [S : G] in all.

    For full-rank G the torus is trivial, S = Z^l and the representatives are
    all of A_G.  For rank-deficient G they are one valid choice of coset
    representatives modulo the torus, not a canonical one.
    """
    n, k = G.ambient_dim, G.rank
    torus = kernel([[row[j] for row in G.basis] for j in range(n)], n, k)
    S = kernel([[d[j] for d in torus.basis] for j in range(n)], n, torus.rank)
    pivots = [next(j for j, x in enumerate(row) if x) for row in G.basis]
    box = [b[p] // s[p] for b, s, p in zip(G.basis, S.basis, pivots)]
    count = math.prod(box)
    if count > DEFAULT_INDEX_CAP:
        raise CapExceeded(
            f"annihilator has {count} components, above the cap {DEFAULT_INDEX_CAP}"
        )
    # Column i of B_P^-1 by back-substitution up the triangle, placed on P.
    lifts = [[Fraction(0)] * n for _ in range(k)]
    for i, w in enumerate(lifts):
        for r in reversed(range(i + 1)):
            acc = Fraction(int(r == i))
            acc -= sum(G.basis[r][p] * w[p] for p in pivots[r + 1 :])
            w[pivots[r]] = acc / G.basis[r][pivots[r]]
    reps = sorted(
        tuple(
            sum((m * w[j] for m, w in zip(digits, lifts) if m), Fraction(0)) % 1
            for j in range(n)
        )
        for digits in product(*(range(d) for d in box))
    )
    return TorusSubgroup(n, tuple(reps), torus)


@dataclass(frozen=True)
class TorusSubgroup:
    """Finite coset representatives plus the integer directions of the
    connected component of a closed subgroup of T^l."""

    ambient_dim: int
    finite_reps: tuple[tuple[Fraction, ...], ...]
    torus_directions: Lattice


def character_integral(G: Lattice, a: Sequence[int]) -> int:
    """Integral of y -> e^{2 pi i <a, y>} over A_G against Haar measure.

    Equals 1 exactly when a is in G and 0 otherwise, because the annihilator
    of A_G inside Z^l is G itself and a nontrivial character of a compact
    group integrates to zero.
    """
    return 1 if member(G, a) else 0
