"""Exact arithmetic on subgroups of Z^l and their torus annihilators.

A subgroup of Z^l is stored in row-style Hermite normal form: pivot columns
strictly increase, pivots are positive, and every entry above a pivot is
reduced into [0, pivot).  The form is unique, so two lattices are equal as
groups exactly when their stored bases are equal, and equality is a tuple
comparison.

`_hnf_rows` is the one echelon elimination.  `canonicalize` stores its rows;
`kernel` and coordinate slices read theirs off a zero block of it.  Rank over
Q is the number of HNF rows.  Only the Smith form eliminates on its own,
because it needs the unimodular transforms.

All arithmetic is exact (Python integers / fractions).  Values are immutable
after construction and every operation is a pure function.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
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


def _pivot_xgcd(pivot: int, b: int) -> tuple[int, int, int]:
    """xgcd(pivot, b), with t = 0 whenever pivot divides b.

    xgcd(p, p) gives s = 0, t = 1, which would replace the pivot line by the
    other line instead of clearing it; two such steps can undo each other
    forever.  With t = 0 the pivot line only changes sign, so entries already
    cleared stay cleared and every repeated pass shrinks |pivot|.
    """
    if b % pivot == 0:
        g = abs(pivot)
        return g, g // pivot, 0
    return xgcd(pivot, b)


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
    residue = list(v)
    for row in L.basis:
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

    Any vector outside G keeps a nonzero image in Z^l/(G + N Z^l) once N is a
    suitable multiple of the invariant factors, so the scan terminates.
    """
    excluded = [_as_intvec(v) for v in excluded]
    for v in excluded:
        if member(G, v):
            raise PreconditionError(
                f"excluded vector {v} already lies in G; no extension exists"
            )
    n = 2
    scaled_identity = lambda N: [
        [N if i == j else 0 for j in range(G.ambient_dim)] for i in range(G.ambient_dim)
    ]
    while True:
        H = canonicalize(list(G.basis) + scaled_identity(n), G.ambient_dim)
        if not any(member(H, v) for v in excluded):
            return H
        n += 1


@dataclass(frozen=True)
class SmithDecomposition:
    """U * B * V = diag(invariant_factors) padded with zero columns.

    B is the (rank x ambient) HNF basis matrix of the source lattice; U and V
    are unimodular.  free_rank = ambient - rank is the free part of Z^l / L.
    """

    invariant_factors: tuple[int, ...]
    free_rank: int
    left: tuple[IntVec, ...]
    right: tuple[IntVec, ...]


def smith_decomposition(L: Lattice) -> SmithDecomposition:
    k, n = L.rank, L.ambient_dim
    if k == 0:
        ident = tuple(standard_basis(n, j + 1) for j in range(n))
        return SmithDecomposition((), n, (), ident)
    a = [list(row) for row in L.basis]
    U = [[1 if i == j else 0 for j in range(k)] for i in range(k)]
    V = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def row_combine(i, j, s, t, u, v):
        # (row_i, row_j) <- (s*row_i + t*row_j, u*row_i + v*row_j)
        for mat in (a, U):
            ri, rj = mat[i], mat[j]
            mat[i] = [s * x + t * y for x, y in zip(ri, rj)]
            mat[j] = [u * x + v * y for x, y in zip(ri, rj)]

    def col_combine(i, j, s, t, u, v):
        for mat in (a, V):
            for row in mat:
                x, y = row[i], row[j]
                row[i] = s * x + t * y
                row[j] = u * x + v * y

    for s_idx in range(k):
        while True:
            # Move a nonzero of minimal magnitude into the corner.
            best = None
            for i in range(s_idx, k):
                for j in range(s_idx, n):
                    if a[i][j] and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                        best = (i, j)
            if best is None:
                raise PreconditionError("basis rows not independent")  # pragma: no cover
            if best[0] != s_idx:
                swap_rows(s_idx, best[0])
            if best[1] != s_idx:
                swap_cols(s_idx, best[1])
            pivot = a[s_idx][s_idx]
            for i in range(s_idx + 1, k):
                if a[i][s_idx]:
                    g, s, t = _pivot_xgcd(pivot, a[i][s_idx])
                    row_combine(s_idx, i, s, t, -(a[i][s_idx] // g), pivot // g)
                    pivot = a[s_idx][s_idx]
            for j in range(s_idx + 1, n):
                if a[s_idx][j]:
                    g, s, t = _pivot_xgcd(pivot, a[s_idx][j])
                    col_combine(s_idx, j, s, t, -(a[s_idx][j] // g), pivot // g)
                    pivot = a[s_idx][s_idx]
            if any(a[i][s_idx] for i in range(s_idx + 1, k)) or any(
                a[s_idx][j] for j in range(s_idx + 1, n)
            ):
                continue
            # Corner is isolated; enforce pivot | block before moving on.
            bad_row = None
            for i in range(s_idx + 1, k):
                if any(a[i][j] % pivot for j in range(s_idx + 1, n)):
                    bad_row = i
                    break
            if bad_row is None:
                break
            for j in range(n):
                a[s_idx][j] += a[bad_row][j]
            for j in range(k):
                U[s_idx][j] += U[bad_row][j]
        if a[s_idx][s_idx] < 0:
            a[s_idx] = [-x for x in a[s_idx]]
            U[s_idx] = [-x for x in U[s_idx]]
    return SmithDecomposition(
        tuple(a[i][i] for i in range(k)),
        n - k,
        tuple(tuple(r) for r in U),
        tuple(tuple(r) for r in V),
    )


def annihilator(G: Lattice, index_cap: int = DEFAULT_INDEX_CAP) -> "TorusSubgroup":
    """Exact parametrization of A_G = {y in T^l : <a, y> in Z for all a in G}.

    With U B V = D (Smith form) the substitution z = V^-1 y turns the defining
    conditions into d_i z_i in Z, leaving the remaining coordinates free; the
    finite representatives are V z over the d_1 x ... x d_k digit box and the
    connected part is spanned by the trailing columns of V.
    """
    sd = smith_decomposition(G)
    n = G.ambient_dim
    count = 1
    for d in sd.invariant_factors:
        count *= d
    if count > index_cap:
        raise CapExceeded(
            f"annihilator has {count} components, above the cap {index_cap}"
        )
    v_cols = list(zip(*sd.right)) if sd.right else []
    reps: list[tuple[Fraction, ...]] = []
    for digits in product(*(range(d) for d in sd.invariant_factors)):
        z = [Fraction(a, d) for a, d in zip(digits, sd.invariant_factors)]
        y = [Fraction(0)] * n
        for i, zi in enumerate(z):
            if zi:
                for row in range(n):
                    y[row] += zi * v_cols[i][row]
        reps.append(tuple(c % 1 for c in y))
    reps = sorted(set(reps))
    torus_dirs = canonicalize(
        [v_cols[i] for i in range(len(sd.invariant_factors), n)], n
    )
    return TorusSubgroup(n, tuple(reps), torus_dirs)


@dataclass(frozen=True)
class TorusSubgroup:
    """Finite coset representatives plus the integer directions of the
    connected component of a closed subgroup of T^l."""

    ambient_dim: int
    finite_reps: tuple[tuple[Fraction, ...], ...]
    torus_directions: Lattice = field(default=None)

    def is_finite(self) -> bool:
        return self.torus_directions is None or self.torus_directions.is_trivial()


def character_integral(G: Lattice, a: Sequence[int]) -> int:
    """Integral of y -> e^{2 pi i <a, y>} over A_G against Haar measure.

    Equals 1 exactly when a is in G and 0 otherwise, because the annihilator
    of A_G inside Z^l is G itself and a nontrivial character of a compact
    group integrates to zero.
    """
    return 1 if member(G, a) else 0
