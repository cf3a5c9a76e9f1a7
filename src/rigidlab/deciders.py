"""Exact deciders for the algebraic mixing/rigidity characterizations.

The central test: a subset F of coordinate indices admits a transformation
rigid along phi_j for j in F and mixing along the rest (on one sequence)
exactly when no relation a in A(phi) has support escaping F in a single
coordinate with |a_j| = 1.  That condition is decided per coordinate through
gcds of lattice slices, with witnesses extracted by extended-gcd combinations
whenever it fails.  `all_splits` decides every F against one A(phi) and
slices A once per support set F + {j}, shared by the F it serves.
`split_witness_group` does not decide F again: F escapes at j exactly when
e_j lies in G = A(phi) + Z^F (e_j = a + f with f in Z^F gives the relation
a = e_j - f with a_j = 1), and `lattice.finite_index_extension` refuses
exactly those e_j.  G comes from one elimination; every i in F is a unit
pivot of G, so the extension search runs in the quotient coordinates, at
most those outside F.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from . import families as fm
from . import lattice as lat
from .errors import CapExceeded, PreconditionError

ALL_SPLITS_MAX_DIM = 20


@dataclass(frozen=True)
class SplitVerdict:
    feasible: bool
    witness_vector: lat.IntVec | None = None
    witness_coordinate: int | None = None

    def __bool__(self) -> bool:
        return self.feasible


def is_rigidity_group(G: lat.Lattice, fam: fm.SequenceFamily) -> bool:
    """G can be realized as the rigidity group of (phi_j) iff A(phi) <= G."""
    A = fm.relation_group(fam)
    if G.ambient_dim != A.ambient_dim:
        raise PreconditionError("group dimension differs from family size")
    return all(lat.member(G, row) for row in A.basis)


def _unit_coordinate_witness(slice_lattice: lat.Lattice, j: int) -> lat.IntVec:
    """Element of the slice with j-th coordinate exactly 1.

    Exists whenever the gcd of the basis j-coordinates is 1; built from the
    extended-gcd cofactors, so the output is deterministic.
    """
    ambient = slice_lattice.ambient_dim
    acc = None  # (value at coordinate j, vector)
    for row in slice_lattice.basis:
        c = row[j - 1]
        if c == 0:
            continue
        if acc is None:
            acc = (c, list(row))
            continue
        g, s, t = lat.xgcd(acc[0], c)
        acc = (g, [s * x + t * y for x, y in zip(acc[1], row)])
        if g == 1:
            break
    assert acc is not None and abs(acc[0]) == 1
    vec = acc[1] if acc[0] == 1 else [-x for x in acc[1]]
    assert vec[j - 1] == 1
    return tuple(vec)


def _subset(F: Iterable[int], size: int) -> frozenset[int]:
    F = frozenset(F)
    if any(not 1 <= j <= size for j in F):
        raise PreconditionError("F contains an out-of-range index")
    return F


def _escape(A: lat.Lattice, F: frozenset[int], slices: dict) -> SplitVerdict:
    """Infeasible iff some coordinate j outside F reaches gcd 1 in the slice
    of A supported on F + {j}; the witness then lies in A, has support
    escaping F only at j, and has a_j = 1.  slices holds the slices taken."""
    for j in range(1, A.ambient_dim + 1):
        if j in F:
            continue
        if (S := F | {j}) not in slices:
            slices[S] = lat.intersect_coordinate_subspace(A, S)
        if lat.coordinate_image_gcd(slices[S], j) == 1:
            w = _unit_coordinate_witness(slices[S], j)
            return SplitVerdict(False, witness_vector=w, witness_coordinate=j)
    return SplitVerdict(True)


def split_feasible(fam: fm.SequenceFamily, F: Iterable[int]) -> SplitVerdict:
    """Can one sequence make phi_j rigid exactly for j in F?"""
    A = fm.relation_group(fam)
    return _escape(A, _subset(F, A.ambient_dim), {})


def all_splits(fam: fm.SequenceFamily) -> dict[frozenset[int], SplitVerdict]:
    size = fam.size
    if size > ALL_SPLITS_MAX_DIM:
        raise CapExceeded(f"2^{size} subsets exceed the enumeration cap")
    A = fm.relation_group(fam)
    table, slices = {}, {}  # a support set S is the F + {j} of |S| subsets F
    for mask in range(1 << size):
        F = frozenset(j + 1 for j in range(size) if mask >> j & 1)
        table[F] = _escape(A, F, slices)
    return table


@dataclass(frozen=True)
class InterpolationVerdict:
    holds: bool
    witness_vector: lat.IntVec | None = None
    witness_coordinate: int | None = None

    def __bool__(self) -> bool:
        return self.holds


def interpolation_condition(fam: fm.SequenceFamily) -> InterpolationVerdict:
    """Adequate and no relation uses any coordinate with |a_j| = 1.

    This is the algebraic gate for realizing every rigidity/mixing mixture
    lambda in [0,1]^l along a single sequence.
    """
    return _interpolation(fam, fm.relation_group(fam))


def _interpolation(fam: fm.SequenceFamily, A: lat.Lattice) -> InterpolationVerdict:
    """interpolation_condition(fam) against its relation group A = A(phi)."""
    if fam.kind != fm.EXPLICIT and not fm.is_adequate(fam):
        return InterpolationVerdict(False)
    for j in range(1, A.ambient_dim + 1):
        if lat.coordinate_image_gcd(A, j) == 1:
            w = _unit_coordinate_witness(A, j)
            return InterpolationVerdict(False, witness_vector=w, witness_coordinate=j)
    return InterpolationVerdict(True)


def poly_group_condition(fam: fm.SequenceFamily, F: Iterable[int]) -> bool:
    """Finite-index-subgroup condition inside the coefficient space Z^d.

    Valid for zero-constant-term polynomial families: identify each phi_j
    with its degree 1..d coefficient vector; the condition asks that no
    excluded phi_j lie in the integer span of {phi_i : i in F}.
    """
    if fam.kind != fm.POLYNOMIAL:
        raise PreconditionError("the coefficient-space condition needs polynomials")
    if any(p[0] != 0 for p in fam.polys):
        raise PreconditionError("constant terms must vanish")
    size = fam.size
    F = _subset(F, size)
    matrix = fam.coefficient_matrix()
    vectors = [row[1:] for row in matrix]
    d = len(vectors[0])
    span = lat.canonicalize([vectors[i - 1] for i in sorted(F)], d)
    return all(not lat.member(span, vectors[j - 1]) for j in range(1, size + 1) if j not in F)


def split_witness_group(fam: fm.SequenceFamily, F: Iterable[int]) -> lat.Lattice:
    """Finite-index H with A(phi) <= H and e_j in H exactly for j in F.

    H = G + N Z^l for G = A(phi) + Z^F and the smallest N >= 2 that keeps
    every e_j with j outside F out of H (`lattice.finite_index_extension`,
    which searches modulo the unit pivots of G, the e_i for i in F among
    them).  An infeasible F is refused there; only then is the escaping
    relation looked up, so the PreconditionError names it as
    `split_feasible` would.
    """
    return _split_witness_group(fm.relation_group(fam), F)


def _split_witness_group(A: lat.Lattice, F: Iterable[int]) -> lat.Lattice:
    """split_witness_group(fam, F) against its relation group A = A(phi)."""
    size = A.ambient_dim
    F = _subset(F, size)
    G = lat.canonicalize(
        [lat.standard_basis(size, i) for i in sorted(F)] + list(A.basis), size
    )
    excluded = [lat.standard_basis(size, j) for j in range(1, size + 1) if j not in F]
    try:
        return lat.finite_index_extension(G, excluded)
    except PreconditionError:
        verdict = _escape(A, F, {})
        raise PreconditionError(
            f"split infeasible for F={sorted(F)}: the relation "
            f"{verdict.witness_vector} of A(phi) escapes F only at coordinate "
            f"{verdict.witness_coordinate}, where it is 1"
        ) from None
