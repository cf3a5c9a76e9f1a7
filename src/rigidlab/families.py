"""Symbolic families of integer sequences and their exact relation groups.

Three kinds are supported.  POLYNOMIAL families carry exact integer
coefficient vectors (ascending degree, constant term included), so the group
of vanishing integer combinations is the integer kernel of the coefficient
matrix.  BEATTY families are floor multiples of user-asserted rationally
independent reals given to finite decimal precision.  EXPLICIT families are
finite value tables and are second-class: asymptotic questions about them are
answered only when the user supplies the relation lattice, and everything
derived from it is flagged as user-asserted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Sequence

from . import lattice as lat
from .errors import (
    DimensionMismatch,
    PrecisionInsufficient,
    PreconditionError,
    UndecidableFromSamples,
)

POLYNOMIAL = "polynomial"
BEATTY = "beatty"
EXPLICIT = "explicit"


def _trim(coeffs: Sequence[int]) -> tuple[int, ...]:
    c = list(lat.integer_entries(coeffs, "polynomial coefficients"))
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


@dataclass(frozen=True)
class SequenceFamily:
    """phi_1..phi_l as one of the three symbolic kinds."""

    kind: str
    polys: tuple[tuple[int, ...], ...] = ()
    alphas: tuple[Fraction, ...] = ()
    alpha_errors: tuple[Fraction, ...] = ()
    independent: bool = False
    values: tuple[tuple[int, ...], ...] = ()
    asserted_relations: lat.Lattice | None = None

    def __post_init__(self):
        if self.kind == POLYNOMIAL:
            if not self.polys:
                raise PreconditionError("empty polynomial family")
            for p in self.polys:
                if not any(p[1:]):
                    raise PreconditionError(f"constant polynomial {list(p)} not allowed")
        elif self.kind == BEATTY:
            if not self.alphas:
                raise PreconditionError("empty Beatty family")
            if any(a == 0 for a in self.alphas):
                raise PreconditionError("zero Beatty multiplier")
            if not self.independent:
                raise PreconditionError(
                    "Beatty families require asserted rational independence"
                )
        elif self.kind == EXPLICIT:
            if not self.values:
                raise PreconditionError("empty explicit family")
            if len({len(v) for v in self.values}) != 1:
                raise PreconditionError("explicit value tables must be rectangular")
        else:
            raise PreconditionError(f"unknown family kind {self.kind!r}")

    @property
    def size(self) -> int:
        if self.kind == POLYNOMIAL:
            return len(self.polys)
        if self.kind == BEATTY:
            return len(self.alphas)
        return len(self.values)

    @property
    def max_degree(self) -> int:
        return max(len(p) - 1 for p in self.polys)

    def coefficient_matrix(self) -> list[list[int]]:
        """size x (max_degree+1) matrix, ascending degree, constant included."""
        width = self.max_degree + 1
        return [list(p) + [0] * (width - len(p)) for p in self.polys]


def polynomial_family(polys: Sequence[Sequence[int]]) -> SequenceFamily:
    return SequenceFamily(POLYNOMIAL, polys=tuple(_trim(p) for p in polys))


def beatty_family(decimals: Sequence[str], independent: bool) -> SequenceFamily:
    """Multipliers given as decimal strings; precision is what was written.

    The error is one unit in the last written digit, 10^(e - digits) for a
    mantissa with that many digits after the point and exponent e.
    """
    alphas, errs = [], []
    for text in decimals:
        text = text.strip()
        f = Fraction(text)
        mantissa, _, exponent = text.lower().partition("e")
        digits = len(mantissa.partition(".")[2])
        alphas.append(f)
        errs.append(Fraction(10) ** (int(exponent or 0) - digits))
    return SequenceFamily(
        BEATTY,
        alphas=tuple(alphas),
        alpha_errors=tuple(errs),
        independent=independent,
    )


def explicit_family(
    values: Sequence[Sequence[int]], relations: lat.Lattice | None = None
) -> SequenceFamily:
    vals = tuple(lat.integer_entries(row, "explicit values") for row in values)
    if relations is not None and relations.ambient_dim != len(vals):
        raise DimensionMismatch("relation lattice dimension differs from family size")
    return SequenceFamily(EXPLICIT, values=vals, asserted_relations=relations)


def evaluate(fam: SequenceFamily, n: int) -> lat.IntVec:
    """(phi_1(n), ..., phi_l(n)), exactly."""
    if n < 1:
        raise PreconditionError("sequences are indexed by positive integers")
    if fam.kind == POLYNOMIAL:
        return tuple(sum(c * n**i for i, c in enumerate(p)) for p in fam.polys)
    if fam.kind == BEATTY:
        out = []
        for a, err in zip(fam.alphas, fam.alpha_errors):
            x = n * a
            frac = x - math.floor(x)
            margin = n * err
            if frac < margin or 1 - frac < margin:
                raise PrecisionInsufficient(
                    f"floor({n} * alpha) not certified at stored precision"
                )
            out.append(math.floor(x))
        return tuple(out)
    if n > len(fam.values[0]):
        raise PreconditionError(f"explicit table only covers n <= {len(fam.values[0])}")
    return tuple(v[n - 1] for v in fam.values)


def relation_group(fam: SequenceFamily) -> lat.Lattice:
    """The group of integer vectors a with sum_j a_j phi_j(n) -> 0.

    For polynomials a combination tends to zero iff it is the zero polynomial,
    constant term included, so this is the kernel of the full coefficient
    matrix.
    """
    if fam.kind == POLYNOMIAL:
        m = fam.coefficient_matrix()
        return lat.kernel(m, fam.size, len(m[0]))
    if fam.kind == BEATTY:
        return lat.trivial(fam.size)
    if fam.asserted_relations is None:
        raise UndecidableFromSamples(
            "explicit families need a user-asserted relation lattice; "
            "detect_relations offers a heuristic scan"
        )
    return fam.asserted_relations


@dataclass(frozen=True)
class AdequacyVerdict:
    adequate: bool
    certificate: lat.IntVec | None = None

    def __bool__(self) -> bool:
        return self.adequate


def _higher_kernel(m: list[list[int]]) -> lat.Lattice:
    """The integer kernel of the degree >= 1 columns of a polynomial
    family's coefficient matrix m."""
    return lat.kernel([row[1:] for row in m], len(m), len(m[0]) - 1)


def is_adequate(fam: SequenceFamily) -> AdequacyVerdict:
    """Do all integer combinations tend to 0 or +-infinity (and each |phi_j|
    to infinity)?

    Polynomial criterion: the kernel of the degree >= 1 columns must equal
    A(phi), the kernel of the full matrix; a combination in the first but not
    the second tends to a nonzero constant, and it is returned as the
    certificate.
    A basis row of the first lies in A(phi) exactly when it also annihilates
    the constant-term column, so A(phi) itself is not built.
    """
    if fam.kind == EXPLICIT:
        raise UndecidableFromSamples("adequacy is asymptotic; explicit tables cannot decide it")
    if fam.kind == BEATTY:
        return AdequacyVerdict(True)
    m = fam.coefficient_matrix()
    for row in _higher_kernel(m).basis:
        if sum(a * coeffs[0] for a, coeffs in zip(row, m)):
            return AdequacyVerdict(False, row)
    return AdequacyVerdict(True)


def is_asymptotically_independent(fam: SequenceFamily) -> bool:
    """No nonzero combination stays bounded: kernel of the degree >= 1
    columns is trivial (polynomials), or asserted independence (Beatty)."""
    if fam.kind == BEATTY:
        return fam.independent
    if fam.kind == EXPLICIT:
        raise UndecidableFromSamples("asymptotic independence undecidable from samples")
    return _higher_kernel(fam.coefficient_matrix()).is_trivial()


@dataclass(frozen=True)
class ReducedFamily:
    """Reduction of a polynomial family to an independent subfamily.

    indices holds the 1-indexed positions of the chosen subfamily.  For each
    original j the pair (relations[j-1], denominators[j-1]) = (b_vec, b_j)
    satisfies sum_r b_vec[r] phi_{indices[r]} = b_j phi_j exactly with
    gcd(b_vec, b_j) = 1, and scale = prod b_j.  image_map columns send d to
    the unique a with sum_r a_r phi_{j_r} = scale * sum_j d_j phi_j.
    """

    indices: tuple[int, ...]
    relations: tuple[tuple[int, ...], ...]
    denominators: tuple[int, ...]
    scale: int
    image_map: tuple[tuple[int, ...], ...]  # c x l, column j is (scale/b_j) b_vec^j


def reduce_family(
    fam: SequenceFamily, G: lat.Lattice
) -> tuple[ReducedFamily, lat.Lattice]:
    """Greedy maximal independent subfamily plus the image group realizing
    the dichotomy for (fam, G) after rescaling by `scale`.

    Requires A(phi) contained in G; the image lattice G~ is generated by the
    images of G's basis under the map d -> a.
    """
    if fam.kind != POLYNOMIAL:
        raise PreconditionError("reduction is defined for polynomial families")
    if not is_adequate(fam):
        raise PreconditionError("family is not adequate")
    A = relation_group(fam)
    if G.ambient_dim != fam.size:
        raise DimensionMismatch("group dimension differs from family size")
    for row in A.basis:
        if not lat.member(G, row):
            raise PreconditionError("G does not contain the relation group A(phi)")
    matrix = fam.coefficient_matrix()
    width = len(matrix[0])
    chosen: list[int] = []
    chosen_rows: list[list[int]] = []
    for j in range(fam.size):
        candidate = chosen_rows + [matrix[j]]
        if lat.canonicalize(candidate, width).rank == len(candidate):
            chosen.append(j + 1)
            chosen_rows.append(matrix[j])
    c = len(chosen)
    relations = []
    denominators = []
    for j in range(fam.size):
        # The chosen rows are independent and span row j, so the relations
        # among them and row j form a rank-1 saturated lattice; its primitive
        # generator (k, k_last) has k_last != 0 and gives b_j phi_j = b.phi.
        ((*k, k_last),) = lat.kernel(chosen_rows + [matrix[j]], c + 1, width).basis
        sign = 1 if k_last > 0 else -1
        relations.append(tuple(-sign * x for x in k))
        denominators.append(abs(k_last))
    scale = math.prod(denominators)
    image_cols = [
        tuple(scale // denominators[j] * b for b in relations[j])
        for j in range(fam.size)
    ]
    image_map = tuple(
        tuple(image_cols[j][r] for j in range(fam.size)) for r in range(c)
    )
    image_vectors = []
    for g in G.basis:
        image_vectors.append(
            tuple(sum(image_map[r][j] * g[j] for j in range(fam.size)) for r in range(c))
        )
    g_tilde = lat.canonicalize(image_vectors, c)
    red = ReducedFamily(
        indices=tuple(chosen),
        relations=tuple(relations),
        denominators=tuple(denominators),
        scale=scale,
        image_map=image_map,
    )
    return red, g_tilde


def subfamily(fam: SequenceFamily, red: ReducedFamily) -> SequenceFamily:
    return polynomial_family([fam.polys[j - 1] for j in red.indices])


def detect_relations(
    fam: SequenceFamily, coeff_bound: int, tail_window: int
) -> lat.Lattice:
    """Heuristic: integer combinations vanishing on the whole tail window.

    The output is only evidence (flagged by the caller as such): the table
    cannot prove an asymptotic statement.
    """
    if fam.kind != EXPLICIT:
        raise PreconditionError("detect_relations expects an explicit family")
    n_max = len(fam.values[0])
    if tail_window < 1 or tail_window > n_max:
        raise PreconditionError("tail window does not fit the table")
    ns = range(n_max - tail_window + 1, n_max + 1)
    found = []
    for a in product(range(-coeff_bound, coeff_bound + 1), repeat=fam.size):
        if not any(a):
            continue
        if all(
            sum(a[j] * fam.values[j][n - 1] for j in range(fam.size)) == 0 for n in ns
        ):
            found.append(a)
    return lat.canonicalize(found, fam.size)
