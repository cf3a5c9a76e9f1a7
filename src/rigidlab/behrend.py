"""Construction and exact verification of interval sets with few length-3
progressions.

verify_behrend computes the exact double integral of
1_B(y) 1_B(y+z) 1_B(y+2z) over the torus square and compares it with
mu(B)^l / 2.  behrend_certificate searches a parameter ladder of digit
constructions (base-3 digit vectors avoiding the digit 2, embedded as
half-width cells so that every off-cell near-progression contributes zero
area) and returns the first candidate passing the exact verification with
the integral and bound that certified it; behrend_set returns the set alone.

Feasibility drops off quickly in l.  A union of intervals of widths w_i
always satisfies the lower bound

    integral >= sum_i w_i^2 / 2      (the same-interval progressions),

so passing forces sum w_i^2 <= mu^l, hence at least mu^(2-l) intervals in an
essentially progression-free position pattern at grid resolution ~1/w.  For
l >= 4 that demands progression-free densities r3(N) ~ N^((l-2)/(l-1)) that
exceed what is constructible at any enumerable grid size (the Behrend-type
crossover sits around N ~ 1e77 for l = 5), so the constructor raises for
l >= 4 after its ladder is exhausted.
"""

from __future__ import annotations

from fractions import Fraction

from .circleset import CircleSet
from .errors import ConstructionFailed, PreconditionError
from .haar import triple_progression_integral


def verify_behrend(B: CircleSet, ell: int) -> tuple[Fraction, Fraction]:
    """(triple progression integral, mu(B)^ell / 2), both exact."""
    if ell < 1:
        raise PreconditionError("ell must be a positive integer")
    value = triple_progression_integral(B)
    bound = B.measure() ** ell / 2
    return value, bound


def _digit_positions(t: int) -> list[int]:
    """Base-3 digit vectors over {0,1}: progression-free as integers and,
    within [0, 3^t), also free of wrap-around progressions."""
    out = [0]
    for _ in range(t):
        out = [3 * x for x in out] + [3 * x + 1 for x in out]
    return sorted(out)


def _digit_candidate(t: int) -> CircleSet:
    n = 3**t
    w = Fraction(1, 2 * n)  # half cells: near-progressions contribute nothing
    return CircleSet.from_pairs(
        [(Fraction(p, n), Fraction(p, n) + w) for p in _digit_positions(t)]
    )


def candidate_ladder():
    yield CircleSet.interval(0, Fraction(1, 10))
    for t in range(1, 7):
        yield _digit_candidate(t)


def behrend_certificate(ell: int) -> tuple[CircleSet, Fraction, Fraction]:
    """(B, value, bound): the smallest ladder candidate B whose exact
    verification passes for ell, with verify_behrend(B, ell) as computed in
    the search.

    Raises ConstructionFailed for every ell >= 4.  On the digit candidate t
    (2^t intervals of width 1/(2*3^t)) the exact integral equals the
    same-interval floor sum w_i^2 / 2, and

        floor / (mu^ell / 2) = 2^(ell-2) * (3^(ell-2) / 2^(ell-1))^t,

    which is 8*(27/16)^t for ell = 5; on the first candidate [0, 1/10) the
    ratio is 10^(ell-2).  For ell >= 4 every ratio exceeds 1, so no candidate
    passes.  The floor is checked first: a candidate it already excludes
    skips the exact integral.
    """
    if ell < 1:
        raise PreconditionError("ell must be a positive integer")
    for cand in candidate_ladder():
        floor = sum(((v - u) ** 2 for u, v in cand.intervals), Fraction(0)) / 2
        if floor > cand.measure() ** ell / 2:
            continue
        value, bound = verify_behrend(cand, ell)
        if value <= bound:
            return cand, value, bound
    raise ConstructionFailed(
        f"no interval construction passes the progression bound for ell={ell}: "
        "the same-interval floor sum(w_i^2)/2 forces progression-free interval "
        "patterns denser than any enumerable construction provides (l >= 4)"
    )


def behrend_set(ell: int) -> CircleSet:
    """The set of behrend_certificate(ell)."""
    return behrend_certificate(ell)[0]
