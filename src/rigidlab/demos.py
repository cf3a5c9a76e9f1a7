"""Executable counterexample demos: non-IP* recurrence sets.

Each demo pairs an exact rational ledger (the limit correlation along the
finite-sums tail, computed through annihilator representatives) with an
empirical scan of an actual sampled system: every finite sum of the schedule
indices past a cutoff is evaluated on the skew product and compared against
the recurrence threshold with a three-sigma Monte Carlo error bar.  A scan
point is conclusive only when the bar clears the threshold.  The smallest
passing cutoff comes from one pass over the groups of sums that share their
least index, so no sum is scored twice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product
from typing import Sequence

from . import families as fm
from . import lattice as lat
from .behrend import behrend_certificate
from .circleset import CircleSet
from .errors import ConstructionFailed, PreconditionError
from .haar import FactorPattern, haar_correlation_limit
from .measure import fourier_coefficient, sample_sigma
from .schedule import build_schedule
from .skew import ShiftResidues, _tail_alphas, sampled_correlation

BELOW = "BELOW"
ABOVE = "ABOVE"
INCONCLUSIVE = "INCONCLUSIVE"
SCAN_PRIME_CAP = 50  # cor67 scans the sampled system only up to this prime


@dataclass
class ScanPoint:
    alpha: tuple[int, ...]
    correlation: float
    stderr: float
    verdict: str


@dataclass
class TailScan:
    threshold: float
    points: list[ScanPoint]
    generators: tuple[int, ...]  # the schedule's n_i; a point's n_alpha sums those in alpha

    @property
    def inconclusive_count(self) -> int:
        return sum(1 for p in self.points if p.verdict == INCONCLUSIVE)


def scan_fs_tail(
    shifts: ShiftResidues,
    B: CircleSet,
    start_index: int,
    threshold: float,
) -> TailScan:
    """Evaluate the finite sums past start_index that contain start_index + 1
    in fs_tail order up to the first point that is not BELOW.  Each point's
    shifts p(n_alpha) come as exact residues from the shared table."""
    gens = shifts.generators
    later = range(start_index + 2, len(gens) + 1)
    points = []
    for rest in (c for r in range(len(later) + 1) for c in combinations(later, r)):
        alpha = (start_index + 1, *rest)
        m, residues = shifts.at(alpha)
        corr, err = sampled_correlation(m, B, residues)
        verdict = (BELOW if corr + 3 * err <= threshold
                   else ABOVE if corr - 3 * err > threshold else INCONCLUSIVE)
        points.append(ScanPoint(alpha, corr, err, verdict))
        if verdict != BELOW:
            break
    return TailScan(threshold, points, gens)


def smallest_passing_cutoff(
    base, B, polys, schedule, k0_max, threshold
) -> tuple[int | None, dict[int, TailScan]]:
    """Smallest k0 <= k0_max whose tail scans all BELOW, with that scan: the
    largest j whose group G_j (the sums with least index j) fails, or 0.  The
    G_j past min(k0_max, depth - 1) go first, then the rest downward."""
    last = min(k0_max, schedule.depth - 1)
    if last < 0:  # a negative k0_max or a depth of 0 leaves no cutoff
        return None, {}
    shifts = ShiftResidues(base, schedule.indices, polys)
    scored, cutoff = {}, 0
    for j in (*range(last + 1, schedule.depth + 1), *range(last, 0, -1)):
        group = scan_fs_tail(shifts, B, j - 1, threshold)
        if group.points[-1].verdict != BELOW:
            cutoff = j
            break
        scored.update((p.alpha, p) for p in group.points)
    if cutoff > last:
        return None, {}
    points = [scored[alpha] for alpha in _tail_alphas(cutoff, schedule.depth)]
    return cutoff, {cutoff: TailScan(threshold, points, shifts.generators)}


def _monomial_schedule(d, depth, k0_max):
    """The monomials n, ..., n^d and their schedule, built once per demo run.
    For monomials the reduction is the identity (scale 1, image group G), so
    each rigidity group in Z^d samples sigma on this schedule directly.  A
    negative k0_max is refused first, before the search."""
    if k0_max < 0:
        raise PreconditionError("k0_max must be non-negative")
    monomials = fm.polynomial_family([[0] * j + [1] for j in range(1, d + 1)])
    return monomials, build_schedule(monomials, depth)


def cor65_representatives(ell: int) -> list[tuple[Fraction, ...]]:
    """Annihilator representatives of the preimage group: the digit set
    a0 (1/3, 2/3, 0, ...) + sum_{s>=3} a_s (1/3) e_s over digits in {0,1,2}."""
    if ell < 2:
        raise PreconditionError("the construction needs at least two sequences")
    reps = []
    for digits in product(range(3), repeat=ell - 1):
        a0, rest = digits[0], digits[1:]
        y = [Fraction(a0, 3) % 1, Fraction(2 * a0, 3) % 1]
        y.extend(Fraction(a, 3) for a in rest)
        reps.append(tuple(y))
    return reps


@dataclass
class Cor65Report:
    ell: int
    polys: tuple[tuple[int, ...], ...]
    group: lat.Lattice
    padded_coordinates: tuple[int, ...]
    group_index: int
    limit: Fraction
    nu_power: Fraction
    gap: Fraction
    epsilon: Fraction
    exact_ledger_ok: bool
    cutoff: int | None
    scan: TailScan | None = field(repr=False, default=None)

    @property
    def passed(self) -> bool:
        return self.exact_ledger_ok and self.cutoff is not None

    def to_json(self) -> dict:
        return {
            "ell": self.ell,
            "polys": [list(p) for p in self.polys],
            "group": self.group.to_json(),
            "padded_coordinates": list(self.padded_coordinates),
            "group_index": self.group_index,
            "limit": str(self.limit),
            "nu_power": str(self.nu_power),
            "gap": str(self.gap),
            "epsilon": str(self.epsilon),
            "exact_ledger_ok": self.exact_ledger_ok,
            "k0": self.cutoff,
            "threshold": str(self.nu_power - self.epsilon),
            "scan": None
            if self.scan is None
            else [
                {
                    "alpha": list(p.alpha),
                    "correlation": p.correlation,
                    "stderr": p.stderr,
                    "verdict": p.verdict,
                    "approx": True,
                }
                for p in self.scan.points
            ],
            "passed": self.passed,
        }


def build_cor65_group(polys: Sequence[Sequence[int]]) -> tuple[lat.Lattice, tuple[int, ...]]:
    """The finite-index group generated by -2c1+c2, the tripled coefficient
    vectors, and tripled unit vectors on padding coordinates when needed."""
    mats = [list(p) for p in polys]
    degree = max(len(p) - 1 for p in mats)
    cvecs = [[(p[i] if i < len(p) else 0) for i in range(1, degree + 1)] for p in mats]
    gens = [[-2 * a + b for a, b in zip(cvecs[0], cvecs[1])]]
    gens.extend([3 * c for c in vec] for vec in cvecs)
    g_prime = lat.canonicalize(gens, degree)
    padded = []
    g = g_prime
    t = 1
    while lat.index_in_ambient(g) == lat.INFINITE:
        if t > degree:
            raise ConstructionFailed(
                "no padding coordinate with trivial line intersection remains"
            )
        line = lat.intersect_coordinate_subspace(g_prime, {t})
        if line.is_trivial():
            padded.append(t)
            vec = [0] * degree
            vec[t - 1] = 3
            g = lat.lattice_sum(g, lat.canonicalize([vec], degree))
        t += 1
    return g, tuple(padded)


def cor65_demo(
    ell: int,
    polys: Sequence[Sequence[int]],
    depth: int,
    n_samples: int,
    seed: int,
    k0_max: int = 3,
) -> Cor65Report:
    """Non-IP* recurrence set for independent polynomials (exact ledger plus
    finite-sums scan of the sampled skew product)."""
    family = fm.polynomial_family(polys)
    if family.size != ell:
        raise PreconditionError(f"ell = {ell} does not match the {family.size} polynomials")
    if ell < 2:
        raise PreconditionError("the construction needs at least two polynomials")
    if any(p[0] != 0 for p in family.polys):
        raise PreconditionError("polynomials must have zero constant term")
    matrix = [row[1:] for row in family.coefficient_matrix()]
    if lat.canonicalize(matrix, len(matrix[0])).rank != ell:
        raise PreconditionError("polynomials must be linearly independent")

    group, padded = build_cor65_group(family.polys)
    index = lat.index_in_ambient(group)

    B = CircleSet.interval(0, Fraction(2, 3))
    reps = cor65_representatives(ell)
    pattern = [
        FactorPattern.of(rep_coeffs=tuple(1 if i == j else 0 for i in range(ell)))
        for j in range(ell)
    ]
    limit = haar_correlation_limit(reps, B, pattern)
    closed_form = Fraction(2 ** (ell - 1), 3**ell)
    nu_power = Fraction(2, 3) ** (ell + 1)
    gap = nu_power - limit
    epsilon = Fraction(1, 3 ** (ell + 1))
    ledger_ok = (
        limit == closed_form
        and gap == Fraction(2 ** (ell - 1), 3 ** (ell + 1))
        and gap >= 2 * epsilon
    )

    monomials, sched = _monomial_schedule(group.ambient_dim, depth, k0_max)
    cutoff, scans = smallest_passing_cutoff(
        sample_sigma(group, sched, monomials, n_samples, seed), B, family.polys, sched,
        k0_max, float(nu_power - epsilon),
    )
    return Cor65Report(
        ell=ell,
        polys=family.polys,
        group=group,
        padded_coordinates=padded,
        group_index=index,
        limit=limit,
        nu_power=nu_power,
        gap=gap,
        epsilon=epsilon,
        exact_ledger_ok=ledger_ok,
        cutoff=cutoff,
        scan=scans.get(cutoff),
    )


@dataclass
class Cor66Report:
    p: tuple[int, ...]
    q: tuple[int, ...]
    ell: int
    behrend: CircleSet
    limit: Fraction
    triple_integral: Fraction
    bound: Fraction
    exact_ledger_ok: bool
    rigid_coefficients: list
    mixing_coefficient: float
    cutoff: int | None
    scan: TailScan | None = field(repr=False, default=None)

    @property
    def passed(self) -> bool:
        return self.exact_ledger_ok and self.cutoff is not None

    def to_json(self) -> dict:
        return {
            "p": list(self.p),
            "q": list(self.q),
            "ell": self.ell,
            "behrend_set": self.behrend.to_json(),
            "limit": str(self.limit),
            "triple_integral": str(self.triple_integral),
            "bound": str(self.bound),
            "exact_ledger_ok": self.exact_ledger_ok,
            "k0": self.cutoff,
            "passed": self.passed,
        }


def cor66_demo(
    p: Sequence[int],
    q: Sequence[int],
    ell: int,
    depth: int,
    n_samples: int,
    seed: int,
    k0_max: int = 5,
) -> Cor66Report:
    """Degree-matched pair (p, q) with deg(2p - q) strictly between: the set
    of large returns is shown non-IP* against a Behrend-type target set."""
    fam_pair = fm.polynomial_family([p, q])
    pc, qc = fam_pair.coefficient_matrix()
    if pc[0] != 0 or qc[0] != 0:
        raise PreconditionError("polynomials must have zero constant term")
    deg_p = max(i for i, c in enumerate(pc) if c)
    deg_q = max(i for i, c in enumerate(qc) if c)
    double_diff = [2 * a - b for a, b in zip(pc, qc)]
    deg_diff = max((i for i, c in enumerate(double_diff) if c), default=0)
    if not (deg_p == deg_q > deg_diff > 0):
        raise PreconditionError(
            "need deg(p) = deg(q) > deg(2p - q) > 0 exactly"
        )
    degree = deg_p
    B, triple, bound = behrend_certificate(ell)
    lead = pc[degree]
    limit = haar_correlation_limit(
        [()],
        B,
        [
            FactorPattern.of(free_var=0, free_coef=lead),
            FactorPattern.of(free_var=0, free_coef=2 * lead),
        ],
    )
    ledger_ok = limit == triple and triple <= bound

    group = lat.canonicalize(
        [lat.standard_basis(degree, j) for j in range(1, degree)], degree
    )
    monomials, sched = _monomial_schedule(degree, depth, k0_max)
    sigma = sample_sigma(group, sched, monomials, n_samples, seed)
    cutoff, scans = smallest_passing_cutoff(
        sigma, B, (tuple(pc), tuple(qc)), sched, k0_max, float(B.measure() ** ell)
    )
    top = sched.indices[-1]
    rigid = [fourier_coefficient(sigma, top**d).real for d in range(1, degree)]
    mixing = abs(fourier_coefficient(sigma, top**degree))
    return Cor66Report(
        p=tuple(pc),
        q=tuple(qc),
        ell=ell,
        behrend=B,
        limit=limit,
        triple_integral=triple,
        bound=bound,
        exact_ledger_ok=ledger_ok,
        rigid_coefficients=rigid,
        mixing_coefficient=mixing,
        cutoff=cutoff,
        scan=scans.get(cutoff),
    )


@dataclass
class Cor67PrimeRow:
    prime: int
    limit: Fraction
    distance_to_uniform: Fraction
    cutoff: int | None
    inconclusive: int


@dataclass
class Cor67Report:
    ell: int
    primes: tuple[int, ...]
    behrend: CircleSet
    uniform_limit: Fraction
    bound: Fraction
    rows: list[Cor67PrimeRow]
    exact_ledger_ok: bool

    @property
    def passed(self) -> bool:
        return self.exact_ledger_ok and any(r.cutoff is not None for r in self.rows)

    def to_json(self) -> dict:
        return {
            "ell": self.ell,
            "primes": list(self.primes),
            "behrend_set": self.behrend.to_json(),
            "uniform_limit": str(self.uniform_limit),
            "bound": str(self.bound),
            "rows": [
                {
                    "prime": r.prime,
                    "limit": str(r.limit),
                    "distance_to_uniform": str(r.distance_to_uniform),
                    "k0": r.cutoff,
                    "inconclusive": r.inconclusive,
                }
                for r in self.rows
            ],
            "exact_ledger_ok": self.exact_ledger_ok,
            "passed": self.passed,
        }


def cor67_exact_limit(B: CircleSet, prime: int) -> Fraction:
    """Exact limit for the (n, 2n, n^2)-pattern with first coordinate on the
    prime cyclic annihilator and second coordinate free."""
    reps = [(Fraction(k, prime),) for k in range(prime)]
    pattern = [
        FactorPattern.of(rep_coeffs=(1,)),
        FactorPattern.of(rep_coeffs=(2,)),
        FactorPattern.of(free_var=0, free_coef=1),
    ]
    return haar_correlation_limit(reps, B, pattern)


def cor67_uniform_limit(B: CircleSet) -> Fraction:
    pattern = [
        FactorPattern.of(free_var=0, free_coef=1),
        FactorPattern.of(free_var=0, free_coef=2),
        FactorPattern.of(free_var=1, free_coef=1),
    ]
    return haar_correlation_limit([()], B, pattern)


def cor67_demo(
    ell: int,
    primes: Sequence[int],
    depth: int,
    n_samples: int,
    seed: int,
    k0_max: int = 5,
) -> Cor67Report:
    """Mixed pattern (n, 2n, n^2): exact prime-ladder limits converging to
    the uniform value under the Behrend bound, with a scan of the sampled
    system for affordable primes."""
    primes = tuple(int(x) for x in primes)
    if any(b <= a for a, b in zip(primes, primes[1:])):
        raise PreconditionError("primes must be increasing")
    if primes and primes[0] < 1:
        raise PreconditionError(f"primes must be positive, got {primes[0]}")
    B, triple, _ = behrend_certificate(ell)
    uniform = cor67_uniform_limit(B)
    bound = B.measure() ** ell / 2 * B.measure()
    ledger_ok = uniform == triple * B.measure() and uniform <= bound
    scanned = {prime for prime in primes if prime <= SCAN_PRIME_CAP}
    if scanned:
        monomials, sched = _monomial_schedule(2, depth, k0_max)
    rows = []
    for prime in primes:
        limit = cor67_exact_limit(B, prime)
        distance = abs(limit - uniform)
        cutoff = None
        inconclusive = 0
        if prime in scanned:
            # sigma is bound to no name, so it is freed before the next prime samples
            cutoff, scans = smallest_passing_cutoff(
                sample_sigma(lat.canonicalize([(prime, 0)], 2), sched, monomials, n_samples, seed),
                B, ((0, 1), (0, 2), (0, 0, 1)), sched, k0_max, float(B.measure() ** ell),
            )
            if cutoff is not None:
                inconclusive = scans[cutoff].inconclusive_count
        rows.append(Cor67PrimeRow(prime, limit, distance, cutoff, inconclusive))
    return Cor67Report(
        ell=ell,
        primes=primes,
        behrend=B,
        uniform_limit=uniform,
        bound=bound,
        rows=rows,
        exact_ledger_ok=ledger_ok,
    )
