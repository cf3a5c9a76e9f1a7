"""Bivariate normal pair masses and the Gaussian transfer check.

The Gaussian system attached to a spectral measure turns correlation values
Re sigma-hat(n) into covariances of standard normal pairs; rigidity pushes
the pair mass of a cylinder I to P(I) and mixing to P(I)^2.

A pair mass is a rectangle probability, taken by inclusion-exclusion from
four upper-orthant values P(X > h, Y > k).  Each comes from Genz's bvnu
(A. Genz, Statistics and Computing 14 (2004) 251-260): Gauss-Legendre on
Sheppard's arcsine form for |rho| < 0.925, and Drezner & Wesolowsky's (1990)
asymptotic form near +-1.

Error budget: Genz's orthant values are accurate to ~1e-15 absolute, and
the normal CDF 0.5 * erfc(-x / sqrt 2) to a few ulps.  Inclusion-exclusion
sums four orthant values, so a pair mass is off by at most ~4e-15, well
inside PAIR_MASS_TOL = 1e-8.  tests/test_skew.py checks the masses against
a composite Gauss-Legendre quadrature of the conditional normal CDF.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import families as fm
from . import lattice as lat
from .errors import PreconditionError
from .measure import AtomicMeasure, fourier_coefficient
from .schedule import Schedule

PAIR_MASS_TOL = 1e-8  # the absolute accuracy promised for a pair mass
_TWO_PI = 2 * math.pi

# Gauss-Legendre rules on [-1, 1] with 6, 12 and 20 nodes, keyed by the |rho|
# below which each is used: the positive nodes x and their weights w (the
# rule is symmetric), correctly rounded.
_GAUSS_LEGENDRE = (
    (0.3,
     (0.932469514203152, 0.6612093864662645, 0.2386191860831969),
     (0.17132449237917036, 0.3607615730481386, 0.46791393457269104)),
    (0.75,
     (0.9815606342467192, 0.9041172563704749, 0.7699026741943047,
      0.5873179542866175, 0.3678314989981802, 0.1252334085114689),
     (0.04717533638651183, 0.10693932599531843, 0.16007832854334622,
      0.20316742672306592, 0.2334925365383548, 0.24914704581340277)),
    (1.0,
     (0.9931285991850949, 0.9639719272779138, 0.912234428251326,
      0.8391169718222188, 0.7463319064601508, 0.636053680726515,
      0.5108670019508271, 0.37370608871541955, 0.22778585114164507,
      0.07652652113349734),
     (0.017614007139152118, 0.04060142980038694, 0.06267204833410907,
      0.08327674157670475, 0.10193011981724044, 0.11819453196151841,
      0.13168863844917664, 0.14209610931838204, 0.14917298647260374,
      0.15275338713072584)),
)
# The same rules moved to [0, 2], as (node, weight) pairs at 1 - x and 1 + x.
_RULES = tuple(
    (cut, [(1 - x, w) for x, w in zip(xs, ws)] + [(1 + x, w) for x, w in zip(xs, ws)])
    for cut, xs, ws in _GAUSS_LEGENDRE
)


def _ndtr(x: float) -> float:
    """P(X <= x) for standard normal X."""
    return 0.5 * math.erfc(-x / math.sqrt(2))


def interval_probability(lo: float, hi: float) -> float:
    """P(X in [lo, hi]) for standard normal X.

    An interval in the upper tail is taken as P(X >= lo) - P(X >= hi), from
    two small values, so its mass keeps its relative accuracy there.
    """
    if lo > 0:
        return _ndtr(-lo) - _ndtr(-hi)
    return _ndtr(hi) - _ndtr(lo)


def _upper_orthant(h: float, k: float, r: float) -> float:
    """P(X > h, Y > k) for standard normals with correlation |r| < 1.

    Genz's bvnu.
    """
    if h == math.inf or k == math.inf:
        return 0.0
    if h == -math.inf:
        return 1.0 if k == -math.inf else _ndtr(-k)
    if k == -math.inf:
        return _ndtr(-h)
    if r == 0:
        return _ndtr(-h) * _ndtr(-k)
    nodes = next(nodes for cut, nodes in _RULES if abs(r) < cut)
    hk = h * k
    if abs(r) < 0.925:
        # Sheppard: Phi(-h) Phi(-k) + (1/2pi) int_0^asin r of
        # exp((hk sin t - (h^2 + k^2)/2) / cos^2 t) dt
        hs = (h * h + k * k) / 2
        asr = math.asin(r) / 2
        total = 0.0
        for x, w in nodes:
            sn = math.sin(asr * x)
            total += w * math.exp((sn * hk - hs) / (1 - sn * sn))
        bvn = total * asr / _TWO_PI + _ndtr(-h) * _ndtr(-k)
    else:
        # Drezner & Wesolowsky: an expansion in 1 - r^2 integrated in closed
        # form, plus Gauss-Legendre on the remainder; r < 0 works on (X, -Y).
        # The series term is 1 + c x^2 (1 + 5 d x^2) with d = (12 - hk)/80.
        if r < 0:
            k, hk = -k, -hk
        a2 = (1 - r) * (1 + r)
        a = math.sqrt(a2)
        bs = (h - k) ** 2
        c = (4 - hk) / 8
        d = (12 - hk) / 80
        asr = -(bs / a2 + hk) / 2
        bvn = 0.0
        if asr > -100:
            bvn = a * math.exp(asr) * (1 - c * (bs - a2) * (1 - d * bs) / 3 + c * d * a2 * a2)
        if hk > -100:
            b = math.sqrt(bs)
            sp = math.sqrt(_TWO_PI) * _ndtr(-b / a)
            bvn -= math.exp(-hk / 2) * sp * b * (1 - c * bs * (1 - d * bs) / 3)
        a /= 2
        total = 0.0
        for x, w in nodes:
            xs2 = (a * x) ** 2
            asr = -(bs / xs2 + hk) / 2
            if asr > -100:
                rs = math.sqrt(1 - xs2)
                sp = 1 + c * xs2 * (1 + 5 * d * xs2)
                ep = math.exp(-(hk / 2) * xs2 / (1 + rs) ** 2) / rs
                total += w * math.exp(asr) * (sp - ep)
        bvn = (a * total - bvn) / _TWO_PI
        if r > 0:
            bvn += _ndtr(-max(h, k))
        elif h >= k:
            bvn = -bvn
        else:
            L = _ndtr(k) - _ndtr(h) if h < 0 else _ndtr(-h) - _ndtr(-k)
            bvn = L - bvn
    return max(0.0, min(1.0, bvn))


def gaussian_pair_mass(rho: float, I: tuple, J: tuple) -> float:
    """P(X in I, Y in J) for standard bivariate normal with correlation rho.

    Degenerate rho = +-1 collapses to one-dimensional masses; otherwise the
    rectangle is taken by inclusion-exclusion of four upper orthants, after
    X -> -X where I lies below 0 and Y -> -Y where J does (each flip negates
    rho): orthant values near 1 would lose the mass's relative accuracy in
    the lower tail.
    """
    if not -1 <= rho <= 1:
        raise PreconditionError("correlation must lie in [-1, 1]")
    a, b = float(I[0]), float(I[1])
    c, d = float(J[0]), float(J[1])
    if any(math.isnan(x) for x in (a, b, c, d)):
        raise PreconditionError("interval ends must not be NaN")
    if a > b or c > d:
        raise PreconditionError("intervals must be ordered (lo, hi)")
    if rho == 1:
        return interval_probability(max(a, c), min(b, d)) if max(a, c) <= min(b, d) else 0.0
    if rho == -1:
        lo, hi = max(a, -d), min(b, -c)
        return interval_probability(lo, hi) if lo <= hi else 0.0
    if b < 0:
        a, b, rho = -b, -a, -rho
    if d < 0:
        c, d, rho = -d, -c, -rho
    mass = (
        _upper_orthant(a, c, rho) - _upper_orthant(b, c, rho)
        - _upper_orthant(a, d, rho) + _upper_orthant(b, d, rho)
    )
    return max(0.0, min(1.0, mass))


@dataclass
class GaussianTransferRow:
    coordinate: int
    level: int
    rho: float
    mass: float
    target: float
    rigid: bool
    deviation: float


@dataclass
class GaussianTransferReport:
    rows: list[GaussianTransferRow]
    passed: bool


def verify_gaussian_transfer(
    m: AtomicMeasure,
    s: Schedule,
    fam: fm.SequenceFamily,
    G: lat.Lattice,
    interval: tuple,
    tol: float,
) -> GaussianTransferReport:
    """Check the cylinder-level Gaussian limits along each coordinate.

    With rho_jk = Re sigma-hat(phi_j(n_k)), a rigid direction (e_j in G)
    must bring the pair mass of (interval, interval) near P(interval), and a
    mixing one near P(interval)^2.  The report passes when every deviation
    at the schedule's top level is at most tol.
    """
    if not tol >= 0:
        raise PreconditionError(f"tolerance must be a nonnegative number, got {tol}")
    p1 = interval_probability(float(interval[0]), float(interval[1]))
    rigid = [lat.member(G, lat.standard_basis(fam.size, j)) for j in range(1, fam.size + 1)]
    rows = []
    for k in range(1, s.depth + 1):
        vals = fm.evaluate(fam, s.indices[k - 1])
        for j, (v, in_G) in enumerate(zip(vals, rigid), start=1):
            rho = max(-1.0, min(1.0, fourier_coefficient(m, v).real))
            target = p1 if in_G else p1 * p1
            mass = gaussian_pair_mass(rho, interval, interval)
            rows.append(
                GaussianTransferRow(j, k, rho, mass, target, in_G, abs(mass - target))
            )
    passed = all(r.deviation <= tol for r in rows if r.level == s.depth)
    return GaussianTransferReport(rows, passed)
