"""Bivariate normal pair masses and the Gaussian transfer check.

The Gaussian system attached to a spectral measure turns correlation values
Re sigma-hat(n) into covariances of standard normal pairs; rigidity pushes
the pair mass of a cylinder I to P(I) and mixing to P(I)^2.  Pair masses are
computed by adaptive quadrature of the conditional normal CDF, accurate to
1e-8 absolute.  scipy is imported on the first pair mass, not with the
module, so importing rigidlab does not pay for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import families as fm
from . import lattice as lat
from .errors import PreconditionError
from .measure import AtomicMeasure, _combination_coefficients
from .schedule import Schedule

PAIR_MASS_TOL = 1e-8


def interval_probability(lo: float, hi: float) -> float:
    """P(X in [lo, hi]) for standard normal X."""
    from scipy.special import ndtr

    return float(ndtr(hi) - ndtr(lo))


def gaussian_pair_mass(rho: float, I: tuple, J: tuple) -> float:
    """P(X in I, Y in J) for standard bivariate normal with correlation rho.

    Degenerate rho = +-1 collapses to one-dimensional masses; otherwise the
    mass is the integral over I of the conditional CDF increment.
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
    from scipy.integrate import quad
    from scipy.special import ndtr

    s = math.sqrt(1 - rho * rho)

    def integrand(x):
        return (
            math.exp(-x * x / 2)
            / math.sqrt(2 * math.pi)
            * (ndtr((d - rho * x) / s) - ndtr((c - rho * x) / s))
        )

    value, err = quad(integrand, a, b, epsabs=PAIR_MASS_TOL / 10, limit=200)
    return float(value)


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
    tolerance: float

    def passes(self, top_level: int) -> bool:
        return all(
            r.deviation <= self.tolerance for r in self.rows if r.level == top_level
        )


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
    mixing one near P(interval)^2.  Each level's l coefficients come from
    one residue basis, at the unit vectors (bitwise fourier_coefficient's).
    """
    p1 = interval_probability(float(interval[0]), float(interval[1]))
    units = [lat.standard_basis(fam.size, j) for j in range(1, fam.size + 1)]
    rows = []
    for k in range(1, s.depth + 1):
        vals = fm.evaluate(fam, s.indices[k - 1])
        coeffs = _combination_coefficients(m, vals, units)
        for j, coeff in enumerate(coeffs, start=1):
            rho = max(-1.0, min(1.0, coeff.real))
            rigid = lat.member(G, lat.standard_basis(G.ambient_dim, j))
            target = p1 if rigid else p1 * p1
            mass = gaussian_pair_mass(rho, interval, interval)
            rows.append(
                GaussianTransferRow(j, k, rho, mass, target, rigid, abs(mass - target))
            )
    return GaussianTransferReport(rows, tol)
