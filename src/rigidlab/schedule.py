"""Finite-depth Diophantine schedules driving the torus measure construction.

A schedule of depth K is a strictly increasing tuple of indices n_1 < ... <
n_K with k! | n_k together with exact rationals alpha_k^(j) in (0,1).  Four
families of inequalities are enforced, all decidable in rational arithmetic
(||.|| is the distance to the nearest integer, Phi(m) = max_j |phi_j(m)| + 1,
n_0 = 1, c_k = 1/k! + 1/(2 (k!)^2)):

  window    alpha_k^(j) in (0, 1/(k! 2^k Phi(n_{k-1}))]
  calib     || phi_j(n_k) alpha_k^(j) - c_k ||        <  1/(2 (k!)^2)
  offdiag   || phi_j(n_k) alpha_k^(j') ||             <  1/(2 (k!)^2)   (j != j')
  history   || phi_j(n_k) alpha_s^(j') ||             <  1/(k^2 k!)    (s < k)

The builder picks alpha_k^(j) = (c_k + m) / phi_j(n_k) for an integer m
landing in the window, which satisfies the calibration exactly; m is further
steered to integer multiples that cancel the off-diagonal phases.  Candidate
indices n_k run through multiples of k! and then of a divisibility modulus
assembled from the previous levels, which for zero-constant-term families
cancels every history phase exactly.  The window, and the calibration of
every candidate but the window-top fallback, hold by construction; the
builder tests the calibration of that fallback, the off-diagonal and the
history inequalities on exact integer residues (`_near_integer`).
check_schedule replays all four in Fraction; the sampler replays it once on
every schedule it is given.  The search raises SearchExhausted when the
budget runs out.

The strict off-diagonal bound becomes a window on integer residues, linear
along a stream of candidate m (_pick_alpha), so `_first_hit` jumps to the
first candidate inside it in O(log den) steps.  A stream's repeat of an m
fails as it did before, so the first pass is that of the one-by-one search.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction

from . import families as fm
from .errors import PreconditionError, SearchExhausted

DEFAULT_BUDGET = 4000
MAX_DEPTH = 16
_M_CANDIDATES = 96  # per stream of m
_PLAIN_CANDIDATES = 32


def circle_norm(x: Fraction) -> Fraction:
    """Distance from x to the nearest integer."""
    f = x % 1
    return min(f, 1 - f)


def _phi_cap(fam: fm.SequenceFamily, m: int) -> int:
    return max(abs(v) for v in fm.evaluate(fam, m)) + 1


def _calibration(k: int) -> Fraction:
    kf = math.factorial(k)
    return Fraction(1, kf) + Fraction(1, 2 * kf * kf)


def _window_top(fam: fm.SequenceFamily, k: int, prev_index: int) -> Fraction:
    return Fraction(1, math.factorial(k) * 2**k * _phi_cap(fam, prev_index))


@dataclass(frozen=True)
class Schedule:
    depth: int
    indices: tuple[int, ...]
    alphas: tuple[tuple[Fraction, ...], ...]  # [k-1][j-1]

    def __post_init__(self):
        if not isinstance(self.depth, int) or isinstance(self.depth, bool):
            raise PreconditionError("schedule depth must be an integer")
        if self.depth < 1:
            raise PreconditionError("a schedule needs at least one level")
        if len(self.indices) != self.depth or len(self.alphas) != self.depth:
            raise PreconditionError("schedule arrays disagree with depth")
        for k, n in enumerate(self.indices, start=1):
            if n % math.factorial(k):
                raise PreconditionError(f"k! must divide n_k (level {k})")
        if any(b <= a for a, b in zip(self.indices, self.indices[1:])):
            raise PreconditionError("indices must be strictly increasing")

    def to_json(self) -> dict:
        return {
            "depth": self.depth,
            "indices": [str(n) for n in self.indices],
            "alphas": [[str(a) for a in row] for row in self.alphas],
        }

    @staticmethod
    def from_json(obj: dict) -> "Schedule":
        if any(isinstance(n, (float, bool)) for n in obj["indices"]):
            raise PreconditionError("schedule indices must be integers or decimal strings")
        return Schedule(
            obj["depth"],
            tuple(int(n) for n in obj["indices"]),
            tuple(tuple(Fraction(a) for a in row) for row in obj["alphas"]),
        )


@dataclass
class ResidualReport:
    """Exact pass/fail per property, with the violating (location, value, bound)."""

    violations: dict = field(default_factory=dict)

    PROPERTIES = ("window", "calibration", "offdiagonal", "history")

    @property
    def passed(self) -> dict:
        return {p: p not in self.violations for p in self.PROPERTIES}

    def all_pass(self) -> bool:
        return not self.violations

    def record(self, prop: str, location, value: Fraction, bound: Fraction, strict: bool):
        if not (value < bound if strict else value <= bound):
            self.violations.setdefault(prop, []).append((location, value, bound))


def check_schedule(s: Schedule, fam: fm.SequenceFamily) -> ResidualReport:
    """Exact rational evaluation of all four inequality families."""
    size = fam.size
    if any(len(row) != size for row in s.alphas):
        raise PreconditionError(f"each schedule level needs {size} alphas, one per sequence")
    report = ResidualReport()
    values = [fm.evaluate(fam, n) for n in s.indices]
    for k in range(1, s.depth + 1):
        kf = math.factorial(k)
        prev = s.indices[k - 2] if k >= 2 else 1
        top = _window_top(fam, k, prev)
        calib = _calibration(k)
        tight = Fraction(1, 2 * kf * kf)
        for j in range(size):
            a = s.alphas[k - 1][j]
            # window: 0 < alpha <= top  (recorded as value<=bound and value>0)
            report.record("window", (k, j + 1), a, top, strict=False)
            if a <= 0:
                report.violations.setdefault("window", []).append(
                    ((k, j + 1), a, Fraction(0))
                )
            report.record(
                "calibration",
                (k, j + 1),
                circle_norm(values[k - 1][j] * a - calib),
                tight,
                strict=True,
            )
            for j2 in range(size):
                if j2 == j:
                    continue
                report.record(
                    "offdiagonal",
                    (k, j + 1, j2 + 1),
                    circle_norm(values[k - 1][j] * s.alphas[k - 1][j2]),
                    tight,
                    strict=True,
                )
        hist_bound = Fraction(1, k * k * kf)
        for s_prev in range(1, k):
            for j in range(size):
                for j2 in range(size):
                    report.record(
                        "history",
                        (k, s_prev, j + 1, j2 + 1),
                        circle_norm(values[k - 1][j] * s.alphas[s_prev - 1][j2]),
                        hist_bound,
                        strict=True,
                    )
    return report


def _near_integer(num: int, den: int, bound: int) -> bool:
    """||num/den|| < 1/bound exactly, for den > 0 and bound > 0."""
    r = num % den
    return min(r, den - r) * bound < den


def _round_half_even(p: int, q: int) -> int:
    """round(Fraction(p, q)) for q != 0, on integers: ties go to the even one."""
    if q < 0:
        p, q = -p, -q
    m, r = divmod(p, q)
    return m + (2 * r > q or (2 * r == q and m % 2 == 1))


def _first_hit(a: int, b: int, m: int, w: int) -> int | None:
    """Least x >= 0 with (a x + b) mod m <= w, for m > 0; None if there is none.

    With c = b mod m > w this is the least x with L <= a x mod m <= R for
    L = m - c >= 1 and R = L + w < m, found by Euclid's recursion on
    (a mod m, m).  If [L, R] holds a multiple of a, the least one gives x.
    Otherwise R - L < a, and a x - m y lies in [L, R] exactly when m y mod a
    lies in [-R mod a, -L mod a], a window of the same width inside
    [1, a - 1].  Each y admits at most the one x = ceil((m y + L) / a),
    increasing in y, so the least y gives the least x.  The moduli fall as
    in Euclid's algorithm, and a = 0 has no hit.
    """
    c = b % m
    if c <= w:
        return 0
    lo, hi = m - c, m - c + w
    levels = []
    while True:
        a %= m
        if a == 0:
            return None
        x = -(-lo // a)
        if a * x <= hi:
            break
        levels.append((m, lo, a))
        a, m, lo, hi = m, a, -hi % a, -lo % a
    for m, lo, a in reversed(levels):
        x = -(-(m * x + lo) // a)
    return x


def _pick_alpha(
    phi: int, others: Sequence[int], top: Fraction, calib: Fraction, exact_only: bool
) -> Fraction | None:
    """The first candidate alpha for one coordinate that passes, or None.

    Candidates (c + m)/phi come from integers m in the window's range, so
    each lies in (0, top] with calibration residual phi alpha - c exactly m.
    Three streams of m, best-structured first: targeted m landing
    o (c + m)/phi on an integer s for each other coordinate o (up to 25
    evenly spaced s), which pins the fastest-moving off-diagonal phase;
    multiples of phi / gcd(phi, gcd(others)), which make the off-diagonal
    phase an exact integer plus a term the index divisibility cancels; plain
    m.  The last two count up from the low end (small |m| keeps the generic
    phases small), at most _M_CANDIDATES each.  Only the last resort, the
    window top, is tested for the calibration and for the exact_only
    deferral, which gives up at a non-integer calibration residual.  calib =
    c_num/d in lowest terms has d = 2 (k!)^2, the inverse of both bounds.

    On alpha = num/den, den = d |phi|, the strict bound ||o alpha|| < 1/d is
    _near_integer(o num, den, d), and with W = (den - 1) // d < den / 2 it
    is the window (o num + W) mod den <= 2W.  On the streams m = m0 + step t
    that is linear in t, so _first_hit finds the first t passing one nonzero
    other; all others are tested there, and a miss resumes at t + 1.  A
    stream may repeat an m tested before; it failed then and fails again,
    so the first pass is that of the search that skips repeats.
    """
    if phi == 0:
        return None
    c_num, d = calib.numerator, calib.denominator
    sign, den = (1 if phi > 0 else -1), d * abs(phi)
    if phi > 0:
        lo_int = math.floor(-calib) + 1  # alpha > 0
        hi_int = math.floor(top * phi - calib)  # alpha <= top
    else:
        # alpha > 0 needs c + m < 0: m in [top phi - c, -c)
        lo_int = math.ceil(top * phi - calib)
        hi_int = math.ceil(-calib) - 1
    if lo_int <= hi_int:
        for o in filter(None, others):
            # v_lo, v_hi: o (c + m) / phi at the ends of the m range, over den
            v_lo, v_hi = sorted(sign * o * (c_num + m * d) for m in (lo_int, hi_int))
            s_lo, s_hi = -(-v_lo // den), v_hi // den
            for s in range(s_lo, s_hi + 1, max(1, (s_hi - s_lo + 1) // 24))[:25]:
                m = _round_half_even(s * phi * d - o * c_num, o * d)
                num = sign * (c_num + m * d)
                if lo_int <= m <= hi_int and all(_near_integer(v * num, den, d) for v in others):
                    return Fraction(num, den)
        g = math.gcd(*others)
        unit = abs(phi) // math.gcd(phi, g) if g else 1
        o, w = next(filter(None, others), 0), (den - 1) // d
        for step in dict.fromkeys((unit, 1)):
            m0 = -(-lo_int // step) * step
            count = min(_M_CANDIDATES, (hi_int - m0) // step + 1)
            a, b = o * sign * step * d, o * sign * (c_num + m0 * d) + w
            t = 0
            while t < count and (hit := _first_hit(a, b + a * t, den, 2 * w)) is not None:
                t += hit
                num = sign * (c_num + (m0 + step * t) * d)
                if t < count and all(_near_integer(v * num, den, d) for v in others):
                    return Fraction(num, den)
                t += 1
    num, den = top.numerator, top.denominator
    residual = phi * num * d - c_num * den  # over den * d
    if exact_only and residual % (den * d):
        return None
    calibrated = _near_integer(residual, den * d, d)
    return top if calibrated and all(_near_integer(o * num, den, d) for o in others) else None


def _chain_modulus(
    fam: fm.SequenceFamily,
    k: int,
    schedule_values: Sequence[tuple[int, ...]],
    depth: int,
) -> int:
    """Index modulus cancelling the history phases of zero-constant families.

    Each combined term 2 (s!)^2 |phi_j(n_s)| must divide the modulus as a
    whole (not merely up to lcm overlap), so phi of any multiple keeps the
    full factor and the c_s part of every earlier alpha lands in Z.  The
    2 (depth!)^2 factor additionally clears the cross terms that finite sums
    of indices produce against deeper levels' calibration offsets.  k!
    divides the 2 (k!)^3 term, so every multiple keeps k! | n_k.
    """
    kf, df = math.factorial(k), math.factorial(depth)
    terms = [2 * kf**3, 2 * df * df]
    if fam.kind == fm.POLYNOMIAL:
        terms += [math.gcd(*p) for p in fam.polys]
    for s_prev, vals in enumerate(schedule_values, start=1):
        sf = math.factorial(s_prev)
        terms += [2 * sf * sf * abs(v) for v in vals]
    return math.lcm(*(t for t in terms if t))


def build_schedule(
    fam: fm.SequenceFamily, depth: int, search_budget: int = DEFAULT_BUDGET
) -> Schedule:
    """Search a passing schedule of the requested depth.

    Requires an asymptotically linearly independent family.  Window and
    calibration hold by construction of the candidate alphas (see
    _pick_alpha); the off-diagonal and history bounds, and the
    calibration of the window-top fallback, are tested on integer residues.
    The result passes check_schedule: the tests check it, and sample_sigma
    enforces it before it draws.  Raises SearchExhausted when the
    budget runs out (shifted-constant families beyond depth 2 typically need
    a larger budget or do not admit the structured candidates at all).
    """
    if depth < 1 or depth > MAX_DEPTH:
        raise PreconditionError(f"depth must be between 1 and {MAX_DEPTH}")
    if not fm.is_asymptotically_independent(fam):
        raise PreconditionError(
            "schedule construction needs asymptotically linearly independent "
            "sequences (reduce the family first)"
        )
    size = fam.size
    spent = 0
    # Nonzero constant terms survive every divisibility cancellation, so the
    # alphas must already clear the deepest history bound against them.
    max_const = 0
    if fam.kind == fm.POLYNOMIAL:
        max_const = max(abs(p[0]) for p in fam.polys)
    alpha_cap = None
    if max_const and depth >= 2:
        alpha_cap = Fraction(
            1, 2 * max_const * depth * depth * math.factorial(depth)
        )

    def level_options(k: int, indices: tuple, alphas: tuple, values: tuple):
        """Viable (n_k, alphas, values) choices for level k, lazily.

        Two passes over the candidate indices: first only those where every
        coordinate admits an exact-calibration integer (clean denominators
        that later levels can cancel), then the rest with the window-top
        fallback allowed.
        """
        nonlocal spent
        kf = math.factorial(k)
        floor_index = indices[-1] if indices else 0  # strict monotonicity only
        phi_prev = indices[-1] if indices else 1  # n_0 = 1 enters the window cap
        top = _window_top(fam, k, phi_prev)
        if alpha_cap is not None and k < depth:
            top = min(top, alpha_cap)
        calib = _calibration(k)
        hist_bound = k * k * kf
        chain = _chain_modulus(fam, k, values, depth)

        def raw_indices(limit):
            n, seen = kf * (floor_index // kf + 1), 0
            while seen < min(_PLAIN_CANDIDATES, limit):
                yield n
                seen += 1
                n += kf
            n = chain * (floor_index // chain + 1)
            while seen < limit:
                yield n
                seen += 1
                n += chain

        per_level_limit = max(64, search_budget // (2 * depth))
        for exact_only in (True, False):
            for n_k in raw_indices(per_level_limit):
                spent += 1
                if spent > search_budget:
                    return
                vals = fm.evaluate(fam, n_k)
                if any(v == 0 for v in vals):
                    continue
                if not all(
                    _near_integer(v * a.numerator, a.denominator, hist_bound)
                    for row in alphas
                    for v in vals
                    for a in row
                ):
                    continue
                level_alphas = []
                for j in range(size):
                    a = _pick_alpha(vals[j], vals[:j] + vals[j + 1:], top, calib, exact_only)
                    if a is None:
                        break
                    level_alphas.append(a)
                else:
                    yield n_k, tuple(level_alphas), vals

    def descend(indices: tuple, alphas: tuple, values: tuple) -> Schedule | None:
        k = len(indices) + 1
        if k > depth:
            return Schedule(depth, indices, alphas)
        for n_k, level_alphas, vals in level_options(k, indices, alphas, values):
            found = descend(indices + (n_k,), alphas + (level_alphas,), values + (vals,))
            if found is not None:
                return found
        return None

    sched = descend((), (), ())
    if sched is None:
        raise SearchExhausted(
            f"no schedule of depth {depth} found within budget {search_budget}"
        )
    return sched
