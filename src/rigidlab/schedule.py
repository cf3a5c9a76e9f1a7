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
cancels every history phase exactly.  Remaining residuals are always checked
exactly, and the search reports the best failing residuals when the budget
runs out.
"""

from __future__ import annotations

import math
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
        return Schedule(
            obj["depth"],
            tuple(int(n) for n in obj["indices"]),
            tuple(tuple(Fraction(a) for a in row) for row in obj["alphas"]),
        )


@dataclass
class ResidualReport:
    """Exact pass/fail per property with the worst margin (bound - value)."""

    passed: dict = field(default_factory=dict)
    worst_margin: dict = field(default_factory=dict)
    violations: dict = field(default_factory=dict)

    PROPERTIES = ("window", "calibration", "offdiagonal", "history")

    def all_pass(self) -> bool:
        return all(self.passed.get(p, True) for p in self.PROPERTIES)

    def record(self, prop: str, location, value: Fraction, bound: Fraction, strict: bool):
        ok = value < bound if strict else value <= bound
        margin = bound - value
        self.passed[prop] = self.passed.get(prop, True) and ok
        if prop not in self.worst_margin or margin < self.worst_margin[prop]:
            self.worst_margin[prop] = margin
        if not ok:
            self.violations.setdefault(prop, []).append((location, value, bound))

    def to_json(self) -> dict:
        return {
            prop: {
                "passed": self.passed.get(prop, True),
                "worst_margin": str(self.worst_margin[prop])
                if prop in self.worst_margin
                else None,
                "violations": [
                    {"at": list(loc), "value": str(v), "bound": str(b)}
                    for loc, v, b in self.violations.get(prop, [])
                ],
            }
            for prop in self.PROPERTIES
        }


def check_schedule(s: Schedule, fam: fm.SequenceFamily) -> ResidualReport:
    """Exact rational evaluation of all four inequality families."""
    report = ResidualReport()
    size = fam.size
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
                report.passed["window"] = False
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


def _alpha_candidates(phi_j: int, others: list[int], window_top: Fraction, calib: Fraction):
    """Candidate alphas (c + m)/phi within the window, best-structured first.

    Integer m makes the calibration residual exactly zero; multiples of
    phi_j / gcd(phi_j, gcd(others)) additionally make the off-diagonal phase
    an exact integer plus a term the index divisibility cancels.  Three
    streams of m follow one another (targeted, structured multiples, plain
    m upward from the low end), then the window top as the last resort.
    """
    if phi_j == 0:
        return
    if phi_j > 0:
        lo_m = -calib  # exclusive
        hi_m = window_top * phi_j - calib  # inclusive
        lo_int = math.floor(lo_m) + 1
        hi_int = math.floor(hi_m)
    else:
        # alpha > 0 needs c + m < 0: m in [window_top*phi - c, -c)
        lo_int = math.ceil(window_top * phi_j - calib)
        hi_int = math.ceil(-calib) - 1
    if hi_int < lo_int:
        # No exact-calibration candidate; fall back to the window top.
        yield window_top
        return
    g = 0
    for o in others:
        g = math.gcd(g, abs(o))
    unit = abs(phi_j) // math.gcd(abs(phi_j), g) if g else 1
    seen = set()
    # Targeted candidates: land phi_i (c + m) / phi_j on an integer for each
    # other coordinate i, which pins the fastest-moving off-diagonal phase.
    for o in others:
        if o == 0:
            continue
        v_lo = Fraction(o) * (calib + lo_int) / phi_j
        v_hi = Fraction(o) * (calib + hi_int) / phi_j
        if v_lo > v_hi:
            v_lo, v_hi = v_hi, v_lo
        s_lo, s_hi = math.ceil(v_lo), math.floor(v_hi)
        if s_hi < s_lo:
            continue
        count = s_hi - s_lo + 1
        stride = max(1, count // 24)
        s = s_lo
        emitted = 0
        while s <= s_hi and emitted < 25:
            m_exact = Fraction(s) * phi_j / o - calib
            m = round(m_exact)
            if lo_int <= m <= hi_int and m not in seen:
                seen.add(m)
                yield (calib + m) / phi_j
            s += stride
            emitted += 1
    # Structured multiples make the off-diagonal phase integral up to the
    # cancelled part; small |m| keeps the generic phases small, so both scans
    # count up from the low end of the window.
    if unit > 1:
        m = (lo_int // unit) * unit
        if m < lo_int:
            m += unit
        count = 0
        while m <= hi_int and count < _M_CANDIDATES:
            if m not in seen:
                seen.add(m)
                yield (calib + m) / phi_j
            m += unit
            count += 1
    m, count = lo_int, 0
    while m <= hi_int and count < _M_CANDIDATES:
        if m not in seen:
            seen.add(m)
            yield (calib + m) / phi_j
        m += 1
        count += 1
    yield window_top


def _chain_modulus(
    fam: fm.SequenceFamily,
    k: int,
    schedule_values: list[tuple[int, ...]],
    depth: int,
) -> int:
    """Index modulus cancelling the history phases of zero-constant families.

    Each combined term 2 (s!)^2 |phi_j(n_s)| must divide the modulus as a
    whole (not merely up to lcm overlap), so phi of any multiple keeps the
    full factor and the c_s part of every earlier alpha lands in Z.  The
    2 (depth!)^2 factor additionally clears the cross terms that finite sums
    of indices produce against deeper levels' calibration offsets.
    """
    kf = math.factorial(k)
    df = math.factorial(depth) if depth else 1
    m = kf * 2 * kf * kf
    cross = 2 * df * df
    m = m * cross // math.gcd(m, cross)
    if fam.kind == fm.POLYNOMIAL:
        for p in fam.polys:
            content = 0
            for c in p:
                content = math.gcd(content, c)
            if content:
                m = m * content // math.gcd(m, content)
    for s_prev, vals in enumerate(schedule_values, start=1):
        sf = math.factorial(s_prev)
        for v in vals:
            if v:
                term = 2 * sf * sf * abs(v)
                m = m * term // math.gcd(m, term)
    return m


def build_schedule(
    fam: fm.SequenceFamily, depth: int, search_budget: int = DEFAULT_BUDGET
) -> Schedule:
    """Search a passing schedule of the requested depth.

    Requires an asymptotically linearly independent family.  Raises
    SearchExhausted with the best residual report when the budget runs out
    (shifted-constant families beyond depth 2 typically need a larger budget
    or do not admit the structured candidates at all).
    """
    if depth < 0 or depth > MAX_DEPTH:
        raise PreconditionError(f"depth must be between 0 and {MAX_DEPTH}")
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

    def level_options(k: int, indices: list[int], alphas: list, values: list):
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
        tight = Fraction(1, 2 * kf * kf)
        hist_bound = Fraction(1, k * k * kf)
        chain = _chain_modulus(fam, k, values, depth)
        chain = chain * kf // math.gcd(chain, kf)

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

        per_level_limit = max(64, search_budget // max(1, 2 * depth))
        for exact_only in (True, False):
            for n_k in raw_indices(per_level_limit):
                spent += 1
                if spent > search_budget:
                    return
                vals = fm.evaluate(fam, n_k)
                if any(v == 0 for v in vals):
                    continue
                if not all(
                    circle_norm(vals[j] * alphas[s_prev][j2]) < hist_bound
                    for s_prev in range(k - 1)
                    for j in range(size)
                    for j2 in range(size)
                ):
                    continue
                level_alphas: list[Fraction | None] = [None] * size
                ok = True
                for j in range(size):
                    chosen = None
                    for a in _alpha_candidates(vals[j], [vals[i] for i in range(size) if i != j], top, calib):
                        if exact_only and (vals[j] * a - calib).denominator != 1:
                            break  # window-top fallback reached; defer
                        if not 0 < a <= top:
                            continue
                        if circle_norm(vals[j] * a - calib) >= tight:
                            continue
                        if any(
                            circle_norm(vals[i] * a) >= tight
                            for i in range(size)
                            if i != j
                        ):
                            continue
                        chosen = a
                        break
                    if chosen is None:
                        ok = False
                        break
                    level_alphas[j] = chosen
                if ok:
                    yield n_k, tuple(level_alphas), vals

    def descend(k: int, indices: list[int], alphas: list, values: list) -> bool:
        if k > depth:
            return True
        for n_k, level_alphas, vals in level_options(k, indices, alphas, values):
            indices.append(n_k)
            alphas.append(level_alphas)
            values.append(vals)
            if descend(k + 1, indices, alphas, values):
                return True
            indices.pop()
            alphas.pop()
            values.pop()
        return False

    indices: list[int] = []
    alphas: list[tuple[Fraction, ...]] = []
    values: list[tuple[int, ...]] = []
    if not descend(1, indices, alphas, values):
        partial = Schedule(len(indices), tuple(indices), tuple(alphas))
        raise SearchExhausted(
            f"no schedule of depth {depth} found within budget {search_budget}",
            best=check_schedule(partial, fam).to_json() if indices else None,
        )
    sched = Schedule(depth, tuple(indices), tuple(alphas))
    report = check_schedule(sched, fam)
    assert report.all_pass(), "construction postcondition: exact replay must pass"
    return sched
