"""Output checker: every checked output is compared with stored references.

A checked output is one scan verdict, one exact value or one output file.
Each output of a step is reduced to three groups of values:

* ``fixed``  - exact values that do not depend on the seed (ledger values,
  Behrend set, triple integrals, prime-ladder limits, schedules, groups);
  compared with the references on every seed;
* ``seeded`` - exact values that depend on the seed (verdicts, ``k0``,
  digests of sampled measures and of outputs computed from seeded inputs);
  compared with the references on the default seed only;
* ``floats`` - seeded floating-point columns; compared on the default seed
  within ``FLOAT_TOL``.

Rules that hold on every seed are checked as well: the ``k0`` rules of the
demos, ``check_schedule(...).all_pass()`` on every emitted schedule, and the
validity of every decider certificate, recomputed here in exact arithmetic.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path

# Absolute tolerance for seeded float columns: correlations, standard errors,
# Fourier moduli and Gaussian masses all lie in [0, 1], and a change of the
# summation order may move them in the last bits only.
FLOAT_TOL = 1e-9

SCAN_DEPTH = {"cor65": 11, "cor66": 7}
K0_MAX = {"cor65": 3, "cor66": 5, "cor67": 5}
BELOW = "BELOW"


class Checker:
    """Counts checked outputs and keeps a message per failed one."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def fail(self, what: str) -> None:
        self.expect(False, what)

    @property
    def failed(self) -> int:
        return len(self.failures)


def digest(value) -> str:
    text = value if isinstance(value, str) else json.dumps(value, sort_keys=True)
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()


# -- exact integer linear algebra for certificate checks ---------------------

def _eliminate(columns: list[list[Fraction]], n_vars: int):
    """Row-reduce ``columns`` (one row per equation, last entry the target)
    over Q; returns (pivot count, reduced rows)."""
    m = [row[:] for row in columns]
    rank = 0
    for col in range(n_vars):
        pivot = next((i for i in range(rank, len(m)) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        lead = m[rank][col]
        m[rank] = [x / lead for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank, m


def rank(rows: list[list[int]]) -> int:
    if not rows:
        return 0
    cols = [[Fraction(r[j]) for r in rows] for j in range(len(rows[0]))]
    return _eliminate(cols, len(rows))[0]


def in_lattice(basis: list[list[int]], v: list[int]) -> bool:
    """True when v is an integer combination of the (independent) basis rows."""
    if not basis:
        return not any(v)
    r = len(basis)
    system = [[Fraction(b[j]) for b in basis] + [Fraction(v[j])] for j in range(len(v))]
    got, m = _eliminate(system, r)
    if got != r or any(row[r] != 0 for row in m[r:]):
        return False
    return all(m[i][r].denominator == 1 for i in range(r))


def is_relation(v: list[int], polys: list[list[int]]) -> bool:
    width = max(len(p) for p in polys)
    return all(
        sum(c * (p[d] if d < len(p) else 0) for c, p in zip(v, polys)) == 0
        for d in range(width)
    )


def unit(size: int, j: int) -> list[int]:
    return [1 if i == j - 1 else 0 for i in range(size)]


# -- extraction per output kind ---------------------------------------------

def _csv(path: Path) -> list[dict]:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _scan_report(obj: dict, step: str, ck: Checker, ctx: dict) -> dict:
    scan = obj["scan"] or []
    k0, depth, threshold = obj["k0"], SCAN_DEPTH[step], Fraction(obj["threshold"])
    ck.expect(obj["passed"] is True, f"{step}: passed")
    ck.expect(isinstance(k0, int) and 0 <= k0 <= K0_MAX[step], f"{step}: k0 rule 0 <= k0 <= k0_max")
    ctx[step] = {"k0": k0}
    if isinstance(k0, int):
        alphas = {tuple(p["alpha"]) for p in scan}
        ck.expect(
            len(scan) == len(alphas) == 2 ** (depth - k0) - 1
            and all(set(a) <= set(range(k0 + 1, depth + 1)) for a in alphas),
            f"{step}: scan covers exactly the finite sums past k0",
        )
    for i, p in enumerate(scan):
        ck.expect(
            p["verdict"] == BELOW and p["correlation"] + 3 * p["stderr"] <= float(threshold),
            f"{step}: point {i} conclusively below the threshold",
        )
    fixed = {k: obj[k] for k in ("ell", "polys", "group", "padded_coordinates", "group_index",
                                 "limit", "nu_power", "gap", "epsilon", "exact_ledger_ok",
                                 "threshold", "passed")}
    return {
        "fixed": fixed,
        "seeded": {"k0": k0, "verdicts": [p["verdict"] for p in scan],
                   "alphas": [p["alpha"] for p in scan]},
        "floats": {"correlation": [p["correlation"] for p in scan],
                   "stderr": [p["stderr"] for p in scan]},
    }


def _scan_csv(path: Path, step: str, ck: Checker, ctx: dict) -> dict:
    rows = _csv(path)
    k0 = ctx.get(step, {}).get("k0")
    if isinstance(k0, int):
        ck.expect(len(rows) == 2 ** (SCAN_DEPTH[step] - k0) - 1, f"{step}: scan CSV row count")
    for i, r in enumerate(rows):
        ck.expect(r["verdict"] == BELOW, f"{step}: CSV point {i} below the threshold")
    return {
        "fixed": {"threshold": sorted({r["threshold"] for r in rows})},
        "seeded": {"verdict": [r["verdict"] for r in rows],
                   "alpha": [r["alpha"] for r in rows],
                   "n_alpha": digest([r["n_alpha"] for r in rows])},
        "floats": {"correlation": [float(r["correlation"]) for r in rows],
                   "stderr": [float(r["stderr"]) for r in rows]},
    }


def _cor66(obj: dict, ck: Checker, ctx: dict) -> dict:
    k0 = obj["k0"]
    ck.expect(obj["passed"] is True, "cor66: passed")
    ck.expect(isinstance(k0, int) and 0 <= k0 <= K0_MAX["cor66"], "cor66: k0 rule")
    ctx["cor66"] = {"k0": k0}
    return {"fixed": {k: v for k, v in obj.items() if k != "k0"},
            "seeded": {"k0": k0, "file": ctx["digest"]}, "floats": {}}


def _cor67(obj: dict, ck: Checker, ctx: dict) -> dict:
    rows = obj["rows"]
    ck.expect(obj["passed"] is True, "cor67: passed")
    ck.expect(
        any(r["k0"] is not None for r in rows)
        and all(r["k0"] is None or 0 <= r["k0"] <= K0_MAX["cor67"] for r in rows),
        "cor67: k0 rule (some prime passes, every k0 <= k0_max)",
    )
    fixed = {k: v for k, v in obj.items() if k != "rows"}
    fixed["rows"] = [{k: r[k] for k in ("prime", "limit", "distance_to_uniform")} for r in rows]
    seeded = {"k0": [r["k0"] for r in rows], "inconclusive": [r["inconclusive"] for r in rows],
              "file": ctx["digest"]}
    return {"fixed": fixed, "seeded": seeded, "floats": {}}


def _bundle(obj: dict, ck: Checker, ctx: dict) -> dict:
    from rigidlab import families as fm
    from rigidlab.schedule import Schedule, check_schedule

    atoms = [(Fraction(x), Fraction(w)) for x, w in obj["sigma"]["atoms"]]
    ck.expect(obj["seed"] == ctx["seed"], "bundle: seed recorded")
    ck.expect(sum(w for _, w in atoms) == 1, "bundle: sampled weights sum to one")
    ck.expect(all(0 <= x < 1 and w > 0 for x, w in atoms), "bundle: atoms in [0, 1) with positive weight")
    polys = obj["family"]["polys"]
    sub = fm.polynomial_family([polys[j - 1] for j in obj["subfamily_indices"]])
    sched = Schedule.from_json(obj["schedule"])
    ck.expect(check_schedule(sched, sub).all_pass(), "bundle: check_schedule(...).all_pass()")
    fixed = {k: obj[k] for k in ("family", "group", "image_group", "scale", "subfamily_indices", "samples")}
    fixed["schedule"] = digest(obj["schedule"])
    return {"fixed": fixed, "seeded": {"sigma": digest(obj["sigma"])}, "floats": {}}


def _dichotomy(path: Path, ck: Checker, ctx: dict) -> dict:
    rows = _csv(path)
    ck.expect(len(rows) == 6 * 25, "dichotomy: one row per level and vector")
    return {
        "fixed": {"k": [r["k"] for r in rows], "a": [r["a"] for r in rows],
                  "target": [r["target"] for r in rows]},
        "seeded": {},
        "floats": {"abs_coeff": [float(r["abs_coeff"]) for r in rows],
                   "deviation": [float(r["deviation"]) for r in rows]},
    }


def _gaussian(obj: dict, ck: Checker, ctx: dict) -> dict:
    rows = obj["rows"]
    ck.expect(all(r["deviation"] == abs(r["mass"] - r["target"]) for r in rows),
              "gaussian: deviation is |mass - target|")
    return {
        "fixed": {"passes": obj["passes"], "approx": obj["approx"],
                  "rows": [{k: r[k] for k in ("coordinate", "level", "rigid", "target")} for r in rows]},
        "seeded": {},
        "floats": {k: [r[k] for r in rows] for k in ("rho", "mass", "deviation")},
    }


def _analyze(obj: dict, ck: Checker, ctx: dict, name: str) -> dict:
    polys = ctx["family"]["polys"]
    basis = obj["relation_group"]["basis"]
    size = len(polys)
    width = max(len(p) for p in polys)
    matrix = [p + [0] * (width - len(p)) for p in polys]
    ck.expect(obj["size"] == size, f"{name}: size")
    ck.expect(all(is_relation(v, polys) for v in basis), f"{name}: relation basis vectors are relations")
    ck.expect(rank(basis) == len(basis) == size - rank(matrix), f"{name}: relation group rank")
    ck.expect(
        obj["coordinate_gcds"] == [math.gcd(*(v[j] for v in basis)) if basis else 0 for j in range(size)],
        f"{name}: coordinate gcds",
    )
    ctx["relations"] = basis
    ctx["interpolation"] = obj["interpolation"]
    return {"fixed": {}, "seeded": {"file": ctx["digest"]}, "floats": {}}


def _parse_vec(text: str) -> list[int]:
    return [int(x) for x in text.split()]


def _splits(path: Path, ck: Checker, ctx: dict, name: str) -> dict:
    polys = ctx["family"]["polys"]
    size = len(polys)
    relations = ctx.get("relations", [])
    rows = _csv(path)
    subsets = [frozenset(_parse_vec(r["F"].strip("{}"))) for r in rows]
    ck.expect(len(set(subsets)) == len(rows) == 2 ** size, f"{name}: one row per subset F")
    for F, r in zip(subsets, rows):
        where = f"{name}: F={sorted(F)}"
        if r["feasible"] == "true":
            H = [_parse_vec(g.strip("()")) for g in r["witness_group"].split(") (")]
            ck.expect(
                rank(H) == size
                and all(in_lattice(H, unit(size, i)) for i in F)
                and not any(in_lattice(H, unit(size, j)) for j in range(1, size + 1) if j not in F)
                and all(in_lattice(H, v) for v in relations),
                f"{where}: witness group has finite index, holds A(phi) and e_j exactly for j in F",
            )
        else:
            w, j = _parse_vec(r["witness_vector"]), int(r["witness_coordinate"])
            ck.expect(
                is_relation(w, polys) and j not in F and w[j - 1] == 1
                and all(c == 0 for i, c in enumerate(w, start=1) if i not in F and i != j),
                f"{where}: infeasibility witness is a relation escaping F only at j with a_j = 1",
            )
    return {"fixed": {}, "seeded": {"file": ctx["digest"]}, "floats": {}}


def _interp(obj: dict, ck: Checker, ctx: dict, name: str) -> dict:
    polys = ctx["family"]["polys"]
    ck.expect(obj["holds"] == ctx.get("interpolation"), f"{name}: agrees with analyze")
    if "witness_vector" in obj:
        w, j = obj["witness_vector"], obj["witness_coordinate"]
        ck.expect(not obj["holds"] and is_relation(w, polys) and abs(w[j - 1]) == 1,
                  f"{name}: witness is a relation with |a_j| = 1")
    return {"fixed": {}, "seeded": {"file": ctx["digest"]}, "floats": {}}


def extract(kind: str, step: str, path: Path, ck: Checker, ctx: dict) -> dict:
    data = path.read_bytes()
    ctx["digest"] = digest(data.decode())
    if kind == "scan_csv":
        return _scan_csv(path, step, ck, ctx)
    if kind == "dichotomy":
        return _dichotomy(path, ck, ctx)
    if kind == "splits":
        return _splits(path, ck, ctx, step)
    obj = json.loads(data)
    if kind == "cor65":
        return _scan_report(obj, "cor65", ck, ctx)
    if kind == "cor66":
        return _cor66(obj, ck, ctx)
    if kind == "cor67":
        return _cor67(obj, ck, ctx)
    if kind == "bundle":
        return _bundle(obj, ck, ctx)
    if kind == "gaussian":
        return _gaussian(obj, ck, ctx)
    if kind == "analyze":
        return _analyze(obj, ck, ctx, step)
    if kind == "interp":
        return _interp(obj, ck, ctx, step)
    if kind == "behrend":
        ck.expect(obj["passes"] is True, "behrend: passes")
        return {"fixed": dict(obj, file=ctx["digest"]), "seeded": {}, "floats": {}}
    raise ValueError(f"unknown output kind {kind!r}")


# -- comparison against the references ---------------------------------------

def _compare(got, want, where: str, ck: Checker, close: bool = False) -> None:
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            ck.fail(f"{where}: {len(got)} values, reference has {len(want)}")
            return
        for i, (g, w) in enumerate(zip(got, want)):
            _compare(g, w, f"{where}[{i}]", ck, close)
        return
    if close:
        ok = isinstance(got, (int, float)) and abs(got - want) <= FLOAT_TOL
    else:
        ok = got == want
    ck.expect(ok, f"{where}: got {str(got)[:80]!r}, reference {str(want)[:80]!r}")


def compare(extracted: dict, ref: dict, where: str, ck: Checker, default_seed: bool) -> None:
    for key, want in ref["fixed"].items():
        _compare(extracted["fixed"].get(key), want, f"{where}.{key}", ck)
    if not default_seed:
        return
    for key, want in ref["seeded"].items():
        _compare(extracted["seeded"].get(key), want, f"{where}.{key}", ck)
    for key, want in ref["floats"].items():
        _compare(extracted["floats"].get(key), want, f"{where}.{key}", ck, close=True)


def check_pass(steps, results, refs: dict | None, ck: Checker, seed: int,
               default_seed: bool) -> dict:
    """Check one pass; returns the extracted values (the reference format)."""
    collected: dict = {}
    ctx: dict = {"seed": seed}
    for step, rc in zip(steps, results):
        ck.expect(rc == 0, f"{step.name}: exit code {rc!r}, expected 0")
        if step.argv[0] in ("analyze", "splits", "interp"):
            ctx["family"] = json.loads(Path(step.argv[1]).read_text())
        for kind, path in step.outputs.items():
            where = f"{step.name}/{kind}"
            try:
                got = extract(kind, step.name, path, ck, ctx)
            except Exception as exc:  # a missing or malformed output is one failed output
                ck.fail(f"{where}: unreadable output ({type(exc).__name__}: {exc})")
                continue
            collected.setdefault(step.name, {})[kind] = got
            if refs is None:
                continue
            want = refs.get(step.name, {}).get(kind)
            if want is None:
                ck.fail(f"{where}: no reference stored")
                continue
            compare(got, want, where, ck, default_seed)
    return collected
