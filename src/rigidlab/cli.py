"""Command-line surface: analyze / splits / interp / witness / measure /
verify-dichotomy / gaussian / demo / behrend.

Exit codes: 0 success, 1 I/O or parse failure, 2 precondition violation,
3 cap exceeded or search exhausted.  Errors go to stderr as one JSON object.
Exact rationals serialize as "p/q" strings; floating-point outputs carry an
"approx" marker.  Identical configurations produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import re
import sys
from contextlib import contextmanager

from . import behrend as bh
from . import deciders as dec
from . import demos
from . import families as fm
from . import gaussians as ga
from . import lattice as lat
from . import measure as ms
from .errors import (
    CapExceeded,
    ParseError,
    PreconditionError,
    RigidlabError,
    SearchExhausted,
)
from .schedule import Schedule



_FAMILY_KEYS = {
    "polynomial": {"kind", "polys"},
    "beatty": {"kind", "alphas", "independent"},
    "explicit": {"kind", "values", "relations"},
}
_OPTIONAL_FAMILY_KEYS = {"relations"}
MEASURE_DEPTH_CAP = 6  # the measure bundle stores every atom exactly

# first matching class wins: the budget and parse errors are RigidlabErrors too
_EXIT_CODES = {
    CapExceeded: 3,
    SearchExhausted: 3,
    ParseError: 1,
    RigidlabError: 2,
    OSError: 1,
    json.JSONDecodeError: 1,
}


_TERM_RE = re.compile(r"\s*([+-]?)\s*(\d+)?\s*\*?\s*(n)?\s*(?:\^\s*(\d+))?\s*")


def parse_poly_expr(text: str) -> list[int]:
    """Ascending integer coefficient vector of terms like '2n^3-n+5'."""
    coeffs: dict[int, int] = {}
    pos = 0
    first = True
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        if not m or m.end() == pos:
            raise ParseError("expected a term", pos)
        sign_s, coeff_s, var, exp_s = m.groups()
        if coeff_s is None and var is None:
            raise ParseError("expected a coefficient or 'n'", pos)
        if not first and not sign_s:
            raise ParseError("terms must be joined by '+' or '-'", pos)
        if exp_s is not None and var is None:
            raise ParseError("exponent without 'n'", pos)
        sign = -1 if sign_s == "-" else 1
        coeff = int(coeff_s) if coeff_s is not None else 1
        degree = 0
        if var:
            degree = int(exp_s) if exp_s is not None else 1
        coeffs[degree] = coeffs.get(degree, 0) + sign * coeff
        pos = m.end()
        first = False
    if first:
        raise ParseError("empty polynomial", 0)
    top = max(coeffs)
    return [coeffs.get(d, 0) for d in range(top + 1)]


def _load_json(path: str):
    with open(path) as fh:
        return json.load(fh)


@contextmanager
def _malformed(what: str):
    """Report a missing key, a wrongly typed value or a zero denominator in
    decoded JSON as a precondition violation instead of a traceback."""
    try:
        yield
    except (AttributeError, KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise PreconditionError(f"malformed {what}: {type(exc).__name__}: {exc}") from exc


def parse_family(obj) -> fm.SequenceFamily:
    """Family from a decoded JSON spec, rejecting unknown kinds and keys."""
    if not isinstance(obj, dict):
        raise PreconditionError("family spec must be a JSON object")
    kind = obj.get("kind")
    if not isinstance(kind, str) or kind not in _FAMILY_KEYS:
        raise PreconditionError(f"unknown family kind {kind!r}")
    missing = _FAMILY_KEYS[kind] - _OPTIONAL_FAMILY_KEYS - set(obj)
    if missing:
        raise PreconditionError(f"missing keys in family spec: {sorted(missing)}")
    extra = set(obj) - _FAMILY_KEYS[kind]
    if extra:
        raise PreconditionError(f"unknown keys in family spec: {sorted(extra)}")
    with _malformed(f"{kind} family"):
        if kind == "polynomial":
            return fm.polynomial_family(obj["polys"])
        if kind == "beatty":
            if not isinstance(obj["independent"], bool):
                raise PreconditionError("beatty 'independent' must be true or false")
            return fm.beatty_family(obj["alphas"], obj["independent"])
        relations = obj.get("relations")
        return fm.explicit_family(
            obj["values"],
            None if relations is None else lat.Lattice.from_json(relations),
        )


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _write(text: str, path: str | None):
    if path:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _int_list(text: str, option: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise PreconditionError(
            f"{option} takes comma-separated integers, got {text!r}"
        ) from None


def _parse_subset(text: str | None) -> set[int] | None:
    if text is None:
        return None
    text = text.strip()
    if not text:
        return set()
    return set(_int_list(text, "--F"))


def _fmt_subset(F) -> str:
    return "{" + " ".join(str(j) for j in sorted(F)) + "}"


def cmd_analyze(args) -> int:
    fam = parse_family(_load_json(args.family))
    out = {"size": fam.size, "kind": fam.kind}
    A = fm.relation_group(fam)
    out["relation_group"] = A.to_json()
    if fam.kind == fm.EXPLICIT:
        out["provenance"] = "user-asserted"
    else:
        verdict = fm.is_adequate(fam)
        out["adequate"] = bool(verdict)
        if verdict.certificate:
            out["adequacy_certificate"] = list(verdict.certificate)
    out["coordinate_gcds"] = [
        lat.coordinate_image_gcd(A, j) for j in range(1, fam.size + 1)
    ]
    out["interpolation"] = bool(dec._interpolation(fam, A))
    _write(_json_text(out), args.out)
    return 0


def cmd_splits(args) -> int:
    fam = parse_family(_load_json(args.family))
    F = _parse_subset(args.F)
    if F is not None:
        table = {frozenset(F): dec.split_feasible(fam, F)}
    else:
        table = dec.all_splits(fam)
    header = "F,feasible,witness_vector,witness_coordinate"
    if args.witness:
        header += ",witness_group"
        A = fm.relation_group(fam)
    lines = [header]
    for key in sorted(table, key=lambda s: (len(s), sorted(s))):
        v = table[key]
        wv = "" if v.witness_vector is None else " ".join(map(str, v.witness_vector))
        wc = "" if v.witness_coordinate is None else str(v.witness_coordinate)
        row = f"{_fmt_subset(key)},{str(v.feasible).lower()},{wv},{wc}"
        if args.witness:
            group = ""
            if v.feasible:
                H = dec._split_witness_group(A, key)
                group = " ".join(
                    "(" + " ".join(map(str, r)) + ")" for r in H.basis
                )
            row += f",{group}"
        lines.append(row)
    _write("\n".join(lines) + "\n", args.out)
    return 0


def cmd_interp(args) -> int:
    fam = parse_family(_load_json(args.family))
    verdict = dec.interpolation_condition(fam)
    out = {"holds": bool(verdict)}
    if verdict.witness_vector is not None:
        out["witness_vector"] = list(verdict.witness_vector)
        out["witness_coordinate"] = verdict.witness_coordinate
    _write(_json_text(out), args.out)
    return 0


def cmd_witness(args) -> int:
    fam = parse_family(_load_json(args.family))
    F = _parse_subset(args.F) or set()
    H = dec.split_witness_group(fam, F)
    _write(
        _json_text({"F": sorted(F), "H": H.to_json(), "index": lat.index_in_ambient(H)}),
        args.out,
    )
    return 0


def cmd_measure(args) -> int:
    spec = _load_json(args.family)
    fam = parse_family(spec)
    group = _load_json(args.group)
    with _malformed("group"):
        G = lat.Lattice.from_json(group)
    if args.depth > MEASURE_DEPTH_CAP:
        raise CapExceeded(f"depth {args.depth} exceeds the cap {MEASURE_DEPTH_CAP}")
    sigma, sched, red, g_tilde = ms.build_measure_for_group(
        fam, G, args.depth, args.samples, args.seed
    )
    bundle = {
        "family": spec,
        "group": G.to_json(),
        "schedule": sched.to_json(),
        "image_group": g_tilde.to_json(),
        "scale": red.scale,
        "subfamily_indices": list(red.indices),
        "sigma": sigma.to_json(),
        "samples": args.samples,
        "seed": args.seed,
    }
    _write(_json_text(bundle), args.out)
    return 0


def _load_bundle(path: str):
    bundle = _load_json(path)
    with _malformed("sigma bundle"):
        fam = parse_family(bundle["family"])
        G = lat.Lattice.from_json(bundle["group"])
        sched = Schedule.from_json(bundle["schedule"])
        sigma = ms.AtomicMeasure.from_json(bundle["sigma"])
    if sum(sigma.counts) != sigma.denominator:
        raise PreconditionError("sigma bundle weights must sum to 1")
    return fam, G, sched, sigma


def cmd_verify_dichotomy(args) -> int:
    fam, G, sched, sigma = _load_bundle(args.sigma)
    report = ms.verify_dichotomy(sigma, sched, fam, G, args.bound, args.tol)
    _write(report.to_csv(), args.out)
    return 0 if report.passed else 2


def cmd_gaussian(args) -> int:
    interval = (float(args.lo), float(args.hi))
    if args.rho is not None:
        mass = ga.gaussian_pair_mass(args.rho, interval, interval)
        _write(_json_text({"rho": args.rho, "mass": mass, "approx": True}), args.out)
        return 0
    if args.sigma is None:
        raise PreconditionError("gaussian needs --sigma or --rho")
    fam, G, sched, sigma = _load_bundle(args.sigma)
    report = ga.verify_gaussian_transfer(sigma, sched, fam, G, interval, args.tol)
    rows = [dataclasses.asdict(r) for r in report.rows]
    out = {"rows": rows, "approx": True, "passes": report.passed}
    _write(_json_text(out), args.out)
    return 0 if report.passed else 2


def cmd_behrend(args) -> int:
    B, value, bound = bh.behrend_certificate(args.ell)
    out = {
        "ell": args.ell,
        "set": B.to_json(),
        "measure": str(B.measure()),
        "triple_integral": str(value),
        "bound": str(bound),
        "passes": value <= bound,
    }
    _write(_json_text(out), args.out)
    return 0


def _scan_csv(scan) -> str:
    lines = ["alpha,n_alpha,correlation,threshold,stderr,verdict"]
    for p in scan.points:
        alpha = " ".join(str(i) for i in p.alpha)
        lines.append(
            f"{alpha},{p.value},{p.correlation:.12g},{scan.threshold:.12g},"
            f"{p.stderr:.12g},{p.verdict}"
        )
    return "\n".join(lines) + "\n"


def cmd_demo(args) -> int:
    polys = [parse_poly_expr(p) for p in args.polys.split(",")] if args.polys else None
    # the Behrend-target demos need deeper tails before the free-coordinate
    # discretization spike mu(B)/k! clears their small thresholds
    depth = args.depth if args.depth is not None else (6 if args.which == "cor65" else 7)
    options = {} if args.k0_max is None else {"k0_max": args.k0_max}
    # without --ell, cor65 takes one sequence per polynomial
    ell = args.ell if args.ell is not None else (len(polys or ()) if args.which == "cor65" else 2)
    if args.scan_csv and args.which == "cor67":
        raise PreconditionError("--scan-csv applies to cor65 and cor66 only")
    if args.which == "cor65":
        if polys is None:
            raise PreconditionError("--polys is required for cor65")
        report = demos.cor65_demo(ell, polys, depth, args.samples, args.seed, **options)
    elif args.which == "cor66":
        if args.p is None or args.q is None:
            raise PreconditionError("--p and --q are required for cor66")
        p = parse_poly_expr(args.p)
        q = parse_poly_expr(args.q)
        report = demos.cor66_demo(
            p, q, ell, depth, args.samples, args.seed, **options
        )
    else:
        primes = _int_list(args.primes, "--primes")
        report = demos.cor67_demo(
            ell, primes, depth, args.samples, args.seed, **options
        )
    _write(_json_text(report.to_json()), args.out)
    if args.scan_csv and report.scan is not None:
        _write(_scan_csv(report.scan), args.scan_csv)
    return 0 if report.passed else 2


@functools.cache  # parse_args fills a new namespace per call: nothing leaks
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rigidlab",
        description="exact mixing/rigidity deciders and torus measure simulations",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("analyze", help="relation group, adequacy, gcd summary")
    p.add_argument("family")
    p.add_argument("--out")
    p.set_defaults(func=cmd_analyze)
    p = sub.add_parser("splits", help="feasibility of rigidity subsets F")
    p.add_argument("family")
    p.add_argument("--F", help="comma-separated indices; omit for the full table")
    p.add_argument("--witness", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_splits)
    p = sub.add_parser("interp", help="interpolation condition")
    p.add_argument("family")
    p.add_argument("--out")
    p.set_defaults(func=cmd_interp)
    p = sub.add_parser("witness", help="finite-index witness group for F")
    p.add_argument("family")
    p.add_argument("--F", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_witness)
    p = sub.add_parser("measure", help="build the sampled torus measure")
    p.add_argument("family")
    p.add_argument("--group", required=True)
    p.add_argument("--depth", type=int, default=5)
    p.add_argument("--samples", type=int, default=10**5)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_measure)
    p = sub.add_parser("verify-dichotomy", help="Fourier dichotomy report")
    p.add_argument("sigma")
    p.add_argument("--bound", type=int, default=2)
    p.add_argument("--tol", type=float, default=0.15)
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify_dichotomy)
    p = sub.add_parser("gaussian", help="pair masses / Gaussian transfer")
    p.add_argument("--sigma")
    p.add_argument("--rho", type=float)
    p.add_argument("--lo", type=float, default=-1.0)
    p.add_argument("--hi", type=float, default=0.0)
    p.add_argument("--tol", type=float, default=0.05)
    p.add_argument("--out")
    p.set_defaults(func=cmd_gaussian)
    p = sub.add_parser("behrend", help="progression-poor interval set")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_behrend)
    p = sub.add_parser("demo", help="counterexample demos")
    p.add_argument("which", choices=("cor65", "cor66", "cor67"))
    p.add_argument("--ell", type=int, default=None)
    p.add_argument("--polys", help="comma-separated polynomials, e.g. 'n,n^2'")
    p.add_argument("--p")
    p.add_argument("--q")
    p.add_argument("--primes", default="2,3,5,7,11,13")
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--samples", type=int, default=10**4)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--k0-max", type=int, default=None, dest="k0_max")
    p.add_argument("--out")
    p.add_argument("--scan-csv", dest="scan_csv")
    p.set_defaults(func=cmd_demo)
    return parser


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(_EXIT_CODES) as exc:
        sys.stderr.write(
            json.dumps({"error": type(exc).__name__, "detail": str(exc)}) + "\n"
        )
        return next(code for cls, code in _EXIT_CODES.items() if isinstance(exc, cls))


def main() -> None:
    sys.exit(run())
if __name__ == "__main__":
    main()
