"""rigidlab benchmark: one workload per run, in-process, through rigidlab.cli.run.

    python3 perfbench/run.py --workload cor65_scan --seed 42 --seconds 10 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
carries the environment block, ``error_rate`` with its base, and the first
failure messages.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import checks
import spans
from workloads import DEFAULT_SEED, WORKLOADS, steps as make_steps, write_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFS = HERE / "refs"
OUT = HERE / "out"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# Each set-up repeat imports rigidlab in a fresh interpreter; a single import
# spreads by a third on a shared machine, the median of nine far less.
SETUP_REPEATS = 9
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import rigidlab, rigidlab.cli; "
    "print(repr(time.perf_counter() - t))"
)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0,
                   help="measure whole passes until their CLI time reaches this")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-refs", action="store_true",
                   help="store the references from one pass at the default seed")
    return p.parse_args(argv)


def _git(*args) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(seed: int, traced: bool) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or None
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    commit = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain") if commit else None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": commit,
        "git_dirty": None if status is None else bool(status),
        "seed": seed,
        "traced": traced,
    }


def measure_setup(workload: str, seed: int, work: Path):
    """Median import time of rigidlab in fresh interpreters plus median input
    generation time; returns (setup seconds, input directory, reproducible)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    imports = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"importing rigidlab failed:\n{done.stderr}")
        imports.append(float(done.stdout.strip().splitlines()[-1]))
    gens, first, reproducible = [], None, True
    for i in range(SETUP_REPEATS):
        directory = work / f"inputs{i}"
        directory.mkdir()
        t0 = perf_counter()
        files = write_inputs(workload, seed, directory)
        gens.append(perf_counter() - t0)
        if first is None:
            first = directory
            reference = files
        else:
            reproducible &= all((first / n).read_bytes() == (directory / n).read_bytes() for n in reference)
            shutil.rmtree(directory)
    return statistics.median(imports) + statistics.median(gens), first, reproducible


def run_pass(cli, steps) -> tuple[float, list, dict]:
    """Run the steps once; returns (CLI seconds, exit code or error per step,
    seconds per CLI subcommand)."""
    wall, codes, by_command = 0.0, [], {}
    for step in steps:
        sink = io.StringIO()
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                rc = cli.run(step.argv)
        except (Exception, SystemExit) as exc:  # one failed step must not end the run
            rc = f"{type(exc).__name__}: {exc}"
        took = perf_counter() - t0
        wall += took
        by_command[step.argv[0]] = by_command.get(step.argv[0], 0.0) + took
        codes.append(rc if rc == 0 else f"{rc} ({sink.getvalue().strip()[:200]})")
    return wall, codes, by_command


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "rigidlab" / "__init__.py").is_file():
        print(f"error: no rigidlab package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {WORKLOADS}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:  # numpy's pools stay at one thread, below nproc
        os.environ.setdefault(var, "1")
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        return _run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, work: Path) -> int:
    setup_s, inputs, reproducible = measure_setup(args.workload, args.seed, work)
    sys.path.insert(0, str(SRC))
    import rigidlab.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: rigidlab imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    ref_path = REFS / f"{args.workload}.json"
    if args.write_refs:
        if args.seed != DEFAULT_SEED:
            print(f"error: references are stored for seed {DEFAULT_SEED} only", file=sys.stderr)
            return 2
        refs = None
    elif ref_path.is_file():
        refs = json.loads(ref_path.read_text())
    else:
        print(f"error: no references at {ref_path}", file=sys.stderr)
        return 2

    ck = checks.Checker()
    ck.expect(reproducible, "inputs: regenerated byte for byte from the seed")

    def one_pass(tag: str, rec: spans.Recorder | None = None):
        """Run the steps once, under ``rec`` if given, then check the
        outputs with the recorder removed, so only the program is traced."""
        out = work / tag
        out.mkdir()
        steps = make_steps(args.workload, args.seed, inputs, out)
        if rec is not None:
            spans.install(rec)
        try:
            wall, codes, by_command = run_pass(cli, steps)
        finally:
            if rec is not None:
                rec.uninstall()
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        written = sum(p.stat().st_size for s in steps for p in s.outputs.values() if p.exists())
        got = checks.check_pass(steps, codes, refs, ck, args.seed, args.seed == DEFAULT_SEED)
        shutil.rmtree(out)
        return wall, by_command, rss, written, got

    walls, command_s = [], []
    while True:
        wall, by_command, rss, _, got = one_pass(f"pass{len(walls)}")
        walls.append(wall)
        command_s.append(by_command)
        if sum(walls) >= args.seconds or args.write_refs:
            break
    wall_s = statistics.median(walls)

    if args.write_refs:
        ref_path.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")

    if args.trace:
        rec = spans.Recorder()
        traced_wall, _, _, written, _ = one_pass("traced", rec)
        metrics, notes = spans.layer_metrics(rec, {
            "cli.bytes_written": written,
            "trace.wall_s": traced_wall,
            "trace.overhead_s": traced_wall - wall_s,
        })
    else:
        metrics = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        }

    info = {
        "workload": args.workload,
        "env": environment(args.seed, bool(args.trace)),
        "passes": len(walls),
        "pass_wall_s": walls,
        "pass_command_s": command_s,
        "error_rate": {"value": ck.failed / ck.attempted, "failed": ck.failed,
                       "attempted": ck.attempted, "unit": "ratio"},
        "not_applicable": spans.NOT_APPLICABLE,
        "failures": ck.failures[:20],
    }
    if args.trace:
        info["metric_notes"] = notes
        info["top_self_s"] = spans.top_self_times(rec)
        record = dict(info, metrics=metrics, spans=rec.spans)
        name = f"spans-{args.workload}-seed{args.seed}.json"
        (OUT / name).write_text(json.dumps(record) + "\n")
        info["spans_file"] = str((OUT / name).relative_to(ROOT))
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": ck.failed == 0, "attempted": ck.attempted,
                      "failed": ck.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
