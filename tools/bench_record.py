"""Record one point of the benchmark trajectory as BENCH_<short sha>.json.

    python3 tools/bench_record.py

Run from anywhere in a checkout; the benchmark is the checkout's own
perfbench/run.py.  Each workload of BENCHMARK.json runs RUNS times at SEED
with ``--seconds 0 --trace 0``, one pass per fresh process, the workloads
interleaved; then once with ``--trace 1`` for the per-layer metrics.  Both
are fixed so that every point of the trajectory is comparable.  The
file, written at the root of the checkout, holds run.py's environment block
and per workload the median, min and max of wall_s, setup_s and peak_rss_mb,
every run's correct and failed, and the traced metrics.  A tree with edits
to tracked files is named BENCH_<short sha>-dirty.json.  Exits 1 if any run
is not correct or has a failed operation.  Standard library only: it reads
run.py's output and imports neither rigidlab nor the benchmark.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
END_TO_END = ("wall_s", "setup_s", "peak_rss_mb")
RUNS = 5  # untraced runs per workload
SEED = 42


def run_once(workload: str, trace: int) -> tuple[dict, dict]:
    """(environment block, result line) of one run.py process; a run that
    dies, hangs or prints no result counts as not correct."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
            "--seconds", "0", "--trace", str(trace)]
    try:
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    except subprocess.TimeoutExpired:
        return {}, {"correct": False, "failed": None, "error": "timed out after 600 s"}
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-2])["env"], json.loads(lines[-1])
    except (IndexError, KeyError, ValueError):
        return {}, {"correct": False, "failed": None, "error": done.stderr.strip()[-500:]}


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def main() -> int:
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    name = git("rev-parse", "--short", "HEAD")
    if git("status", "--porcelain", "--untracked-files=no"):
        name += "-dirty"

    env, results = None, {w: [] for w in workloads}
    for _ in range(RUNS):
        for w in workloads:
            run_env, result = run_once(w, 0)
            env = env or run_env
            results[w].append(result)
    record = {"seed": SEED, "runs": RUNS, "env": env, "workloads": {}}
    ok = True
    for w in workloads:
        _, traced = run_once(w, 1)
        entry = {}
        for metric in END_TO_END:
            values = [r["metrics"][metric]["value"] for r in results[w] if "metrics" in r]
            entry[metric] = {"median": statistics.median(values), "min": min(values),
                             "max": max(values), "values": values} if values else None
        entry["runs"] = [{k: r[k] for k in ("correct", "failed", "error") if k in r}
                         for r in results[w]]
        entry["traced"] = {k: traced[k] for k in ("correct", "failed", "error") if k in traced}
        entry["traced"]["metrics"] = {k: v["value"] for k, v in traced.get("metrics", {}).items()}
        ok &= all(r["correct"] is True and r["failed"] == 0 for r in [*results[w], traced])
        record["workloads"][w] = entry
    out = ROOT / f"BENCH_{name}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"{out.name}: {'all runs correct' if ok else 'a run failed or was not correct'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
