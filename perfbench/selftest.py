"""Self-test of the output checker: a single flipped verdict or a single
changed rational must be caught.

    python3 perfbench/selftest.py

Runs the ``cor66`` step of ``behrend_scan`` at the default seed (a few
seconds), checks that its real outputs pass, then corrupts one value at a
time and checks that each corruption is reported as a failure.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
from workloads import DEFAULT_SEED, steps  # noqa: E402


def failures_after(step, refs, mutate=None) -> list[str]:
    originals = {kind: path.read_bytes() for kind, path in step.outputs.items()}
    try:
        if mutate:
            mutate(step.outputs)
        ck = checks.Checker()
        checks.check_pass([step], [0], refs, ck, DEFAULT_SEED, True)
        return ck.failures
    finally:
        for kind, data in originals.items():
            step.outputs[kind].write_bytes(data)


def flip_verdict(outputs) -> None:
    path = outputs["scan_csv"]
    lines = path.read_text().splitlines()
    lines[1] = lines[1].rsplit(",", 1)[0] + ",ABOVE"
    path.write_text("\n".join(lines) + "\n")


def change_rational(outputs) -> None:
    path = outputs["cor66"]
    obj = json.loads(path.read_text())
    num, den = obj["triple_integral"].split("/")
    obj["triple_integral"] = f"{int(num) + 1}/{den}"
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import rigidlab.cli as cli

    refs = json.loads((run.REFS / "behrend_scan.json").read_text())
    run.OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.OUT))
    try:
        step = steps("behrend_scan", DEFAULT_SEED, work, work)[0]
        _, codes, _ = run.run_pass(cli, [step])
        if codes != [0]:
            print(f"FAIL: cor66 step returned {codes}")
            return 1
        cases = {
            "unchanged outputs": None,
            "one flipped verdict": flip_verdict,
            "one changed rational": change_rational,
        }
        ok = True
        for label, mutate in cases.items():
            found = failures_after(step, refs, mutate)
            good = bool(found) == (mutate is not None)
            ok &= good
            print(f"{'ok  ' if good else 'FAIL'} {label}: {len(found)} failure(s) {found}")
        return 0 if ok else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
