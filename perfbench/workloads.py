"""Workload definitions and the seeded input generator.

Every workload is a closed loop with one client: the CLI steps run one after
another, in-process, through ``rigidlab.cli.run``.  The seed is the only
source of variation; it reaches the program as ``--seed`` and as the content
of the generated input files, never as anything else.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

DEFAULT_SEED = 42

# cli_pipeline inputs: random families of 4-7 sequences of degree 2-4.  The
# sizes cycle instead of being drawn, so every seed enumerates the same
# number of subsets in `splits` and only the coefficients vary.
N_FAMILIES = 30
FAMILY_SIZES = (4, 5, 6, 7)
FAMILY_DEGREES = (2, 4)
FAMILY_COEFF = 3

GROUP_23 = {"ambient_dim": 2, "basis": [[2, 0], [0, 3]]}
FAMILY_N_NSQ = {"kind": "polynomial", "polys": [[0, 1], [0, 0, 1]]}
# nonzero constant terms: the schedule search cannot cancel them by index
# divisibility, so this is the slow shifted-constant path of build_schedule
FAMILY_SHIFTED = {"kind": "polynomial", "polys": [[1, 1], [2, 0, 1]]}


@dataclass
class Step:
    """One CLI call: its argv and its outputs; every call must return 0."""

    name: str
    argv: list[str]
    outputs: dict = field(default_factory=dict)  # output kind -> path


def _dump(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n").encode()


def random_families(seed: int) -> list[dict]:
    rng = random.Random(seed)
    families = []
    for i in range(N_FAMILIES):
        polys = []
        for _ in range(FAMILY_SIZES[i % len(FAMILY_SIZES)]):
            degree = rng.randint(*FAMILY_DEGREES)
            coeffs = [rng.randint(-FAMILY_COEFF, FAMILY_COEFF) for _ in range(degree)]
            if coeffs[-1] == 0:
                coeffs[-1] = rng.choice((-1, 1)) * rng.randint(1, FAMILY_COEFF)
            polys.append([0] + coeffs)
        families.append({"kind": "polynomial", "polys": polys})
    return families


def input_files(workload: str, seed: int) -> dict[str, bytes]:
    """File name -> exact bytes of every generated input of a workload."""
    if workload != "cli_pipeline":
        return {}
    files = {
        "g23.json": _dump(GROUP_23),
        "n_nsq.json": _dump(FAMILY_N_NSQ),
        "shifted.json": _dump(FAMILY_SHIFTED),
    }
    for i, fam in enumerate(random_families(seed)):
        files[f"family_{i:02d}.json"] = _dump(fam)
    return files


def write_inputs(workload: str, seed: int, directory: Path) -> dict[str, bytes]:
    files = input_files(workload, seed)
    for name, data in files.items():
        (directory / name).write_bytes(data)
    return files


def steps(workload: str, seed: int, inp: Path, out: Path) -> list[Step]:
    s = str(seed)
    if workload == "cor65_scan":
        return [
            Step(
                "cor65",
                ["demo", "cor65", "--ell", "2", "--polys", "n,n^2", "--depth", "11",
                 "--samples", "100000", "--seed", s,
                 "--out", str(out / "cor65.json"), "--scan-csv", str(out / "cor65.csv")],
                outputs={"cor65": out / "cor65.json", "scan_csv": out / "cor65.csv"},
            )
        ]
    if workload == "behrend_scan":
        return [
            Step(
                "cor66",
                ["demo", "cor66", "--p", "n^2+n", "--q", "2n^2+3n", "--ell", "3",
                 "--seed", s, "--out", str(out / "cor66.json"),
                 "--scan-csv", str(out / "cor66.csv")],
                outputs={"cor66": out / "cor66.json", "scan_csv": out / "cor66.csv"},
            ),
            Step(
                "cor67",
                ["demo", "cor67", "--ell", "3", "--primes", "2,3,5,7,11,13",
                 "--seed", s, "--out", str(out / "cor67.json")],
                outputs={"cor67": out / "cor67.json"},
            ),
        ]
    if workload == "cli_pipeline":
        bundle = out / "bundle.json"
        shifted = out / "shifted_bundle.json"
        group = str(inp / "g23.json")
        result = [
            Step("measure",
                 ["measure", str(inp / "n_nsq.json"), "--group", group, "--depth", "6",
                  "--samples", "100000", "--seed", s, "--out", str(bundle)],
                 outputs={"bundle": bundle}),
            Step("verify-dichotomy",
                 ["verify-dichotomy", str(bundle), "--bound", "2",
                  "--out", str(out / "dichotomy.csv")],
                 outputs={"dichotomy": out / "dichotomy.csv"}),
            Step("gaussian",
                 ["gaussian", "--sigma", str(bundle), "--out", str(out / "gaussian.json")],
                 outputs={"gaussian": out / "gaussian.json"}),
            Step("measure-shifted",
                 ["measure", str(inp / "shifted.json"), "--group", group, "--depth", "2",
                  "--seed", s, "--out", str(shifted)],
                 outputs={"bundle": shifted}),
        ]
        for i in range(N_FAMILIES):
            fam = str(inp / f"family_{i:02d}.json")
            tag = f"family_{i:02d}"
            result += [
                Step(f"analyze-{i:02d}", ["analyze", fam, "--out", str(out / f"{tag}.analyze.json")],
                     outputs={"analyze": out / f"{tag}.analyze.json"}),
                Step(f"splits-{i:02d}",
                     ["splits", fam, "--witness", "--out", str(out / f"{tag}.splits.csv")],
                     outputs={"splits": out / f"{tag}.splits.csv"}),
                Step(f"interp-{i:02d}", ["interp", fam, "--out", str(out / f"{tag}.interp.json")],
                     outputs={"interp": out / f"{tag}.interp.json"}),
            ]
        result.append(
            Step("behrend", ["behrend", "--ell", "3", "--out", str(out / "behrend.json")],
                 outputs={"behrend": out / "behrend.json"})
        )
        return result
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("cor65_scan", "behrend_scan", "cli_pipeline")
