"""CLI surface: parsing, subcommands, exit codes, determinism."""

import hashlib
import json
import os
import platform
import random
import subprocess
import sys
from pathlib import Path

import pytest

import rigidlab
from rigidlab import demos
from rigidlab import measure as ms
from rigidlab.cli import _scan_csv, build_parser, parse_poly_expr, run
from rigidlab.errors import ParseError

from measure_helpers import total_weight


@pytest.fixture
def families(tmp_path):
    paths = {}
    for name, obj in {
        "n_2n": {"kind": "polynomial", "polys": [[0, 1], [0, 2]]},
        "n_nsq": {"kind": "polynomial", "polys": [[0, 1], [0, 0, 1]]},
        "b615": {"kind": "polynomial", "polys": [[0, 6], [0, 10], [0, 15]]},
    }.items():
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(obj))
        paths[name] = str(p)
    g = tmp_path / "g23.json"
    g.write_text(json.dumps({"ambient_dim": 2, "basis": [[2, 0], [0, 3]]}))
    paths["g23"] = str(g)
    return paths


def fill_placeholders(argv, families, tmp_path):
    """Replace FAMILY, N_2N, GROUP, OUT and the SIGMA names by files; FAMILY
    is (n, n^2), N_2N is (n, 2n), SIGMA is a measure bundle of (n, n^2) built
    on the spot, SIGMA_1_0 that bundle with its first atom at "1/0",
    SIGMA_EMPTY and SIGMA_TWICE that bundle with no atom and with the atom
    ("1/2", "1") twice, whose weights do not sum to 1, and SIGMA_DEPTH_0 that
    bundle with a schedule of no level.  SIGMA_WIDE is a hand-made bundle of
    the family (n, ..., n^7) on G = Z^7: a depth-1 schedule and a 2-atom
    sigma, 5^7 coefficient vectors at --bound 2."""
    edits = {  # name: (bundle key, its new value from the old)
        "SIGMA_1_0": ("sigma", lambda s: {"atoms": [["1/0", s["atoms"][0][1]], *s["atoms"][1:]]}),
        "SIGMA_EMPTY": ("sigma", lambda s: {"atoms": []}),
        "SIGMA_TWICE": ("sigma", lambda s: {"atoms": [["1/2", "1"], ["1/2", "1"]]}),
        "SIGMA_DEPTH_0": ("schedule", lambda s: {"depth": 0, "indices": [], "alphas": []}),
    }
    names = {
        "FAMILY": families["n_nsq"],
        "N_2N": families["n_2n"],
        "GROUP": families["g23"],
        "OUT": str(tmp_path / "out.json"),
        "SIGMA": str(tmp_path / "sigma.json"),
        **{name: str(tmp_path / f"{name.lower()}.json") for name in [*edits, "SIGMA_WIDE"]},
    }
    if "SIGMA_WIDE" in argv:
        Path(names["SIGMA_WIDE"]).write_text(json.dumps({
            "family": {"kind": "polynomial", "polys": [[0] * d + [1] for d in range(1, 8)]},
            "group": {"ambient_dim": 7,
                      "basis": [[int(i == j) for j in range(7)] for i in range(7)]},
            "schedule": {"depth": 1, "indices": ["1"], "alphas": [["1/2"] * 7]},
            "sigma": {"atoms": [["0", "1/2"], ["1/2", "1/2"]]},
        }))
    if {"SIGMA", *edits} & set(argv):
        assert run(["measure", names["FAMILY"], "--group", names["GROUP"], "--depth", "2",
                    "--samples", "50", "--out", names["SIGMA"]]) == 0
    for name in edits.keys() & set(argv):
        bundle = json.loads(Path(names["SIGMA"]).read_text())
        key, edit = edits[name]
        bundle[key] = edit(bundle[key])
        Path(names[name]).write_text(json.dumps(bundle))
    return [names.get(a, a) for a in argv]


class TestParsePolyExpr:
    def test_basic_terms(self):
        assert parse_poly_expr("n") == [0, 1]
        assert parse_poly_expr("n^2+3n") == [0, 3, 1]
        assert parse_poly_expr("2n^3-n") == [0, -1, 0, 2]

    def test_constants_and_star(self):
        assert parse_poly_expr("5") == [5]
        assert parse_poly_expr("2*n^2") == [0, 0, 2]

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse_poly_expr("n^")
        assert err.value.position >= 0
        with pytest.raises(ParseError):
            parse_poly_expr("n n")


class TestSubcommands:
    def test_splits_table(self, families, tmp_path, capsys):
        out = tmp_path / "t.csv"
        assert run(["splits", families["n_2n"], "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "F,feasible,witness_vector,witness_coordinate"
        table = {l.split(",")[0]: l.split(",")[1] for l in lines[1:]}
        assert table == {
            "{}": "true",
            "{1}": "false",
            "{2}": "true",
            "{1 2}": "true",
        }

    def test_interp(self, families, tmp_path):
        out = tmp_path / "i.json"
        assert run(["interp", families["b615"], "--out", str(out)]) == 0
        assert json.loads(out.read_text()) == {"holds": True}

    def test_witness(self, families, tmp_path):
        out = tmp_path / "w.json"
        assert run(["witness", families["n_2n"], "--F", "2", "--out", str(out)]) == 0
        obj = json.loads(out.read_text())
        assert obj["H"]["basis"] == [[2, 0], [0, 1]]
        assert obj["index"] == 2

    def test_measure_verify_roundtrip(self, families, tmp_path):
        sigma = tmp_path / "sigma.json"
        assert (
            run(
                [
                    "measure",
                    families["n_nsq"],
                    "--group",
                    families["g23"],
                    "--depth",
                    "4",
                    "--samples",
                    "2000",
                    "--seed",
                    "7",
                    "--out",
                    str(sigma),
                ]
            )
            == 0
        )
        csv_out = tmp_path / "d.csv"
        code = run(
            ["verify-dichotomy", str(sigma), "--bound", "2", "--tol", "0.2", "--out", str(csv_out)]
        )
        assert code == 0
        header = csv_out.read_text().splitlines()[0]
        assert header == "k,a,abs_coeff,target,deviation"

    def test_behrend(self, tmp_path):
        out = tmp_path / "b.json"
        assert run(["behrend", "--ell", "3", "--out", str(out)]) == 0
        obj = json.loads(out.read_text())
        assert obj["passes"] is True
        assert obj["measure"] == "4/27"

    def test_gaussian_query(self, tmp_path):
        out = tmp_path / "g.json"
        assert run(
            ["gaussian", "--rho", "0.5", "--lo", "-40", "--hi", "0", "--out", str(out)]
        ) == 0
        obj = json.loads(out.read_text())
        assert abs(obj["mass"] - 1 / 3) < 1e-7

    def test_demo_cor65_report_fields(self, tmp_path):
        out = tmp_path / "r.json"
        code = run(
            [
                "demo",
                "cor65",
                "--ell",
                "2",
                "--polys",
                "n,n^2",
                "--depth",
                "6",
                "--samples",
                "4000",
                "--seed",
                "7",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        obj = json.loads(out.read_text())
        assert obj["limit"] == "2/9"
        assert obj["nu_power"] == "8/27"
        assert obj["gap"] == "2/27"
        assert obj["epsilon"] == "1/27"
        assert obj["passed"] is True


def test_scan_csv_n_alpha_is_the_exact_sum():
    # the n_alpha column is str() of each point's exact sum of generators,
    # for sums of thousands of digits and with carries across them
    gens = (7, 10**4000 - 1, 3**9000, 2**20000 - 1)
    points = [demos.ScanPoint(alpha, 0.1, 0.01, demos.BELOW)
              for alpha in [(1,), (2, 4), (1, 2), (1, 2, 3, 4)]]
    text = _scan_csv(demos.TailScan(0.5, points, gens))
    assert [line.split(",")[1] for line in text.splitlines()[1:]] == [
        str(sum(gens[i - 1] for i in p.alpha)) for p in points]


class TestExitCodes:
    def test_missing_file_is_io_error(self, tmp_path, capsys):
        assert run(["splits", str(tmp_path / "missing.json")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert "error" in err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"kind": "polynomial", "polys": [[0, 1]], "x": 1}))
        assert run(["splits", str(bad)]) == 2

    @pytest.mark.parametrize(
        "spec", [{"kind": "polynomial"}, [1, 2]], ids=["missing_key", "not_object"]
    )
    def test_malformed_family_spec(self, tmp_path, capsys, spec):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(spec))
        assert run(["splits", str(bad)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "PreconditionError"

    def test_bundle_family_unknown_kind(self, families, tmp_path, capsys):
        sigma = tmp_path / "sigma.json"
        args = ["measure", families["n_nsq"], "--group", families["g23"],
                "--depth", "3", "--samples", "200", "--seed", "3"]
        assert run(args + ["--out", str(sigma)]) == 0
        bundle = json.loads(sigma.read_text())
        bundle["family"]["kind"] = "lacunary"
        sigma.write_text(json.dumps(bundle))
        assert run(["verify-dichotomy", str(sigma)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "PreconditionError"

    @pytest.mark.parametrize("command", [["verify-dichotomy"], ["gaussian", "--sigma"]],
                             ids=["verify_dichotomy", "gaussian"])
    @pytest.mark.parametrize("field, value", [("depth", 2.0), ("index", 1.9), ("index", True)],
                             ids=["depth_float", "index_float", "index_bool"])
    def test_bundle_schedule_not_integers(self, families, tmp_path, capsys, command,
                                          field, value):
        # a float depth crashed both commands with a traceback, and a float
        # index was truncated by int(); each is one JSON error, exit 2
        sigma = tmp_path / "sigma.json"
        args = ["measure", families["n_nsq"], "--group", families["g23"],
                "--depth", "2", "--samples", "50", "--out", str(sigma)]
        assert run(args) == 0
        bundle = json.loads(sigma.read_text())
        if field == "depth":
            bundle["schedule"]["depth"] = value
        else:
            bundle["schedule"]["indices"][0] = value
        sigma.write_text(json.dumps(bundle))
        capsys.readouterr()
        assert run(command + [str(sigma)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "PreconditionError"
        assert "schedule" in err["detail"]

    def test_bundle_missing_key(self, tmp_path, capsys):
        bundle = tmp_path / "sigma.json"
        bundle.write_text("{}")
        assert run(["verify-dichotomy", str(bundle)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "PreconditionError"

    def test_group_missing_basis(self, families, tmp_path, capsys):
        group = tmp_path / "group.json"
        group.write_text(json.dumps({"ambient_dim": 2}))
        args = ["measure", families["n_nsq"], "--group", str(group),
                "--out", str(tmp_path / "sigma.json")]
        assert run(args) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "PreconditionError"

    @pytest.mark.parametrize(
        "spec",
        [
            {"kind": "polynomial", "polys": "abc"},
            {"kind": "beatty", "alphas": [1.5], "independent": True},
            {"kind": "polynomial", "polys": [[0, 1.5], [0, 0, 2.9]]},
            {"kind": "polynomial", "polys": [[0, True], [0, 0, 1]]},
            {"kind": "polynomial", "polys": [[0, "3"], [0, 0, 1]]},
            {"kind": "explicit", "values": [[1, 2.5], [2, 4]]},
            {"kind": "explicit", "values": [[1, 2], [2, 4]],
             "relations": {"ambient_dim": 2, "basis": [[2.0, -1]]}},
            {"kind": "explicit", "values": [[1, 2], [2, 4]],
             "relations": {"ambient_dim": 2.0, "basis": [[2, -1]]}},
            {"kind": "beatty", "alphas": ["1.5", "2.25"], "independent": "no"},
            {"kind": "beatty", "alphas": ["1.5", "2.25"], "independent": 1},
            {"kind": "beatty", "alphas": ["1.5", "2.25"], "independent": None},
        ],
        ids=["polynomial_not_integers", "beatty_not_strings", "polynomial_float",
             "polynomial_bool", "polynomial_string", "explicit_float",
             "group_basis_float", "group_dim_float", "beatty_independent_string",
             "beatty_independent_int", "beatty_independent_null"],
    )
    def test_family_value_wrong_type(self, tmp_path, capsys, spec):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(spec))
        assert run(["analyze", str(bad)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "PreconditionError"

    @pytest.mark.parametrize(
        "argv",
        [
            ["demo", "cor66", "--ell", "2"],
            ["demo", "cor66", "--p", "n^2+n", "--ell", "2"],
            ["demo", "cor67", "--primes", "2,x"],
            ["splits", "FAMILY", "--F", "1,a"],
            ["witness", "N_2N", "--F", "1"],
            ["gaussian"],
            ["verify-dichotomy", "SIGMA", "--bound", "-1"],
            ["verify-dichotomy", "SIGMA_1_0"],
            ["measure", "FAMILY", "--group", "GROUP", "--depth", "0", "--out", "OUT"],
            ["measure", "FAMILY", "--group", "GROUP", "--depth", "2", "--samples", "50",
             "--seed", "-1", "--out", "OUT"],
            ["demo", "cor65", "--polys", "n,n^2", "--depth", "3", "--samples", "100",
             "--seed", "-1"],
            ["demo", "cor65", "--polys", "n,n^2", "--depth", "3", "--samples", "100",
             "--k0-max", "-1"],
            ["gaussian", "--rho", "0.5", "--lo", "nan", "--hi", "0"],
            ["gaussian", "--sigma", "SIGMA", "--lo", "nan"],
            ["demo", "cor67", "--ell", "3", "--primes", "11", "--depth", "6", "--samples",
             "8000", "--seed", "11", "--k0-max", "4", "--scan-csv", "OUT"],
            ["verify-dichotomy", "SIGMA_EMPTY"],
            ["verify-dichotomy", "SIGMA_TWICE"],
            ["gaussian", "--sigma", "SIGMA_EMPTY"],
            ["gaussian", "--sigma", "SIGMA_TWICE"],
            ["verify-dichotomy", "SIGMA_DEPTH_0"],
            ["gaussian", "--sigma", "SIGMA_DEPTH_0"],
            ["verify-dichotomy", "SIGMA", "--tol", "nan"],
            ["verify-dichotomy", "SIGMA", "--tol", "-1"],
            ["gaussian", "--sigma", "SIGMA", "--tol", "nan"],
            ["gaussian", "--sigma", "SIGMA", "--tol", "-1"],
            ["demo", "cor67", "--primes", "0,1"],
            ["demo", "cor67", "--primes", "-5"],
        ],
        ids=["cor66_no_p_q", "cor66_no_q", "cor67_bad_primes", "splits_bad_F",
             "witness_infeasible_F", "gaussian_no_sigma_no_rho",
             "dichotomy_negative_bound", "dichotomy_atom_zero_denominator",
             "measure_depth_0", "measure_negative_seed",
             "cor65_negative_seed", "cor65_negative_k0_max",
             "gaussian_rho_nan_bound", "gaussian_sigma_nan_bound", "cor67_scan_csv",
             "dichotomy_no_atom", "dichotomy_atom_twice",
             "gaussian_no_atom", "gaussian_atom_twice",
             "dichotomy_depth_0", "gaussian_depth_0",
             "dichotomy_nan_tol", "dichotomy_negative_tol",
             "gaussian_nan_tol", "gaussian_negative_tol",
             "cor67_zero_prime", "cor67_negative_prime"],
    )
    def test_malformed_option_value(self, families, tmp_path, capsys, argv):
        assert run(fill_placeholders(argv, families, tmp_path)) == 2
        captured = capsys.readouterr()
        err = json.loads(captured.err)
        assert err["error"] == "PreconditionError"
        if "SIGMA_1_0" in argv:
            assert "ZeroDivisionError" in err["detail"]
        if {"SIGMA_EMPTY", "SIGMA_TWICE"} & set(argv):
            assert err["detail"] == "sigma bundle weights must sum to 1"
        if {"SIGMA_EMPTY", "SIGMA_TWICE", "SIGMA_DEPTH_0", "--tol"} & set(argv):
            assert captured.out == ""
        if argv[-2:-1] == ["--primes"] and argv[-1] != "2,x":
            # the refusal names the prime given, not haar's empty ladder
            assert err["detail"] == f"primes must be positive, got {argv[-1].split(',')[0]}"
        if argv[0] == "witness":
            # the refusal names the relation -2 phi_1 + phi_2 = 0 escaping
            # F = {1} at coordinate 2, as `splits --F 1` reports it
            assert err["detail"] == (
                "split infeasible for F=[1]: the relation (-2, 1) of A(phi) "
                "escapes F only at coordinate 2, where it is 1"
            )

    @pytest.mark.parametrize(
        "argv",
        [
            ["measure", "FAMILY", "--group", "GROUP", "--depth", "7", "--out", "OUT"],
            ["measure", "FAMILY", "--group", "GROUP", "--samples", "10000001", "--out", "OUT"],
            ["verify-dichotomy", "SIGMA", "--bound", "6"],
            ["verify-dichotomy", "SIGMA_WIDE", "--bound", "2"],
        ],
        ids=["measure_depth_7", "measure_samples", "dichotomy_bound_6", "dichotomy_wide_family"],
    )
    def test_option_cap_exit_3(self, families, tmp_path, capsys, argv):
        assert run(fill_placeholders(argv, families, tmp_path)) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "CapExceeded"

    def test_parse_error_exit_1(self, capsys):
        assert run(["demo", "cor65", "--polys", "n^"]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ParseError"

    def test_precondition_violation(self, families, capsys):
        assert (
            run(["demo", "cor65", "--ell", "2", "--polys", "n,2n", "--depth", "3",
                 "--samples", "100", "--seed", "1"]) == 2
        )

    @pytest.mark.parametrize(
        "argv, detail",
        [
            (["--ell", "3", "--polys", "n,n^2"], "ell = 3 does not match the 2 polynomials"),
            (["--ell", "2", "--polys", "n,n^2,n^3"],
             "ell = 2 does not match the 3 polynomials"),
            (["--polys", "n"], "the construction needs at least two polynomials"),
            (["--ell", "1", "--polys", "n"], "the construction needs at least two polynomials"),
        ],
        ids=["ell_above_polys", "ell_below_polys", "one_poly", "ell_1"],
    )
    def test_cor65_ell_against_polys(self, capsys, argv, detail):
        assert run(["demo", "cor65", *argv, "--depth", "3", "--samples", "200"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "PreconditionError", "detail": detail}

    def test_cor65_ell_defaults_to_the_polys(self, tmp_path):
        # without --ell, cor65 takes one sequence per polynomial
        runs = []
        for ell in ([], ["--ell", "3"]):
            out = tmp_path / f"cor65{len(ell)}.json"
            code = run(["demo", "cor65", *ell, "--polys", "n,n^2,n^3", "--depth", "3",
                        "--samples", "200", "--out", str(out)])
            runs.append((code, out.read_bytes()))
        assert runs[0] == runs[1]
        assert json.loads(runs[0][1])["ell"] == 3

    @pytest.mark.parametrize(
        "argv, option, owner",
        [
            (["cor67", "--polys", "n,n^2,n^3", "--primes", "2"], "polys", "cor65"),
            (["cor67", "--p", "n", "--primes", "2"], "p", "cor66"),
            (["cor67", "--q", "2n"], "q", "cor66"),
            (["cor66", "--p", "n", "--q", "2n", "--polys", "n,n^2"], "polys", "cor65"),
            (["cor66", "--p", "n", "--q", "2n", "--primes", "2"], "primes", "cor67"),
            (["cor65", "--polys", "n,n^2", "--primes", "2"], "primes", "cor67"),
            (["cor65", "--polys", "n,n^2", "--p", "n"], "p", "cor66"),
            (["cor65", "--polys", "n,n^2", "--q", "n"], "q", "cor66"),
        ],
        ids=["cor67_polys", "cor67_p", "cor67_q", "cor66_polys", "cor66_primes",
             "cor65_primes", "cor65_p", "cor65_q"],
    )
    def test_demo_refuses_another_demos_option(self, tmp_path, capsys, argv, option, owner):
        # an option of another demo is refused by name, not silently dropped
        out = tmp_path / "out.json"
        assert run(["demo", *argv, "--depth", "3", "--samples", "100", "--out", str(out)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "PreconditionError",
                       "detail": f"--{option} applies to {owner} only"}
        assert not out.exists()

    def test_cor67_primes_default(self, tmp_path):
        # without --primes, cor67 takes the primes 2, 3, 5, 7, 11, 13
        runs = []
        for primes in ([], ["--primes", "2,3,5,7,11,13"]):
            out = tmp_path / f"cor67{len(primes)}.json"
            code = run(["demo", "cor67", "--ell", "3", *primes, "--depth", "3",
                        "--samples", "100", "--out", str(out)])
            runs.append((code, out.read_bytes()))
        assert runs[0] == runs[1]
        assert json.loads(runs[0][1])["primes"] == [2, 3, 5, 7, 11, 13]

    def test_cap_exceeded_exit_3(self, tmp_path, capsys):
        big = tmp_path / "big.json"
        big.write_text(
            json.dumps(
                {"kind": "polynomial", "polys": [[0, 1]] * 25}
            )
        )
        # 2^25 subsets exceed the all-splits cap
        assert run(["splits", str(big)]) == 3


class TestDeterminism:
    def test_byte_identical_reruns(self, families, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = [
            "measure",
            families["n_nsq"],
            "--group",
            families["g23"],
            "--depth",
            "3",
            "--samples",
            "500",
            "--seed",
            "3",
        ]
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_reused_parser_matches_fresh_runs(self, families, tmp_path, capsys):
        # run parses every call with the one parser its process builds: a
        # demo, an analyze and a refused demo in turn give the exit codes,
        # files and error bytes of runs that each build a fresh parser
        calls = [
            ["demo", "cor65", "--polys", "n,n^2", "--depth", "3", "--samples", "100"],
            ["analyze", families["n_nsq"]],
            ["demo", "cor65", "--polys", "n^"],
        ]

        def outputs(fresh):
            got = []
            for i, argv in enumerate(calls):
                if fresh:
                    build_parser.cache_clear()
                out = tmp_path / f"{fresh}-{i}.json"
                code = run([*argv, "--out", str(out)])
                got.append((code, out.read_bytes() if out.exists() else None,
                            capsys.readouterr().err))
            return got

        reused = outputs(fresh=False)
        assert reused == outputs(fresh=True)
        # the small demo's scan does not pass (exit 2) but writes its report
        assert [code for code, *_ in reused] == [2, 0, 1] and reused[0][1]
        parser = build_parser()
        assert parser is build_parser()
        parser.parse_args(calls[0])
        assert not hasattr(parser.parse_args(calls[1]), "which")

    def test_artifact_roundtrip(self, families, tmp_path):
        from rigidlab import lattice as lat
        from rigidlab.measure import AtomicMeasure

        sigma = tmp_path / "s.json"
        run(
            [
                "measure",
                families["n_nsq"],
                "--group",
                families["g23"],
                "--depth",
                "3",
                "--samples",
                "200",
                "--seed",
                "3",
                "--out",
                str(sigma),
            ]
        )
        bundle = json.loads(sigma.read_text())
        m = AtomicMeasure.from_json(bundle["sigma"])
        assert total_weight(m) == 1
        G = lat.Lattice.from_json(bundle["group"])
        assert G.to_json() == bundle["group"]

    def test_bundle_outputs_pinned(self, families, tmp_path):
        # One sha256 pins the bytes of the explicit-atom bundle path: the
        # measure bundle of (n, n^2) on G = 2Z x 3Z, the dichotomy CSV read
        # back from it and its Gaussian transfer report.
        bundle, csv_out, gauss = (tmp_path / n for n in ("s.json", "d.csv", "g.json"))
        assert run(["measure", families["n_nsq"], "--group", families["g23"],
                    "--depth", "5", "--samples", "3000", "--seed", "5",
                    "--out", str(bundle)]) == 0
        assert run(["verify-dichotomy", str(bundle), "--bound", "2",
                    "--out", str(csv_out)]) == 0
        assert run(["gaussian", "--sigma", str(bundle), "--out", str(gauss)]) == 0
        digest = hashlib.sha256()
        for path in (bundle, csv_out, gauss):
            digest.update(path.read_bytes())
        assert digest.hexdigest() == (
            "596ab762072d1e3125758e54055cf02a2784a3f6790503eeac809d0d1b989328"
        )

    def test_benchmark_demo_invocations_pinned(self, tmp_path):
        # The three demo calls of the benchmark's workloads (seed 42) pass
        # every option to the demo it belongs to: they exit 0 with these bytes.
        out = tmp_path
        calls = [
            ["demo", "cor65", "--ell", "2", "--polys", "n,n^2", "--depth", "11",
             "--samples", "100000", "--seed", "42", "--out", str(out / "cor65.json"),
             "--scan-csv", str(out / "cor65.csv")],
            ["demo", "cor66", "--p", "n^2+n", "--q", "2n^2+3n", "--ell", "3", "--seed", "42",
             "--out", str(out / "cor66.json"), "--scan-csv", str(out / "cor66.csv")],
            ["demo", "cor67", "--ell", "3", "--primes", "2,3,5,7,11,13", "--seed", "42",
             "--out", str(out / "cor67.json")],
        ]
        assert [run(argv) for argv in calls] == [0, 0, 0]
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in ("cor65.json", "cor65.csv", "cor66.json", "cor66.csv", "cor67.json")}
        assert digests == {
            "cor65.json": "5e690bc4c58ab585dacdb4ee0c7619d666d6cfc3b8e6d73884158e6bb7a3038b",
            "cor65.csv": "1a54028014b229d126c6773b86d4b6abf98c7702cc6eba1d535faa6a61e61dc3",
            "cor66.json": "746cbea734ebd0d4c78dae38ae3ba09831edd3fae2c65226aacfd87c568ab6c7",
            "cor66.csv": "ece3c8888e77e15f015110b122864e97f6ebd3c9d54acd0061cf38d0211f8cfe",
            "cor67.json": "9b7fd33183490fecf0b958317f14a1eb003ffa30cea8b3c0293ad68fb5114511",
        }

    @pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                        reason="the OpenBLAS core-type names are x86 ones")
    def test_outputs_independent_of_blas(self, families, tmp_path):
        # A cor65 scan and the bundle path, run in the default environment
        # and under another OpenBLAS kernel and thread count, write the same
        # bytes and exit codes: no float sum goes through BLAS.
        src = str(Path(rigidlab.__file__).resolve().parents[1])

        def outputs(name, **env):
            out = tmp_path / name
            out.mkdir()
            calls = [
                ["demo", "cor65", "--ell", "2", "--polys", "n,n^2", "--depth", "6",
                 "--samples", "10000", "--seed", "7", "--out", str(out / "cor65.json"),
                 "--scan-csv", str(out / "scan.csv")],
                ["measure", families["n_nsq"], "--group", families["g23"], "--depth", "4",
                 "--samples", "10000", "--seed", "7", "--out", str(out / "s.json")],
                ["verify-dichotomy", str(out / "s.json"), "--out", str(out / "d.csv")],
                ["gaussian", "--sigma", str(out / "s.json"), "--out", str(out / "g.json")],
            ]
            probe = f"import rigidlab.cli\nprint([rigidlab.cli.run(a) for a in {calls!r}])"
            done = subprocess.run([sys.executable, "-c", probe],
                                  env=dict(os.environ, PYTHONPATH=src, **env),
                                  capture_output=True, text=True, timeout=120)
            assert done.returncode == 0, done.stderr
            return done.stdout, {p.name: p.read_bytes() for p in out.iterdir()}

        default = outputs("default")
        assert len(default[1]) == 5
        assert outputs("prescott", OPENBLAS_NUM_THREADS="2",
                       OPENBLAS_CORETYPE="Prescott") == default

    def test_dichotomy_phases_come_from_the_kernel(self, families, tmp_path, monkeypatch):
        # On the pinned bundle, verify-dichotomy takes its phases from the
        # fixed-point kernel, one call per level and vector, and fewer than
        # 15% of their digits go to the exact integers.
        bundle = tmp_path / "s.json"
        assert run(["measure", families["n_nsq"], "--group", families["g23"],
                    "--depth", "5", "--samples", "3000", "--seed", "5",
                    "--out", str(bundle)]) == 0
        digits, exact = [], []
        kernel, fallback = ms._combination_phases, ms._exact_phases
        monkeypatch.setattr(ms, "_combination_phases",
                            lambda a, basis, *rest: digits.append(basis.shape[1]) or kernel(a, basis, *rest))
        monkeypatch.setattr(ms, "_exact_phases",
                            lambda a, basis, qs: exact.append(basis.shape[1]) or fallback(a, basis, qs))
        assert run(["verify-dichotomy", str(bundle), "--bound", "2",
                    "--out", str(tmp_path / "d.csv")]) == 0
        assert len(digits) == 5 * 25
        assert sum(exact) < 0.15 * sum(digits)

    def test_decider_outputs_pinned(self, tmp_path):
        # 12 seeded polynomial families of 4-7 sequences, degree 2-4,
        # coefficients in [-3, 3], zero constant term.  One sha256 pins the
        # bytes of analyze, splits --witness, interp and witness --F on the
        # first feasible nonempty F of the splits table.
        rng = random.Random(12)
        digest = hashlib.sha256()
        for i in range(12):
            polys = []
            for _ in range(rng.randint(4, 7)):
                deg = rng.randint(2, 4)
                p = [0] + [rng.randint(-3, 3) for _ in range(deg)]
                p[deg] = rng.choice([-3, -2, -1, 1, 2, 3])
                polys.append(p)
            fam = tmp_path / f"fam{i}.json"
            fam.write_text(json.dumps({"kind": "polynomial", "polys": polys}))
            out = tmp_path / f"out{i}"
            for argv in (["analyze"], ["splits", "--witness"], ["interp"]):
                assert run(argv + [str(fam), "--out", str(out)]) == 0
                digest.update(out.read_bytes())
                if argv[0] == "splits":
                    rows = out.read_text().splitlines()[2:]
                    F = next(r.split(",")[0] for r in rows if r.split(",")[1] == "true")
            F = F.strip("{}").replace(" ", ",")
            assert run(["witness", str(fam), "--F", F, "--out", str(out)]) == 0
            digest.update(out.read_bytes())
        assert digest.hexdigest() == (
            "621a019d39417f9fb8c04303b8473b0567052878d7445270fdde47425b57ce05"
        )


def test_import_leaves_scipy_unloaded(families, tmp_path):
    # numpy is the only runtime dependency: neither importing the command
    # line nor running both Gaussian paths loads scipy, and the import does
    # not load numpy.polynomial either
    src = str(Path(rigidlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    bundle = str(tmp_path / "s.json")
    probe = f"""
import sys, rigidlab.cli
print('scipy' in sys.modules, 'numpy.polynomial' in sys.modules)
run = rigidlab.cli.run
out = {str(tmp_path / "g.json")!r}
assert run(["measure", {families["n_nsq"]!r}, "--group", {families["g23"]!r},
            "--depth", "2", "--samples", "50", "--out", {bundle!r}]) == 0
assert run(["gaussian", "--rho", "0.5", "--lo", "-1", "--hi", "0", "--out", out]) == 0
assert run(["gaussian", "--sigma", {bundle!r}, "--out", out]) == 0
print('scipy' in sys.modules)
"""
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "False", "False"]
