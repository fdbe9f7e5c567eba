from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import build_grid
from oracles import outcome_dict, row_dict
from test_golden import CASES, GOLDEN_DIR, run_cli
from trifrac import cli
from trifrac.base_solutions import MAX_BASE_WALKS, MAX_WALK_DIVISORS, enumerate_base_solutions
from trifrac.cli import _outcome_pieces, _row_json, build_parser, main
from trifrac.intmath import FACTOR_LIMIT, gcd
from trifrac.qpoly import MAX_COEFFS, MAX_FILE_BYTES
from trifrac.scan_audit import MAX_AUDIT_BOUND, MAX_SCAN_MODULUS, scan_residues
from trifrac.theorem import (REASON_CONDITION_II, REASON_NO_BASE_TRIPLE, ResidueClass, decide,
                             enumerate_kl)

GOLDEN = ["decide", "--m", "5", "--n0", "7", "--n1", "9"]


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_decide_json_golden(capsys):
    code, out, _ = run(capsys, GOLDEN + ["--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["schema_version"] == 3
    assert payload["status"] == "solvable"
    (sol,) = payload["solutions"]
    assert sol["x"] == ["14", "18"]
    assert sol["y"] == ["7", "16", "9"]
    assert sol["z"] == ["2", "2"]
    assert sol["params"] == {"k": "2", "l": "1", "s": "1", "r": "1"}


def test_decide_text_golden(capsys):
    code, out, _ = run(capsys, GOLDEN)
    assert code == 0
    assert "solvable" in out
    assert "x = 14 + 18λ" in out
    assert "y = 7 + 16λ + 9λ^2" in out
    assert "z = 2 + 2λ" in out


def test_decide_unsolvable_evidence(capsys):
    code, out, _ = run(capsys, ["decide", "--m", "5", "--n0", "7", "--n1", "19",
                                "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "unsolvable"
    (ev,) = payload["evidence"]
    assert ev["family"] == "s = 5 + 7t, r = 13 + 19t"
    assert ev["s0"] == "5" and ev["r0"] == "13"
    assert "family_search" not in payload


def test_decide_highly_composite_modulus_reports_every_pair(capsys):
    # n1 = 3^4*5^2*7*11*13*17*19*23*29 has 960 (k, l) pairs for m = 4, whose
    # (k*l)^2 have 15.1 M divisors in all: the decision walks none of them
    code, out, _ = run(capsys, ["decide", "--m", "4", "--n0", "1", "--n1", "436704293025",
                                "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "unsolvable"
    assert len(payload["evidence"]) == len(payload["kl_pairs"]) == 960


def test_decide_rejects_invalid_instance(capsys):
    code, _, err = run(capsys, ["decide", "--m", "3", "--n0", "7", "--n1", "9"])
    assert code == 2
    assert "m must be >= 4" in err


@pytest.mark.parametrize("argv", [
    ["decide", "--m", "5", "--n0", "7", "--n1", "19", "--t-max", "3"],
    ["scan", "--m", "5", "--n1", "9", "--jobs", "2"],
])
def test_removed_options_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in captured.err


def test_decide_rejects_modulus_beyond_factoring_limit(capsys):
    code, out, err = run(capsys, ["decide", "--m", "7", "--n0", "1", "--n1", str(10**30)])
    assert code == 2 and out == ""
    assert err.startswith("error: factorize requires n <") and len(err.splitlines()) == 1


def test_decide_large_residue_finishes_unsolvable(capsys):
    # condition i admits (k, l) = (200000002, 1): only triples through
    # x0 = k*n0 are walked, never all base triples of 5/1000001
    code, out, _ = run(capsys, ["decide", "--m", "5", "--n0", "1000001",
                                "--n1", "1000000009", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "unsolvable"
    (ev,) = payload["evidence"]
    assert (ev["k"], ev["l"]) == ("200000002", "1")
    assert ev["reason"] == "no qualifying base triple"


def test_decide_refuses_a_walk_beyond_the_divisor_limit(capsys):
    # solvable at h = 1, but the walk through k*n0 would list from the
    # 1,554,464,925 divisors of Q^2: refused before any is listed
    code, out, err = run(capsys, ["decide", "--m", "4", "--n0", "1186868108009105121599",
                                  "--n1", "1582490810678806828799", "--format", "csv"])
    assert code == 2 and out == ""
    assert err.startswith("error: the triples of 4/1186868108009105121599 through ")
    assert err.endswith(f"more than {MAX_WALK_DIVISORS}\n") and len(err.splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["decide", "--m", "5", "--n0", str(FACTOR_LIMIT), "--n1", "9"],
    ["base", "--m", "5", "--n0", str(FACTOR_LIMIT)],
])
def test_residue_beyond_factoring_limit_exits_2(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err.startswith("error: factorize requires n <") and len(err.splitlines()) == 1


def test_decide_csv(capsys):
    code, out, _ = run(capsys, GOLDEN + ["--format", "csv"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 3
    x_row = next(r for r in rows if r["poly"] == "x")
    assert x_row["degree"] == "1"
    assert x_row["c0"] == "14" and x_row["c1"] == "18"


def test_base_command(capsys):
    code, out, _ = run(capsys, ["base", "--m", "5", "--n0", "7", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert ["2", "7", "14"] in payload["triples"]
    assert len(payload["triples"]) == 4


@pytest.mark.parametrize("m, n0", [(1, 100003), (1, 10**12), (2, MAX_BASE_WALKS + 1)])
def test_base_beyond_walk_limit_exits_2(capsys, m, n0):
    # rejected before the first walk: 1/100003 alone would walk 200006 members
    code, out, err = run(capsys, ["base", "--m", str(m), "--n0", str(n0)])
    assert code == 2 and out == ""
    assert err.startswith(f"error: enumerating every triple of {m}/{n0} walks")
    assert err.endswith(f"more than {MAX_BASE_WALKS}\n") and len(err.splitlines()) == 1


def test_base_at_walk_limit_runs(capsys):
    # 2/n0 walks exactly n0 smallest members
    code, out, _ = run(capsys, ["base", "--m", "2", "--n0", str(MAX_BASE_WALKS)])
    assert code == 0
    assert out.startswith(f"2/{MAX_BASE_WALKS} = 1/a + 1/b + 1/c : ")


def test_scan_json(capsys):
    code, out, _ = run(capsys, ["scan", "--m", "5", "--n1", "9", "--format", "json"])
    assert code == 0
    assert json.loads(out)["admissible"] == ["4", "7", "8"]


@pytest.mark.parametrize("n1", ["1000000000007", str(MAX_SCAN_MODULUS + 1)])
def test_full_scan_beyond_limit_exits_2(capsys, n1):
    # rejected before the residue list is built, so this needs no memory cap
    code, out, err = run(capsys, ["scan", "--m", "5", "--n1", n1, "--format", "json"])
    assert code == 2 and out == ""
    assert err.startswith(f"error: a full scan needs n1 <= {MAX_SCAN_MODULUS}")
    assert len(err.splitlines()) == 1


def test_out_of_memory_exits_2_with_one_line(monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "scan_residues", exhausted)
    code, out, err = run(capsys, ["scan", "--m", "4", "--n1", "443", "--format", "json"])
    assert code == 2 and out == ""
    assert err == "error: out of memory\n"


def test_scan_residue_subset_of_huge_modulus(capsys):
    code, out, _ = run(capsys, ["scan", "--m", "5", "--n1", "1000000000007",
                                "--residues", "2,1", "--format", "json"])
    assert code == 0
    assert [row["n0"] for row in json.loads(out)["rows"]] == ["1", "2"]


@pytest.mark.parametrize("corollary", ["3", "i", "4"])
@pytest.mark.parametrize("bound", ["1000000000000", str(MAX_AUDIT_BOUND + 1)])
def test_audit_bound_beyond_limit_exits_2(capsys, corollary, bound):
    # rejected before the prime sieve is allocated
    code, out, err = run(capsys, ["audit", "--corollary", corollary, "--m", "5",
                                  "--bound", bound, "--format", "json"])
    assert code == 2 and out == ""
    assert err == f"error: bound must be <= {MAX_AUDIT_BOUND}, got {bound}\n"


def test_scan_empty_residue_list_exits_2(capsys):
    # an empty list is not "every residue"
    code, out, err = run(capsys, ["scan", "--m", "5", "--n1", "9", "--residues="])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("argv, header", [
    (["base", "--m", "5", "--n0", "1"], "a,b,c"),
    (["audit", "--corollary", "3", "--m", "5", "--bound", "5"], "p,verdict,detail"),
])
def test_csv_without_rows_prints_header(capsys, argv, header):
    code, out, _ = run(capsys, argv + ["--format", "csv"])
    assert code == 0
    assert out == header + "\r\n"


def test_scan_residue_subset(capsys):
    code, out, _ = run(capsys, ["scan", "--m", "4", "--n1", "13",
                                "--residues", "1,2,3", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert [row["n0"] for row in payload["rows"]] == ["1", "2", "3"]
    assert payload["admissible"] == []


def test_family_command_golden(capsys):
    code, out, _ = run(capsys, ["family", "--m", "5", "--n0", "7", "--n1", "9",
                                "--base", "2,7,14", "--roles", "z0,y0,x0",
                                "--branch", "plus", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["x"] == ["14", "18"]
    assert payload["y"] == ["7", "16", "9"]
    assert payload["z"] == ["2", "2"]
    assert payload["integral"] is True


def test_family_command_minus_branch(capsys):
    code, out, _ = run(capsys, ["family", "--m", "5", "--n0", "7", "--n1", "9",
                                "--base", "2,7,14", "--roles", "z0,y0,x0",
                                "--branch", "minus", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["integral"] is False
    assert payload["z"] == ["2", "72/35"]


def test_family_command_bad_roles(capsys):
    code, _, err = run(capsys, ["family", "--m", "5", "--n0", "7", "--n1", "9",
                                "--base", "2,7,14", "--roles", "x0,y0,y0",
                                "--branch", "plus"])
    assert code == 2
    assert "roles" in err


def test_family_command_invariant_violation(capsys):
    code, _, err = run(capsys, ["family", "--m", "5", "--n0", "7", "--n1", "9",
                                "--base", "2,7,15", "--roles", "x0,y0,z0",
                                "--branch", "plus"])
    assert code == 2
    assert "does not solve" in err


def test_audit_corollary3_exit_code(capsys):
    code, out, _ = run(capsys, ["audit", "--corollary", "3", "--m", "5",
                                "--bound", "29", "--format", "json"])
    assert code == 3
    payload = json.loads(out)
    assert payload["has_discrepancy"] is True
    discrepant = [i for i in payload["instances"] if i["verdict"] == "discrepancy"]
    assert [i["p"] for i in discrepant] == ["29"]


def test_audit_corollary4_clean_exit(capsys):
    code, out, _ = run(capsys, ["audit", "--corollary", "4", "--m", "5",
                                "--bound", "30", "--format", "json"])
    assert code == 0
    assert json.loads(out)["has_discrepancy"] is False


@pytest.mark.parametrize("m,n0,n1", [(5, 7, 9), (5, 4, 9), (4, 2, 3), (5, 23, 29)])
def test_verify_round_trip_from_decide(capsys, tmp_path, m, n0, n1):
    code, out, _ = run(capsys, ["decide", "--m", str(m), "--n0", str(n0),
                                "--n1", str(n1), "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["solutions"]
    for i, sol in enumerate(payload["solutions"]):
        triple_file = tmp_path / f"triple{i}.json"
        triple_file.write_text(json.dumps({"x": sol["x"], "y": sol["y"], "z": sol["z"]}))
        code, out, _ = run(capsys, ["verify", "--m", str(m), "--n0", str(n0),
                                    "--n1", str(n1), "--file", str(triple_file)])
        assert code == 0
        assert "verified" in out


def test_verify_perturbed_coefficient(capsys, tmp_path):
    triple_file = tmp_path / "triple.json"
    triple_file.write_text(json.dumps({"x": ["14", "18"], "y": ["7", "17", "9"],
                                       "z": ["2", "2"]}))
    code, out, _ = run(capsys, ["verify", "--m", "5", "--n0", "7", "--n1", "9",
                                "--file", str(triple_file)])
    assert code == 3
    assert "identity fails" in out
    assert "residual" in out


def test_verify_rejects_zero_polynomial(capsys, tmp_path):
    triple_file = tmp_path / "triple.json"
    triple_file.write_text(json.dumps({"x": ["0"], "y": ["7", "16", "9"], "z": ["2", "2"]}))
    code, _, err = run(capsys, ["verify", "--m", "5", "--n0", "7", "--n1", "9",
                                "--file", str(triple_file)])
    assert code == 2
    assert "zero polynomial" in err


def test_verify_names_missing_field(capsys, tmp_path):
    triple_file = tmp_path / "triple.json"
    triple_file.write_text(json.dumps({"x": ["14", "18"], "y": ["7", "16", "9"]}))
    code, _, err = run(capsys, ["verify", "--m", "5", "--n0", "7", "--n1", "9",
                                "--file", str(triple_file)])
    assert code == 2
    assert "'z'" in err


def test_verify_reports_json_parse_position(capsys, tmp_path):
    triple_file = tmp_path / "triple.json"
    triple_file.write_text('{"x": [1,]')
    code, _, err = run(capsys, ["verify", "--m", "5", "--n0", "7", "--n1", "9",
                                "--file", str(triple_file)])
    assert code == 2
    assert "line" in err


_RNG = random.Random(1)


def _triple_with_x(coeff: str) -> str:
    return json.dumps({"x": [coeff, "18"], "y": ["7", "16", "9"], "z": ["2", "2"]})


@pytest.mark.parametrize("content", [
    *(pytest.param(doc, id=doc[:8]) for doc in ('"xyz"', "123", "null", "[]", "[" * 100_000)),
    *(pytest.param(_triple_with_x(c), id=f"x={c[:12]}") for c in (
        "7.0", "9e0", "1e3", "1e999999999", ".5", "+7", " 7 ", "1_000", "7/",
        "/7", "1/0", "", "٧", "1" * 1001,
    )),
    pytest.param(json.dumps({"x": ["1"] * (MAX_COEFFS + 1), "y": ["7", "16", "9"],
                             "z": ["2", "2"]}), id="x=too many coefficients"),
    # 40 coefficients 1/q per member, q of 40 digits: the lcm passes MAX_DEN_DIGITS
    pytest.param(json.dumps({v: [f"1/{_RNG.randrange(10 ** 39, 10 ** 40)}" for _ in range(40)]
                             for v in "xyz"}), id="40 distinct 40-digit denominators"),
])
def test_verify_rejects_malformed_file(capsys, tmp_path, content):
    triple_file = tmp_path / "triple.json"
    triple_file.write_text(content, encoding="utf-8")
    code, out, err = run(capsys, ["verify", "--m", "5", "--n0", "7", "--n1", "9",
                                  "--file", str(triple_file)])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


# one (m, n0, n1) per flag: that flag at 100 digits, the class still valid
_WIDE = 10**100 - 1
_WIDE_ARGS = {"m": (_WIDE, 7, 13), "n0": (5, _WIDE, 7), "n1": (7, 13, _WIDE)}


@pytest.mark.parametrize("flag", list(_WIDE_ARGS))
def test_verify_argument_digit_limit(capsys, tmp_path, flag):
    triple_file = tmp_path / "triple.json"
    triple_file.write_text(json.dumps({"x": ["10"], "y": ["10"], "z": ["10"]}))

    def verify(m, n0, n1):
        return run(capsys, ["verify", "--m", str(m), "--n0", str(n0), "--n1", str(n1),
                            "--file", str(triple_file), "--format", "json"])

    # 100 digits are accepted: the identity fails and the residual prints
    code, out, err = verify(*_WIDE_ARGS[flag])
    assert code == 3 and err == ""
    assert json.loads(out)["residual"]
    # 101 digits are refused before any arithmetic
    one_more = [v + 1 if v == _WIDE else v for v in _WIDE_ARGS[flag]]
    code, out, err = verify(*one_more)
    assert code == 2 and out == ""
    assert err == f"error: --{flag} has 101 digits; at most 100 are accepted\n"


def test_verify_refuses_an_m_of_4299_digits(capsys, tmp_path):
    # the residual would pass CPython's 4300-digit string conversion limit
    triple_file = tmp_path / "triple.json"
    triple_file.write_text(json.dumps({"x": ["10"], "y": ["10"], "z": ["10"]}))
    code, out, err = run(capsys, ["verify", "--m", str(10**4298 + 1), "--n0", "7", "--n1", "9",
                                  "--file", str(triple_file)])
    assert code == 2 and out == ""
    assert err == "error: --m has 4299 digits; at most 100 are accepted\n"


def test_verify_json_payload_degrees(capsys, tmp_path):
    triple_file = tmp_path / "triple.json"
    triple_file.write_text(json.dumps({"x": ["14", "18"], "y": ["7", "16", "9"],
                                       "z": ["2", "2"]}))
    code, out, _ = run(capsys, ["verify", "--m", "5", "--n0", "7", "--n1", "9",
                                "--file", str(triple_file), "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["verified"] is True
    assert payload["degree_pattern"] == ["1", "1", "2"]
    assert payload["aux_degree"] == "1"


def _verify_file(capsys, path):
    return run(capsys, ["verify", "--m", "5", "--n0", "7", "--n1", "9", "--file", str(path)])


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero")
def test_verify_stops_reading_dev_zero_at_the_byte_cap(capsys):
    assert _verify_file(capsys, "/dev/zero") == (
        2, "", f"error: /dev/zero: longer than the {MAX_FILE_BYTES} bytes accepted\n")


def test_verify_byte_cap(capsys, tmp_path):
    path = tmp_path / "spaces.json"
    path.write_bytes(b" " * MAX_FILE_BYTES)  # read whole, and whitespace alone is no JSON
    code, _, err = _verify_file(capsys, path)
    assert code == 2 and "not valid JSON" in err
    path.write_bytes(b" " * (MAX_FILE_BYTES + 1))
    assert _verify_file(capsys, path) == (
        2, "", f"error: {path}: longer than the {MAX_FILE_BYTES} bytes accepted\n")


def test_verify_missing_file_exits_2(capsys, tmp_path):
    code, out, err = run(capsys, ["verify", "--m", "5", "--n0", "7", "--n1", "9",
                                  "--file", str(tmp_path / "absent.json")])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv,want", [
    (["scan", "--m", "4", "--n1", "2003", "--format", "json"], 0),
    (["audit", "--corollary", "3", "--m", "5", "--bound", "700", "--format", "json"], 3),
])
def test_closed_pipe_keeps_exit_code(argv, want):
    # the reader takes the first line of a long output and closes the pipe
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.Popen([sys.executable, "-m", "trifrac", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == want
    assert err == b""


def test_main_in_one_process_matches_lone_runs():
    """Each parser is built once per process; no run may see another's state."""
    sequence = [
        ["decide", "--m", "3", "--n0", "7", "--n1", "9"],  # precondition error
        ["decide", "--m", "5", "--n0", "7"],  # parse error
        ["audit", "--corollary", "4", "--m", "5", "--bound", "60"],
        ["audit", "--corollary", "4", "--m", "5"],  # the default bound, 200
        ["scan", "--m", "5", "--n1", "29", "--residues", "4,7", "--format", "csv"],
        ["decide", "--m", "5", "--n0", "7", "--n1", "19", "--format", "json"],
        ["decide", "--m", "5", "--n0", "7", "--n1", "9"],
    ]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONIOENCODING="utf-8",
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    codes = []
    for argv in sequence:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejections
                code = exc.code
        lone = subprocess.run([sys.executable, "-m", "trifrac", *argv], env=env,
                              capture_output=True, timeout=120)
        assert (code, out.getvalue(), err.getvalue()) == (
            lone.returncode, lone.stdout.decode("utf-8"), lone.stderr.decode("utf-8")), argv
        codes.append(code)
    assert codes == [2, 2, 0, 0, 0, 0, 0]
    assert build_parser() is build_parser()


def test_cli_import_loads_no_dataclasses_or_inspect():
    """Records are NamedTuples: importing the CLI pulls in neither
    ``dataclasses`` nor the ``inspect`` it loads.  Coefficients are read
    duck-typed, so it loads neither ``fractions`` nor its ``decimal``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    probe = ("import sys; before = set(sys.modules); import trifrac.cli; "
             "print(sorted({'dataclasses', 'inspect', 'fractions', 'decimal'}"
             " & (set(sys.modules) - before)))")
    done = subprocess.run([sys.executable, "-S", "-c", probe], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


def test_cli_loads_csv_only_for_a_csv_run():
    """Only ``--format csv`` needs the csv module, so importing the CLI skips it."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    probe = ("import contextlib, io, sys; import trifrac.cli; before = 'csv' in sys.modules\n"
             "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
             "    trifrac.cli.main(['base', '--m', '5', '--n0', '7', '--format', 'csv'])\n"
             "print(before, 'csv' in sys.modules, out.getvalue().splitlines()[0])")
    done = subprocess.run([sys.executable, "-S", "-c", probe], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "False True a,b,c\n", "")


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


_VALID = {
    "decide": ["--m", "5", "--n0", "7", "--n1", "9"],
    "base": ["--m", "5", "--n0", "7"],
    "scan": ["--m", "5", "--n1", "29"],
    "family": ["--m", "5", "--n0", "7", "--n1", "9", "--base", "2,5,70", "--branch", "plus"],
    "audit": ["--corollary", "4", "--m", "5", "--bound", "60"],
    "verify": ["--m", "5", "--n0", "7", "--n1", "9",
               "--file", str(GOLDEN_DIR / "verify-5-7-9-pass.in.json")],
}
_BAD_CHOICE = {"family": ["--branch", "up"], "audit": ["--corollary", "9"]}


def _parser_matrix():
    for name, valid in _VALID.items():
        m = valid.index("--m") + 1
        yield [name, *valid]
        yield [name, *valid[:m - 1], *valid[m + 1:]]  # --m, which every command requires, missing
        yield [name, *valid[:m], "x", *valid[m + 1:]]  # a non-integer --m
        yield [name, *valid, "--format", "yaml"]
        yield [name, *valid, *_BAD_CHOICE.get(name, ["--format", "xml"])]
        yield [name, *valid, "--t-max", "3"]  # an unknown option
        yield [name, *valid, "stray"]  # a stray positional
        yield [name, *valid, "--for", "json"]  # an abbreviation of --format
        yield [name, "-h"]
    yield from ([], ["-h"], ["--help"], ["frobnicate"], ["dec", "--m", "5"])


def _outcome(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejections and help
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_command_parsers_match_the_full_tree(monkeypatch):
    """Each command line gives the same exit code, stdout and stderr as when the full
    ``build_parser()`` tree parses it, this Python's argparse being the reference."""
    argvs = list(_parser_matrix())
    own = [_outcome(argv) for argv in argvs]
    monkeypatch.setattr(cli, "_parse_args", lambda argv: build_parser().parse_args(argv))
    for argv, got in zip(argvs, own):
        assert got == _outcome(argv), argv
    assert {code for code, *_ in own} == {0, 2}
    assert own[argvs.index(["decide", *_VALID["decide"], "--t-max", "3"])][2].endswith(
        "trifrac: error: unrecognized arguments: --t-max 3\n")


def test_a_command_run_builds_only_its_own_parser(monkeypatch, capsys):
    """Only a top-level path or leftover arguments build the full tree of every command."""
    cli._command_parser.cache_clear()
    build_parser.cache_clear()
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert main(["decide", *_VALID["decide"], "--format", "json"]) == 0
    assert main(["decide", "--m", "5", "--n0", "7", "--n1", "19"]) == 0
    assert built == ["trifrac decide"]
    assert build_parser.cache_info().currsize == 0
    with pytest.raises(SystemExit):
        main(["decide", *_VALID["decide"], "stray"])
    assert built[0] == "trifrac decide" and len(built) == 1 + 1 + len(_VALID)
    assert build_parser.cache_info().currsize == 1
    capsys.readouterr()
    assert cli._command_parser("decide") is cli._command_parser("decide")
    assert build_parser() is build_parser()


def _ints(lo, hi):
    # uniform draws: plain integer strategies dwell on the range ends
    return st.sampled_from(range(lo, hi + 1)).map(str)


_M = _ints(-1, 12)


@st.composite
def _family_argv(draw):
    m, n0 = draw(st.sampled_from(range(4, 9))), draw(st.sampled_from(range(1, 13)))
    triples = enumerate_base_solutions(m, n0)
    base = draw(st.one_of(
        st.lists(st.sampled_from(range(-2, 31)), min_size=2, max_size=4),
        st.sampled_from(triples).map(list) if triples else st.nothing(),
    ))
    return ["family", "--m", str(m), "--n0", str(n0), "--n1", draw(_ints(-3, 40)),
            "--base", ",".join(map(str, base)),
            "--roles", ",".join(draw(st.permutations(["x0", "y0", "z0"]))),
            "--branch", draw(st.sampled_from(["plus", "minus"]))]


# empty, duplicated, out of range and not coprime residue lists
_RESIDUES = st.one_of(
    st.lists(_ints(-3, 44), max_size=4),
    _ints(1, 40).map(lambda r: [r, r]),
).map(lambda toks: "--residues=" + ",".join(toks))

_FUZZ_ARGV = st.one_of(
    st.tuples(st.just("decide"), st.just("--m"), _M, st.just("--n0"), _ints(-3, 199),
              st.just("--n1"), _ints(-3, 199)),
    st.tuples(st.just("scan"), st.just("--m"), _M, st.just("--n1"), _ints(-3, 40),
              st.none() | _RESIDUES),
    st.tuples(st.just("base"), st.just("--m"), _M, st.just("--n0"), _ints(-3, 199)),
    st.tuples(st.just("audit"), st.just("--corollary"), st.sampled_from(["i", "3", "4"]),
              st.just("--m"), _M, st.just("--bound"), _ints(-3, 59)),
).map(lambda argv: [tok for tok in argv if tok is not None]) | _family_argv()


@settings(max_examples=150, deadline=None)
@given(_FUZZ_ARGV, st.sampled_from(["text", "json", "csv"]))
def test_cli_fuzz_exit_codes(argv, fmt):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv + ["--format", fmt])
        except SystemExit as exc:  # argparse rejections
            code = exc.code
    assert code in (0, 2, 3), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().startswith(("error: ", "usage: "))
    if "--residues=" in argv:
        assert code == 2


_COEFF = st.one_of(
    st.integers(-10**6, 10**6).map(str),
    st.tuples(st.integers(-99, 99), st.integers(0, 99)).map(lambda pq: f"{pq[0]}/{pq[1]}"),
    st.text(alphabet="0123456789/-+.eE _\n٧", max_size=12),
    st.text(max_size=8),
    st.integers(995, 1005).map(lambda n: "7" * n),
    st.integers() | st.floats() | st.booleans() | st.none() | st.just([]) | st.just({}),
)
_POLY = st.one_of(
    st.lists(_COEFF, max_size=5),
    st.sampled_from([["14", "18"], ["7", "16", "9"], ["2", "2"]]),
    st.just(["1"] * (MAX_COEFFS + 1)),
    st.text(max_size=5) | st.integers() | st.none()
    | st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)
_FIELDS = st.dictionaries(st.sampled_from(["x", "y", "z", "w"]), _POLY, max_size=4)


def _nested(depth: int) -> str:
    return '{"x": ' + "[" * depth + "]" * depth + ', "y": ["1"], "z": ["1"]}'


_SOLUTION = {"x": ["14", "18"], "y": ["7", "16", "9"], "z": ["2", "2"]}
_PAYLOAD = st.one_of(
    st.permutations(list(_SOLUTION.values())).map(lambda p: json.dumps(dict(zip("xyz", p)))),
    st.tuples(st.sampled_from("xyz"), _POLY).map(lambda f: json.dumps({**_SOLUTION, f[0]: f[1]})),
    _FIELDS.map(json.dumps),
    st.fixed_dictionaries({"x": _POLY, "y": _POLY, "z": _POLY}).map(json.dumps),
    (st.integers() | st.text(max_size=5) | st.lists(st.integers(), max_size=3)
     | st.none() | st.booleans()).map(json.dumps),
    st.integers(1, 100_000).map(lambda d: "[" * d + "]" * d),
    st.integers(1, 100_000).map(_nested),
    st.text(max_size=20),
)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_PAYLOAD, st.sampled_from(["text", "json", "csv"]))
def test_verify_fuzz_payloads(tmp_path_factory, payload, fmt):
    triple_file = tmp_path_factory.mktemp("verify") / "triple.json"
    triple_file.write_text(payload, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", "--m", "5", "--n0", "7", "--n1", "9",
                     "--file", str(triple_file), "--format", fmt])
    assert code in (0, 2, 3), (payload[:200], err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and len(err.getvalue().splitlines()) == 1


def test_outcome_writer_matches_json_dumps_of_the_dict_form():
    # every decide outcome of m 4..7, n1 < 60, n0 < n1, and the 960-pair class
    outcomes = [decide(rc) for rc in build_grid(range(4, 8), 59)]
    outcomes.append(decide(ResidueClass(4, 1, 436704293025)))
    # the shapes the writer must cover: no (k, l) at all, both unsolvable
    # reasons, several solutions, and 960 evidence pairs
    assert any(o.kl_pairs == () for o in outcomes)
    assert {ev.reason for o in outcomes for ev in o.evidence} == {
        REASON_CONDITION_II, REASON_NO_BASE_TRIPLE}
    assert max(len(o.solutions) for o in outcomes) > 1
    assert len(outcomes[-1].evidence) == 960
    envelope = {"schema_version": 3, "command": "decide"}
    for outcome in outcomes:
        expected = json.dumps(row_dict(outcome), indent=2, sort_keys=True)
        for indent in ("\n", "\n    ", "\n        "):
            assert _row_json(outcome, indent) == expected.replace("\n", indent), outcome.rc
        assert "".join(_outcome_pieces(outcome, envelope)) == json.dumps(
            envelope | outcome_dict(outcome), indent=2, sort_keys=True), outcome.rc


# every full scan of m 4..7, n1 < 60, whose rows come from the sieve and from decide
_SCAN_MODULI = [(m, n1) for m in range(4, 8) for n1 in range(2, 60) if gcd(m, n1) == 1]


def test_full_scan_document_matches_json_dumps_of_the_dict_form(capsys):
    # against the dict form built from each ScanReport
    envelope = {"schema_version": 3, "command": "scan"}
    reports = [scan_residues(m, n1) for m, n1 in _SCAN_MODULI]
    assert sum(len(r.admissible) for r in reports) > 100
    for report in reports:
        form = {"m": str(report.m), "n1": str(report.n1),
                "kl_pairs": [{"k": str(k), "l": str(l)} for k, l in report.kl_pairs],
                "admissible": [str(n0) for n0 in report.admissible],
                "summary": {key: str(v) for key, v in report.summary.items()},
                "rows": [row_dict(outcome) for _, outcome in report.rows]}
        code, out, _ = run(capsys, ["scan", "--m", str(report.m), "--n1", str(report.n1),
                                    "--format", "json"])
        assert code == 0
        assert out == json.dumps(envelope | form, indent=2, sort_keys=True) + "\n", report[:2]


def test_scan_rows_and_audit_witnesses_hold_only_what_varies_per_residue(capsys):
    # a scan states its (k, l) pairs once, an audit instance its prime's
    row_keys = {"evidence", "n0", "solutions", "status"}
    scans = {}
    for m, n1 in _SCAN_MODULI:
        code, out, _ = run(capsys, ["scan", "--m", str(m), "--n1", str(n1), "--format", "json"])
        assert code == 0
        scans[m, n1] = json.loads(out)
    assert scans[4, 13]["kl_pairs"] == [] and max(len(s["kl_pairs"]) for s in scans.values()) > 1
    for (m, n1), scan in scans.items():
        assert scan["kl_pairs"] == [{"k": str(k), "l": str(l)} for k, l in enumerate_kl(m, n1)]
        assert len(scan["rows"]) == sum(gcd(n0, n1) == 1 for n0 in range(1, n1))
        assert all(row.keys() == row_keys for row in scan["rows"]), (m, n1)
    witnesses = 0
    for corollary in ("i", "3", "4"):
        code, out, _ = run(capsys, ["audit", "--corollary", corollary, "--m", "5", "--bound", "60",
                                    "--format", "json"])
        assert code in (0, 3)
        for inst in json.loads(out)["instances"]:
            assert inst["kl_pairs"] == [{"k": str(k), "l": str(l)}
                                        for k, l in enumerate_kl(5, int(inst["p"]))]
            assert all(w.keys() == row_keys for w in inst["witnesses"])
            witnesses += len(inst["witnesses"])
    assert witnesses > 10


# Each format's renderers for decide, scan and audit: any one of them running
# for another format is wasted work.
_RENDERERS = {
    "json": ("_dumps", "_row_json", "_outcome_pieces"),
    "text": ("_outcome_text", "_scan_text", "_audit_text"),
    "csv": ("_decide_csv", "_scan_csv", "_audit_csv"),
}


@pytest.mark.parametrize("broken", sorted(_RENDERERS))
def test_each_format_runs_only_its_own_renderers(monkeypatch, broken):
    def refuse(*args, **kwargs):
        raise AssertionError(f"a {broken} renderer ran")

    for name in _RENDERERS[broken]:
        monkeypatch.setattr(cli, name, refuse)
    manifest = json.loads((GOLDEN_DIR / "manifest.json").read_text(encoding="utf-8"))
    names = [name for name in sorted(CASES) if name.split("-")[0] in ("decide", "scan", "audit")
             and not name.endswith("-" + broken)]
    assert len(names) >= 12
    for name in names:
        code, out, err = run_cli(manifest[name]["argv"])
        assert (code, err) == (manifest[name]["exit"], ""), name
        assert out == (GOLDEN_DIR / f"{name}.out").read_bytes().decode("utf-8"), name
