"""Byte-for-byte CLI transcripts.

``tests/golden/manifest.json`` maps each case name to its argv and exit
code; ``tests/golden/<name>.out`` holds its exact stdout.  Every case runs
with ``tests/golden`` as the working directory, so ``verify --file`` reads
its ``<case>.in.json`` input from there.  Any change to rendering, solution
order, evidence strings or verification reports fails here.  Regenerate
only when an output change is intended:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

from trifrac.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"

CASES = {}
for _m, _n0, _n1 in ((5, 7, 9), (5, 7, 19), (5, 23, 29)):
    for _fmt in ("json", "text", "csv"):
        CASES[f"decide-{_m}-{_n0}-{_n1}-{_fmt}"] = [
            "decide", "--m", str(_m), "--n0", str(_n0), "--n1", str(_n1), "--format", _fmt]
for _m, _n1 in ((5, 29), (7, 55)):
    for _fmt in ("json", "text", "csv"):
        CASES[f"scan-{_m}-{_n1}-{_fmt}"] = [
            "scan", "--m", str(_m), "--n1", str(_n1), "--format", _fmt]
# the base triple {2, 5, 70} of 5/7 in the default roles and rotated
for _branch in ("plus", "minus"):
    for _roles, _extra in (("xyz", []), ("zxy", ["--roles", "z0,x0,y0"])):
        for _fmt in ("json", "text", "csv"):
            CASES[f"family-5-7-9-{_branch}-{_roles}-{_fmt}"] = [
                "family", "--m", "5", "--n0", "7", "--n1", "9", "--base", "2,5,70",
                *_extra, "--branch", _branch, "--format", _fmt]
CASES["base-5-7-text"] = ["base", "--m", "5", "--n0", "7"]
for _fmt in ("json", "csv"):
    CASES[f"base-5-7-{_fmt}"] = ["base", "--m", "5", "--n0", "7", "--format", _fmt]
for _corollary in ("3", "i", "4"):
    for _fmt in ("json", "text", "csv"):
        CASES[f"audit-{_corollary}-5-60-{_fmt}"] = [
            "audit", "--corollary", _corollary, "--m", "5", "--bound", "60", "--format", _fmt]
# m = 7 audits with several solvable residues per prime
CASES["audit-3-7-300-json"] = ["audit", "--corollary", "3", "--m", "7", "--bound", "300", "--format", "json"]
CASES["audit-i-7-300-csv"] = ["audit", "--corollary", "i", "--m", "7", "--bound", "300", "--format", "csv"]
# a solution, a triple off the identity, and rational triples on and off it
for _kind in ("pass", "fail", "rational", "rational-fail"):
    for _fmt in ("json", "text", "csv"):
        CASES[f"verify-5-7-9-{_kind}-{_fmt}"] = [
            "verify", "--m", "5", "--n0", "7", "--n1", "9",
            "--file", f"verify-5-7-9-{_kind}.in.json", "--format", _fmt]


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(GOLDEN_DIR)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    return code, out.getvalue(), err.getvalue()


def _manifest() -> dict:
    return json.loads((GOLDEN_DIR / "manifest.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_transcript_matches_golden(name):
    case = _manifest()[name]
    assert case["argv"] == CASES[name]
    code, out, err = run_cli(case["argv"])
    assert code == case["exit"]
    assert err == ""
    assert out == (GOLDEN_DIR / f"{name}.out").read_bytes().decode("utf-8")


@pytest.mark.parametrize("name", sorted(name for name in CASES if name.endswith("-json")))
def test_json_golden_is_what_json_dumps_writes(name):
    text = (GOLDEN_DIR / f"{name}.out").read_bytes().decode("utf-8")
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


def test_manifest_and_files_match_cases():
    assert sorted(_manifest()) == sorted(CASES)
    inputs = {tok for argv in CASES.values() for tok in argv if tok.endswith(".in.json")}
    owned = {f"{name}.out" for name in CASES} | inputs
    assert sorted(p.name for p in GOLDEN_DIR.iterdir() if p.name != "manifest.json") == sorted(owned)


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    manifest = {}
    for name, argv in CASES.items():
        code, out, _ = run_cli(argv)
        manifest[name] = {"argv": argv, "exit": code}
        (GOLDEN_DIR / f"{name}.out").write_bytes(out.encode("utf-8"))
    (GOLDEN_DIR / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
