from __future__ import annotations

import contextlib
import csv
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from trifrac.base_solutions import MAX_BASE_WALKS, enumerate_base_solutions
from trifrac.cli import main
from trifrac.intmath import FACTOR_LIMIT
from trifrac.qpoly import MAX_COEFFS
from trifrac.scan_audit import MAX_AUDIT_BOUND, MAX_SCAN_MODULUS

GOLDEN = ["decide", "--m", "5", "--n0", "7", "--n1", "9"]


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_decide_json_golden(capsys):
    code, out, _ = run(capsys, GOLDEN + ["--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["schema_version"] == 1
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
    (search,) = payload["family_search"]
    assert search["found"] is None
    assert search["t_max"] == "10000"


def test_decide_rejects_invalid_instance(capsys):
    code, _, err = run(capsys, ["decide", "--m", "3", "--n0", "7", "--n1", "9"])
    assert code == 2
    assert "m must be >= 4" in err


@pytest.mark.parametrize("n1", ["9", "19"])  # solvable, unsolvable
def test_decide_rejects_negative_t_max(capsys, n1):
    code, out, err = run(capsys, ["decide", "--m", "5", "--n0", "7", "--n1", n1,
                                  "--t-max", "-1"])
    assert code == 2 and out == ""
    assert "--t-max must be >= 0" in err


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


def test_scan_json_and_parallel_determinism(capsys):
    code, out1, _ = run(capsys, ["scan", "--m", "5", "--n1", "9", "--format", "json"])
    assert code == 0
    code, out2, _ = run(capsys, ["scan", "--m", "5", "--n1", "9", "--format", "json",
                                 "--jobs", "3"])
    assert code == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["admissible"] == ["4", "7", "8"]
    for jobs in ("0", "-3"):
        code, out, err = run(capsys, ["scan", "--m", "5", "--n1", "9", "--jobs", jobs])
        assert code == 2 and out == ""
        assert "--jobs must be >= 1" in err


@pytest.mark.parametrize("n1", ["1000000000007", str(MAX_SCAN_MODULUS + 1)])
def test_full_scan_beyond_limit_exits_2(capsys, n1):
    # rejected before the residue list is built, so this needs no memory cap
    code, out, err = run(capsys, ["scan", "--m", "5", "--n1", n1, "--format", "json"])
    assert code == 2 and out == ""
    assert err.startswith(f"error: a full scan needs n1 <= {MAX_SCAN_MODULUS}")
    assert len(err.splitlines()) == 1


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
])
def test_verify_rejects_malformed_file(capsys, tmp_path, content):
    triple_file = tmp_path / "triple.json"
    triple_file.write_text(content, encoding="utf-8")
    code, out, err = run(capsys, ["verify", "--m", "5", "--n0", "7", "--n1", "9",
                                  "--file", str(triple_file)])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


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


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


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


_FUZZ_ARGV = st.one_of(
    st.tuples(st.just("decide"), st.just("--m"), _M, st.just("--n0"), _ints(-3, 199),
              st.just("--n1"), _ints(-3, 199), st.just("--t-max"), _ints(-2, 30)),
    st.tuples(st.just("scan"), st.just("--m"), _M, st.just("--n1"), _ints(-3, 40),
              st.just("--jobs"), _ints(-1, 4)),
    st.tuples(st.just("base"), st.just("--m"), _M, st.just("--n0"), _ints(-3, 199)),
    st.tuples(st.just("audit"), st.just("--corollary"), st.sampled_from(["i", "3", "4"]),
              st.just("--m"), _M, st.just("--bound"), _ints(-3, 59)),
).map(list) | _family_argv()


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
