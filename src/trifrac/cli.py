"""Command-line frontend: decide, scan, base, family, audit, verify.

Output formats are text (default), json and csv.  Each command builds
its payload, text lines and CSV table once; ``_emit`` adds the JSON
envelope (``schema_version`` and ``command``) and writes the one format
asked for.  JSON serializes every mathematical integer as a decimal
string so arbitrary precision survives any consumer.  Exit codes: 0 the
run completed, 2 a precondition or parse error was rejected, 3 an audit or
verification found a discrepancy.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .base_solutions import enumerate_base_solutions
from .families import FamilySolution, RoleTriple, minus_family, plus_family
from .qpoly import _MAX_ARG_DIGITS, RationalPoly
from .scan_audit import (
    AuditReport,
    audit_condition_i,
    audit_corollary3,
    audit_corollary4,
    scan_residues,
)
from .theorem import (
    DecisionOutcome,
    PolyTriple,
    ResidueClass,
    analyze_degrees,
    decide,
    residual,
)

SCHEMA_VERSION = 2
DEFAULT_BOUND = 200

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_DISCREPANCY = 3


# ---------------------------------------------------------------- payloads

def _fields_json(record) -> dict:
    """A record's fields by name, each value as a string (a residue class's
    m/n0/n1, a parameter set's k/l/s/r, a role triple, an evidence line)."""
    return {name: str(v) for name, v in zip(record._fields, record)}


def _triple_json(pt: PolyTriple) -> dict:
    return {name: getattr(pt, name).to_coeff_strings() for name in "xyz"}


def _triple_text(pt: PolyTriple) -> list[str]:
    return [f"  {name} = {getattr(pt, name).format_text()}" for name in "xyz"]


def _triple_csv(tag: dict, pt: PolyTriple) -> list[dict]:
    return [{**tag, "poly": name, "degree": "" if p.degree is None else str(p.degree),
             **{f"c{i}": c for i, c in enumerate(p.to_coeff_strings())}}
            for name, p in zip("xyz", (pt.x, pt.y, pt.z))]


def _table(rows: list[dict]) -> list[list[str]]:
    """A header of every key in first-seen order, then each row padded with ""."""
    fields = list(dict.fromkeys(key for row in rows for key in row))
    return [fields] + [[row.get(key, "") for key in fields] for row in rows]


def _outcome_json(outcome: DecisionOutcome) -> dict:
    return {
        **_fields_json(outcome.rc),
        "status": outcome.status,
        "kl_pairs": [{"k": str(k), "l": str(l)} for k, l in outcome.kl_pairs],
        "solutions": [{"params": _fields_json(ps), **_triple_json(pt)}
                      for ps, pt in outcome.solutions],
        "evidence": [_fields_json(ev) for ev in outcome.evidence],
    }


def _outcome_text(outcome: DecisionOutcome) -> list[str]:
    rc = outcome.rc
    lines = [f"{rc.m}/({rc.n0} + {rc.n1}λ) = 1/x + 1/y + 1/z : {outcome.status}"]
    if outcome.kl_pairs:
        pairs = ", ".join(f"(k={k}, l={l})" for k, l in outcome.kl_pairs)
        lines.append(f"condition i admits: {pairs}")
    else:
        lines.append("condition i admits no (k, l); unsolvable for every residue")
    for i, (ps, pt) in enumerate(outcome.solutions, 1):
        lines.append(f"solution {i}: (k, l, s, r) = ({ps.k}, {ps.l}, {ps.s}, {ps.r})")
        lines += _triple_text(pt)
    for ev in outcome.evidence:
        lines.append(f"(k={ev.k}, l={ev.l}): family {ev.family}; {ev.reason}")
    return lines


def _json(value, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` over str-keyed dicts, lists,
    tuples, str, int, bool and None, escaping with the C ``encode_basestring_ascii``
    (json.dumps with an indent runs its pure-Python encoder); else TypeError.
    ``indent`` is the newline and spaces that start a line at this depth."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if isinstance(value, bool):  # before int: True == 1
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, dict):
        items = [f"{encode_basestring_ascii(k)}: {_json(v, inner)}"
                 for k, v in sorted(value.items())]
        return "{" + inner + ("," + inner).join(items) + indent + "}" if items else "{}"
    if isinstance(value, (list, tuple)):
        items = [_json(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]" if items else "[]"
    raise TypeError(f"{type(value).__name__} is not part of the JSON payload vocabulary")


def _emit(args, payload: dict, text_lines: list[str], csv_rows: list[list[str]]) -> None:
    """Write one format; ``csv_rows`` starts with its header row."""
    try:
        if args.format == "json":
            envelope = {"schema_version": SCHEMA_VERSION, "command": args.subcommand}
            print(_json(envelope | payload))
        elif args.format == "csv":
            csv.writer(sys.stdout).writerows(csv_rows)
        else:
            print("\n".join(text_lines))
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe early; that is not an error.  What is
        # still buffered goes to devnull so the flush at exit cannot fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


# ---------------------------------------------------------------- commands

def cmd_decide(args) -> int:
    outcome = decide(ResidueClass(args.m, args.n0, args.n1))
    csv_rows = [row for ps, pt in outcome.solutions
                for row in _triple_csv({"status": outcome.status, **_fields_json(ps)}, pt)]
    csv_rows = csv_rows or [{"status": outcome.status}]
    _emit(args, _outcome_json(outcome), _outcome_text(outcome), _table(csv_rows))
    return EXIT_OK


def cmd_base(args) -> int:
    triples = enumerate_base_solutions(args.m, args.n0)
    rows = [[str(t.a), str(t.b), str(t.c)] for t in triples]
    payload = {"m": str(args.m), "n0": str(args.n0), "triples": rows}
    text = [f"{args.m}/{args.n0} = 1/a + 1/b + 1/c : {len(triples)} solution(s)"]
    text += [f"  {{{t.a}, {t.b}, {t.c}}}" for t in triples]
    _emit(args, payload, text, [["a", "b", "c"], *rows])
    return EXIT_OK


def cmd_scan(args) -> int:
    residues = None
    if args.residues is not None:  # an empty list is an error, not a full scan
        residues = [int(tok) for tok in args.residues.split(",")]
    report = scan_residues(args.m, args.n1, residues=residues)
    payload = {
        "m": str(report.m),
        "n1": str(report.n1),
        "rows": [_outcome_json(row.outcome) for row in report.rows],
        "admissible": [str(n0) for n0 in report.admissible],
        "summary": {k: str(v) for k, v in report.summary.items()},
    }
    text = [f"scan m = {report.m}, modulus n1 = {report.n1}"]
    for row in report.rows:
        n_sol = len(row.outcome.solutions)
        suffix = f" ({n_sol} solution(s))" if n_sol else ""
        text.append(f"  n0 = {row.n0}: {row.outcome.status}{suffix}")
    text.append(f"admissible residues: {list(report.admissible)}")
    text.append(f"summary: {report.summary}")
    csv_rows = [["n0", "status", "solutions"]]
    csv_rows += [[str(row.n0), row.outcome.status, str(len(row.outcome.solutions))]
                 for row in report.rows]
    _emit(args, payload, text, csv_rows)
    return EXIT_OK


def cmd_family(args) -> int:
    rc = ResidueClass(args.m, args.n0, args.n1)
    base = [int(tok) for tok in args.base.split(",")]
    roles = [tok.strip() for tok in args.roles.split(",")]
    if len(base) != 3 or sorted(roles) != ["x0", "y0", "z0"]:
        raise ValueError("--base needs three integers and --roles a permutation of x0,y0,z0")
    assignment = dict(zip(roles, base))
    rt = RoleTriple(x0=assignment["x0"], y0=assignment["y0"], z0=assignment["z0"])
    fam: FamilySolution = (plus_family if args.branch == "plus" else minus_family)(rc, rt)
    pt = fam.triple
    payload = {
        **_fields_json(rc),
        **_triple_json(pt),
        "branch": fam.branch,
        "roles": _fields_json(rt),
        "integral": fam.integral,
        "degenerate": fam.degenerate,
    }
    text = [f"{fam.branch} family at (x0, y0, z0) = ({rt.x0}, {rt.y0}, {rt.z0})",
            *_triple_text(pt), f"  integer coefficients: {'yes' if fam.integral else 'no'}"]
    tag = {"branch": fam.branch, "integral": str(fam.integral).lower()}
    _emit(args, payload, text, _table(_triple_csv(tag, pt)))
    return EXIT_OK


def cmd_audit(args) -> int:
    runner = {
        "i": audit_condition_i,
        "3": audit_corollary3,
        "4": audit_corollary4,
    }[args.corollary]
    report: AuditReport = runner(args.m, args.bound)
    payload = {
        "audit": report.audit,
        "m": str(report.m),
        "bound": str(report.bound),
        "has_discrepancy": report.has_discrepancy,
        "instances": [
            {
                "p": str(inst.prime),
                "verdict": inst.verdict,
                "detail": inst.detail,
                "kl_pairs": [{"k": str(k), "l": str(l)} for k, l in inst.kl_pairs],
                "witnesses": [_outcome_json(w) for w in inst.witnesses],
            }
            for inst in report.instances
        ],
    }
    text = [f"audit {report.audit}, m = {report.m}, primes <= {report.bound}"]
    for inst in report.instances:
        text.append(f"  p = {inst.prime}: {inst.verdict} ({inst.detail})")
    text.append("discrepancies found" if report.has_discrepancy else "all consistent")
    csv_rows = [["p", "verdict", "detail"]]
    csv_rows += [[str(inst.prime), inst.verdict, inst.detail] for inst in report.instances]
    _emit(args, payload, text, csv_rows)
    return EXIT_DISCREPANCY if report.has_discrepancy else EXIT_OK


def _load_triple(path: str) -> PolyTriple:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON at line {exc.lineno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise ValueError(f"{path}: JSON nested too deeply") from exc
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: top-level JSON value must be an object with fields x, y, z")
    polys = {}
    for name in ("x", "y", "z"):
        if name not in raw:
            raise ValueError(f"{path}: missing field {name!r}")
        coeffs = raw[name]
        if not isinstance(coeffs, list) or not all(isinstance(c, str) for c in coeffs):
            raise ValueError(f"{path}: field {name!r} must be a list of coefficient strings")
        try:
            polys[name] = RationalPoly.from_coeff_strings(coeffs)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"{path}: field {name!r}: {exc}") from exc
        if polys[name].is_zero():
            raise ValueError(f"{path}: field {name!r} is the zero polynomial")
    return PolyTriple(x=polys["x"], y=polys["y"], z=polys["z"])


def cmd_verify(args) -> int:
    rc = ResidueClass(args.m, args.n0, args.n1)
    pt = _load_triple(args.file)
    res = residual(rc, pt)
    holds = res.is_zero()
    integral = {name: getattr(pt, name).is_positive_integral() for name in ("x", "y", "z")}
    ok = holds and all(integral.values())
    payload = {
        **_fields_json(rc),
        "verified": ok,
        "identity_holds": holds,
        "integral": integral,
        "degrees": {name: str(getattr(pt, name).degree) for name in ("x", "y", "z")},
    }
    if ok:
        report = analyze_degrees(rc, pt)
        payload["degree_pattern"] = [str(d) for d in report.degrees]
        payload["aux_degree"] = str(report.aux_degree)
        text = ["verified", f"degree pattern: {list(report.degrees)}"]
    else:
        text = []
        if not holds:
            payload["residual"] = res.to_coeff_strings()
            text.append("identity fails")
            text.append(f"residual m*x*y*z - n*(xy + xz + yz) = {res.format_text()}")
        bad = [name for name, good in integral.items() if not good]
        if bad:
            text.append(f"not positive-integral: {', '.join(bad)}")
        if not text:
            text.append("verification failed")
    _emit(args, payload, text, _table(_triple_csv({"verified": str(ok).lower()}, pt)))
    return EXIT_OK if ok else EXIT_DISCREPANCY


# ---------------------------------------------------------------- parser

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trifrac",
        description="Integer polynomial solutions of m/(n0 + n1*t) = 1/x + 1/y + 1/z",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("text", "json", "csv"), default="text")

    def add_ints(p, flags):
        for flag in flags:
            p.add_argument(flag, type=int, required=True)

    residue_class = ("--m", "--n0", "--n1")
    p = sub.add_parser("decide", help="decide one residue class and construct all solutions")
    add_ints(p, residue_class)
    add_format(p)
    p.set_defaults(func=cmd_decide)

    p = sub.add_parser("base", help="enumerate positive triples with 1/a + 1/b + 1/c = m/n0")
    add_ints(p, residue_class[:2])
    add_format(p)
    p.set_defaults(func=cmd_base)

    p = sub.add_parser("scan", help="run decide over every residue coprime to the modulus")
    add_ints(p, ("--m", "--n1"))
    p.add_argument("--residues", help="comma-separated subset of residues to scan")
    add_format(p)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("family", help="build the plus or minus rational family from a base triple")
    add_ints(p, residue_class)
    p.add_argument("--base", required=True, help="three members, e.g. 2,7,14")
    p.add_argument("--roles", default="x0,y0,z0",
                   help="role of each --base entry, a permutation of x0,y0,z0")
    p.add_argument("--branch", choices=("plus", "minus"), required=True)
    add_format(p)
    p.set_defaults(func=cmd_family)

    p = sub.add_parser("audit", help="audit the exclusion rules empirically")
    p.add_argument("--corollary", choices=("i", "3", "4"), required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--bound", type=int, default=DEFAULT_BOUND)
    add_format(p)
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("verify", help="verify an externally supplied polynomial triple")
    add_ints(p, residue_class)
    p.add_argument("--file", required=True, help="JSON file with x, y, z coefficient strings")
    add_format(p)
    p.set_defaults(func=cmd_verify)

    return parser


def _check_digits(args) -> None:
    """Refuse an --m, --n0 or --n1 of more than _MAX_ARG_DIGITS digits."""
    for flag in ("m", "n0", "n1"):
        value = getattr(args, flag, None)
        if value is not None and abs(value) >= 10**_MAX_ARG_DIGITS:
            raise ValueError(f"--{flag} has {len(str(abs(value)))} digits; "
                             f"at most {_MAX_ARG_DIGITS} are accepted")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_digits(args)
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
