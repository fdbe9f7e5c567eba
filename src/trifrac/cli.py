"""Command-line frontend: decide, scan, base, family, audit, verify.

Output formats are text (default), json and csv.  Each command hands ``_emit``
one renderer per format, and only the one ``--format`` asks for runs.  JSON is
what ``json.dumps(indent=2, sort_keys=True)`` writes, under an envelope
(``schema_version`` and ``command``); outcomes and audit instances are filled
into templates of their shape, and scan and audit rows, evidence and (k, l)
items and text lines are written one at a time.  A scan or audit row holds only
what varies per residue (n0, status, solutions, evidence): m, the modulus and
its (k, l) pairs are stated once, above the rows.  Every mathematical integer is
a decimal string so arbitrary precision survives any consumer.  Exit codes: 0
the run completed, 2 a precondition or parse error was rejected, 3 an audit or
verification found a discrepancy.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from itertools import chain
from json.encoder import encode_basestring_ascii as _escape

from .base_solutions import enumerate_base_solutions
from .families import FamilySolution, RoleTriple, minus_family, plus_family
from .qpoly import _MAX_ARG_DIGITS, MAX_FILE_BYTES, RationalPoly
from .scan_audit import (AuditReport, ScanReport, audit_condition_i, audit_corollary3,
                         audit_corollary4, scan_residues)
from .theorem import (REASON_CONDITION_II, REASON_NO_BASE_TRIPLE, DecisionOutcome, PolyTriple,
                      ResidueClass, analyze_degrees, decide, residual)

SCHEMA_VERSION = 3
DEFAULT_BOUND = 200

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_DISCREPANCY = 3


# ---------------------------------------------------------------- payloads

def _fields_json(record) -> dict:
    """A record's fields by name, each value as a string (m/n0/n1, k/l/s/r, x0/y0/z0)."""
    return {name: str(v) for name, v in zip(record._fields, record)}


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


# Every JSON document the CLI writes is ``_dumps`` of its dict form.
_dumps = functools.partial(json.dumps, indent=2, sort_keys=True)
# ``_dumps`` of the string "\0", the hole that ``_splice`` fills with a list of items.
_HOLE = _dumps("\0")

# Evidence, (k, l) and solution items of an outcome, a scan row or audit witness (what varies
# per residue), decide's outcome with its envelope members in their sorted places, and an audit
# instance, as ``_dumps`` lays them out in an object at depth 0; decimal strings go in without
# escaping.
_KL_PAIR = '{\n      "k": "%s",\n      "l": "%s"\n    }'
_EVIDENCE = ('{\n      "family": %s,\n      "k": "%s",\n      "l": "%s",\n      "r0": "%s",'
             '\n      "reason": %s,\n      "s0": "%s"\n    }')
_SOLUTION = ('{\n      "params": {\n        "k": "%s",\n        "l": "%s",\n        "r": "%s",'
             '\n        "s": "%s"\n      },\n      "x": %s,\n      "y": %s,\n      "z": %s\n    }')
_ROW = '{\n  "evidence": %s,\n  "n0": "%s",\n  "solutions": %s,\n  "status": %s\n}'
_DECIDE_OUTCOME = ('{\n  "command": "decide",\n  "evidence": %s,\n  "kl_pairs": %s,\n  "m": "%s",'
                   f'\n  "n0": "%s",\n  "n1": "%s",\n  "schema_version": {SCHEMA_VERSION},'
                   '\n  "solutions": %s,\n  "status": %s\n}')
_INSTANCE = ('{\n  "detail": %s,\n  "kl_pairs": %s,\n  "p": "%s",\n  "verdict": %s,'
             '\n  "witnesses": %s\n}')
# Every status and evidence reason, escaped once.
_ESCAPED = {text: _escape(text) for text in
            ("solvable", "unsolvable", REASON_CONDITION_II, REASON_NO_BASE_TRIPLE)}


def _evidence_json(ev, template: str = _EVIDENCE) -> str:
    return template % (_escape(ev.family), ev.k, ev.l, ev.r0, _ESCAPED[ev.reason], ev.s0)


def _solutions_json(outcome: DecisionOutcome) -> str:
    if not outcome.solutions:
        return "[]"
    solutions = [_SOLUTION % (ps.k, ps.l, ps.r, ps.s, *(_wrap("[]", list(map(
        _escape, p.to_coeff_strings())), "\n      ") for p in pt)) for ps, pt in outcome.solutions]
    return _wrap("[]", solutions, "\n  ")


@functools.cache
def _row_layout(indent: str) -> tuple[str, ...]:
    """``_ROW``, ``_EVIDENCE`` and the head, separator and tail of a row's evidence list,
    with ``indent`` for each newline."""
    return tuple(t.replace("\n", indent) for t in (_ROW, _EVIDENCE, "[\n    ", ",\n    ", "\n  ]"))


def _row_json(outcome: DecisionOutcome, indent: str = "\n") -> str:
    """``_dumps`` of an outcome's row form (a scan row or an audit witness), laid out
    with ``indent`` for each newline (strings hold no raw newline)."""
    row, evidence, head, sep, tail = _row_layout(indent)
    items = sep.join([_evidence_json(ev, evidence) for ev in outcome.evidence])
    return row % (head + items + tail if items else "[]", outcome.rc.n0,
                  _solutions_json(outcome).replace("\n", indent), _ESCAPED[outcome.status])


def _outcome_pieces(outcome: DecisionOutcome, _envelope: dict):
    """``_DECIDE_OUTCOME`` (envelope included) filled in pieces, one an evidence or (k, l) item."""
    text = _DECIDE_OUTCOME % (_HOLE, _HOLE, *outcome.rc, _solutions_json(outcome),
                              _ESCAPED[outcome.status])
    return _splice(text, map(_evidence_json, outcome.evidence),
                   map(_KL_PAIR.__mod__, outcome.kl_pairs))


def _splice(text: str, *lists):
    """``text`` in pieces, its ``_HOLE``s replaced in turn by the ``lists`` of items:
    lists in an object at depth 0, items laid out at depth 2."""
    head, *tails = text.split(_HOLE)
    yield head
    for items, tail in zip(lists, tails):
        sep = "[\n    "
        for item in items:
            yield sep + item
            sep = ",\n    "
        yield ("[]" if sep == "[\n    " else "\n  ]") + tail


def _stream(payload: dict, key: str, items):
    """``_dumps(payload)`` in pieces, ``payload[key]`` the list of laid-out ``items``."""
    return _splice(_dumps(payload | {key: "\0"}), items)


def _outcome_text(outcome: DecisionOutcome):
    rc = outcome.rc
    yield f"{rc.m}/({rc.n0} + {rc.n1}λ) = 1/x + 1/y + 1/z : {outcome.status}"
    if outcome.kl_pairs:
        yield ((", " if i else "condition i admits: ") + f"(k={k}, l={l})"  # in pieces
               for i, (k, l) in enumerate(outcome.kl_pairs))
    else:
        yield "condition i admits no (k, l); unsolvable for every residue"
    for i, (ps, pt) in enumerate(outcome.solutions, 1):
        yield f"solution {i}: (k, l, s, r) = ({ps.k}, {ps.l}, {ps.s}, {ps.r})"
        yield from _triple_text(pt)
    for ev in outcome.evidence:
        yield f"(k={ev.k}, l={ev.l}): family {ev.family}; {ev.reason}"


def _wrap(ends: str, items: list[str], indent: str) -> str:
    """Rendered ``items`` between ``ends``, one a line at ``indent`` + 2 spaces."""
    inner = indent + "  "
    return ends[0] + inner + ("," + inner).join(items) + indent + ends[1] if items else ends


def _decide_csv(outcome: DecisionOutcome) -> list[list[str]]:
    rows = [row for ps, pt in outcome.solutions
            for row in _triple_csv({"status": outcome.status, **_fields_json(ps)}, pt)]
    return _table(rows or [{"status": outcome.status}])


def _scan_json(report: ScanReport, envelope: dict):
    payload = envelope | {"m": str(report.m), "n1": str(report.n1),
                          "kl_pairs": [{"k": str(k), "l": str(l)} for k, l in report.kl_pairs],
                          "admissible": list(map(str, report.admissible)),
                          "summary": {k: str(v) for k, v in report.summary.items()}}
    return _stream(payload, "rows", (_row_json(outcome, "\n    ") for _, outcome in report.rows))


def _scan_text(report: ScanReport) -> list[str]:
    lines = [f"scan m = {report.m}, modulus n1 = {report.n1}"]
    for n0, o in report.rows:
        n_sol = len(o.solutions)
        lines.append(f"  n0 = {n0}: {o.status}" + (f" ({n_sol} solution(s))" if n_sol else ""))
    return lines + [f"admissible residues: {list(report.admissible)}", f"summary: {report.summary}"]


def _scan_csv(report: ScanReport) -> list[list[str]]:
    return [["n0", "status", "solutions"],
            *([str(n0), o.status, str(len(o.solutions))] for n0, o in report.rows)]


def _audit_json(report: AuditReport, envelope: dict):
    payload = envelope | {"audit": report.audit, "m": str(report.m), "bound": str(report.bound),
                          "has_discrepancy": report.has_discrepancy}
    return _stream(payload, "instances", ((_INSTANCE % (
        _escape(inst.detail), _wrap("[]", list(map(_KL_PAIR.__mod__, inst.kl_pairs)), "\n  "),
        inst.prime, _escape(inst.verdict),
        _wrap("[]", [_row_json(w, "\n    ") for w in inst.witnesses], "\n  "))
    ).replace("\n", "\n    ") for inst in report.instances))


def _audit_text(report: AuditReport) -> list[str]:
    return [f"audit {report.audit}, m = {report.m}, primes <= {report.bound}",
            *(f"  p = {inst.prime}: {inst.verdict} ({inst.detail})" for inst in report.instances),
            "discrepancies found" if report.has_discrepancy else "all consistent"]


def _audit_csv(report: AuditReport) -> list[list[str]]:
    return [["p", "verdict", "detail"],
            *([str(inst.prime), inst.verdict, inst.detail] for inst in report.instances)]


def _emit(args, json_pieces, text_lines, csv_rows) -> None:
    """Write what the one renderer ``--format`` asks for gives: ``json_pieces(envelope)``
    the JSON text in pieces, ``text_lines()`` lines (one that is no str in the pieces it
    gives), ``csv_rows()`` rows, header first."""
    try:
        if args.format == "json":
            envelope = {"schema_version": SCHEMA_VERSION, "command": args.subcommand}
            sys.stdout.writelines(json_pieces(envelope))
            sys.stdout.write("\n")
        elif args.format == "csv":
            import csv  # only a CSV run loads it, which keeps every cold start shorter
            csv.writer(sys.stdout).writerows(csv_rows())
        else:
            for line in text_lines():
                sys.stdout.writelines((line, "\n") if isinstance(line, str) else chain(line, "\n"))
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe early; that is not an error.  What is
        # still buffered goes to devnull so the flush at exit cannot fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


# ---------------------------------------------------------------- commands

def cmd_decide(args) -> int:
    outcome = decide(ResidueClass(args.m, args.n0, args.n1))
    _emit(args, functools.partial(_outcome_pieces, outcome),
          functools.partial(_outcome_text, outcome), functools.partial(_decide_csv, outcome))
    return EXIT_OK


def cmd_base(args) -> int:
    triples = enumerate_base_solutions(args.m, args.n0)
    rows = [[str(t.a), str(t.b), str(t.c)] for t in triples]
    payload = {"m": str(args.m), "n0": str(args.n0), "triples": rows}
    _emit(args, lambda envelope: [_dumps(envelope | payload)],
          lambda: [f"{args.m}/{args.n0} = 1/a + 1/b + 1/c : {len(triples)} solution(s)",
                   *(f"  {{{t.a}, {t.b}, {t.c}}}" for t in triples)],
          lambda: [["a", "b", "c"], *rows])
    return EXIT_OK


def cmd_scan(args) -> int:
    # an empty --residues is an error, not a full scan
    residues = None if args.residues is None else [int(tok) for tok in args.residues.split(",")]
    report = scan_residues(args.m, args.n1, residues=residues)
    _emit(args, functools.partial(_scan_json, report), functools.partial(_scan_text, report),
          functools.partial(_scan_csv, report))
    return EXIT_OK


def cmd_family(args) -> int:
    rc = ResidueClass(args.m, args.n0, args.n1)
    base = [int(tok) for tok in args.base.split(",")]
    roles = [tok.strip() for tok in args.roles.split(",")]
    if len(base) != 3 or sorted(roles) != ["x0", "y0", "z0"]:
        raise ValueError("--base needs three integers and --roles a permutation of x0,y0,z0")
    rt = RoleTriple(**dict(zip(roles, base)))
    fam: FamilySolution = (plus_family if args.branch == "plus" else minus_family)(rc, rt)
    pt = fam.triple
    _emit(args,
          lambda envelope: [_dumps(envelope | _fields_json(rc) | {
              **{name: getattr(pt, name).to_coeff_strings() for name in "xyz"},
              "branch": fam.branch, "roles": _fields_json(rt),
              "integral": fam.integral, "degenerate": fam.degenerate})],
          lambda: [f"{fam.branch} family at (x0, y0, z0) = ({rt.x0}, {rt.y0}, {rt.z0})",
                   *_triple_text(pt), f"  integer coefficients: {'yes' if fam.integral else 'no'}"],
          lambda: _table(_triple_csv({"branch": fam.branch,
                                      "integral": str(fam.integral).lower()}, pt)))
    return EXIT_OK


def cmd_audit(args) -> int:
    runner = {"i": audit_condition_i, "3": audit_corollary3, "4": audit_corollary4}[args.corollary]
    report = runner(args.m, args.bound)
    _emit(args, functools.partial(_audit_json, report), functools.partial(_audit_text, report),
          functools.partial(_audit_csv, report))
    return EXIT_DISCREPANCY if report.has_discrepancy else EXIT_OK


def _load_triple(path: str) -> PolyTriple:
    with open(path, "rb") as file:  # read no further than the cap, even from /dev/zero
        data = file.read(MAX_FILE_BYTES + 1)
    if len(data) > MAX_FILE_BYTES:
        raise ValueError(f"{path}: longer than the {MAX_FILE_BYTES} bytes accepted")
    try:
        raw = json.loads(data.decode("utf-8"))
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
    report = analyze_degrees(rc, pt) if ok else None

    def payload(envelope: dict) -> list[str]:
        out = envelope | _fields_json(rc) | {
            "verified": ok, "identity_holds": holds, "integral": integral,
            "degrees": {name: str(getattr(pt, name).degree) for name in "xyz"}}
        if ok:
            out |= {"degree_pattern": [str(d) for d in report.degrees],
                    "aux_degree": str(report.aux_degree)}
        elif not holds:
            out["residual"] = res.to_coeff_strings()
        return [_dumps(out)]

    def text() -> list[str]:
        if ok:
            return ["verified", f"degree pattern: {list(report.degrees)}"]
        lines = [] if holds else ["identity fails",
                                  f"residual m*x*y*z - n*(xy + xz + yz) = {res.format_text()}"]
        bad = [name for name, good in integral.items() if not good]
        if bad:
            lines.append(f"not positive-integral: {', '.join(bad)}")
        return lines or ["verification failed"]

    _emit(args, payload, text, lambda: _table(_triple_csv({"verified": str(ok).lower()}, pt)))
    return EXIT_OK if ok else EXIT_DISCREPANCY


# ---------------------------------------------------------------- parser

_MN = ("--m", "--n0", "--n1")
_COMMANDS = {  # name: function, its integer options and its line in the top-level help
    "decide": (cmd_decide, _MN, "decide one residue class and construct all solutions"),
    "base": (cmd_base, _MN[:2], "enumerate positive triples with 1/a + 1/b + 1/c = m/n0"),
    "scan": (cmd_scan, ("--m", "--n1"),
             "decide every residue coprime to the modulus (or --residues)"),
    "family": (cmd_family, _MN, "build the plus or minus rational family from a base triple"),
    "audit": (cmd_audit, (), "audit the exclusion rules empirically"),
    "verify": (cmd_verify, _MN, "verify an externally supplied polynomial triple"),
}


def _command(p: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    """Give ``p`` command ``name``'s arguments, as its own parser and as a subparser."""
    func, ints, _ = _COMMANDS[name]
    p.set_defaults(subcommand=name, func=func)
    for flag in ints:
        p.add_argument(flag, type=int, required=True)
    if name == "scan":
        p.add_argument("--residues", help="comma-separated subset of residues to scan")
    elif name == "family":
        p.add_argument("--base", required=True, help="three members, e.g. 2,7,14")
        p.add_argument("--roles", default="x0,y0,z0",
                       help="role of each --base entry, a permutation of x0,y0,z0")
        p.add_argument("--branch", choices=("plus", "minus"), required=True)
    elif name == "audit":
        p.add_argument("--corollary", choices=("i", "3", "4"), required=True)
        p.add_argument("--m", type=int, required=True)
        p.add_argument("--bound", type=int, default=DEFAULT_BOUND)
    elif name == "verify":
        p.add_argument("--file", required=True, help="JSON file with x, y, z coefficient strings")
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    return p


@functools.cache
def _command_parser(name: str) -> argparse.ArgumentParser:
    return _command(argparse.ArgumentParser(prog="trifrac " + name), name)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="trifrac", description=(
        "Integer polynomial solutions of m/(n0 + n1*t) = 1/x + 1/y + 1/z"))
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (*_, help) in _COMMANDS.items():
        _command(sub.add_parser(name, help=help), name)
    return parser


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """What ``build_parser().parse_args(argv)`` gives, with a named command's own parser;
    the full tree parses only the top-level help and errors and reports leftovers."""
    if argv and argv[0] in _COMMANDS:
        args, extra = _command_parser(argv[0]).parse_known_args(argv[1:])
        if not extra:
            return args
    return build_parser().parse_args(argv)


def _check_digits(args) -> None:
    """Refuse an --m, --n0 or --n1 of more than _MAX_ARG_DIGITS digits."""
    for flag in ("m", "n0", "n1"):
        value = getattr(args, flag, None)
        if value is not None and abs(value) >= 10**_MAX_ARG_DIGITS:
            raise ValueError(f"--{flag} has {len(str(abs(value)))} digits; "
                             f"at most {_MAX_ARG_DIGITS} are accepted")


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    try:
        _check_digits(args)
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except MemoryError:
        pass  # reported once the handler ends: its traceback holds what was built
    print("error: out of memory", file=sys.stderr)
    return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
