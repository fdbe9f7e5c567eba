"""Regenerate bench/reference.json: the inputs the workloads draw from and
the answers they must produce.

    python3 bench/make_reference.py

Every answer is computed by the stdlib oracle in ``oracle.py`` and then
cross-checked against trifrac; the script stops at the first disagreement.
It takes under a minute.
"""

from __future__ import annotations

import json
import math
import random
import sys
from pathlib import Path

import oracle
import spec

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import trifrac  # noqa: E402


def require(ok: bool, what) -> None:
    if not ok:
        raise SystemExit(f"oracle and trifrac disagree: {what}")


def trifrac_params(outcome) -> list[tuple[int, int, int, int]]:
    return sorted((ps.k, ps.l, ps.s, ps.r) for ps, _ in outcome.solutions)


def scan_reference() -> dict:
    moduli: dict[str, dict] = {}
    for m, (lo, hi) in spec.SCAN_MODULI.items():
        primes = [p for p in oracle.primes_up_to(hi) if p >= lo and (p + 1) % m == 0]
        moduli[str(m)] = {}
        for p in primes + [spec.SCAN_TINY[m]]:
            certs = oracle.kl_certificates(m, p)
            require(bool(certs), f"no (k, l) for scan modulus {p}, m = {m}")
            answers = {n0: oracle.solve_class(n0, p, certs) for n0 in range(1, p)}
            report = trifrac.scan_residues(m, p)
            got = {row.n0: trifrac_params(row.outcome) for row in report.rows}
            require(got == answers, f"scan m = {m}, n1 = {p}")
            moduli[str(m)][str(p)] = {str(n0): sols for n0, sols in answers.items() if sols}
            print(f"scan m={m} p={p}: {len(moduli[str(m)][str(p)])} solvable", flush=True)
    return moduli


def audit_corollary3(m: int, bound: int) -> list[dict]:
    out = []
    for p in oracle.primes_up_to(bound):
        if p % 4 != 1 or math.gcd(p, m) != 1:
            continue
        certs = oracle.kl_certificates(m, p)
        witnesses = {}
        if certs:
            for n0 in range(1, p):
                sols = oracle.solve_class(n0, p, certs)
                if sols:
                    witnesses[str(n0)] = sols
        out.append({"p": p, "verdict": "discrepancy" if witnesses else "consistent",
                    "kl": [[k, l] for k, l, _ in certs], "witnesses": witnesses})
    return out


def audit_condition_i(m: int, bound: int) -> list[dict]:
    out = []
    for p in oracle.primes_up_to(bound):
        if math.gcd(p, m) != 1:
            continue
        certs = oracle.kl_certificates(m, p)
        witnesses = {}
        for n0 in range(1, p):
            sols = oracle.solve_class(n0, p, certs)
            if sols:
                witnesses[str(n0)] = sols
                break
        verdict = "discrepancy" if witnesses and p % 4 != 3 else "consistent"
        out.append({"p": p, "verdict": verdict, "kl": [[k, l] for k, l, _ in certs],
                    "witnesses": witnesses})
    return out


def audit_matches(expected: list[dict], report) -> bool:
    got = [{"p": inst.prime, "verdict": inst.verdict, "kl": [list(kl) for kl in inst.kl_pairs],
            "witnesses": {str(w.rc.n0): trifrac_params(w) for w in inst.witnesses}}
           for inst in report.instances]
    return json.loads(json.dumps(got)) == json.loads(json.dumps(expected))


def audit_reference() -> dict:
    c3 = audit_corollary3(spec.AUDIT_C3["m"], spec.AUDIT_C3["bound"][1])
    require(audit_matches(c3, trifrac.audit_corollary3(spec.AUDIT_C3["m"], spec.AUDIT_C3["bound"][1])),
            "corollary-3 audit")
    ci = audit_condition_i(spec.AUDIT_CI["m"], spec.AUDIT_CI["bound"][1])
    require(audit_matches(ci, trifrac.audit_condition_i(spec.AUDIT_CI["m"], spec.AUDIT_CI["bound"][1])),
            "condition-i audit")
    print(f"audits: {len(c3)} corollary-3 and {len(ci)} condition-i instances")
    return {"c3": c3, "ci": ci}


def decide_entry(m: int, n0: int, n1: int) -> list:
    certs = oracle.kl_certificates(m, n1)
    sols = oracle.solve_class(n0, n1, certs)
    require(trifrac_params(trifrac.decide(trifrac.ResidueClass(m, n0, n1))) == sols, (m, n0, n1))
    return [m, n0, n1, sols, request_cost(m, n0, n1, len(certs), bool(sols))]


def request_cost(m: int, n0: int, n1: int, kl_pairs: int, solvable: bool) -> float:
    """Modelled seconds of one decide request at the seed tree: trial-division
    divisors of n1, base enumeration of m/n0 when condition i admits a pair,
    and the CLI's 10,000-step family search per pair of an unsolvable class."""
    work = 0
    if kl_pairs:
        for a in range(n0 // m + 1, 3 * n0 // m + 1):
            num, den = n0 * a, m * a - n0
            work += max(0, 2 * num // den - max(a, num // den + 1) + 1) + 1
    search = 0 if solvable else 10_001 * kl_pairs
    return 118e-9 * math.isqrt(n1) + 130e-9 * work + 270e-9 * search


def decide_reference() -> dict:
    """Per stratum, the seed will pick one of DECIDE_PER_STRATUM classes.  Of
    DECIDE_DRAWS random draws, the stratum keeps the run of consecutive ones
    (by modelled cost) with the smallest cost ratio, so the pick barely moves
    the latency percentiles while the strata keep the natural spread."""
    rng = random.Random(2404_01307)
    lo, hi = spec.DECIDE_LOG10_N1
    width = (hi - lo) / spec.DECIDE_STRATA
    k = spec.DECIDE_PER_STRATUM
    strata = []
    for i in range(spec.DECIDE_STRATA):
        draws = []
        while len(draws) < spec.DECIDE_DRAWS:
            n1 = int(10 ** (lo + width * (i + rng.random())))
            m = rng.randint(*spec.DECIDE_M)
            n0 = rng.randint(1, spec.DECIDE_N0_MAX)
            if n1 >= 2 and math.gcd(n1, m) == 1 and math.gcd(n0, n1) == 1:
                draws.append(decide_entry(m, n0, n1))
        draws.sort(key=lambda e: e[4])
        best = min(range(len(draws) - k + 1), key=lambda j: draws[j + k - 1][4] / draws[j][4])
        strata.append([e[:4] for e in draws[best:best + k]])
    golden = [decide_entry(*rc)[:4] for rc in spec.DECIDE_GOLDEN]
    solvable = sum(bool(e[3]) for s in strata for e in s)
    print(f"decide pool: {spec.DECIDE_STRATA} strata, {solvable} solvable entries")
    return {"strata": strata, "golden": golden}


def family_reference() -> dict:
    solutions = {}
    for m in range(spec.FAMILY_M[0], spec.FAMILY_M[1] + 1):
        for n1 in range(2, spec.FAMILY_N1_MAX + 1):
            if math.gcd(m, n1) != 1:
                continue
            certs = oracle.kl_certificates(m, n1)
            for n0 in range(1, n1):
                if math.gcd(n0, n1) != 1:
                    continue
                sols = oracle.solve_class(n0, n1, certs)
                rc = trifrac.ResidueClass(m, n0, n1)
                require(trifrac_params(trifrac.decide(rc)) == sols, rc)
                # the workload relies on this: integral plus families and
                # solutions are in one-to-one correspondence
                integral = sum(
                    trifrac.plus_family(rc, trifrac.RoleTriple(*roles)).integral
                    for t in oracle.base_triples(m, n0) for roles in oracle.role_assignments(t))
                require(integral == len(sols), f"integral plus families of {rc}")
                if sols:
                    solutions[f"{m},{n0},{n1}"] = sols
    print(f"family grid: {len(solutions)} solvable classes")
    return {"solutions": solutions}


def main() -> None:
    reference = {
        "scan": scan_reference(),
        "audit": audit_reference(),
        "decide": decide_reference(),
        "family": family_reference(),
    }
    path = Path(__file__).resolve().parent / spec.REFERENCE_FILE
    path.write_text(json.dumps(reference, separators=(",", ":")) + "\n", encoding="utf-8")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
