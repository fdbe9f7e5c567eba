"""Residue sweeps over a modulus and empirical audits of the equation's
exclusion rules, all driven by the complete decision procedure.

A scan decides every residue, since its unsolvable rows carry evidence.  The
audits need only a prime's solvable residues: ``admissible_residues`` sieves
them out of the (k*l)^2 divisors, and ``decide`` builds and verifies each
one's solutions (a sieved residue it calls unsolvable raises AssertionError).

The audits deliberately report rather than assert for m != 4: the literal
"n1 must be a multiple of 4k - 1" and "primes of the form 4K + 1 are
excluded" readings are specializations of condition i) to m = 4, and for
other m the sweeps do find verified solutions with modulus = 1 (mod 4)
(e.g. m = 5, n0 = 23, n1 = 29).  A discrepancy is only ever recorded
together with a parameter set and triple that pass exact verification.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .intmath import gcd, primes_up_to
from .theorem import DecisionOutcome, ResidueClass, admissible_residues, decide, enumerate_kl

# Size limits, checked before anything is allocated (a residue subset of any
# modulus may still be scanned).  Measured on a 2-core Xeon VM, Python 3.11: a
# full JSON scan of m = 4, n1 = 49999 takes 21 s at 330 MB; at bound 10000,
# audit corollary 3 (m = 5) takes 2 s at 65 MB and the others under 0.5 s.
# Audit output is built whole, so the bound stays until it is streamed.
MAX_SCAN_MODULUS = 50_000
MAX_AUDIT_BOUND = 10_000


@dataclass(frozen=True)
class ScanRow:
    n0: int
    outcome: DecisionOutcome


@dataclass(frozen=True)
class ScanReport:
    m: int
    n1: int
    rows: tuple[ScanRow, ...]

    @property
    def admissible(self) -> tuple[int, ...]:
        """Residues with at least one verified solution, ascending."""
        return tuple(r.n0 for r in self.rows if r.outcome.is_solvable())

    @property
    def summary(self) -> dict[str, int]:
        solvable = len(self.admissible)
        return {"solvable": solvable, "unsolvable": len(self.rows) - solvable}


def scan_residues(m: int, n1: int, residues: list[int] | None = None) -> ScanReport:
    """Run ``decide`` for every residue n0 coprime to n1 (or a given subset),
    in ascending order of n0."""
    if m < 4:
        raise ValueError(f"m must be >= 4, got {m}")
    if n1 < 2:
        raise ValueError(f"n1 must be >= 2, got {n1}")
    g = gcd(m, n1)
    if g != 1:
        raise ValueError(f"gcd(m, n1) must be 1, got gcd({m}, {n1}) = {g}")
    if residues is None:
        if n1 > MAX_SCAN_MODULUS:
            raise ValueError(f"a full scan needs n1 <= {MAX_SCAN_MODULUS}, got {n1}; "
                             "scan a subset of residues instead")
        residues = [n0 for n0 in range(1, n1) if gcd(n0, n1) == 1]
    else:
        for n0 in residues:
            if not 1 <= n0 < n1:
                raise ValueError(f"residue {n0} outside [1, {n1})")
            if gcd(n0, n1) != 1:
                raise ValueError(f"residue {n0} not coprime to n1 = {n1}")
        residues = sorted(set(residues))
    rows = tuple(ScanRow(n0=n0, outcome=decide(ResidueClass(m, n0, n1))) for n0 in residues)
    return ScanReport(m=m, n1=n1, rows=rows)


@dataclass(frozen=True)
class AuditInstance:
    prime: int
    verdict: str  # "consistent" | "discrepancy"
    detail: str
    kl_pairs: tuple[tuple[int, int], ...] = ()
    witnesses: tuple[DecisionOutcome, ...] = ()


@dataclass(frozen=True)
class AuditReport:
    audit: str
    m: int
    bound: int
    instances: tuple[AuditInstance, ...] = field(default=())

    @property
    def has_discrepancy(self) -> bool:
        return any(i.verdict == "discrepancy" for i in self.instances)

    @property
    def discrepancies(self) -> tuple[AuditInstance, ...]:
        return tuple(i for i in self.instances if i.verdict == "discrepancy")


def _check_bound(bound: int, least: int) -> None:
    if bound < least:
        raise ValueError(f"bound must be >= {least}, got {bound}")
    if bound > MAX_AUDIT_BOUND:
        raise ValueError(f"bound must be <= {MAX_AUDIT_BOUND}, got {bound}")


def _solvable_residues(m: int, p: int):
    """Solvable outcomes of p's residues, ascending in n0: ``decide`` runs only
    on the residues ``admissible_residues`` finds, and must agree."""
    for n0 in admissible_residues(m, p):
        outcome = decide(ResidueClass(m, n0, p))
        if not outcome.is_solvable():
            raise AssertionError(f"sieved residue (m, n0, n1) = ({m}, {n0}, {p}) is unsolvable")
        yield outcome


def audit_condition_i(m: int, bound: int) -> AuditReport:
    """Check prime moduli against the "modulus must be l*(m*k - 1)" rule.

    For each prime p <= bound coprime to m: record whether condition i)
    admits any (k, l) and decide p's smallest solvable residue, if the sieve
    finds one.  A solvable residue where the m = 4 reading (p of the form
    4k - 1) forbids one is reported as a discrepancy with its verified
    witness; for m = 4 that can never happen and the audit asserts it.
    """
    _check_bound(bound, 2)
    instances = []
    for p in primes_up_to(bound):
        if gcd(p, m) != 1:
            continue
        kl = enumerate_kl(m, p)
        solvable = next(_solvable_residues(m, p), None)
        if m == 4 and p % 4 == 1 and kl:
            raise AssertionError(f"m = 4, p = {p} = 1 (mod 4) admitted (k, l) = {kl}")
        form_4k_minus_1 = p % 4 == 3
        if solvable and not form_4k_minus_1:
            verdict = "discrepancy"
            detail = (f"p = {p} is not of the form 4k - 1 yet n0 = {solvable.rc.n0} "
                      f"is solvable with (k, l) = {kl}")
        else:
            verdict = "consistent"
            if not kl:
                detail = f"p = {p}: condition i admits no (k, l); all residues unsolvable"
            elif solvable:
                detail = (f"p = {p} = 4*{(p + 1) // 4} - 1: solvable residue "
                          f"n0 = {solvable.rc.n0} found")
            else:
                detail = f"p = {p}: condition i admits {kl} but no residue is solvable"
        instances.append(AuditInstance(
            prime=p, verdict=verdict, detail=detail, kl_pairs=tuple(kl),
            witnesses=(solvable,) if solvable else (),
        ))
    return AuditReport(audit="condition-i", m=m, bound=bound, instances=tuple(instances))


def audit_corollary3(m: int, bound: int) -> AuditReport:
    """Probe the "no prime modulus = 1 (mod 4)" exclusion over all residues.

    Decides every sieved solvable residue of every prime p = 1 (mod 4)
    with p <= bound and gcd(p, m) = 1; the other residues are unsolvable.
    Each is a discrepancy and ships with its verified solutions; for
    m = 4 the exclusion follows from condition i) and every instance comes
    out consistent.
    """
    _check_bound(bound, 5)
    instances = []
    for p in primes_up_to(bound):
        if p % 4 != 1 or gcd(p, m) != 1:
            continue
        kl = enumerate_kl(m, p)
        witnesses = list(_solvable_residues(m, p))
        if witnesses:
            residues = [w.rc.n0 for w in witnesses]
            instances.append(AuditInstance(
                prime=p, verdict="discrepancy",
                detail=f"p = {p} = 1 (mod 4) has solvable residues {residues}",
                kl_pairs=tuple(kl), witnesses=tuple(witnesses),
            ))
        else:
            instances.append(AuditInstance(
                prime=p, verdict="consistent",
                detail=f"p = {p}: no residue admits an integer polynomial solution",
                kl_pairs=tuple(kl),
            ))
    return AuditReport(audit="corollary-3", m=m, bound=bound, instances=tuple(instances))


def audit_corollary4(m: int, bound: int) -> AuditReport:
    """Check that n = 1 (mod p) is unsolvable for every prime p coprime to m.

    Decides two classes of n = 1 (mod p): (m, 1, p) and the paper's
    n = a*lambda + b with b = a + 1, a = p, i.e. (m, p + 1, p), a different
    polynomial n(lambda).  A solvable outcome would be a discrepancy
    carrying its verified witness.
    """
    _check_bound(bound, 2)
    instances = []
    for p in primes_up_to(bound):
        if gcd(p, m) != 1:
            continue
        direct = decide(ResidueClass(m, 1, p))
        shifted = decide(ResidueClass(m, p + 1, p))
        solvable = [o for o in (direct, shifted) if o.is_solvable()]
        if solvable:
            instances.append(AuditInstance(
                prime=p, verdict="discrepancy",
                detail=f"p = {p}: n = 1 (mod {p}) unexpectedly solvable",
                witnesses=tuple(solvable),
            ))
        else:
            instances.append(AuditInstance(
                prime=p, verdict="consistent",
                detail=f"p = {p}: n = 1 (mod {p}) unsolvable",
            ))
    return AuditReport(audit="corollary-4", m=m, bound=bound, instances=tuple(instances))
