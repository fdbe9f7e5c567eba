"""Residue sweeps over a modulus and empirical audits of the equation's
exclusion rules, all driven by the complete decision procedure.

The sieve behind ``admissible_residues`` marks n0 = -k*h^-1 (mod p) for the
divisors h of k^2 (the lemma in ``theorem``), from the ``_lemma_pairs`` found
once per modulus.  A full scan and audits i and 3 hand only those residues to
``decide``, with the same (k, l), which builds and verifies their solutions
(an audit raises AssertionError if it calls one unsolvable); a full scan's
other rows are unsolvable, with the reasons the reason rule's sieve gives.

The audits deliberately report rather than assert unless 4 | m: the literal
"n1 must be a multiple of 4k - 1" and "primes of the form 4K + 1 are
excluded" readings specialize condition i) to m = 4 (and hold for 4 | m), and
for other m the sweeps do find verified solutions with modulus = 1 (mod 4)
(e.g. m = 5, n0 = 23, n1 = 29).  A discrepancy is only ever recorded
together with a parameter set and triple that pass exact verification.
"""

from __future__ import annotations

from typing import NamedTuple

from .intmath import gcd, primes_up_to
from .theorem import (DecisionOutcome, ResidueClass, _check_class, _evidence, _lemma_pairs,
                      _sieve_reasons, _sieve_residues, decide, enumerate_kl)

# Size limits, checked before anything is allocated (a residue subset of any
# modulus may still be scanned).  Measured on a 2-core Xeon VM, Python 3.11: a full
# JSON scan writes 16.9 MB in 0.5 s at 44 MB for the prime m = 4, n1 = 49999, and
# 31.2 MB in 4.2-4.4 s at 112 MB for the composite n1 = 45045, the costliest inside
# the limit (16,622 residues reach decide); at bound 10000, audit corollary 3 (m = 5)
# takes 0.6-0.9 s at 22 MB.  Output is written a row at a time, but every row is
# built and held first, so both limits stay.
MAX_SCAN_MODULUS = 50_000
MAX_AUDIT_BOUND = 10_000


class ScanRow(NamedTuple):
    n0: int
    outcome: DecisionOutcome


class ScanReport(NamedTuple):
    m: int
    n1: int
    kl_pairs: tuple[tuple[int, int], ...]  # the (k, l) of condition i, the same for every row
    rows: tuple[ScanRow, ...]

    @property
    def admissible(self) -> tuple[int, ...]:
        """Residues with at least one verified solution, ascending."""
        return tuple(r.n0 for r in self.rows if r.outcome.is_solvable())

    @property
    def summary(self) -> dict[str, int]:
        solvable = sum(row.outcome.is_solvable() for row in self.rows)
        return {"solvable": solvable, "unsolvable": len(self.rows) - solvable}


def scan_residues(m: int, n1: int, residues: list[int] | None = None) -> ScanReport:
    """The outcome of every residue n0 coprime to n1 (or of a given subset, of
    any modulus), ascending, with condition i) solved once.  A subset runs
    ``decide`` on each residue, a full scan only on those the sieve admits; it
    builds the others as ``decide`` would, with the reasons ``_sieve_reasons`` marks.
    The modulus (by ``enumerate_kl``) and the residues are checked before the loop,
    which builds its records as ``ResidueClass.__new__`` does after its check."""
    full = residues is None
    if full and n1 > MAX_SCAN_MODULUS:
        _check_class(m, 1, n1)  # a class outside the domain is reported first
        raise ValueError(f"a full scan needs n1 <= {MAX_SCAN_MODULUS}, got {n1}; "
                         "scan a subset of residues instead")
    pairs = list(_lemma_pairs(m, n1)) if full else enumerate_kl(m, n1)
    if full:
        residues = [n0 for n0 in range(1, n1) if gcd(n0, n1) == 1]
    else:
        for n0 in residues:
            if not 1 <= n0 < n1:
                raise ValueError(f"residue {n0} outside [1, {n1})")
            if gcd(n0, n1) != 1:
                raise ValueError(f"residue {n0} not coprime to n1 = {n1}")
        residues = sorted(set(residues))
    admitted, kl_marks = _sieve_reasons(n1, pairs) if full else (None, ())
    kl_pairs = tuple(pair[:2] for pair in pairs)
    new, rows = tuple.__new__, []
    for n0 in residues:
        rc = new(ResidueClass, (m, n0, n1))
        if not full or n0 in admitted:
            outcome = decide(rc, pairs=kl_pairs)
        else:  # unsolvable, with the reason each (k, l)'s marks give
            outcome = new(DecisionOutcome, (rc, "unsolvable", (), kl_pairs, tuple(
                [_evidence(rc, k, l, mark[n0]) for k, l, mark in kl_marks])))
        rows.append(new(ScanRow, (n0, outcome)))
    return ScanReport(m=m, n1=n1, kl_pairs=kl_pairs, rows=tuple(rows))


class AuditInstance(NamedTuple):
    prime: int
    verdict: str  # "consistent" | "discrepancy"
    detail: str
    kl_pairs: tuple[tuple[int, int], ...]
    witnesses: tuple[DecisionOutcome, ...] = ()


class AuditReport(NamedTuple):
    audit: str
    m: int
    bound: int
    instances: tuple[AuditInstance, ...] = ()

    @property
    def has_discrepancy(self) -> bool:
        return any(i.verdict == "discrepancy" for i in self.instances)


def _check_bound(bound: int, least: int) -> None:
    if bound < least:
        raise ValueError(f"bound must be >= {least}, got {bound}")
    if bound > MAX_AUDIT_BOUND:
        raise ValueError(f"bound must be <= {MAX_AUDIT_BOUND}, got {bound}")


def _solvable_residues(m: int, p: int, pairs: list, kl):
    """Solvable outcomes of p's residues, ascending in n0: ``decide`` runs,
    with p's (k, l) ``kl``, only on the residues the sieve finds from p's
    ``_lemma_pairs``, and must agree."""
    for n0 in _sieve_residues(p, pairs):
        outcome = decide(ResidueClass(m, n0, p), pairs=kl)
        if not outcome.is_solvable():
            raise AssertionError(f"sieved residue (m, n0, n1) = ({m}, {n0}, {p}) is unsolvable")
        yield outcome


def audit_condition_i(m: int, bound: int) -> AuditReport:
    """Check prime moduli against the "modulus must be l*(m*k - 1)" rule.

    For each prime p <= bound coprime to m: record whether condition i)
    admits any (k, l) and decide p's smallest solvable residue, if the sieve
    finds one.  A solvable residue where the m = 4 reading (p of the form
    4k - 1) forbids one is reported as a discrepancy with its verified
    witness; for 4 | m (where l = 1 makes p = m*k - 1 = 3 (mod 4)) that can
    never happen and the audit asserts it.
    """
    _check_bound(bound, 2)
    instances = []
    for p in primes_up_to(bound):
        if gcd(p, m) != 1:
            continue
        pairs = list(_lemma_pairs(m, p))
        kl = [pair[:2] for pair in pairs]
        if m % 4 == 0 and p % 4 == 1 and kl:
            raise AssertionError(f"m = {m}, p = {p} = 1 (mod 4) admitted (k, l) = {kl}")
        solvable = next(_solvable_residues(m, p, pairs, kl), None)
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
    4 | m the exclusion follows from condition i) and every instance comes
    out consistent.
    """
    _check_bound(bound, 5)
    instances = []
    for p in primes_up_to(bound):
        if p % 4 != 1 or gcd(p, m) != 1:
            continue
        pairs = list(_lemma_pairs(m, p))
        kl = tuple(pair[:2] for pair in pairs)
        witnesses = list(_solvable_residues(m, p, pairs, kl))
        if witnesses:
            residues = [w.rc.n0 for w in witnesses]
            instances.append(AuditInstance(
                prime=p, verdict="discrepancy",
                detail=f"p = {p} = 1 (mod 4) has solvable residues {residues}",
                kl_pairs=kl, witnesses=tuple(witnesses),
            ))
        else:
            instances.append(AuditInstance(
                prime=p, verdict="consistent",
                detail=f"p = {p}: no residue admits an integer polynomial solution",
                kl_pairs=kl,
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
        kl = tuple(enumerate_kl(m, p))
        direct = decide(ResidueClass(m, 1, p), pairs=kl)
        shifted = decide(ResidueClass(m, p + 1, p), pairs=kl)
        solvable = tuple(o for o in (direct, shifted) if o.is_solvable())
        instances.append(AuditInstance(
            prime=p, verdict="discrepancy" if solvable else "consistent",
            detail=f"p = {p}: n = 1 (mod {p}) {'unexpectedly solvable' if solvable else 'unsolvable'}",
            kl_pairs=kl, witnesses=solvable,
        ))
    return AuditReport(audit="corollary-4", m=m, bound=bound, instances=tuple(instances))
