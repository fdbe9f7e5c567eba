from __future__ import annotations

from collections import Counter

import pytest

from oracles import solve_condition_ii, trial_divisors
from trifrac import scan_audit, theorem
from trifrac.intmath import gcd
from trifrac.scan_audit import (
    MAX_SCAN_MODULUS,
    audit_condition_i,
    audit_corollary3,
    audit_corollary4,
    scan_residues,
)
from trifrac.theorem import (
    REASON_CONDITION_II,
    REASON_NO_BASE_TRIPLE,
    DecisionOutcome,
    ParamSet,
    ResidueClass,
    admissible_residues,
    decide,
    enumerate_kl,
    verify_identity,
)


def test_scan_5_mod_9():
    report = scan_residues(5, 9)
    assert [row.n0 for row in report.rows] == [1, 2, 4, 5, 7, 8]
    assert report.admissible == (4, 7, 8)
    assert report.summary == {"solvable": 3, "unsolvable": 3}


def test_scan_5_mod_19_residue_7_unsolvable():
    report = scan_residues(5, 19)
    by_n0 = {row.n0: row.outcome for row in report.rows}
    assert by_n0[7].status == "unsolvable"


def test_scan_rejects_shared_factor():
    with pytest.raises(ValueError, match="gcd\\(n1, m\\)"):
        scan_residues(4, 4)


def test_scan_residue_subset_validation():
    report = scan_residues(5, 9, residues=[7, 4])
    assert [row.n0 for row in report.rows] == [4, 7]
    with pytest.raises(ValueError, match="outside"):
        scan_residues(5, 9, residues=[9])
    with pytest.raises(ValueError, match="not coprime"):
        scan_residues(5, 9, residues=[3])


def _scan_reasons(moduli) -> Counter:
    """Assert that every full scan's rows equal ``decide`` of each residue
    coprime to n1; count the reasons of their evidence."""
    reasons = Counter()
    for m, n1 in moduli:
        report = scan_residues(m, n1)
        assert list(report.kl_pairs) == enumerate_kl(m, n1)
        rows = report.rows
        assert [row.n0 for row in rows] == [n0 for n0 in range(1, n1) if gcd(n0, n1) == 1]
        for n0, outcome in rows:
            assert outcome == decide(ResidueClass(m, n0, n1)), (m, n0, n1)
            reasons.update(ev.reason for ev in outcome.evidence)
    return reasons


def test_scan_rows_reproducible_by_decide():
    # a full scan decides only the sieved residues and builds the rest,
    # reasons included, from the reason rule's sieve
    moduli = [(m, n1) for m in range(4, 10) for n1 in range(2, 200) if gcd(m, n1) == 1]
    assert len(moduli) == 725 and (5, 9) in moduli
    assert _scan_reasons(moduli).keys() == {REASON_CONDITION_II, REASON_NO_BASE_TRIPLE}
    assert len(enumerate_kl(4, 4389)) == 8 and len(enumerate_kl(4, 3465)) == 12
    assert _scan_reasons([(4, 4389)]) == {REASON_CONDITION_II: 517, REASON_NO_BASE_TRIPLE: 1859}
    assert _scan_reasons([(4, 3465)]) == {REASON_CONDITION_II: 210, REASON_NO_BASE_TRIPLE: 1014}


@pytest.mark.parametrize("bound", [1, 3])
def test_scan_rows_from_the_sieve_with_split_lemma_classes(monkeypatch, bound):
    monkeypatch.setattr(theorem, "_TARGET_SET_MAX", bound)
    moduli = [(m, n1) for m in range(4, 8) for n1 in range(2, 120) if gcd(m, n1) == 1]
    assert any(len(shifts) > 1 for m, n1 in moduli for *_, shifts, _ in theorem._lemma_pairs(m, n1))
    assert _scan_reasons(moduli).keys() == {REASON_CONDITION_II, REASON_NO_BASE_TRIPLE}


def test_audit_condition_i_m4():
    report = audit_condition_i(4, 100)
    assert not report.has_discrepancy
    for inst in report.instances:
        if inst.prime % 4 == 1:
            assert inst.kl_pairs == ()
            assert inst.witnesses == ()
        else:
            assert inst.kl_pairs != ()


@pytest.mark.parametrize("m", [8, 12])
def test_audit_condition_i_consistent_when_4_divides_m(m):
    # condition i makes every prime p = m*k - 1 = 3 (mod 4): no p = 1 (mod 4)
    # has a (k, l), so the audit's assertion holds and nothing is flagged
    report = audit_condition_i(m, 400)
    assert not report.has_discrepancy
    assert any(inst.witnesses for inst in report.instances)
    for inst in report.instances:
        if inst.prime % 4 == 1:
            assert inst.kl_pairs == () and inst.witnesses == ()


@pytest.mark.parametrize("m, asserts", [(4, True), (8, True), (12, True), (5, False)])
def test_audit_condition_i_asserts_the_prime_form_when_4_divides_m(monkeypatch, m, asserts):
    # a forged (k, l) for the prime 13 = 1 (mod 4), admitting no residue
    lemma_pairs = theorem._lemma_pairs
    monkeypatch.setattr(scan_audit, "_lemma_pairs", lambda m, p: iter(
        [(1, 13, 13, {1}, set())] if p == 13 else lemma_pairs(m, p)))
    if asserts:
        with pytest.raises(AssertionError, match=rf"m = {m}, p = 13 = 1 \(mod 4\)"):
            audit_condition_i(m, 20)
    else:
        report = audit_condition_i(m, 20)
        assert [inst.kl_pairs for inst in report.instances if inst.prime == 13] == [((1, 13),)]


def _lemma_classes(m: int, n1: int) -> list:
    """Each (k, l) of condition i) for n1 with p = n1/l and the lemma's
    classes {-k*h^-1 mod p : h | k^2}, by trial division."""
    out = []
    for k, l in enumerate_kl(m, n1):
        p = n1 // l
        out.append((k, l, p, {1}, {-k * pow(h, -1, p) % p for h in trial_divisors(k * k)}))
    return out


def test_sieve_rows_carry_the_condition_ii_oracle_evidence():
    # every row a full scan builds from the sieve states, per (k, l), the
    # family the extended-Euclid route finds and the reason rule's flag: some
    # divisor f of n0 is admitted, f = -k*h^-1 (mod p) for an h | k^2
    moduli = [(m, n1) for m in range(4, 8) for n1 in range(2, 200) if gcd(m, n1) == 1]
    built, pairs = 0, 0
    for m, n1 in moduli + [(4, 4389)]:
        classes = _lemma_classes(m, n1)
        pairs = max(pairs, len(classes))
        admitted = set(admissible_residues(m, n1))
        for n0, outcome in scan_residues(m, n1).rows:
            if n0 in admitted:
                continue
            built += 1
            rc = outcome.rc
            assert type(rc) is ResidueClass and rc == (m, n0, n1)
            assert (outcome.status, outcome.solutions) == ("unsolvable", ())
            assert len(outcome.evidence) == len(classes)
            for ev, (k, l, p, _, targets) in zip(outcome.evidence, classes):
                fam = solve_condition_ii(rc, k, l)
                divisible = any(f % p in targets for f in trial_divisors(n0))
                assert ev.k == fam.k and ev.l == fam.l, rc
                assert ev.s0 == fam.s0 and ev.r0 == fam.r0, (rc, k, l)
                assert ev.family == fam.describe(), (rc, k, l)
                assert ev.reason == (REASON_CONDITION_II if divisible else REASON_NO_BASE_TRIPLE)
    assert pairs == 8 and built > 5000


def test_a_scan_checks_its_class_once(monkeypatch):
    # the modulus is checked once per scan and each residue before the loop,
    # so no row's ResidueClass runs the check again
    calls = []
    check = theorem._check_class

    def counting(*args):
        calls.append(args)
        check(*args)

    monkeypatch.setattr(theorem, "_check_class", counting)
    monkeypatch.setattr(scan_audit, "_check_class", counting)
    for residues in (None, [442, 1, 2, 3]):
        calls.clear()
        report = scan_residues(4, 443, residues)
        assert len(report.rows) == (442 if residues is None else 4)
        assert all(type(row.outcome.rc) is ResidueClass for row in report.rows)
        assert calls == [(4, 1, 443)], residues
    # beyond the limit, a class outside the domain is still what is reported
    with pytest.raises(ValueError, match="m must be >= 4"):
        scan_residues(3, MAX_SCAN_MODULUS + 1)


def _record_decided(monkeypatch) -> list[ResidueClass]:
    """The classes scans and audits hand to ``decide``, in order; each call
    must pass its modulus's (k, l) of condition i, found once per modulus
    (``_count_enumerate_kl`` counts that)."""
    decided = []

    def recording(rc, **kwargs):
        assert kwargs.keys() == {"pairs"}
        assert list(kwargs["pairs"]) == enumerate_kl(rc.m, rc.n1)
        decided.append(rc)
        return decide(rc, **kwargs)

    monkeypatch.setattr(scan_audit, "decide", recording)
    return decided


def _count_enumerate_kl(monkeypatch) -> list[int]:
    moduli = []

    def counting(m, n1):
        moduli.append(n1)
        return enumerate_kl(m, n1)

    monkeypatch.setattr(theorem, "enumerate_kl", counting)
    monkeypatch.setattr(scan_audit, "enumerate_kl", counting)
    return moduli


def test_scan_finds_condition_i_once_per_modulus(monkeypatch):
    # a full scan decides only the residues the sieve admits and builds the
    # unsolvable rest from the sieve; a subset decides every residue
    decided = _record_decided(monkeypatch)
    moduli = _count_enumerate_kl(monkeypatch)
    scan_residues(4, 443)
    assert moduli == [443]
    assert decided == [ResidueClass(4, n0, 443) for n0 in admissible_residues(4, 443)]
    moduli.clear()
    decided.clear()
    scan_residues(4, 443, residues=[1, 2, 3])
    assert moduli == [443]
    assert decided == [ResidueClass(4, n0, 443) for n0 in (1, 2, 3)]


def test_audits_find_condition_i_once_per_prime(monkeypatch):
    _record_decided(monkeypatch)
    moduli = _count_enumerate_kl(monkeypatch)
    for audit in (audit_condition_i, audit_corollary3, audit_corollary4):
        moduli.clear()
        report = audit(5, 200)
        assert moduli == [inst.prime for inst in report.instances]


def test_audit_condition_i_skips_primes_without_kl(monkeypatch):
    decided = _record_decided(monkeypatch)
    report = audit_condition_i(4, 100)
    assert not report.has_discrepancy
    assert decided
    assert all(rc.n1 % 4 == 3 for rc in decided)


def test_audit_corollary3_decides_only_its_witnesses(monkeypatch):
    decided = _record_decided(monkeypatch)
    report = audit_corollary3(5, 200)
    witnesses = [w.rc for inst in report.instances for w in inst.witnesses]
    assert len(witnesses) > sum(i.verdict == "discrepancy" for i in report.instances) > 1
    assert decided == witnesses


def test_audit_condition_i_decides_at_most_once_per_prime(monkeypatch):
    decided = _record_decided(monkeypatch)
    report = audit_condition_i(4, 200)
    assert decided == [w.rc for inst in report.instances for w in inst.witnesses]
    assert len({rc.n1 for rc in decided}) == len(decided) > 1


def test_audit_rejects_a_sieved_residue_decide_calls_unsolvable(monkeypatch):
    monkeypatch.setattr(scan_audit, "decide",
                        lambda rc, **_: DecisionOutcome(rc, "unsolvable", (), ()))
    with pytest.raises(AssertionError, match="sieved residue"):
        audit_corollary3(5, 29)


def test_audit_corollary4_decides_both_classes_once(monkeypatch):
    decided = _record_decided(monkeypatch)
    report = audit_corollary4(5, 30)
    assert len(decided) == len(set(decided))
    for inst in report.instances:
        p = inst.prime
        assert ResidueClass(5, 1, p) in decided
        assert ResidueClass(5, p + 1, p) in decided
    assert len(decided) == 2 * len(report.instances)


def test_audit_condition_i_m5_records_kl():
    report = audit_condition_i(5, 30)
    by_p = {inst.prime: inst for inst in report.instances}
    assert by_p[19].kl_pairs == ((4, 1),)
    assert by_p[29].kl_pairs == ((6, 1),)
    # 29 = 1 (mod 4) yet solvable: flagged, with a verified witness attached
    assert by_p[29].verdict == "discrepancy"
    (witness,) = by_p[29].witnesses
    assert witness.is_solvable()
    ps, pt = witness.solutions[0]
    assert verify_identity(witness.rc, pt)


@pytest.mark.parametrize("audit", [audit_condition_i, audit_corollary3, audit_corollary4])
def test_every_audit_instance_lists_its_kl_pairs(audit):
    # the instance is the one place an audit document states a prime's (k, l)
    instances = [(m, inst) for m in (4, 5, 7) for inst in audit(m, 300).instances]
    assert any(inst.kl_pairs for _, inst in instances)
    assert any(not inst.kl_pairs for _, inst in instances)
    for m, inst in instances:
        assert list(inst.kl_pairs) == enumerate_kl(m, inst.prime), (m, inst.prime)


def test_audit_corollary3_m4_consistent():
    report = audit_corollary3(4, 200)
    assert not report.has_discrepancy
    assert all(inst.verdict == "consistent" for inst in report.instances)


def test_audit_corollary3_m5_discrepancy_at_29():
    report = audit_corollary3(5, 29)
    by_p = {inst.prime: inst for inst in report.instances}
    assert by_p[13].verdict == "consistent"
    assert by_p[17].verdict == "consistent"
    inst = by_p[29]
    assert inst.verdict == "discrepancy"
    witnesses = {w.rc: w for w in inst.witnesses}
    rc = ResidueClass(5, 23, 29)
    assert rc in witnesses
    params = {ps for ps, _ in witnesses[rc].solutions}
    assert ParamSet(6, 1, 1, 1) in params
    for w in inst.witnesses:
        for ps, pt in w.solutions:
            assert verify_identity(w.rc, pt)


def test_audit_corollary4_small_bounds():
    for m in (4, 5):
        report = audit_corollary4(m, 30)
        assert not report.has_discrepancy
        primes = [inst.prime for inst in report.instances]
        assert all(gcd(p, m) == 1 for p in primes)
    report = audit_corollary4(5, 30)
    assert {inst.prime for inst in report.instances} == {2, 3, 7, 11, 13, 17, 19, 23, 29}


def test_audit_bound_validation():
    with pytest.raises(ValueError, match="bound"):
        audit_condition_i(4, 1)
    with pytest.raises(ValueError, match="bound"):
        audit_corollary3(4, 4)
    with pytest.raises(ValueError, match="bound"):
        audit_corollary4(4, 1)
