from __future__ import annotations

import pytest

from trifrac import scan_audit
from trifrac.intmath import gcd
from trifrac.scan_audit import (
    audit_condition_i,
    audit_corollary3,
    audit_corollary4,
    scan_residues,
)
from trifrac.theorem import DecisionOutcome, ParamSet, ResidueClass, decide, verify_identity


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
    with pytest.raises(ValueError, match="gcd\\(m, n1\\)"):
        scan_residues(4, 4)


def test_scan_residue_subset_validation():
    report = scan_residues(5, 9, residues=[7, 4])
    assert [row.n0 for row in report.rows] == [4, 7]
    with pytest.raises(ValueError, match="outside"):
        scan_residues(5, 9, residues=[9])
    with pytest.raises(ValueError, match="not coprime"):
        scan_residues(5, 9, residues=[3])


def test_scan_rows_reproducible_by_decide():
    report = scan_residues(5, 9)
    for row in report.rows:
        again = decide(ResidueClass(5, row.n0, 9))
        assert again.status == row.outcome.status
        assert again.solutions == row.outcome.solutions


def test_audit_condition_i_m4():
    report = audit_condition_i(4, 100)
    assert not report.has_discrepancy
    for inst in report.instances:
        if inst.prime % 4 == 1:
            assert inst.kl_pairs == ()
            assert inst.witnesses == ()
        else:
            assert inst.kl_pairs != ()


def _record_decided(monkeypatch) -> list[ResidueClass]:
    decided = []

    def recording(rc):
        decided.append(rc)
        return decide(rc)

    monkeypatch.setattr(scan_audit, "decide", recording)
    return decided


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
    assert len(witnesses) > len(report.discrepancies) > 1
    assert decided == witnesses


def test_audit_condition_i_decides_at_most_once_per_prime(monkeypatch):
    decided = _record_decided(monkeypatch)
    report = audit_condition_i(4, 200)
    assert decided == [w.rc for inst in report.instances for w in inst.witnesses]
    assert len({rc.n1 for rc in decided}) == len(decided) > 1


def test_audit_rejects_a_sieved_residue_decide_calls_unsolvable(monkeypatch):
    monkeypatch.setattr(scan_audit, "decide", lambda rc: DecisionOutcome(rc, "unsolvable", (), ()))
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
