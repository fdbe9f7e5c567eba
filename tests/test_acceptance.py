"""Acceptance suite: every criterion runs at its stated tolerance (exact
arithmetic throughout, so tolerances are zero) and reports one line."""

from __future__ import annotations

import json

from acceptance_report import criterion
from oracles import enumerate_condition_iii, identity_holds
from trifrac.base_solutions import enumerate_base_solutions
from trifrac.cli import main as cli_main
from trifrac.families import RoleTriple, discriminant_identity, minus_family, plus_family
from trifrac.intmath import gcd, primes_up_to
from trifrac.qpoly import RationalPoly, linear
from trifrac.scan_audit import audit_corollary3, scan_residues
from trifrac.theorem import (
    ParamSet,
    ResidueClass,
    analyze_degrees,
    decide,
    enumerate_kl,
    identity_residual,
    search_condition_iii,
    solve_condition_ii,
    verify_identity,
)


def test_criterion_1_golden_7_mod_9():
    with criterion(1, "decide(5, 7, 9) reproduces the unique solution exactly", 1.0):
        out = decide(ResidueClass(5, 7, 9))
        assert out.status == "solvable"
        assert len(out.solutions) == 1
        ps, pt = out.solutions[0]
        assert ps == ParamSet(k=2, l=1, s=1, r=1)
        assert pt.x == linear(14, 18)
        assert pt.y == RationalPoly([7, 16, 9])
        assert pt.z == linear(2, 2)
        # the stated closed form: x = 2n, z = 2(1 + lambda), y = (1 + lambda)n
        n = ResidueClass(5, 7, 9).n_poly()
        assert pt.x == n.scale(2)
        assert pt.z == linear(1, 1).scale(2)
        assert pt.y == linear(1, 1) * n


def test_criterion_2_golden_7_mod_19():
    with criterion(2, "decide(5, 7, 19) certifies unsolvable; family s=5+7t, r=13+19t", 1.0):
        rc = ResidueClass(5, 7, 19)
        out = decide(rc)
        assert out.status == "unsolvable"
        fam = solve_condition_ii(rc, 4, 1)
        assert (fam.s0, fam.r0) == (5, 13)
        assert fam.step == (7, 19)
        assert search_condition_iii(fam, 10_000) is None
        assert enumerate_base_solutions(5, 7, 28) == ()


def test_criterion_3_residue_1_mod_p_unsolvable():
    with criterion(3, "decide(m, 1, p) unsolvable for all primes p <= 200, m in {4, 5, 7}", 60.0):
        checked = 0
        for m in (4, 5, 7):
            for p in primes_up_to(200):
                if gcd(p, m) != 1:
                    continue
                out = decide(ResidueClass(m, 1, p))
                assert out.status == "unsolvable", (m, p)
                checked += 1
        assert checked > 100


def test_criterion_4_m4_excludes_primes_1_mod_4():
    with criterion(4, "enumerate_kl(4, p) empty and sampled scans unsolvable, p = 1 (mod 4), p <= 1000", 60.0):
        primes = [p for p in primes_up_to(1000) if p % 4 == 1]
        assert len(primes) == 80
        for p in primes:
            assert enumerate_kl(4, p) == []
            sample = sorted({1, 2, 3, p - 2, p - 1})[:5]
            report = scan_residues(4, p, residues=sample)
            assert report.admissible == ()
            assert all(row.outcome.status == "unsolvable" for row in report.rows)


def test_criterion_5_identity_property_suite(full_grid):
    with criterion(5, "all decide solutions and all plus/minus families verify on the grid"):
        families_checked = 0
        for rc in full_grid:
            out = decide(rc)
            for ps, pt in out.solutions:
                assert verify_identity(rc, pt)
                assert analyze_degrees(rc, pt).degrees == (1, 1, 2)
            for bt in enumerate_base_solutions(rc.m, rc.n0):
                for roles in bt.role_assignments():
                    rt = RoleTriple(*roles)
                    # constructors verify the rational identity exactly and
                    # raise on any failure
                    plus = plus_family(rc, rt)
                    minus = minus_family(rc, rt)
                    assert not minus.integral
                    if families_checked % 97 == 0:
                        # exact rational-polynomial residual as a second route
                        assert identity_residual(rc, plus.triple).is_zero()
                        assert identity_residual(rc, minus.triple).is_zero()
                        # independent oracle: exact evaluation at deg + 1 points
                        assert identity_holds(rc, plus.triple)
                        assert identity_holds(rc, minus.triple)
                    families_checked += 1
        assert families_checked > 100_000


def test_criterion_6_discriminant_certificates():
    with criterion(6, "n0^2 - xbar0*zbar0 = -m*n0*x0*z0/y0 < 0 for every base and role"):
        reports = 0
        for m in range(4, 9):
            for n0 in range(1, 31):
                n1 = 2
                while gcd(n1, n0) != 1 or gcd(n1, m) != 1:
                    n1 += 1
                rc = ResidueClass(m, n0, n1)
                for bt in enumerate_base_solutions(m, n0):
                    for roles in bt.role_assignments():
                        rep = discriminant_identity(rc, RoleTriple(*roles))
                        assert rep.lhs == rep.rhs
                        assert rep.lhs < 0
                        assert rep.xbar0 == m * roles[0] - n0
                        assert rep.zbar0 == m * roles[2] - n0
                        reports += 1
        assert reports > 5_000


def test_criterion_7_oracle_equivalence(full_grid):
    with criterion(7, "base-triple route and t-family route find the same solutions"):
        for rc in full_grid:
            out = decide(rc)
            from_family = set()
            for k, l in enumerate_kl(rc.m, rc.n1):
                fam = solve_condition_ii(rc, k, l)
                from_family.update(enumerate_condition_iii(fam, 10 * rc.n1))
            from_decide = {ps for ps, _ in out.solutions}
            assert from_decide == from_family, rc
            assert out.is_solvable() == bool(from_family)


def test_criterion_8_scan_5_mod_9():
    with criterion(8, "scan_residues(5, 9) admissible residues exactly {4, 7, 8}"):
        report = scan_residues(5, 9)
        assert report.admissible == (4, 7, 8)
        # independent brute-force oracle: a residue is admissible iff some
        # role assignment of some base triple grows an integral plus family
        for n0 in range(1, 9):
            if gcd(n0, 9) != 1:
                continue
            rc = ResidueClass(5, n0, 9)
            brute = any(
                plus_family(rc, RoleTriple(*roles)).integral
                for bt in enumerate_base_solutions(5, n0)
                for roles in bt.role_assignments()
            )
            assert brute == (n0 in report.admissible), n0


def test_criterion_9_corollary3_discrepancy_with_witness(capsys):
    with criterion(9, "audit_corollary3(5, 29) reports p = 29 with verified witness and exit 3"):
        report = audit_corollary3(5, 29)
        assert report.has_discrepancy
        (inst,) = report.discrepancies
        assert inst.prime == 29
        witness_by_rc = {w.rc: w for w in inst.witnesses}
        rc = ResidueClass(5, 23, 29)
        assert rc in witness_by_rc
        params = {ps for ps, _ in witness_by_rc[rc].solutions}
        assert ParamSet(6, 1, 1, 1) in params
        for w in inst.witnesses:
            assert w.solutions
            for _, pt in w.solutions:
                assert verify_identity(w.rc, pt)
        exit_code = cli_main(["audit", "--corollary", "3", "--m", "5",
                              "--bound", "29", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert exit_code == 3
        assert payload["has_discrepancy"] is True
