from __future__ import annotations

import operator
import random
from fractions import Fraction
from math import gcd

import pytest
from conftest import build_grid
from oracles import discriminant, identity_residual, linear, poly, poly_eval, role_assignments

from trifrac import families
from trifrac.base_solutions import enumerate_base_solutions
from trifrac.families import FamilySolution, RoleTriple, _checked, minus_family, plus_family
from trifrac.qpoly import RationalPoly
from trifrac.theorem import PolyTriple, ResidueClass, decide, identity_holds

GOLDEN_RC = ResidueClass(5, 7, 9)
GOLDEN_RT = RoleTriple(x0=14, y0=7, z0=2)


def test_role_triple_invariant():
    GOLDEN_RT.check(5, 7)
    with pytest.raises(ValueError, match="does not solve"):
        RoleTriple(2, 4, 4).check(4, 2)
    with pytest.raises(ValueError, match="x0 must be >= 1"):
        RoleTriple(0, 4, 4).check(4, 2)


def test_plus_family_reproduces_golden_solution():
    fam = plus_family(GOLDEN_RC, GOLDEN_RT)
    assert fam.branch == "plus"
    assert fam.integral
    assert not fam.degenerate
    assert fam.triple.x == linear(14, 18)
    assert fam.triple.y == RationalPoly([7, 16, 9])
    assert fam.triple.z == linear(2, 2)


def test_plus_family_non_integral_for_19():
    fam = plus_family(ResidueClass(5, 7, 19), GOLDEN_RT)
    assert not fam.integral
    assert fam.triple.x == linear(14, 38)
    assert fam.triple.z == poly([2, Fraction(38, 9)])
    assert identity_residual(ResidueClass(5, 7, 19), fam.triple).is_zero()


def test_plus_family_rejects_invalid_role_triple():
    with pytest.raises(ValueError, match="does not solve"):
        plus_family(ResidueClass(4, 3, 5), RoleTriple(2, 4, 4))


def test_minus_family_rejects_invalid_role_triple():
    """A positive role triple is checked only once the identity fails, and a
    non-solving one is still reported as such, before any ArithmeticError."""
    with pytest.raises(ValueError, match="does not solve"):
        minus_family(ResidueClass(4, 3, 5), RoleTriple(2, 4, 4))
    for family in (plus_family, minus_family):
        with pytest.raises(ValueError, match="y0 must be >= 1"):
            family(ResidueClass(4, 3, 5), RoleTriple(2, -4, 4))


def test_broken_construction_raises_arithmetic_error():
    x, y, z = plus_family(GOLDEN_RC, GOLDEN_RT).triple
    with pytest.raises(ArithmeticError, match="plus-family construction broke"):
        _checked(GOLDEN_RC, GOLDEN_RT, "plus", x, y, z * linear(1, 1))


def test_minus_family_golden_coefficients():
    fam = minus_family(GOLDEN_RC, GOLDEN_RT)
    assert fam.branch == "minus"
    assert not fam.integral
    # z1 = (n1/m)*((x0 + z0)/x0) = (9/5)*(16/14)
    assert fam.triple.z == poly([2, Fraction(72, 35)])
    assert fam.triple.x == poly([14, Fraction(72, 5)])
    assert identity_residual(GOLDEN_RC, fam.triple).is_zero()


def test_each_family_is_proved_once_on_what_it_returns(small_grid, monkeypatch):
    """One ``identity_holds`` call per family, on the very members it returns;
    the records are the exact NamedTuple types and every member is
    in canonical form (last numerator nonzero, gcd(den, *nums) = 1)."""
    calls = []

    def recorder(rc, pt):
        calls.append((rc, pt))
        return identity_holds(rc, pt)

    monkeypatch.setattr(families, "identity_holds", recorder)
    count = 0
    for rc in small_grid:
        for bt in enumerate_base_solutions(rc.m, rc.n0):
            for roles in role_assignments(bt):
                for family in (plus_family, minus_family):
                    calls.clear()
                    fam = family(rc, RoleTriple(*roles))
                    assert calls == [(rc, fam.triple)], (rc, roles, fam.branch)
                    assert all(map(operator.is_, calls[0][1], fam.triple))  # the very members
                    assert type(fam) is FamilySolution and type(fam.triple) is PolyTriple
                    assert fam == FamilySolution(*fam)
                    for p in fam.triple:
                        assert type(p) is RationalPoly and type(p.nums) is tuple
                        assert p.den >= 1 and p.nums[-1] != 0 and gcd(p.den, *p.nums) == 1
                    count += 1
    assert count == 20_012


def test_minus_family_never_integral(small_grid):
    rng = random.Random(20240817)
    for rc in rng.sample(small_grid, 200):
        for bt in enumerate_base_solutions(rc.m, rc.n0):
            for roles in role_assignments(bt):
                assert not minus_family(rc, RoleTriple(*roles)).integral


def test_both_families_satisfy_identity_exactly(small_grid):
    rng = random.Random(52)
    for rc in rng.sample(small_grid, 60):
        for bt in enumerate_base_solutions(rc.m, rc.n0):
            for roles in role_assignments(bt):
                rt = RoleTriple(*roles)
                for fam in (plus_family(rc, rt), minus_family(rc, rt)):
                    assert identity_residual(rc, fam.triple).is_zero()


def test_plus_family_matches_theorem_construction(small_grid):
    for rc in small_grid:
        for ps, pt in decide(rc).solutions:
            rt = RoleTriple(
                x0=ps.k * rc.n0,
                y0=ps.s * rc.n0,
                z0=ps.s * ps.k * ps.l // ps.r,
            )
            fam = plus_family(rc, rt)
            assert fam.integral
            assert fam.triple == pt


def _docstring_branches(m: int, n0: int, rt: RoleTriple):
    """The plus and minus branches through rt, straight from the formulas in
    the ``families`` docstring in Fraction arithmetic.  Every term there has
    as many factors n1 as lambdas, so each member is a list of c_i whose
    lambda^i coefficient at modulus n1 is c_i * n1^i."""
    x0, y0, z0 = rt
    t, u, w = Fraction(1, n0), Fraction(1, m), y0 + z0  # n1/n0 = n1*t, n1/m = n1*u
    plus = ([x0, x0 * t],
            [y0, y0 * t * (1 + Fraction(y0, w)), (y0 * t) ** 2 / w],
            [z0, t * Fraction(y0 * z0, w)])
    minus = ([x0, u * Fraction(x0 + z0, z0)],
             [y0, 2 * y0 * t - u, t * (y0 * t - u)],
             [z0, u * Fraction(x0 + z0, x0)])
    return plus, minus


def test_families_match_docstring_formulas_on_grid():
    """Every coefficient and the integral flag of both branches, for every
    role assignment on the m 4..8, n1 <= 40 grid.  No branch is degenerate:
    the plus quadratic is a positive square over y0 + z0, and the minus one
    vanishes only when y0*m = n0, which would force 1/x0 + 1/z0 = 0."""
    branches = {}
    families = 0
    for rc in build_grid(n1_max=40):
        key = rc.m, rc.n0
        if key not in branches:
            branches[key] = [(rt, _docstring_branches(*key, rt))
                             for bt in enumerate_base_solutions(*key)
                             for rt in map(RoleTriple._make, role_assignments(bt))]
        n1 = rc.n1
        for rt, both in branches[key]:
            for family, members in zip((plus_family, minus_family), both):
                fam = family(rc, rt)
                want = [[c * n1 ** i for i, c in enumerate(cs)] for cs in members]
                for (nums, den), cs in zip(fam.triple, want):
                    assert len(nums) == len(cs), (rc, rt, fam.branch)
                    assert all(a * c.denominator == c.numerator * den
                               for a, c in zip(nums, cs)), (rc, rt, fam.branch)
                assert fam.integral == all(c.denominator == 1 and c > 0 for cs in want for c in cs)
                assert want[1][2] != 0 and not fam.degenerate
                families += 1
    assert families == 169_748


def test_swapping_x_and_z_roles_gives_the_third_branch():
    fam = plus_family(GOLDEN_RC, RoleTriple(x0=2, y0=7, z0=14))
    assert identity_residual(GOLDEN_RC, fam.triple).is_zero()
    assert poly_eval(fam.triple.x, 0) == 2
    assert poly_eval(fam.triple.z, 0) == 14
    assert fam.triple != plus_family(GOLDEN_RC, GOLDEN_RT).triple


def test_scaled_base_exercises_rational_generality():
    # the golden role triple scaled by 2 solves 5/14; coefficients go rational
    rc = ResidueClass(5, 14, 9)
    rt = RoleTriple(28, 14, 4)
    fam = plus_family(rc, rt)
    assert identity_residual(rc, fam.triple).is_zero()
    assert not fam.integral
    assert fam.triple.y == poly([14, 16, Fraction(9, 2)])
    fam_minus = minus_family(rc, rt)
    assert identity_residual(rc, fam_minus.triple).is_zero()
    assert not fam_minus.integral


def test_discriminant_golden():
    assert discriminant(5, 7, GOLDEN_RT) == (63, 3, -140, Fraction(-140))


def test_discriminant_needs_a_solving_role_triple():
    *_, lhs, rhs = discriminant(5, 7, RoleTriple(1, 2, 3))
    assert lhs != rhs
