from __future__ import annotations

from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from conftest import build_grid
from oracles import (
    base_triples_oracle,
    enumerate_condition_iii,
    family_at,
    identity_holds_at_points,
    identity_residual,
    is_quadratic_residue,
    poly_eval,
)

from trifrac.base_solutions import enumerate_base_solutions
from trifrac.families import RoleTriple, minus_family, plus_family
from trifrac.intmath import gcd, primes_up_to
from trifrac.qpoly import RationalPoly, linear
from trifrac.theorem import (
    ParamFamily,
    ParamSet,
    PolyTriple,
    ResidueClass,
    admissible_residues,
    analyze_degrees,
    construct_solution,
    decide,
    enumerate_kl,
    identity_holds,
    search_condition_iii,
    solve_condition_ii,
    verify_identity,
)

GOLDEN_RC = ResidueClass(5, 7, 9)
GOLDEN_TRIPLE = PolyTriple(x=linear(14, 18), y=RationalPoly([7, 16, 9]), z=linear(2, 2))


# ------------------------------------------------------------ residue class

def test_residue_class_validation_messages():
    with pytest.raises(ValueError, match="m must be >= 4"):
        ResidueClass(3, 7, 9)
    with pytest.raises(ValueError, match="n0 must be >= 1"):
        ResidueClass(5, 0, 9)
    with pytest.raises(ValueError, match="n1 must be >= 2"):
        ResidueClass(5, 7, 1)
    with pytest.raises(ValueError, match="gcd\\(n0, n1\\)"):
        ResidueClass(5, 6, 9)
    with pytest.raises(ValueError, match="gcd\\(n1, m\\)"):
        ResidueClass(4, 7, 10)


# ------------------------------------------------------------ condition i

def test_enumerate_kl_examples():
    assert enumerate_kl(5, 9) == [(2, 1)]
    assert enumerate_kl(5, 19) == [(4, 1)]
    assert enumerate_kl(4, 21) == [(2, 3), (1, 7)]


def test_enumerate_kl_empty_for_primes_1_mod_4_when_m_is_4():
    for p in (5, 13, 17, 29):
        assert enumerate_kl(4, p) == []


def test_enumerate_kl_preconditions():
    with pytest.raises(ValueError, match="m must be >= 4"):
        enumerate_kl(3, 9)
    with pytest.raises(ValueError, match="n1 must be >= 2"):
        enumerate_kl(5, 1)
    with pytest.raises(ValueError, match="gcd"):
        enumerate_kl(4, 8)


def test_enumerate_kl_definition_on_a_grid():
    for m in range(4, 9):
        for n1 in range(2, 80):
            if gcd(m, n1) != 1:
                continue
            pairs = enumerate_kl(m, n1)
            ls = [l for _, l in pairs]
            assert ls == sorted(ls)
            for k, l in pairs:
                assert k >= 1 and l >= 1 and l * (m * k - 1) == n1
            # completeness: no pair missed
            brute = {(k, l) for l in range(1, n1 + 1) for k in range(1, n1 + 1)
                     if l * (m * k - 1) == n1}
            assert set(pairs) == brute


# ------------------------------------------------------------ condition ii

def test_solve_condition_ii_examples():
    fam = solve_condition_ii(ResidueClass(5, 7, 19), 4, 1)
    assert (fam.s0, fam.r0) == (5, 13)
    assert fam.describe() == "s = 5 + 7t, r = 13 + 19t"

    fam = solve_condition_ii(GOLDEN_RC, 2, 1)
    assert (fam.s0, fam.r0) == (1, 1)

    fam = solve_condition_ii(ResidueClass(5, 1, 29), 6, 1)
    assert (fam.s0, fam.r0) == (1, 23)


def test_solve_condition_ii_family_invariants():
    for rc in (GOLDEN_RC, ResidueClass(5, 7, 19), ResidueClass(4, 5, 21)):
        for k, l in enumerate_kl(rc.m, rc.n1):
            fam = solve_condition_ii(rc, k, l)
            assert 1 <= fam.s0 <= rc.n0
            assert fam.s0 * rc.n1 == k * l + fam.r0 * rc.n0
            for t in range(5):
                s, r = family_at(fam, t)
                assert s * rc.n1 == k * l + r * rc.n0
            # the line is complete: s solves the congruence iff it sits on it
            for s in range(1, 60):
                on_line = (s - fam.s0) % rc.n0 == 0
                solves = (s * rc.n1 - k * l) % rc.n0 == 0
                assert on_line == solves


# ------------------------------------------------------------ condition iii

def test_search_condition_iii():
    fam_19 = solve_condition_ii(ResidueClass(5, 7, 19), 4, 1)
    assert search_condition_iii(fam_19, 1000) is None

    fam_9 = solve_condition_ii(GOLDEN_RC, 2, 1)
    assert search_condition_iii(fam_9, 0) == ParamSet(2, 1, 1, 1)

    with pytest.raises(ValueError, match="t_max"):
        search_condition_iii(fam_9, -1)
    with pytest.raises(ValueError, match="t_max"):
        enumerate_condition_iii(fam_9, -1)


@pytest.mark.parametrize("t_max", [0, 1, 3, 50, 400])
def test_search_condition_iii_matches_linear_walk(small_grid, t_max):
    for rc in small_grid:
        for k, l in enumerate_kl(rc.m, rc.n1):
            fam = solve_condition_ii(rc, k, l)
            hits = enumerate_condition_iii(fam, t_max)
            assert search_condition_iii(fam, t_max) == (hits[0] if hits else None)


@settings(max_examples=150, deadline=None)
@given(st.integers(4, 11), st.integers(1, 3000), st.integers(1, 300), st.integers(1, 400),
       st.integers(0, 3000))
def test_search_condition_iii_matches_linear_walk_on_large_moduli(m, k, l, n0, t_max):
    n1 = l * (m * k - 1)
    assume(n0 < n1 and gcd(n0, n1) == 1 and gcd(n1, m) == 1)
    for kk, ll in enumerate_kl(m, n1):
        fam = solve_condition_ii(ResidueClass(m, n0, n1), kk, ll)
        hits = enumerate_condition_iii(fam, t_max)
        assert search_condition_iii(fam, t_max) == (hits[0] if hits else None)


def test_search_condition_iii_rejects_non_condition_ii_family():
    # 1*9 != 2*1 + (-5)*7: not a line of condition-ii solutions
    fam = ParamFamily(k=2, l=1, s0=1, r0=-5, step=(7, 9))
    with pytest.raises(ValueError, match="not a condition-ii family"):
        search_condition_iii(fam, 10)
    # -1*(-9) = 2*1 + (-1)*(-7) holds, but the steps must be positive
    fam = ParamFamily(k=2, l=1, s0=-1, r0=-1, step=(-7, -9))
    with pytest.raises(ValueError, match="not a condition-ii family"):
        search_condition_iii(fam, 10)


def test_enumerate_condition_iii_handles_nonpositive_r0():
    # r0 <= 0 keeps the family valid for larger t
    fam = ParamFamily(k=2, l=1, s0=1, r0=-5, step=(7, 9))
    hits = enumerate_condition_iii(fam, 10)
    for ps in hits:
        assert ps.r >= 1 and ps.s >= 1 and (ps.s * ps.k * ps.l) % ps.r == 0


# ------------------------------------------------------------ construction

def test_construct_solution_golden():
    pt = construct_solution(GOLDEN_RC, ParamSet(2, 1, 1, 1))
    assert pt == GOLDEN_TRIPLE


def test_construct_solution_derived_cases():
    pt = construct_solution(ResidueClass(4, 2, 3), ParamSet(1, 1, 1, 1))
    assert pt.x == linear(2, 3)
    assert pt.z == linear(1, 1)
    assert pt.y == linear(2, 3) * linear(1, 1)
    assert verify_identity(ResidueClass(4, 2, 3), pt)

    pt = construct_solution(ResidueClass(5, 4, 9), ParamSet(2, 1, 2, 4))
    assert pt.x == linear(8, 18)
    assert pt.z == linear(1, 2)
    assert pt.y == linear(4, 9) * linear(2, 4)
    assert verify_identity(ResidueClass(5, 4, 9), pt)


def test_construct_solution_rejects_bad_params():
    with pytest.raises(ValueError, match="condition i fails"):
        construct_solution(GOLDEN_RC, ParamSet(3, 1, 1, 1))
    with pytest.raises(ValueError, match="condition ii fails"):
        construct_solution(GOLDEN_RC, ParamSet(2, 1, 2, 1))
    with pytest.raises(ValueError, match="condition iii fails"):
        # s = 8, r = 10 satisfies ii (72 = 2 + 70) but 10 does not divide 16
        construct_solution(GOLDEN_RC, ParamSet(2, 1, 8, 10))
    with pytest.raises(ValueError, match="k must be >= 1"):
        ParamSet(0, 1, 1, 1)


# ------------------------------------------------------------ verification

def test_verify_identity_golden_and_perturbed():
    assert verify_identity(GOLDEN_RC, GOLDEN_TRIPLE)
    tampered = PolyTriple(x=GOLDEN_TRIPLE.x, y=GOLDEN_TRIPLE.y, z=linear(2, 4))
    assert not verify_identity(GOLDEN_RC, tampered)
    tampered = PolyTriple(x=GOLDEN_TRIPLE.x, y=RationalPoly([7, 17, 9]), z=GOLDEN_TRIPLE.z)
    assert not verify_identity(GOLDEN_RC, tampered)


def test_verify_identity_rejects_non_integral():
    pt = PolyTriple(x=linear(14, 18), y=RationalPoly([7, 16, 9]), z=RationalPoly([2, Fraction(1, 2)]))
    assert not verify_identity(GOLDEN_RC, pt)


def test_verify_identity_all_equal_n_fails_for_m_at_least_4():
    n = GOLDEN_RC.n_poly()
    assert not verify_identity(GOLDEN_RC, PolyTriple(x=n, y=n, z=n))


def test_identity_holds_matches_exact_residual():
    cases = [
        (GOLDEN_RC, GOLDEN_TRIPLE),
        (GOLDEN_RC, PolyTriple(x=linear(14, 18), y=RationalPoly([7, 16, 9]), z=linear(2, 4))),
        (GOLDEN_RC, PolyTriple(x=linear(14, Fraction(18, 5)), y=RationalPoly([7, 16, 9]), z=linear(2, 2))),
        (ResidueClass(4, 2, 3), construct_solution(ResidueClass(4, 2, 3), ParamSet(1, 1, 1, 1))),
    ]
    for rc, pt in cases:
        assert identity_holds(rc, pt) == identity_residual(rc, pt).is_zero()
        assert identity_holds(rc, pt) == identity_holds_at_points(rc, pt)


def near_miss(rc: ResidueClass, x0: int, y0: int, deg: int) -> PolyTriple:
    """Constant x = x0, y = y0 and a z of degree deg whose residual is
    c*lambda*(lambda - 1)*...*(lambda - deg) for some rational c != 0.

    The residual is z*q - x0*y0*n with q = m*x0*y0 - (x0 + y0)*n linear, so
    c is chosen to make the numerator vanish at the root of q, and z is the
    exact quotient.  Such a triple agrees with the identity at the deg + 1
    points 0..deg and fails only at the extra point a constant member needs.
    """
    m, n0, n1 = rc.m, rc.n0, rc.n1
    q0, q1 = m * x0 * y0 - (x0 + y0) * n0, -(x0 + y0) * n1
    root = Fraction(-q0, q1)
    if root.denominator == 1 and 0 <= root <= deg:
        raise ValueError(f"q vanishes at lambda = {root}, one of the points")
    falling = RationalPoly([1])
    for i in range(deg + 1):
        falling = falling * linear(-i, 1)
    c = -x0 * y0 * (n0 + n1 * root) / poly_eval(falling, root)
    top = [Fraction(v, falling.den) * c for v in falling.nums]
    top[0] += x0 * y0 * n0
    top[1] += x0 * y0 * n1
    # synthetic division by q0 + q1*lambda, leading coefficient first
    quotient, carry = [], Fraction(0)
    for v in reversed(top[1:]):
        carry = (v - q0 * carry) / q1
        quotient.append(carry)
    z = RationalPoly(reversed(quotient))
    assert top[0] == q0 * quotient[-1]
    return PolyTriple(x=RationalPoly([x0]), y=RationalPoly([y0]), z=z)


@pytest.mark.parametrize("deg", [0, 1, 2, 5])
def test_identity_holds_needs_the_extra_point_for_a_constant_member(deg):
    rc = ResidueClass(5, 7, 9)
    pt = near_miss(rc, 3, 11, deg)
    assert pt.z.degree == deg
    residual = identity_residual(rc, pt)
    assert residual.degree == deg + 1
    assert all(poly_eval(residual, lam) == 0 for lam in range(deg + 1))
    for members in permutations((pt.x, pt.y, pt.z)):
        assert not identity_holds(rc, PolyTriple(*members))


RESIDUE_CLASSES = [ResidueClass(5, 7, 9), ResidueClass(4, 2, 3), ResidueClass(7, 3, 20),
                   ResidueClass(6, 5, 23), ResidueClass(5, 23, 29)]
COEFFS = st.fractions(min_value=-60, max_value=60, max_denominator=12)


@st.composite
def rational_triples(draw):
    """A residue class and a triple: random (possibly with a constant
    member, where the residual has degree dx + dy + dz + 1), a family
    solution (possibly with one coefficient moved), or a near miss."""
    rc = draw(st.sampled_from(RESIDUE_CLASSES))
    kind = draw(st.sampled_from(["random", "constant", "family", "near miss"]))
    if kind == "near miss":
        x0, y0, deg = draw(st.integers(1, 40)), draw(st.integers(1, 40)), draw(st.integers(0, 4))
        q0 = rc.m * x0 * y0 - (x0 + y0) * rc.n0
        assume(q0 % ((x0 + y0) * rc.n1) or not 0 <= q0 // ((x0 + y0) * rc.n1) <= deg)
        return rc, near_miss(rc, x0, y0, deg)
    if kind == "family":
        roles = [r for t in enumerate_base_solutions(rc.m, rc.n0) for r in t.role_assignments()]
        family = draw(st.sampled_from([plus_family, minus_family]))
        fam = family(rc, RoleTriple(*draw(st.sampled_from(roles))))
        members = [fam.triple.x, fam.triple.y, fam.triple.z]
        if draw(st.booleans()):
            i = draw(st.integers(0, 2))
            nums = [Fraction(c, members[i].den) for c in members[i].nums]
            j = draw(st.integers(0, len(nums)))
            nums += [Fraction(0)] * (j + 1 - len(nums))
            nums[j] += draw(COEFFS.filter(bool))
            members[i] = RationalPoly(nums)
        return rc, PolyTriple(*members)
    sizes = [draw(st.integers(1, 4)) for _ in range(3)]
    if kind == "constant":
        sizes[draw(st.integers(0, 2))] = 1
    return rc, PolyTriple(*(RationalPoly(draw(st.lists(COEFFS, min_size=n, max_size=n)))
                            for n in sizes))


@settings(max_examples=300, deadline=None)
@given(rational_triples())
def test_identity_holds_agrees_with_the_residual_oracle(case):
    rc, pt = case
    assert identity_holds(rc, pt) == identity_residual(rc, pt).is_zero()


def test_every_unit_perturbation_of_a_solution_is_rejected():
    """Moving one coefficient of one decided solution by +-1 breaks the
    identity, and the check sees it, on the m in 4..8, n1 < 40 grid."""
    perturbed = 0
    for rc in build_grid(n1_max=39):
        for _, pt in decide(rc).solutions:
            members = [pt.x, pt.y, pt.z]
            for i, p in enumerate(members):
                for j in range(len(p.nums)):
                    for step in (-1, 1):
                        nums = list(p.nums)
                        nums[j] += step
                        moved = members[:i] + [RationalPoly(nums)] + members[i + 1:]
                        assert not identity_holds(rc, PolyTriple(*moved))
                        perturbed += 1
    assert perturbed > 4_000


# ------------------------------------------------------------ decide

def test_decide_golden_7_mod_9():
    out = decide(GOLDEN_RC)
    assert out.status == "solvable"
    assert len(out.solutions) == 1
    ps, pt = out.solutions[0]
    assert ps == ParamSet(2, 1, 1, 1)
    assert pt == GOLDEN_TRIPLE


def test_quadratic_residue_modulus_still_solvable_for_m5():
    # the m = 4 quadratic-residue obstruction does not carry over to m = 5:
    # 7 is a square mod 9 and the class is solvable anyway
    assert is_quadratic_residue(7, 9)
    assert decide(GOLDEN_RC).is_solvable()


def test_decide_7_mod_19_unsolvable_with_evidence():
    out = decide(ResidueClass(5, 7, 19))
    assert out.status == "unsolvable"
    assert out.solutions == ()
    assert out.kl_pairs == ((4, 1),)
    (ev,) = out.evidence
    assert (ev.k, ev.l, ev.s0, ev.r0) == (4, 1, 5, 13)
    assert ev.family == "s = 5 + 7t, r = 13 + 19t"
    assert ev.reason == "no qualifying base triple"


def test_decide_evidence_reasons_match_base_triple_oracle(full_grid):
    # the reason is "no condition-ii positivity" exactly when some triple
    # through k*n0 has another member divisible by n0; the classes
    # (m, p + 1, p) of the corollary-4 audit add residues n0 > n1
    shifted = [ResidueClass(m, p + 1, p) for m in range(4, 9) for p in primes_up_to(60)
               if gcd(m, p) == 1]
    triples = {}
    reasons = {}
    for rc in full_grid + shifted:
        out = decide(rc)
        if out.is_solvable():
            assert out.evidence == ()
            continue
        assert [(ev.k, ev.l) for ev in out.evidence] == list(out.kl_pairs)
        key = (rc.m, rc.n0)
        if key not in triples:
            triples[key] = base_triples_oracle(*key)
        for ev in out.evidence:
            x0 = ev.k * rc.n0
            divisible = False
            for bt in triples[key]:
                if x0 in bt:
                    rest = list(bt)
                    rest.remove(x0)
                    divisible = divisible or any(y0 % rc.n0 == 0 for y0 in rest)
            expected = "no condition-ii positivity" if divisible else "no qualifying base triple"
            assert ev.reason == expected, (rc, ev)
            reasons[rc, ev.k, ev.l] = ev.reason
    assert set(reasons.values()) == {"no condition-ii positivity", "no qualifying base triple"}
    assert reasons[ResidueClass(4, 4, 9), 1, 3] == "no condition-ii positivity"


def test_decide_1_mod_19_unsolvable():
    out = decide(ResidueClass(5, 1, 19))
    assert out.status == "unsolvable"


def test_decide_23_mod_29_solvable():
    out = decide(ResidueClass(5, 23, 29))
    assert out.status == "solvable"
    params = {ps for ps, _ in out.solutions}
    assert ParamSet(6, 1, 1, 1) in params
    idx = [ps for ps, _ in out.solutions].index(ParamSet(6, 1, 1, 1))
    pt = out.solutions[idx][1]
    assert pt.x == linear(6 * 23, 6 * 29)
    assert pt.z == linear(6, 6)
    assert pt.y == linear(23, 29) * linear(1, 1)


def test_decide_unsolvable_when_condition_i_admits_nothing():
    for n1 in (5, 13, 17, 29):
        assert enumerate_kl(4, n1) == []
        for n0 in (1, 2, 3):
            out = decide(ResidueClass(4, n0, n1))
            assert out.status == "unsolvable"
            assert out.kl_pairs == ()


def test_decide_every_solution_verifies(small_grid):
    for rc in small_grid:
        out = decide(rc)
        assert out.is_solvable() == bool(out.solutions)
        for ps, pt in out.solutions:
            ps.check(rc)
            assert verify_identity(rc, pt)
            assert analyze_degrees(rc, pt).degrees == (1, 1, 2)
        # no duplicate triples
        triples = [pt for _, pt in out.solutions]
        assert len(triples) == len(set(triples))


def test_decide_agrees_with_family_search(small_grid):
    for rc in small_grid:
        out = decide(rc)
        from_t_route = set()
        for k, l in enumerate_kl(rc.m, rc.n1):
            fam = solve_condition_ii(rc, k, l)
            from_t_route.update(enumerate_condition_iii(fam, 10 * rc.n1))
        assert {ps for ps, _ in out.solutions} == from_t_route
        # every accepted set sits on its family at a nonnegative integer t
        for ps, _ in out.solutions:
            fam = solve_condition_ii(rc, ps.k, ps.l)
            t, rem = divmod(ps.s - fam.s0, rc.n0)
            assert rem == 0 and t >= 0
            assert family_at(fam, t) == (ps.s, ps.r)


# ------------------------------------------------------------ admissible residues

def test_admissible_residues_examples():
    assert admissible_residues(5, 9) == [4, 7, 8]
    for p in (13, 29, 101):
        assert admissible_residues(4, p) == []
    with pytest.raises(ValueError, match="gcd\\(n1, m\\)"):
        admissible_residues(4, 10)


def test_admissible_residues_match_decide_on_the_grid():
    moduli = [(m, n1) for m in range(4, 10) for n1 in range(2, 260) if gcd(m, n1) == 1]
    assert len(moduli) == 944
    # several (k, l), so a composite modulus, with solvable residues
    assert any(len(enumerate_kl(m, n1)) > 1 and admissible_residues(m, n1) for m, n1 in moduli)
    for m, n1 in moduli:
        solvable = [n0 for n0 in range(1, n1)
                    if gcd(n0, n1) == 1 and decide(ResidueClass(m, n0, n1)).is_solvable()]
        assert admissible_residues(m, n1) == solvable, (m, n1)


# ------------------------------------------------------------ degrees

def test_analyze_degrees_golden():
    report = analyze_degrees(GOLDEN_RC, GOLDEN_TRIPLE)
    assert report.degrees == (1, 1, 2)
    assert report.aux_degree == 1


def test_analyze_degrees_rejects_unverified():
    bad = PolyTriple(x=GOLDEN_TRIPLE.x, y=GOLDEN_TRIPLE.y, z=linear(2, 4))
    with pytest.raises(ValueError, match="verify_identity"):
        analyze_degrees(GOLDEN_RC, bad)


def test_no_all_degree_one_solution_exists():
    """Exhaustive sweep over small degree-1 candidates.

    A degree-1 triple solving the identity must solve it at lambda = 0 and
    in the leading coefficient, i.e. (x0, y0, z0) is a base solution of
    m/n0 and (x1, y1, z1) one of m/n1.  Every such pairing with members
    up to 30 must still fail full verification.
    """
    for rc in (ResidueClass(4, 2, 3), ResidueClass(5, 7, 9), ResidueClass(5, 4, 9),
               ResidueClass(6, 5, 23), ResidueClass(7, 3, 20), ResidueClass(8, 3, 7)):
        heads = [t for t in enumerate_base_solutions(rc.m, rc.n0) if t.c <= 30]
        tails = [t for t in enumerate_base_solutions(rc.m, rc.n1) if t.c <= 30]
        candidates = 0
        for h in heads:
            for const in h.role_assignments():
                for t in tails:
                    for lead in t.role_assignments():
                        pt = PolyTriple(
                            x=linear(const[0], lead[0]),
                            y=linear(const[1], lead[1]),
                            z=linear(const[2], lead[2]),
                        )
                        candidates += 1
                        assert not verify_identity(rc, pt)
        assert candidates > 0 or not heads or not tails
