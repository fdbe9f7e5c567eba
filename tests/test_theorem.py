from __future__ import annotations

import json
import pickle
import random
from copy import deepcopy
from fractions import Fraction
from itertools import permutations, zip_longest

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from conftest import build_grid
from oracles import (
    ParamFamily,
    base_triples_oracle,
    degree_oracle,
    enumerate_condition_iii,
    family_at,
    identity_holds_at_points,
    identity_residual,
    is_quadratic_residue,
    jacobi,
    kl_square_sieve,
    linear,
    poly,
    poly_eval,
    role_assignments,
    search_condition_iii,
    solve_condition_ii,
    trial_divisors,
    walk_decide,
)

from trifrac import theorem
from trifrac.base_solutions import MAX_WALK_DIVISORS, enumerate_base_solutions
from trifrac.cli import main
from trifrac.families import RoleTriple, minus_family, plus_family
from trifrac.intmath import gcd, primes_up_to
from trifrac.qpoly import RationalPoly
from trifrac.scan_audit import scan_residues
from trifrac.theorem import (
    ParamSet,
    PolyTriple,
    ResidueClass,
    admissible_residues,
    analyze_degrees,
    construct_solution,
    decide,
    enumerate_kl,
    identity_holds,
    residual,
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


def test_records_validate_on_every_construction_path():
    """``_replace`` and ``_make`` rebuild a record through ``__new__``: each
    raises the ValueError that direct construction raises."""
    cases = [
        (lambda: GOLDEN_RC._replace(n0=0), lambda: ResidueClass(5, 0, 9)),
        (lambda: GOLDEN_RC._replace(n0=3), lambda: ResidueClass(5, 3, 9)),
        (lambda: ParamSet._make((0, 1, 1, 1)), lambda: ParamSet(0, 1, 1, 1)),
    ]
    for build, direct in cases:
        with pytest.raises(ValueError) as want:
            direct()
        with pytest.raises(ValueError) as got:
            build()
        assert str(got.value) == str(want.value)
    assert ResidueClass(m=5, n0=7, n1=9) == GOLDEN_RC == (5, 7, 9)
    assert ParamSet(k=2, l=1, s=1, r=1) == ParamSet._make((2, 1, 1, 1))
    assert GOLDEN_RC._replace(n0=4) == ResidueClass(5, 4, 9)
    for record in (GOLDEN_RC, ParamSet(2, 1, 1, 1)):
        copy = pickle.loads(pickle.dumps(record))
        assert copy == record and type(copy) is type(record)
    for record, name in ((GOLDEN_RC, "n0"), (ParamSet(2, 1, 1, 1), "r"),
                         (decide(GOLDEN_RC), "status")):
        with pytest.raises(AttributeError):
            setattr(record, name, 1)


def test_records_survive_pickle_and_deepcopy():
    """Every record, polynomials inside it included, round-trips through
    pickle and copy.deepcopy, and RationalPoly stays immutable."""
    p = poly([Fraction(1, 2), 3, Fraction(-5, 6)])
    outcome = decide(GOLDEN_RC)
    records = [p, outcome.solutions[0][1], outcome,
               plus_family(GOLDEN_RC, RoleTriple(x0=14, y0=7, z0=2)), scan_residues(5, 9)]
    for record in records:
        for copy in (pickle.loads(pickle.dumps(record)), deepcopy(record)):
            assert copy == record and type(copy) is type(record)
    with pytest.raises(AttributeError, match="immutable"):
        p.den = 1
    with pytest.raises(AttributeError, match="immutable"):
        deepcopy(p).nums = ()


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

    # the evidence record of the library comes to the same line by pow
    for rc, k, l, family in ((ResidueClass(5, 7, 19), 4, 1, "s = 5 + 7t, r = 13 + 19t"),
                             (GOLDEN_RC, 2, 1, "s = 1 + 7t, r = 1 + 9t"),
                             (ResidueClass(5, 1, 29), 6, 1, "s = 1 + 1t, r = 23 + 29t")):
        ev = theorem._evidence(rc, k, l, False)
        assert (ev.k, ev.l, ev.family) == (k, l, family)
        assert (ev.s0, ev.r0) == tuple(solve_condition_ii(rc, k, l)[2:4])


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
    pt = PolyTriple(x=linear(14, 18), y=RationalPoly([7, 16, 9]), z=poly([2, Fraction(1, 2)]))
    assert not verify_identity(GOLDEN_RC, pt)


def test_verify_identity_all_equal_n_fails_for_m_at_least_4():
    n = RationalPoly([GOLDEN_RC.n0, GOLDEN_RC.n1])
    assert not verify_identity(GOLDEN_RC, PolyTriple(x=n, y=n, z=n))


def test_identity_holds_matches_exact_residual():
    cases = [
        (GOLDEN_RC, GOLDEN_TRIPLE),
        (GOLDEN_RC, PolyTriple(x=linear(14, 18), y=RationalPoly([7, 16, 9]), z=linear(2, 4))),
        (GOLDEN_RC, PolyTriple(x=linear(14, Fraction(18, 5)), y=RationalPoly([7, 16, 9]), z=linear(2, 2))),
        (ResidueClass(4, 2, 3), construct_solution(ResidueClass(4, 2, 3), ParamSet(1, 1, 1, 1))),
    ]
    for rc, pt in cases:
        assert residual(rc, pt) == identity_residual(rc, pt)
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
    z = poly(reversed(quotient))
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
        roles = [r for t in enumerate_base_solutions(rc.m, rc.n0) for r in role_assignments(t)]
        family = draw(st.sampled_from([plus_family, minus_family]))
        fam = family(rc, RoleTriple(*draw(st.sampled_from(roles))))
        members = [fam.triple.x, fam.triple.y, fam.triple.z]
        if draw(st.booleans()):
            i = draw(st.integers(0, 2))
            nums = [Fraction(c, members[i].den) for c in members[i].nums]
            j = draw(st.integers(0, len(nums)))
            nums += [Fraction(0)] * (j + 1 - len(nums))
            nums[j] += draw(COEFFS.filter(bool))
            members[i] = poly(nums)
        return rc, PolyTriple(*members)
    sizes = [draw(st.integers(1, 4)) for _ in range(3)]
    if kind == "constant":
        sizes[draw(st.integers(0, 2))] = 1
    return rc, PolyTriple(*(poly(draw(st.lists(COEFFS, min_size=n, max_size=n)))
                            for n in sizes))


@settings(max_examples=300, deadline=None)
@given(rational_triples())
def test_identity_holds_agrees_with_the_residual_oracle(case):
    rc, pt = case
    expected = identity_residual(rc, pt)
    assert residual(rc, pt) == expected
    assert identity_holds(rc, pt) == expected.is_zero()


@st.composite
def integer_triples(draw):
    """A residue class and three members with negative, zero and constant
    coefficients, each over its own denominator (or the zero polynomial)."""
    m, n0, n1 = draw(st.integers(4, 12)), draw(st.integers(1, 10**6)), draw(st.integers(2, 10**6))
    assume(gcd(n0, n1) == 1 and gcd(n1, m) == 1)
    members = [RationalPoly(draw(st.lists(st.integers(-10**12, 10**12), max_size=4)),
                            draw(st.integers(1, 10**6))) for _ in range(3)]
    if draw(st.booleans()):
        i = draw(st.integers(0, 2))
        members[i] = RationalPoly([draw(st.integers(-10**6, 10**6))], members[i].den)
    return ResidueClass(m, n0, n1), PolyTriple(*members)


@settings(max_examples=300, deadline=None)
@given(integer_triples())
def test_the_evaluation_point_does_not_move(case):
    """2^k is the point of the ``_packed_residual`` docstring: k is the least
    whole number of bytes with 2^k > 2*bound, for the bound on R's
    coefficients taken from the members' l1 norms (a product's coefficients
    are at most the product of its factors' norms, and n0 + n1*lambda has
    norm n0 + n1)."""
    rc, pt = case
    (X, a), (Y, b), (Z, c) = pt
    nx, ny, nz = sum(map(abs, X)), sum(map(abs, Y)), sum(map(abs, Z))
    bound = rc.m * nx * ny * nz + (rc.n0 + rc.n1) * (c * nx * ny + b * nx * nz + a * ny * nz)
    k = 8
    while 2 ** k <= 2 * bound:
        k += 8
    assert theorem._packed_residual(rc, pt)[1] == k


BIG = 10**30


@pytest.mark.parametrize("members", [
    ([-14, 18], [7, -16, 9], [2, -2]),
    ([], [7, 16, 9], [2, 2]),
    ([Fraction(-3, 7)], [], []),
    ([5], [7, 16, 9], [2, 2]),
    ([3], [Fraction(11, 2)], [Fraction(-1, 3)]),
    ([BIG - 1, -BIG], [7, BIG + 3, 9], [Fraction(BIG, 7), -2]),
    ([-BIG], [BIG], [Fraction(-1, BIG)]),
])
def test_residual_matches_the_oracle_on_edge_triples(members):
    """Negative coefficients, zero and constant members, and coefficients
    near 10^30, where the digits of the packed value are widest."""
    for rc in (GOLDEN_RC, ResidueClass(7, BIG + 1, BIG)):
        pt = PolyTriple(*(poly(c) for c in members))
        expected = identity_residual(rc, pt)
        assert residual(rc, pt) == expected
        assert identity_holds(rc, pt) == expected.is_zero() == identity_holds_at_points(rc, pt)


def test_residual_of_a_large_failing_triple(capsys, tmp_path):
    """200 coefficients of 200 digits per member: the library residual and
    the one ``verify`` prints both equal the seven-convolution oracle's."""
    rng = random.Random(13)
    rc = GOLDEN_RC
    coeffs = [[str(rng.choice((-1, 1)) * rng.randrange(10**199, 10**200)) for _ in range(200)]
              for _ in range(3)]
    pt = PolyTriple(*(RationalPoly.from_coeff_strings(c) for c in coeffs))
    expected = identity_residual(rc, pt)
    assert not expected.is_zero()
    assert residual(rc, pt) == expected
    triple_file = tmp_path / "triple.json"
    triple_file.write_text(json.dumps(dict(zip("xyz", coeffs))))
    code = main(["verify", "--m", "5", "--n0", "7", "--n1", "9",
                 "--file", str(triple_file), "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 3
    assert payload["identity_holds"] is False
    assert payload["residual"] == expected.to_coeff_strings()


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


def test_decide_builds_evidence_only_for_an_unsolvable_class(monkeypatch):
    # a solvable class would discard the evidence of the pairs before its
    # first solution, so it builds none; an unsolvable one builds one per pair
    built = []
    evidence = theorem._evidence
    monkeypatch.setattr(theorem, "_evidence", lambda *args: built.append(args) or evidence(*args))
    solvable = decide(ResidueClass(4, 2, 15))
    assert solvable.is_solvable()
    assert solvable.kl_pairs[0] not in {ps[:2] for ps, _ in solvable.solutions}
    assert built == []
    unsolvable = decide(ResidueClass(4, 4, 15))
    assert len(unsolvable.kl_pairs) == 2
    assert {ev.reason for ev in unsolvable.evidence} == {
        theorem.REASON_CONDITION_II, theorem.REASON_NO_BASE_TRIPLE}
    assert [args[1:3] for args in built] == list(unsolvable.kl_pairs)


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


@pytest.mark.parametrize("t_max", [0, 3, 10_000])
def test_unsolvable_families_meet_condition_iii_nowhere(small_grid, t_max):
    """decide is complete: on the family of every (k, l) of an unsolvable
    class, the oracle's bounded (k*l)^2 walk finds no condition-iii point."""
    unsolvable = 0
    for rc in small_grid:
        out = decide(rc)
        if out.is_solvable():
            assert out.evidence == ()
            continue
        unsolvable += 1
        assert [ev[:2] for ev in out.evidence] == list(out.kl_pairs)
        for ev in out.evidence:
            assert search_condition_iii(solve_condition_ii(rc, ev.k, ev.l), t_max) is None
    assert unsolvable > 100


def test_decide_matches_the_degree_oracle_on_the_grid():
    """decide lists every solution: the degree oracle, which does not use
    conditions i)-iii), finds the same triples, members in any order."""
    grid = build_grid(range(4, 6), n1_max=29)
    assert len(grid) == 407
    solvable = 0
    for rc in grid:
        out = decide(rc)
        triples = {tuple(sorted(tuple(p.nums) for p in pt)) for _, pt in out.solutions}
        assert len(triples) == len(out.solutions) and out.is_solvable() == bool(triples), rc
        assert triples == degree_oracle(rc), rc
        solvable += out.is_solvable()
    assert solvable == 100


@settings(max_examples=60, deadline=None)
@given(st.integers(4, 9), st.integers(2, 59), st.data())
def test_decide_matches_the_degree_oracle_on_random_classes(m, n1, data):
    """Small random classes, n0 up to 2*n1, so n0 > n1 is drawn too."""
    assume(gcd(m, n1) == 1)
    n0 = data.draw(st.integers(1, 2 * n1 - 1).filter(lambda n0: gcd(n0, n1) == 1))
    rc = ResidueClass(m, n0, n1)
    out = decide(rc)
    triples = {tuple(sorted(tuple(p.nums) for p in pt)) for _, pt in out.solutions}
    assert len(triples) == len(out.solutions) and out.is_solvable() == bool(triples)
    assert triples == degree_oracle(rc)


def test_decide_refuses_a_walk_beyond_the_divisor_limit():
    # k = (n1 + 1)/4 admits n0 = 3k - 1 at h = 1, and the walk through k*n0
    # would list from the 1,554,464,925 divisors of Q^2
    rc = ResidueClass(4, 1186868108009105121599, 1582490810678806828799)
    with pytest.raises(ValueError, match=f"1554464925 divisors of Q\\^2, more than {MAX_WALK_DIVISORS}$"):
        decide(rc)


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


def test_admissible_residues_match_the_kl_square_route():
    moduli = [(4, 45045), (4, 4389), (5, 4389)]
    moduli += [(m, n1) for m in range(4, 8) for n1 in range(260, 700)
               if gcd(m, n1) == 1 and len(enumerate_kl(m, n1)) > 1]
    assert max(len(enumerate_kl(m, n1)) for m, n1 in moduli) == 24  # (4, 45045)
    for m, n1 in moduli:
        assert admissible_residues(m, n1) == kl_square_sieve(m, n1), (m, n1)


def test_no_solvable_n0_is_a_square_when_4_divides_m():
    """The quadratic character of the ``theorem`` docstring: for 4 | m, an n0
    admitted at (k, l) by the lemma has Jacobi symbol (n0/P) = -1, and no
    solvable n0 is a square mod n1."""
    cases = 0
    for m in (4, 8, 12):
        for n1 in range(2, 400):
            if gcd(m, n1) != 1:
                continue
            admitted = set()
            for k, l in enumerate_kl(m, n1):
                p = m * k - 1
                for h in trial_divisors(k * k):
                    first = -k * pow(h, -1, p) % p
                    for n0 in range(first or p, n1, p):
                        if gcd(n0, n1) == 1:
                            assert jacobi(n0, p) == -1, (m, n0, n1, k, h)
                            admitted.add(n0)
            solvable = admissible_residues(m, n1)
            assert sorted(admitted) == solvable, (m, n1)
            for n0 in solvable:
                assert not is_quadratic_residue(n0, n1), (m, n0, n1)
            cases += len(solvable)
    assert cases == 11_837


@pytest.mark.parametrize("m, n0, n1", [(5, 4, 9), (6, 4, 5), (7, 12, 13), (10, 9, 19)])
def test_first_solvable_square_when_4_does_not_divide_m(m, n0, n1):
    """Without 4 | m the character fails: the first solvable class, by n1 and
    then n0, whose n0 is a square mod n1."""
    assert is_quadratic_residue(n0, n1) and decide(ResidueClass(m, n0, n1)).is_solvable()
    first = next((b, a) for b in range(2, n1 + 1) if gcd(m, b) == 1
                 for a in admissible_residues(m, b) if is_quadratic_residue(a, b))
    assert first == (n1, n0)


def lemma_param_sets(rc: ResidueClass) -> list[ParamSet]:
    """The parameter sets of the lemma in ``theorem``'s docstring: for each
    (k, l) in ``enumerate_kl`` order and each divisor h of k^2, descending,
    with n0*h = -k (mod P), P = m*k - 1, the set (k, l, (n0*h + k)/P, l*h)."""
    out = []
    for k, l in enumerate_kl(rc.m, rc.n1):
        p = rc.m * k - 1
        for h in reversed(trial_divisors(k * k)):
            s, off = divmod(rc.n0 * h + k, p)
            if not off:
                out.append(ParamSet(k, l, s, l * h))
    return out


def test_decide_solutions_are_the_lemma_sets():
    grid = [ResidueClass(m, n0, n1) for m in range(4, 9) for n1 in range(2, 100)
            if gcd(m, n1) == 1 for n0 in range(1, 3 * n1) if gcd(n0, n1) == 1]
    assert len(grid) == 31_800
    assert sum(rc.n0 > rc.n1 for rc in grid) > len(grid) // 2
    several = 0
    for rc in grid:
        expected = lemma_param_sets(rc)
        assert [ps for ps, _ in decide(rc).solutions] == expected, rc
        several += len(expected) > 1
    assert several == 708  # classes with more than one parameter set


def _coprime_grid(m_range, n1_max: int) -> list[ResidueClass]:
    """Every class with m in m_range, n1 < n1_max and n0 < 2*n1."""
    return [ResidueClass(m, n0, n1) for m in m_range for n1 in range(2, n1_max)
            if gcd(m, n1) == 1 for n0 in range(1, 2 * n1) if gcd(n0, n1) == 1]


def test_decide_matches_the_walk_on_every_pair():
    # the lemma skips the walk of a (k, l) that does not admit n0 and
    # derives its reason from n0's divisors; whole outcomes must not move
    grid = _coprime_grid(range(4, 8), 120)
    assert len(grid) == 25_004
    for rc in grid:
        assert decide(rc) == walk_decide(rc), rc


def test_decide_takes_its_pairs_in_one_pass():
    # a one-shot iterator of the (k, l) of condition i decides as the list does
    for m, n1 in [(m, n1) for m in range(4, 8) for n1 in range(2, 60) if gcd(m, n1) == 1]:
        pairs = enumerate_kl(m, n1)
        for n0 in range(1, 2 * n1):
            if gcd(n0, n1) == 1:
                rc = ResidueClass(m, n0, n1)
                assert decide(rc, pairs=iter(pairs)) == decide(rc, pairs=pairs) == decide(rc), rc


def test_admits_is_the_lemma_over_every_divisor_of_k_squared():
    # the two candidates against every h | k^2 by trial division: at most two
    # h qualify, and the grid holds classes where h = k (f = -1 mod p) and
    # where two distinct h qualify
    divs = {k: trial_divisors(k * k) for k in range(1, 61)}
    checked = admitted = at_k = pairs_of_h = 0
    for m in range(4, 13):
        for k, hs in divs.items():
            p = m * k - 1
            for f in range(1, 2 * p):
                if gcd(f, p) != 1:
                    continue
                qualify = [h for h in hs if (f * h + k) % p == 0]
                assert len(qualify) <= 2, (m, k, f, qualify)
                assert theorem._admits(k, p, f) == bool(qualify), (m, k, f)
                checked += 1
                admitted += bool(qualify)
                at_k += k in qualify
                pairs_of_h += len(qualify) == 2
    assert (checked, admitted, at_k, pairs_of_h) == (201_372, 10_670, 1_080, 382)


def test_decide_factors_no_k(monkeypatch):
    # decide tests each (k, l) by the two candidates alone: with the lemma
    # classes and factoring gone from theorem, outcomes do not move
    def refuse(*args):
        raise AssertionError("decide factors k")

    monkeypatch.setattr(theorem, "_lemma_pairs", refuse)
    monkeypatch.setattr(theorem, "factorize", refuse)
    for rc in _coprime_grid(range(4, 8), 80):
        assert decide(rc) == walk_decide(rc), rc
    # n1 = 3*5*7*...*61: 65,536 (k, l), none admitting n0 = 1
    out = decide(ResidueClass(4, 1, 58644190679703485491635))
    assert out.status == "unsolvable" and len(out.kl_pairs) == len(out.evidence) == 65_536


@pytest.mark.parametrize("bound", [1, 3])
def test_decide_and_sieve_with_split_lemma_classes(monkeypatch, bound):
    # a target-set bound this small moves every prime power of k with
    # exponent >= 1 (or >= 2) into the shifts
    monkeypatch.setattr(theorem, "_TARGET_SET_MAX", bound)
    assert any(len(shifts) > 1 for m in range(4, 8) for n1 in range(2, 60) if gcd(m, n1) == 1
               for *_, shifts, _ in theorem._lemma_pairs(m, n1))
    for rc in _coprime_grid(range(4, 8), 60):
        assert decide(rc) == walk_decide(rc), rc
    for m, n1 in [(4, 45045), (4, 4389)] + [(m, n1) for m in range(4, 8) for n1 in range(2, 260)
                                           if gcd(m, n1) == 1]:
        assert admissible_residues(m, n1) == kl_square_sieve(m, n1), (m, n1)


def test_decide_rejects_an_admitted_pair_whose_walk_accepts_nothing(monkeypatch):
    monkeypatch.setattr(theorem, "enumerate_base_solutions", lambda m, n0, member: ())
    with pytest.raises(AssertionError, match="admits n0 = 7"):
        decide(GOLDEN_RC)


@pytest.mark.parametrize("rc", [
    # k = 2^6*3^4*5^2*7^2*11*13*17*19*23*29*31*37*41*43, d(k^2) = 172,718,325
    (4, 1, 1582490810678806828799),
    (4, 5, 1582490810678806828799),
    # a highly composite n0, so k*n0 has a large divisor walk
    (4, 97821761637600, 1000000000039),
])
def test_decide_worst_case_unsolvable_classes_walk_nothing(monkeypatch, rc):
    monkeypatch.setattr(theorem, "enumerate_base_solutions", None)
    out = decide(ResidueClass(*rc))
    assert out.status == "unsolvable" and out.kl_pairs
    assert {ev.reason for ev in out.evidence} == {"no qualifying base triple"}
    assert [(ev.k, ev.l) for ev in out.evidence] == list(out.kl_pairs)


# ------------------------------------------------------------ degrees

def test_analyze_degrees_golden():
    report = analyze_degrees(GOLDEN_RC, GOLDEN_TRIPLE)
    assert report.degrees == (1, 1, 2)
    assert report.aux_degree == 1


def test_analyze_degrees_aux_degree_matches_the_product(full_grid):
    """aux_degree = 1 + a + b - c equals the degree of m*x*z - n*(x + z),
    multiplied out with the highest-degree member as y."""
    solutions = 0
    for rc in full_grid:
        for _, pt in decide(rc).solutions:
            x, z = sorted(pt, key=lambda p: p.degree)[:2]
            n = RationalPoly([rc.n0, rc.n1])
            xz, nx, nz = ([Fraction(c, p.den) for c in p.nums] for p in (x * z, n * x, n * z))
            aux = poly([rc.m * a - b - c for a, b, c in zip_longest(xz, nx, nz, fillvalue=0)])
            assert analyze_degrees(rc, pt).aux_degree == aux.degree == 1, rc
            solutions += 1
    assert solutions == 716


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
            for const in role_assignments(h):
                for t in tails:
                    for lead in role_assignments(t):
                        pt = PolyTriple(
                            x=linear(const[0], lead[0]),
                            y=linear(const[1], lead[1]),
                            z=linear(const[2], lead[2]),
                        )
                        candidates += 1
                        assert not verify_identity(rc, pt)
        assert candidates > 0 or not heads or not tails
