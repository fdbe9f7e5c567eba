from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import base_triples_oracle, member_walk_oracle, role_assignments
from trifrac import base_solutions
from trifrac.base_solutions import BaseTriple, enumerate_base_solutions


def unit_sum(t: BaseTriple) -> Fraction:
    return Fraction(1, t.a) + Fraction(1, t.b) + Fraction(1, t.c)


def naive_bounded_triples(m: int, n0: int) -> set[tuple[int, int, int]]:
    """Independent brute force: plain triple loop over a <= b <= c <= 3*n0."""
    found = set()
    top = 3 * n0
    for a in range(1, top + 1):
        for b in range(a, top + 1):
            for c in range(b, top + 1):
                if m * a * b * c == n0 * (b * c + a * c + a * b):
                    found.add((a, b, c))
    return found


def test_enumerate_5_over_7():
    got = enumerate_base_solutions(5, 7)
    assert BaseTriple(2, 7, 14) in got
    assert got == (
        BaseTriple(2, 5, 70),
        BaseTriple(2, 6, 21),
        BaseTriple(2, 7, 14),
        BaseTriple(3, 3, 21),
    )


def test_enumerate_empty_when_target_too_big():
    assert enumerate_base_solutions(5, 1) == ()


def test_enumerate_4_over_2():
    assert enumerate_base_solutions(4, 2) == (BaseTriple(1, 2, 2),)


def test_enumerate_rejects_nonpositive():
    with pytest.raises(ValueError):
        enumerate_base_solutions(0, 7)
    with pytest.raises(ValueError):
        enumerate_base_solutions(5, 0)


def test_triples_with_member():
    assert enumerate_base_solutions(5, 7, 28) == ()
    assert enumerate_base_solutions(5, 7, 14) == (BaseTriple(2, 7, 14),)
    assert enumerate_base_solutions(5, 7, 1) == ()
    with pytest.raises(ValueError):
        enumerate_base_solutions(5, 7, 0)
    with pytest.raises(ValueError):
        enumerate_base_solutions(5, 7, -3)


def test_soundness_exact_unit_sums():
    for m in range(4, 9):
        for n0 in range(1, 31):
            for t in enumerate_base_solutions(m, n0):
                assert t.a <= t.b <= t.c
                assert unit_sum(t) == Fraction(m, n0)


def test_completeness_against_naive_triple_loop():
    for m in range(4, 9):
        for n0 in range(1, 31):
            fast = {tuple(t) for t in enumerate_base_solutions(m, n0) if t.c <= 3 * n0}
            assert fast == naive_bounded_triples(m, n0), (m, n0)


def test_gcd_greater_than_one_allowed():
    # 4/2 and 6/3 are fine here; the decision engine applies its own premises
    assert enumerate_base_solutions(6, 3) == (BaseTriple(1, 2, 2),)


def test_role_assignments_distinct_orderings():
    assert role_assignments(BaseTriple(2, 7, 14)) == [
        (2, 7, 14), (2, 14, 7), (7, 2, 14), (7, 14, 2), (14, 2, 7), (14, 7, 2),
    ]
    # repeated members collapse duplicate orderings
    assert role_assignments(BaseTriple(3, 3, 21)) == [(3, 3, 21), (3, 21, 3), (21, 3, 3)]
    assert role_assignments(BaseTriple(3, 3, 3)) == [(3, 3, 3)]


@st.composite
def _instance_and_member(draw):
    m = draw(st.integers(1, 12))
    n0 = draw(st.integers(1, 300))
    member = draw(st.one_of(
        st.just(1),
        st.just(n0),
        st.integers(2, 40).map(lambda k: k * n0),
        st.integers(1, 10**7),
    ))
    return m, n0, member


@settings(max_examples=200, deadline=None)
@given(_instance_and_member())
def test_divisor_walk_matches_double_loop_oracle(case):
    m, n0, member = case
    expected = base_triples_oracle(m, n0)
    assert enumerate_base_solutions(m, n0) == expected
    assert enumerate_base_solutions(m, n0, member) == tuple(t for t in expected if member in t)


def test_member_walk_finds_every_member_of_every_triple():
    for m in (4, 5, 7):
        for n0 in range(1, 61):
            triples = base_triples_oracle(m, n0)
            for u in {x for t in triples for x in t}:
                assert enumerate_base_solutions(m, n0, u) == tuple(t for t in triples if u in t)


def test_member_walk_factors_only_the_part_coprime_to_n0():
    # k*n0 here is about 4.3e37, beyond the factoring limit, but its part
    # coprime to n0 = 2^61 - 1 is 2^64 + 1 = 274177 * 67280421310721.
    n0 = 2**61 - 1
    assert enumerate_base_solutions(5, n0, (2**64 + 1) * n0) == ()


@pytest.mark.parametrize("m", [4, 5, 7, 9])
@pytest.mark.parametrize("n0", [720, 5040, 55440])
def test_member_walk_of_highly_composite_n0_matches_trial_division_oracle(m, n0):
    # decide's walks: Q^2 has hundreds of divisors, about half of them above Q
    for k in range(1, 41):
        assert enumerate_base_solutions(m, n0, k * n0) == member_walk_oracle(m, n0, k * n0)


def test_walk_over_too_many_divisors_raises(monkeypatch):
    # 2 = 1/u + 1/b + 1/c leaves 1/b + 1/c = (2u - 1)/u, so Q = u and a walk
    # through u = 2^e lists from the 2e + 1 divisors of Q^2
    monkeypatch.setattr(base_solutions, "MAX_WALK_DIVISORS", 3)
    assert enumerate_base_solutions(2, 1, 2) == (BaseTriple(1, 2, 2),)
    with pytest.raises(ValueError, match="through 4 need a walk over the 5 divisors of Q\\^2, more than 3$"):
        enumerate_base_solutions(2, 1, 4)
    with pytest.raises(ValueError, match="more than 3$"):
        enumerate_base_solutions(2, 32)
