from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracles import is_quadratic_residue

from trifrac.intmath import divisors, gcd, primes_up_to


def test_gcd_examples():
    assert gcd(9, 7) == 1
    assert gcd(0, 5) == 5
    assert gcd(21, 14) == 7
    assert gcd(0, 0) == 0
    assert gcd(-21, 14) == 7


def test_divisors_examples():
    assert divisors(9) == [1, 3, 9]
    assert divisors(1) == [1]
    assert divisors(21) == [1, 3, 7, 21]


def test_divisors_rejects_nonpositive():
    with pytest.raises(ValueError):
        divisors(0)
    with pytest.raises(ValueError):
        divisors(-9)


@given(st.integers(1, 5000))
def test_divisors_pairing(n):
    ds = divisors(n)
    assert ds == sorted(ds)
    assert len(set(ds)) == len(ds)
    for d in ds:
        assert n % d == 0
        assert n // d in ds


def test_primes_up_to_matches_trial_division():
    ps = primes_up_to(200)
    assert ps == [n for n in range(2, 201) if all(n % d for d in range(2, n))]
    assert primes_up_to(1) == []


def test_quadratic_residue_examples():
    assert is_quadratic_residue(7, 9)  # 4*4 = 16 = 7 (mod 9)
    assert is_quadratic_residue(0, 5)
    assert not is_quadratic_residue(2, 9)
    # squares mod 9 are exactly {0, 1, 4, 7}
    assert {a for a in range(9) if is_quadratic_residue(a, 9)} == {0, 1, 4, 7}


def test_quadratic_residue_rejects_small_modulus():
    with pytest.raises(ValueError):
        is_quadratic_residue(3, 1)


@given(st.integers(-10**6, 10**6), st.integers(1, 10**6))
def test_rational_canonical_form(p, q):
    f = Fraction(p, q)
    assert f.denominator > 0
    assert gcd(abs(f.numerator), f.denominator) in (0, 1)
    assert f == Fraction(f.numerator, f.denominator)
