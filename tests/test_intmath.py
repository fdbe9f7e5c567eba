from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import is_quadratic_residue, jacobi, trial_divisors, trial_factorize

from trifrac.intmath import (
    _MR_ROWS,
    FACTOR_LIMIT,
    _is_prime,
    divisors,
    factorize,
    gcd,
    primes_up_to,
)


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


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 10**12))
@example(1)
@example(10**12)
@example(999_999_999_989)
@example(2**39)
def test_divisors_match_trial_division_oracle(n):
    ds = divisors(n)
    assert ds == trial_divisors(n)
    factors = factorize(n)
    assert math.prod(p ** e for p, e in factors.items()) == n
    assert list(factors) == sorted(factors)
    assert all(len(trial_divisors(p)) == 2 for p in factors)


@pytest.mark.parametrize("n, expected", [
    (1, {}),
    (2**61 - 1, {2**61 - 1: 1}),
    # Carmichael numbers fool the Fermat test
    (561, {3: 1, 11: 1, 17: 1}),
    (41041, {7: 1, 11: 1, 13: 1, 41: 1}),
    (825265, {5: 1, 7: 1, 17: 1, 19: 1, 73: 1}),
    # least strong pseudoprimes to the first t primes (psi_t, t = 3..12); all
    # but psi_4 leave a cofactor that reaches Miller-Rabin
    (25326001, {2251: 1, 11251: 1}),
    (3215031751, {151: 1, 751: 1, 28351: 1}),
    (2152302898747, {6763: 1, 10627: 1, 29947: 1}),
    (3474749660383, {1303: 1, 16927: 1, 157543: 1}),
    (341550071728321, {10670053: 1, 32010157: 1}),
    (3825123056546413051, {149491: 1, 747451: 1, 34233211: 1}),
    (318665857834031151167461, {399165290221: 1, 798330580441: 1}),
    # powers of primes above 1000
    ((10**12 + 39) ** 2, {10**12 + 39: 2}),
    (1000003**3, {1000003: 3}),
    (2**80, {2: 80}),
    # semiprimes with both factors near 10^12 (rho does the work)
    (999_999_999_989 * (10**12 + 39), {999_999_999_989: 1, 10**12 + 39: 1}),
    ((10**12 + 39) * (10**12 + 61), {10**12 + 39: 1, 10**12 + 61: 1}),
    (FACTOR_LIMIT - 1, {2: 2, 3: 4, 5: 1, 127: 1, 18778597: 1, 858557454841: 1}),
])
def test_factorize_hard_cases(n, expected):
    assert factorize(n) == expected
    assert divisors(n)[-1] == n


def test_factorize_matches_trial_division_below_200000():
    for n in range(1, 200_000):
        assert list(factorize(n).items()) == list(trial_factorize(n).items()), n


# psi_t is the least strong pseudoprime to the first t primes.  psi_2, psi_3
# and psi_4 sit at the bottom of the rows that test 3, 4 and 5 bases, and
# psi_5 .. psi_12 inside the row that tests all 13, so a row whose bound were
# inclusive, or which tested one base fewer, would call one of these prime.
@pytest.mark.parametrize("psi", [
    1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 3825123056546413051, 318665857834031151167461,
])
def test_miller_rabin_rejects_each_least_pseudoprime(psi):
    assert not _is_prime(psi)


def test_miller_rabin_rows_end_at_the_limit():
    # all 13 bases 2..41 are proven exact exactly below FACTOR_LIMIT
    assert _MR_ROWS[-1] == (FACTOR_LIMIT, 13)


def test_factorize_rejects_out_of_range():
    # the limit is itself composite: a strong pseudoprime to every base 2..41
    assert FACTOR_LIMIT == 1287836182261 * 2575672364521
    for n in (FACTOR_LIMIT, FACTOR_LIMIT + 1, 10**30):
        with pytest.raises(ValueError, match="factorize requires n <"):
            factorize(n)
        with pytest.raises(ValueError):
            divisors(n)
    for n in (0, -1):
        with pytest.raises(ValueError, match="n >= 1"):
            factorize(n)


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


def test_jacobi_symbol_matches_the_exhaustive_squares():
    """For an odd prime p, (a/p) is 0, 1 or -1 as p | a, a is a nonzero square
    mod p (``is_quadratic_residue``) or not; for odd composite n it is the
    product of (a/p)^e over p^e || n, and -1 only at a non-square mod n."""
    legendre = {}
    for p in primes_up_to(150)[1:]:
        for a in range(p):
            legendre[a, p] = 0 if a == 0 else 1 if is_quadratic_residue(a, p) else -1
            assert jacobi(a, p) == jacobi(a + p, p) == jacobi(a - 3 * p, p) == legendre[a, p]
    for n in range(1, 150, 2):
        for a in range(n):
            want = math.prod(legendre[a % p, p] ** e for p, e in trial_factorize(n).items())
            assert jacobi(a, n) == want, (a, n)
            assert want != -1 or not is_quadratic_residue(a, n), (a, n)
    assert (jacobi(7, 9), jacobi(2, 15), jacobi(-1, 7)) == (1, 1, -1)
    for n in (0, -3, 4):
        with pytest.raises(ValueError, match="odd n >= 1"):
            jacobi(1, n)


@given(st.integers(-10**6, 10**6), st.integers(1, 10**6))
def test_rational_canonical_form(p, q):
    f = Fraction(p, q)
    assert f.denominator > 0
    assert gcd(abs(f.numerator), f.denominator) in (0, 1)
    assert f == Fraction(f.numerator, f.denominator)
