"""Exact integer primitives shared by every other module.

Integers are plain Python ints (arbitrary precision, exact).  Nothing in
this package ever touches a float.

Divisors are built from a prime factorization: trial division by small
primes, a deterministic Miller-Rabin test, and Brent's variant of Pollard's
rho method (Pollard 1975; Brent 1980) for the composite cofactor.  The
Miller-Rabin bases 2..41 are proven exact only below FACTOR_LIMIT, so
``factorize`` rejects larger inputs instead of risking a wrong answer.
"""

from __future__ import annotations

import itertools
import math

# Smallest strong pseudoprime to all of the bases below (Sorenson and Webster
# 2015); factorize refuses n at or above it.
FACTOR_LIMIT = 3_317_044_064_679_887_385_961_981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Trial division by 2 and the odd numbers below this; rho splits the rest.
_TRIAL_BOUND = 1000
# Rho steps per gcd in Brent's product-of-differences batching.
_RHO_BATCH = 128


# Nonnegative greatest common divisor, with gcd(0, 0) = 0.
gcd = math.gcd


def _is_prime(n: int) -> bool:
    """Miller-Rabin to the bases 2..41; exact for odd 41 < n < FACTOR_LIMIT."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho_factor(n: int) -> int:
    """A nontrivial factor of an odd composite n (Brent's rho, x -> x^2 + c)."""
    for c in itertools.count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += _RHO_BATCH
            r *= 2
        if g == n:  # the batch overshot: replay it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def factorize(n: int) -> dict[int, int]:
    """Prime factorization {p: e} of 1 <= n < FACTOR_LIMIT, primes ascending."""
    if n < 1:
        raise ValueError(f"factorize requires n >= 1, got {n}")
    if n >= FACTOR_LIMIT:
        raise ValueError(f"factorize requires n < {FACTOR_LIMIT} (proven Miller-Rabin range), got {n}")
    out: dict[int, int] = {}
    p = 2
    while p < _TRIAL_BOUND and p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 2 if p > 2 else 1
    # Every prime below p is stripped, so a cofactor below p*p is 1 or prime.
    pending = [n] if n > 1 else []
    while pending:
        c = pending.pop()
        if c < p * p or _is_prime(c):
            out[c] = out.get(c, 0) + 1
            continue
        root = math.isqrt(c)
        d = root if root * root == c else _rho_factor(c)
        pending += [d, c // d]
    return dict(sorted(out.items()))


def divisors_from(factors: dict[int, int]) -> list[int]:
    """All positive divisors of the product of p**e over factors, ascending."""
    divs = [1]
    for p, e in factors.items():
        divs = [d * p ** i for i in range(e + 1) for d in divs]
    return sorted(divs)


def divisors(n: int) -> list[int]:
    """All positive divisors of 1 <= n < FACTOR_LIMIT, ascending."""
    return divisors_from(factorize(n))


def primes_up_to(bound: int) -> list[int]:
    """All primes <= bound, ascending (simple sieve)."""
    if bound < 2:
        return []
    sieve = bytearray([1]) * (bound + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(bound) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [p for p in range(2, bound + 1) if sieve[p]]
