"""Exact integer primitives shared by every other module.

Integers are plain Python ints (arbitrary precision, exact).  Nothing in
this package ever touches a float.

Divisors are built from a prime factorization in three stages.  The factor
2 is read off the low bits.  One gcd with the product of the odd primes
below 1000 tells which of them divide n, and only those are divided out.
The cofactor left is 1 or prime when below 1000^2; otherwise a
deterministic Miller-Rabin test decides it, and Brent's variant of Pollard's
rho method (Pollard 1975; Brent 1980) splits it when composite.

Miller-Rabin tests n to the first t primes.  Below psi_t, the least strong
pseudoprime to the first t primes, those t bases decide every odd n
exactly, so n is tested to the bases of the first row whose bound exceeds
it:

    psi_t                            t
    25,326,001                       3
    3,215,031,751                    4
    2,152,302,898,747                5
    FACTOR_LIMIT                     13

(Jaeschke, Math. Comp. 61 (1993); Sorenson and Webster, Math. Comp. 86
(2017)).  No row covers FACTOR_LIMIT itself, so ``factorize`` rejects n at
or above it instead of risking a wrong answer.
"""

from __future__ import annotations

import itertools
import math

# Smallest strong pseudoprime to the 13 prime bases 2..41 (Sorenson and
# Webster); factorize refuses n at or above it.
FACTOR_LIMIT = 3_317_044_064_679_887_385_961_981
# The odd primes below this are found by one gcd; rho splits the rest.
_TRIAL_BOUND = 1000
# Rho steps per gcd in Brent's product-of-differences batching.
_RHO_BATCH = 128


# Nonnegative greatest common divisor, with gcd(0, 0) = 0.
gcd = math.gcd


def primes_up_to(bound: int) -> list[int]:
    """All primes <= bound, ascending (simple sieve)."""
    if bound < 2:
        return []
    sieve = bytearray([1]) * (bound + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(bound) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes((bound - p * p) // p + 1)
    return list(itertools.compress(range(bound + 1), sieve))


_PRIMES = primes_up_to(_TRIAL_BOUND - 1)
_SMALL_PRODUCT = math.prod(_PRIMES[1:])
# Once every prime below _TRIAL_BOUND is divided out, a cofactor below this
# has no room for two prime factors: it is 1 or prime.
_PRIME_BELOW = _TRIAL_BOUND**2
# (psi_t, t) rows of the table in the module docstring: below psi_t (each
# bound exclusive) Miller-Rabin tests the first t primes.  Only n at or above
# _PRIME_BELOW is tested, so the table starts at t = 3 (a row for psi_2 =
# 1,373,653 would spare one base on a sliver of that range).
_MR_ROWS = (
    (25_326_001, 3),
    (3_215_031_751, 4),
    (2_152_302_898_747, 5),
    (FACTOR_LIMIT, 13),
)


def _is_prime(n: int) -> bool:
    """Miller-Rabin to the bases of n's row; exact for odd 41 < n < FACTOR_LIMIT."""
    t = next(t for psi, t in _MR_ROWS if n < psi)
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    for a in _PRIMES[:t]:
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
    twos = (n & -n).bit_length() - 1
    if twos:
        out[2] = twos
        n >>= twos
    # g is the product of the odd primes below _TRIAL_BOUND that divide n.
    # Once p*p > g, what is left of g is 1 or prime (2 never divides g).
    g = math.gcd(n, _SMALL_PRODUCT)
    for p in _PRIMES:
        if p * p > g:
            break
        if g % p == 0:
            g //= p
            out[p] = 0
    if g > 1:
        out[g] = 0
    for p in out:  # n is odd, so the exponent of 2 stays as it is
        while n % p == 0:
            n //= p
            out[p] += 1
    # Every prime left in n is above those in out, so only n's own primes
    # need sorting.  A cofactor below _PRIME_BELOW is prime.
    if n > 1:
        large: list[int] = []
        pending = [n]
        while pending:
            c = pending.pop()
            if c < _PRIME_BELOW or _is_prime(c):
                large.append(c)
                continue
            root = math.isqrt(c)
            d = root if root * root == c else _rho_factor(c)
            pending += [d, c // d]
        for p in sorted(large):
            out[p] = out.get(p, 0) + 1
    return out


def divisors(n: int) -> list[int]:
    """All positive divisors of 1 <= n < FACTOR_LIMIT, ascending."""
    divs = [1]
    for p, e in factorize(n).items():
        divs = [d * p ** i for i in range(e + 1) for d in divs]
    return sorted(divs)

