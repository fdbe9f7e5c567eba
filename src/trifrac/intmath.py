"""Exact integer primitives shared by every other module.

Integers are plain Python ints (arbitrary precision, exact).  Nothing in
this package ever touches a float.
"""

from __future__ import annotations

import math


def gcd(a: int, b: int) -> int:
    """Nonnegative greatest common divisor, with gcd(0, 0) = 0."""
    return math.gcd(a, b)


def divisors(n: int) -> list[int]:
    """All positive divisors of n >= 1, ascending."""
    if n < 1:
        raise ValueError(f"divisors requires n >= 1, got {n}")
    small = []
    large = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


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
