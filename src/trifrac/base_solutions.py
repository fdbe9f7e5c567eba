"""Enumeration of positive triples with 1/a + 1/b + 1/c = m/n0.

These are the zeroth-order instances of the residue-class equation (the
lambda = 0 case), the finite certificate behind the complete decision
procedure.  One divisor walk finds every triple through a member u: with
1/b + 1/c = m/n0 - 1/u = P/Q in lowest terms, (P*b - Q)*(P*c - Q) = Q^2, so
for b <= c the value d = P*b - Q runs over the divisors d <= Q of Q^2 with
d = -Q (mod P).  The full enumeration walks each possible smallest member
n0/m < a <= 3*n0/m.  All of it is exact integer arithmetic.
"""

from __future__ import annotations

from math import prod
from typing import Iterator, NamedTuple

from .intmath import factorize, gcd

# Most smallest members a full enumeration walks, floor(3*n0/m) - floor(n0/m):
# about 2,000 walks take 0.2 s for a prime n0 and 5 s for m = 99991, n0 = 99792000
# (highly composite, so each walk lists more divisors) on a 2-core Xeon VM.
MAX_BASE_WALKS = 2_000
# Most divisors of Q^2 one walk may list from (checked before listing any): a
# walk over 9,823,275 of them takes about 0.8 s at 284 MB peak RSS on the same
# VM, and the heaviest walk of m = 99991, n0 = 99792000 lists from 127,575.
MAX_WALK_DIVISORS = 10_000_000


class BaseTriple(NamedTuple):
    """Canonical unordered solution, stored sorted a <= b <= c."""

    a: int
    b: int
    c: int


def _walk(m: int, n0: int, n0_primes: dict[int, int], u: int) -> Iterator[tuple[int, int]]:
    """All b <= c with 1/u + 1/b + 1/c = m/n0, in ascending order of b.

    Q = n0*u/g is factored through n0: ``factorize`` sees only its part
    coprime to n0, which divides u.  The divisors d <= Q of Q^2 are built
    prime by prime, and a partial product above Q is dropped at once: the
    later primes only multiply it further, so no divisor <= Q extends it.
    Only the hits d = -Q (mod P) are sorted, and b = (d + Q)/P grows with d.
    Q^2 with more than ``MAX_WALK_DIVISORS`` divisors raises ValueError.
    """
    num, den = m * u - n0, n0 * u
    if num <= 0:
        return
    g = gcd(num, den)
    p, q = num // g, den // g
    factors, rest = {}, q
    for prime in n0_primes:
        while rest % prime == 0:
            rest //= prime
            factors[prime] = factors.get(prime, 0) + 2
    factors.update((prime, 2 * e) for prime, e in factorize(rest).items())
    count = prod(e + 1 for e in factors.values())
    if count > MAX_WALK_DIVISORS:
        raise ValueError(f"the triples of {m}/{n0} through {u} need a walk over the {count} "
                         f"divisors of Q^2, more than {MAX_WALK_DIVISORS}")
    divs = [1]
    for prime, e in factors.items():
        grown, limit = divs, q // prime
        for _ in range(e):
            grown = [d * prime for d in grown if d <= limit]
            divs += grown
    hit = -q % p
    for d in sorted([d for d in divs if d % p == hit]):
        yield (d + q) // p, (q * q // d + q) // p


def enumerate_base_solutions(m: int, n0: int, member: int | None = None) -> tuple[BaseTriple, ...]:
    """All unordered positive triples {a <= b <= c} with 1/a + 1/b + 1/c = m/n0,
    in ascending order; with ``member``, only those that contain it.

    gcd(m, n0) > 1 is allowed; the empty tuple is a valid result.  n0 must be
    below ``intmath.FACTOR_LIMIT``, since every walk factors it, and without
    ``member`` at most ``MAX_BASE_WALKS`` smallest members may be walked.
    A walk over more than ``MAX_WALK_DIVISORS`` divisors raises ValueError.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if n0 < 1:
        raise ValueError(f"n0 must be >= 1, got {n0}")
    if member is not None and member < 1:
        raise ValueError(f"member must be >= 1, got {member}")
    n0_primes = factorize(n0)
    # Each walk yields b ascending, so the triples come out ascending: through
    # a member u, those with b < u start with b and the rest with u.
    if member is not None:
        return tuple(BaseTriple(*sorted((member, b, c)))
                     for b, c in _walk(m, n0, n0_primes, member))
    walks = 3 * n0 // m - n0 // m
    if walks > MAX_BASE_WALKS:
        raise ValueError(f"enumerating every triple of {m}/{n0} walks {walks} smallest "
                         f"members, more than {MAX_BASE_WALKS}")
    return tuple(BaseTriple(a, b, c)
                 for a in range(n0 // m + 1, 3 * n0 // m + 1)
                 for b, c in _walk(m, n0, n0_primes, a) if b >= a)
