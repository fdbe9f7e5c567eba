"""Stdlib-only mathematics the benchmark uses to judge trifrac's answers.

Nothing here imports trifrac.  A residue class (m, n0, n1) is solvable in
positive integer polynomials exactly when positive integers k, l, s, r
satisfy

    i)   n1 = l*(m*k - 1)
    ii)  s*n1 = k*l + r*n0
    iii) r | s*k*l.

From ii), k*l = s*n1 (mod r), so with iii) (k*l)^2 = s*k*l*n1 = 0 (mod r):
every admissible r divides (k*l)^2.  Walking the divisors of (k*l)^2 is a
finite and complete decision, and it shares no code path with trifrac's
base-triple route.
"""

from __future__ import annotations

import math
from fractions import Fraction


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 by trial division."""
    if n < 1:
        raise ValueError(f"factorize requires n >= 1, got {n}")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    d = 5
    while d * d <= n:
        for p in (d, d + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        d += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def divisors_from(fac: dict[int, int]) -> list[int]:
    divs = [1]
    for p, e in fac.items():
        divs = [d * p**i for d in divs for i in range(e + 1)]
    return sorted(divs)


def kl_pairs(m: int, n1: int, n1_factors: dict[int, int] | None = None) -> list[tuple[int, int]]:
    """All (k, l) with l*(m*k - 1) = n1."""
    fac = n1_factors if n1_factors is not None else factorize(n1)
    return sorted(((d + 1) // m, n1 // d) for d in divisors_from(fac) if (d + 1) % m == 0)


def kl_certificates(m: int, n1: int, n1_factors: dict[int, int] | None = None):
    """[(k, l, divisors of (k*l)^2)] for every (k, l) of condition i."""
    out = []
    for k, l in kl_pairs(m, n1, n1_factors):
        fac = factorize(k)
        for p, e in factorize(l).items():
            fac[p] = fac.get(p, 0) + e
        out.append((k, l, divisors_from({p: 2 * e for p, e in fac.items()})))
    return out


def solve_class(n0: int, n1: int, certificates) -> list[tuple[int, int, int, int]]:
    """Every parameter set (k, l, s, r) of the class, sorted."""
    found = []
    for k, l, rs in certificates:
        kl = k * l
        for r in rs:
            num = kl + r * n0
            if num % n1:
                continue
            s = num // n1
            if (s * kl) % r == 0:
                found.append((k, l, s, r))
    return sorted(found)


def primes_up_to(bound: int) -> list[int]:
    return [p for p in range(2, bound + 1) if all(p % q for q in range(2, math.isqrt(p) + 1))]


def base_triples(m: int, n0: int) -> list[tuple[int, int, int]]:
    """All a <= b <= c with 1/a + 1/b + 1/c = m/n0, by exact bounds."""
    out = []
    target = Fraction(m, n0)
    for a in range(n0 // m + 1, 3 * n0 // m + 1):
        rest = target - Fraction(1, a)
        for b in range(max(a, math.floor(1 / rest) + 1), math.floor(2 / rest) + 1):
            last = rest - Fraction(1, b)
            if last > 0 and last.numerator == 1:
                out.append((a, b, last.denominator))
    return out


def role_assignments(triple: tuple[int, int, int]) -> list[tuple[int, int, int]]:
    a, b, c = triple
    return sorted({(a, b, c), (a, c, b), (b, a, c), (b, c, a), (c, a, b), (c, b, a)})


def poly_eval(coeffs, at):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * at + c
    return acc


def identity_holds(m: int, n0: int, n1: int, x, y, z) -> bool:
    """m*x*y*z == n*(x*y + x*z + y*z) as polynomials in lambda.

    Both sides have degree at most D = deg x + deg y + deg z + 1, so equality
    at the D + 1 points lambda = 0..D proves the identity.  Coefficients may
    be ints or Fractions.
    """
    if not (x and y and z):
        return False
    points = len(x) + len(y) + len(z) - 1
    for lam in range(points):
        xv, yv, zv = poly_eval(x, lam), poly_eval(y, lam), poly_eval(z, lam)
        if m * xv * yv * zv != (n0 + n1 * lam) * (xv * yv + xv * zv + yv * zv):
            return False
    return True


def positive_integral(coeffs) -> bool:
    return bool(coeffs) and all(Fraction(c).denominator == 1 and c > 0 for c in coeffs)


def parse_coeffs(items) -> list[int] | None:
    """Decimal integer strings to ints; None if any entry is not one."""
    out = []
    for s in items:
        if not isinstance(s, str) or not s.lstrip("-").isdigit():
            return None
        out.append(int(s))
    return out


def solution_ok(m: int, n0: int, n1: int, sol: dict) -> bool:
    """A JSON solution {"x": [...], "y": [...], "z": [...]} has positive
    integer coefficients and solves the residue-class identity exactly."""
    polys = [parse_coeffs(sol.get(name, ())) for name in ("x", "y", "z")]
    if any(p is None or not positive_integral(p) for p in polys):
        return False
    return identity_holds(m, n0, n1, *polys)


def params_of(sol: dict) -> tuple[int, int, int, int]:
    p = sol["params"]
    return (int(p["k"]), int(p["l"]), int(p["s"]), int(p["r"]))
