"""Independent reference routes the tests compare trifrac against.

None of these share code with the production checks: they evaluate
pointwise with ``Fraction``, trial-divide, or walk a search space
exhaustively.
"""

from __future__ import annotations

from fractions import Fraction

from trifrac.base_solutions import BaseTriple
from trifrac.qpoly import RationalPoly
from trifrac.theorem import ParamFamily, ParamSet, PolyTriple, ResidueClass


def poly_eval(p: RationalPoly, at) -> Fraction:
    """Exact Horner evaluation of p at a rational point."""
    acc = Fraction(0)
    for c in reversed(p.nums):
        acc = acc * at + c
    return acc / p.den


def identity_holds(rc: ResidueClass, pt: PolyTriple) -> bool:
    """Whether m*x*y*z = n*(x*y + x*z + y*z) holds identically in lambda.

    Both sides have degree at most deg, the total number of stored
    coefficients of x, y and z, so exact agreement at the deg + 1 points
    lambda = 0..deg proves the polynomial identity.
    """
    polys = (pt.x, pt.y, pt.z)
    deg = sum(len(p.nums) for p in polys)
    for lam in range(deg + 1):
        x, y, z = (poly_eval(p, lam) for p in polys)
        if rc.m * x * y * z != (rc.n0 + rc.n1 * lam) * (x * y + x * z + y * z):
            return False
    return True


def base_triples_oracle(m: int, n0: int) -> tuple[BaseTriple, ...]:
    """All {a <= b <= c} with 1/a + 1/b + 1/c = m/n0, ascending, by a double loop.

    a ranges over n0/m < a <= 3*n0/m; the remainder p/q after 1/a bounds b
    by q/p < b <= 2*q/p (b <= c), and c is forced.  O(n0^2) work.
    """
    out = []
    for a in range(n0 // m + 1, 3 * n0 // m + 1):
        p = m * a - n0
        q = n0 * a
        for b in range(max(a, q // p + 1), 2 * q // p + 1):
            den = p * b - q
            if (q * b) % den == 0:
                out.append(BaseTriple(a, b, q * b // den))
    return tuple(sorted(out))


def trial_divisors(n: int) -> list[int]:
    """All positive divisors of n >= 1, ascending, by trial division to sqrt(n)."""
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


def is_quadratic_residue(a: int, n: int) -> bool:
    """True iff w*w == a (mod n) for some w in [0, n); exhaustive O(n)."""
    if n < 2:
        raise ValueError(f"is_quadratic_residue requires n >= 2, got {n}")
    target = a % n
    return any(w * w % n == target for w in range(n))


def family_at(fam: ParamFamily, t: int) -> tuple[int, int]:
    """The point (s, r) = (s0 + n0*t, r0 + n1*t) of a condition-ii family."""
    n0, n1 = fam.step
    return fam.s0 + n0 * t, fam.r0 + n1 * t


def enumerate_condition_iii(fam: ParamFamily, t_max: int) -> list[ParamSet]:
    """All parameter sets on the family with t in [0, t_max], s, r >= 1 and r | s*k*l."""
    if t_max < 0:
        raise ValueError(f"t_max must be >= 0, got {t_max}")
    out = []
    for t in range(t_max + 1):
        s, r = family_at(fam, t)
        if s < 1 or r < 1:
            continue
        if (s * fam.k * fam.l) % r == 0:
            out.append(ParamSet(k=fam.k, l=fam.l, s=s, r=r))
    return out
