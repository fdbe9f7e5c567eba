"""The two rational solution families grown from a zeroth-order triple.

Given positive x0, y0, z0 with 1/x0 + 1/y0 + 1/z0 = m/n0, there are exactly
two rational polynomial solutions of the residue-class equation with degree
pattern (1, 1, 2), the "plus" branch

    x = x0*(1 + (n1/n0)*lambda)
    z = z0 + (n1/n0)*(y0*z0/(y0 + z0))*lambda
    y = y0 + y0*(n1/n0)*(1 + y0/(y0 + z0))*lambda + (y0*n1/n0)^2/(y0 + z0)*lambda^2

and the "minus" branch

    x = x0 + (n1/m)*((x0 + z0)/z0)*lambda
    z = z0 + (n1/m)*((x0 + z0)/x0)*lambda
    y = y0 + (2*y0*n1/n0 - n1/m)*lambda + (n1/n0)*(y0*n1/n0 - n1/m)*lambda^2.

The minus branch can only be integral when m divides n1, which the residue
class forbids, so its integral flag is always False here.  The remaining
degree candidates die elsewhere: a third-degree member would need real
first-order coefficients whose discriminant n0^2 - (m*x0 - n0)*(m*z0 - n0)
equals -m*n0*x0*z0/y0 < 0 for every base triple, and the all-degree-1
pattern forces m < 4.
"""

from __future__ import annotations

from typing import NamedTuple

from .qpoly import RationalPoly
from .theorem import PolyTriple, ResidueClass, identity_holds


class RoleTriple(NamedTuple):
    """An ordered role assignment of a base triple's members."""

    x0: int
    y0: int
    z0: int

    def check(self, m: int, n0: int) -> None:
        for name, v in zip(("x0", "y0", "z0"), self):
            if v < 1:
                raise ValueError(f"{name} must be >= 1, got {v}")
        x0, y0, z0 = self  # cross-multiplied form of 1/x0 + 1/y0 + 1/z0 = m/n0
        if n0 * (y0 * z0 + x0 * z0 + x0 * y0) != m * x0 * y0 * z0:
            raise ValueError(f"role triple {tuple(self)} does not solve 1/x0 + 1/y0 + 1/z0 = {m}/{n0}")


class FamilySolution(NamedTuple):
    branch: str  # "plus" | "minus"
    triple: PolyTriple
    integral: bool
    degenerate: bool = False  # quadratic coefficient of y vanished


def _checked(rc: ResidueClass, rt: RoleTriple, branch: str, x: RationalPoly,
             y: RationalPoly, z: RationalPoly) -> FamilySolution:
    """The branch's solution once ``identity_holds`` proves it.  Both branches
    give x(0) = x0, y(0) = y0 and z(0) = z0, so the identity at lambda = 0 is
    ``RoleTriple.check``'s cross-multiplied equation; only a failed identity
    runs it, to tell a non-solving rt (ValueError) from a broken construction."""
    triple = tuple.__new__(PolyTriple, (x, y, z))
    if not identity_holds(rc, triple):
        rt.check(rc.m, rc.n0)
        raise ArithmeticError(f"{branch}-family construction broke the identity for {rc}")
    integral = x.is_positive_integral() and y.is_positive_integral() and z.is_positive_integral()
    return tuple.__new__(FamilySolution, (branch, triple, integral, 0 < len(y.nums) < 3))


def plus_family(rc: ResidueClass, rt: RoleTriple) -> FamilySolution:
    """The plus branch through (x0, y0, z0); the one integer solutions live on."""
    x0, y0, z0 = rt
    if x0 < 1 or y0 < 1 or z0 < 1:  # before any denominator; check names the member
        rt.check(rc.m, rc.n0)
    _, n0, n1 = rc
    w = y0 + z0
    x = RationalPoly((x0 * n0, x0 * n1), n0)
    z = RationalPoly((z0 * n0 * w, n1 * y0 * z0), n0 * w)
    y = RationalPoly((y0 * n0 * n0 * w, y0 * n1 * n0 * (w + y0), (y0 * n1) ** 2), n0 * n0 * w)
    return _checked(rc, rt, "plus", x, y, z)


def minus_family(rc: ResidueClass, rt: RoleTriple) -> FamilySolution:
    """The minus branch through (x0, y0, z0); never integral when gcd(m, n1) = 1."""
    x0, y0, z0 = rt
    if x0 < 1 or y0 < 1 or z0 < 1:  # before any denominator; check names the member
        rt.check(rc.m, rc.n0)
    m, n0, n1 = rc
    x = RationalPoly((x0 * m * z0, n1 * (x0 + z0)), m * z0)
    z = RationalPoly((z0 * m * x0, n1 * (x0 + z0)), m * x0)
    y = RationalPoly((y0 * n0 * n0 * m, n1 * n0 * (2 * y0 * m - n0), n1 * n1 * (y0 * m - n0)),
                     n0 * n0 * m)
    return _checked(rc, rt, "minus", x, y, z)

