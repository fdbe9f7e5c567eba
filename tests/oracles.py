"""Independent reference routes the tests compare trifrac against.

None of these share code with the production checks: they evaluate
pointwise with ``Fraction``, multiply out coefficient lists, trial-divide,
or walk a search space exhaustively or along a bounded family.  The one
exception is ``walk_decide``, which decides by the base-triple walk alone
and so reuses ``enumerate_base_solutions`` (checked on its own against
``base_triples_oracle`` and ``member_walk_oracle``).  ``degree_oracle`` is
the one route that does not start from conditions i)-iii).  ``outcome_dict``
and ``row_dict`` are the CLI's JSON forms of an outcome (a ``decide`` document,
and a scan row or audit witness) as plain dicts, for ``json.dumps``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from math import gcd, lcm
from typing import NamedTuple

from trifrac.base_solutions import BaseTriple, enumerate_base_solutions
from trifrac.qpoly import RationalPoly
from trifrac.theorem import (
    REASON_CONDITION_II,
    REASON_NO_BASE_TRIPLE,
    DecisionOutcome,
    KlEvidence,
    ParamSet,
    PolyTriple,
    ResidueClass,
    construct_solution,
    enumerate_kl,
    verify_identity,
)


def poly_eval(p: RationalPoly, at) -> Fraction:
    """Exact Horner evaluation of p at a rational point."""
    acc = Fraction(0)
    for c in reversed(p.nums):
        acc = acc * at + c
    return acc / p.den


def poly(coeffs=()) -> RationalPoly:
    """The polynomial with int or Fraction coefficients, constant term first."""
    cs = [Fraction(c) for c in coeffs]
    den = lcm(*(c.denominator for c in cs))
    return RationalPoly([c.numerator * (den // c.denominator) for c in cs], den)


def linear(c0, c1) -> RationalPoly:
    """The polynomial c0 + c1*lambda."""
    return poly([c0, c1])


def role_assignments(triple) -> list[tuple[int, int, int]]:
    """A triple's distinct orderings, in lexicographic order of the index permutations."""
    return list(dict.fromkeys(permutations(triple)))


def discriminant(m: int, n0: int, roles) -> tuple[int, int, int, Fraction]:
    """(xbar0, zbar0, lhs, rhs) of the degree-(1, 1, 3) argument in the
    ``families`` docstring, over a role triple (x0, y0, z0) of m/n0:
    xbar0 = m*x0 - n0, zbar0 = m*z0 - n0, lhs = n0^2 - xbar0*zbar0 and
    rhs = -m*n0*x0*z0/y0.  When 1/x0 + 1/y0 + 1/z0 = m/n0, lhs = rhs < 0, so
    that pattern has no real first-order coefficients."""
    x0, y0, z0 = roles
    xbar0, zbar0 = m * x0 - n0, m * z0 - n0
    return xbar0, zbar0, n0 * n0 - xbar0 * zbar0, Fraction(-m * n0 * x0 * z0, y0)


def _convolve(a, b) -> list[int]:
    """Coefficients of the product of two integer coefficient lists."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return out


def identity_residual(rc: ResidueClass, pt: PolyTriple) -> RationalPoly:
    """The residual m*x*y*z - n*(x*y + x*z + y*z) as a polynomial.

    Scaling x, y, z by their common denominator d gives integer coefficient
    lists X, Y, Z, and the residual is (m*X*Y*Z - d*n*(X*Y + X*Z + Y*Z)) / d^3,
    multiplied out by seven convolutions.
    """
    d = lcm(pt.x.den, pt.y.den, pt.z.den)
    x, y, z = ([c * (d // p.den) for c in p.nums] for p in (pt.x, pt.y, pt.z))
    xy = _convolve(x, y)
    out = [rc.m * c for c in _convolve(xy, z)]
    dn = [d * rc.n0, d * rc.n1]
    for pair in (xy, _convolve(x, z), _convolve(y, z)):
        term = _convolve(dn, pair)
        out += [0] * (len(term) - len(out))
        for i, c in enumerate(term):
            out[i] -= c
    return RationalPoly(out, d ** 3)


def identity_holds_at_points(rc: ResidueClass, pt: PolyTriple) -> bool:
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


def trial_factorize(n: int) -> dict[int, int]:
    """Prime factorization {p: e} of n >= 1, primes ascending, by trial division."""
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def kl_square_sieve(m: int, n1: int) -> list[int]:
    """Every n0 in [1, n1) coprime to n1 whose class is solvable, ascending,
    by the (k*l)^2 route with an explicit condition-iii test.

    For each (k, l) with l*(m*k - 1) = n1 (trial division), conditions ii)
    and iii) force r | (k*l)^2, since (k*l)^2 = k*l*(s*n1 - r*n0) = 0
    (mod r).  For each such r (a product of two trial divisors of k*l) with
    g = gcd(r, n1) dividing k*l, r*n0 = -k*l (mod n1) fixes n0 modulo n1/g,
    s = (k*l + r*n0)/n1 is then a positive integer, and n0 is kept when
    r | s*k*l.
    """
    found = set()
    for l in trial_divisors(n1):
        k, off = divmod(n1 // l + 1, m)
        if off:
            continue
        kl = k * l
        divs = trial_divisors(kl)
        for r in {d1 * d2 for d1 in divs for d2 in divs}:
            g = gcd(r, n1)
            if kl % g:
                continue
            step = n1 // g
            first = -(kl // g) * pow(r // g, -1, step) % step
            for n0 in range(first or step, n1, step):
                if gcd(n0, n1) == 1 and (kl + r * n0) // n1 * kl % r == 0:
                    found.add(n0)
    return sorted(found)


def member_walk_oracle(m: int, n0: int, member: int) -> tuple[BaseTriple, ...]:
    """The triples through ``member`` that its divisor walk implies, in walk order.

    1/b + 1/c = m/n0 - 1/member = P/Q in lowest terms.  Every divisor of Q^2
    is a product of two divisors of Q (trial division); each d <= Q with
    d = -Q (mod P), taken ascending, gives b = (d + Q)/P and c = (Q^2/d + Q)/P.
    """
    rest = Fraction(m, n0) - Fraction(1, member)
    if rest <= 0:
        return ()
    p, q = rest.numerator, rest.denominator
    divs = trial_divisors(q)
    square = sorted({d1 * d2 for d1 in divs for d2 in divs if d1 * d2 <= q})
    return tuple(BaseTriple(*sorted((member, (d + q) // p, (q * q // d + q) // p)))
                 for d in square if (d + q) % p == 0)


def is_quadratic_residue(a: int, n: int) -> bool:
    """True iff w*w == a (mod n) for some w in [0, n); exhaustive O(n)."""
    if n < 2:
        raise ValueError(f"is_quadratic_residue requires n >= 2, got {n}")
    target = a % n
    return any(w * w % n == target for w in range(n))


def jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n >= 1, by quadratic reciprocity and
    the supplementary law for 2 (no factoring)."""
    if n < 1 or n % 2 == 0:
        raise ValueError(f"jacobi requires an odd n >= 1, got {n}")
    a, sign = a % n, 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


class ParamFamily(NamedTuple):
    """The affine line of condition-ii solutions for a fixed (k, l).

    s = s0 + n0*t and r = r0 + n1*t for t in Z; s0 is the minimal positive
    solution (1 <= s0 <= n0) and r0 may be nonpositive.
    """

    k: int
    l: int
    s0: int
    r0: int
    step: tuple[int, int]

    def describe(self) -> str:
        n0, n1 = self.step
        return f"s = {self.s0} + {n0}t, r = {self.r0} + {n1}t"


def solve_condition_ii(rc: ResidueClass, k: int, l: int) -> ParamFamily:
    """Minimal solution of s*n1 = k*l + r*n0 and the line through it, by the
    extended Euclidean algorithm rather than ``pow``: it finds u with
    u*n1 + v*n0 = 1, so s = k*l*u (mod n0).  s0 is normalized into [1, n0]
    and r0 = (s0*n1 - k*l)/n0, which must divide out exactly."""
    _, n0, n1 = rc
    a, b, u, u_next = n1, n0, 1, 0  # invariant: a = u*n1 (mod n0), b = u_next*n1 (mod n0)
    while b:
        q = a // b
        a, b, u, u_next = b, a - q * b, u_next, u - q * u_next
    if a != 1:
        raise ValueError(f"gcd(n0, n1) = {a}, so condition ii has no unique line")
    s0 = (k * l * u) % n0 or n0
    r0, off = divmod(s0 * n1 - k * l, n0)
    if off:
        raise AssertionError(f"s0 = {s0} misses condition ii for {rc} at ({k}, {l})")
    return ParamFamily(k, l, s0, r0, (n0, n1))


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


def search_condition_iii(fam: ParamFamily, t_max: int) -> ParamSet | None:
    """Smallest t in [0, t_max] meeting condition iii, or None.

    On the line, s*n1 = k*l + r*n0 gives k*l = s*n1 (mod r), so r | s*k*l
    forces r | (k*l)^2.  The walk visits those divisors (products of two
    trial divisors of k*l) with r = r0 (mod n1) in ascending order, as r
    grows with t.  A family off condition ii, or with a nonpositive step,
    raises ValueError.  A miss up to t_max certifies nothing by itself; for
    an unsolvable class ``decide`` says no t at all meets condition iii.
    """
    if t_max < 0:
        raise ValueError(f"t_max must be >= 0, got {t_max}")
    k, l, s0, r0 = fam.k, fam.l, fam.s0, fam.r0
    n0, n1 = fam.step
    if n0 < 1 or n1 < 1 or s0 * n1 != k * l + r0 * n0:
        raise ValueError(f"{fam.describe()} with (k, l) = ({k}, {l}) is not a condition-ii family")
    r_max = r0 + n1 * t_max
    divs = trial_divisors(k * l)
    for r in sorted({d1 * d2 for d1 in divs for d2 in divs}):
        if r > r_max:
            break
        t, off = divmod(r - r0, n1)
        s = s0 + n0 * t
        if off == 0 and t >= 0 and s >= 1 and (s * k * l) % r == 0:
            return ParamSet(k=k, l=l, s=s, r=r)
    return None


def walk_decide(rc: ResidueClass) -> DecisionOutcome:
    """The decision by the base-triple walk alone, with no lemma.

    For every (k, l) of condition i), walk the triples of m/n0 through
    x0 = k*n0 and try each other member y0, ascending and once: accept when
    n0 | y0 and r = (s*n1 - k*l)/n0 is a positive integer for s = y0/n0.
    A (k, l) that accepts nothing reports REASON_CONDITION_II when some y0
    was divisible by n0, else REASON_NO_BASE_TRIPLE.
    """
    m, n0, n1 = rc
    kl_pairs = enumerate_kl(m, n1)
    solutions = []
    evidence = []
    for k, l in kl_pairs:
        found = len(solutions)
        divisible = False
        for bt in enumerate_base_solutions(m, n0, k * n0):
            rest = list(bt)
            rest.remove(k * n0)
            for y0 in dict.fromkeys(rest):
                s, off = divmod(y0, n0)
                if off:
                    continue
                divisible = True
                r, off = divmod(s * n1 - k * l, n0)
                if off or r < 1:
                    continue
                ps = ParamSet(k=k, l=l, s=s, r=r)
                pt = construct_solution(rc, ps)
                assert verify_identity(rc, pt), ps
                solutions.append((ps, pt))
        if len(solutions) == found:
            fam = solve_condition_ii(rc, k, l)
            reason = REASON_CONDITION_II if divisible else REASON_NO_BASE_TRIPLE
            evidence.append(KlEvidence(k, l, fam.s0, fam.r0, fam.describe(), reason))
    status = "solvable" if solutions else "unsolvable"
    return DecisionOutcome(rc, status, tuple(solutions), tuple(kl_pairs),
                           tuple(evidence) if status == "unsolvable" else ())


def _series_quotient(num: list[int], den: list[int]) -> list[int] | None:
    """num/den as an integer polynomial, or None when den does not divide num.

    den[0] > 0 and den has no trailing zero.  The quotient is divided out as
    a power series from the constant term, and dropped at the first
    coefficient that does not divide out; the full product is then compared.
    """
    out = []
    for i in range(len(num) - len(den) + 1):
        acc = num[i] - sum(den[j] * out[i - j] for j in range(1, min(i, len(den) - 1) + 1))
        q, off = divmod(acc, den[0])
        if off:
            return None
        out.append(q)
    return out if out and _convolve(den, out) == num else None


def degree_oracle(rc: ResidueClass) -> set[tuple[tuple[int, ...], ...]]:
    """Every triple of polynomials with positive integer coefficients solving
    m/(n0 + n1*lambda) = 1/x + 1/y + 1/z, each as the sorted triple of its
    members' coefficient tuples, found from degrees alone: conditions i)-iii)
    are not used.

    Let the member degrees be a <= b <= c.  m*x*y*z has degree a + b + c,
    and n*(x*y + x*z + y*z) has degree 1 + b + c with a positive top
    coefficient, so a = 1.  If b >= 2, only y*z reaches the top degree on
    the right, and the top coefficients give m*x1 = n1, impossible as m does
    not divide n1.  So x and y are linear, and z = n*x*y/D, of degree at
    most 3, with D = m*x*y - n*(x + y).  At lambda = 0, (x0, y0, z0) is a
    base triple of m/n0, so D(0) = n0*x0*y0/z0 > 0.  The lambda^2
    coefficient of D is m*x1*y1 - n1*(x1 + y1).  When deg z >= 2 it
    vanishes: 1/x1 + 1/y1 = m/n1, that is (m*x1 - n1)*(m*y1 - n1) = n1^2,
    so the leading pairs come from the divisors of n1^2.  When z is linear
    it is n1*x1*y1/z1: 1/x1 + 1/y1 + 1/z1 = m/n1, so (x1, y1) are two
    members of a triple of m/n1.  Both sets are finite, so trying every
    pair (x0, y0) of members of a base triple of m/n0 against every leading
    pair is complete.
    """
    m, n0, n1 = rc
    square = n1 * n1
    leading = {((d + n1) // m, (square // d + n1) // m)
               for d in trial_divisors(square) if (d + n1) % m == 0}
    leading.update(pair for t in base_triples_oracle(m, n1) for pair in permutations(t, 2))
    # x0 <= y0: swapping x and y gives the same triple
    constant = {(x0, y0) for t in base_triples_oracle(m, n0) for x0, y0 in permutations(t, 2)
                if x0 <= y0}
    found = set()
    for x0, y0 in constant:
        for x1, y1 in leading:
            xy = (x0 * y0, x0 * y1 + x1 * y0, x1 * y1)
            num = [n0 * xy[0], n0 * xy[1] + n1 * xy[0], n0 * xy[2] + n1 * xy[1], n1 * xy[2]]
            den = [m * xy[0] - n0 * (x0 + y0), m * xy[1] - n0 * (x1 + y1) - n1 * (x0 + y0),
                   m * xy[2] - n1 * (x1 + y1)]
            while den[-1] == 0:
                den.pop()
            z = _series_quotient(num, den)
            if z is not None and all(c > 0 for c in z):
                found.add(tuple(sorted([(x0, x1), (y0, y1), tuple(z)])))
    return found


def _fields(record) -> dict:
    return {name: str(v) for name, v in zip(record._fields, record)}


def row_dict(outcome: DecisionOutcome) -> dict:
    """A decision outcome as a scan row or audit witness of the CLI's JSON,
    every integer a decimal string: only what varies per residue."""
    return {
        "n0": str(outcome.rc.n0),
        "status": outcome.status,
        "solutions": [{"params": _fields(ps), **{name: getattr(pt, name).to_coeff_strings()
                                                 for name in "xyz"}}
                      for ps, pt in outcome.solutions],
        "evidence": [_fields(ev) for ev in outcome.evidence],
    }


def outcome_dict(outcome: DecisionOutcome) -> dict:
    """A decision outcome as the CLI's JSON object, every integer a decimal
    string: ``json.dumps(outcome_dict(o), indent=2, sort_keys=True)`` is what
    ``decide --format json`` prints for it, less the envelope.  It is
    ``row_dict`` with the class's m and n1 and its (k, l) pairs."""
    return {**row_dict(outcome), **_fields(outcome.rc),
            "kl_pairs": [{"k": str(k), "l": str(l)} for k, l in outcome.kl_pairs]}
