"""Decision and construction engine for integer polynomial solutions of

    m/(n0 + n1*lambda) = 1/x(lambda) + 1/y(lambda) + 1/z(lambda)

with m >= 4, gcd(n0, n1) = 1 and gcd(n1, m) = 1.  A residue class is
solvable in positive integer polynomials exactly when positive integers
k, l, s, r exist with

    i)   n1 = l*(m*k - 1)
    ii)  s*n1 = k*l + r*n0
    iii) r divides s*k*l

and in that case the solution is

    x = k*(n0 + n1*lambda)
    z = (k*l/r)*(s + r*lambda)
    y = (n0 + n1*lambda)*(s + r*lambda).

Conditions i) and ii) are cheap to search (divisor enumeration plus a linear
congruence).  ``decide`` routes through the finite base-solution oracle:
every admissible parameter set corresponds to a role assignment
(x0, y0, z0) = (k*n0, s*n0, s*k*l/r) of a positive triple solving the
lambda = 0 instance, so scanning the triples through k*n0 yields a complete,
certifiable answer.  Conditions i) and ii) already force that z0, so iii)
needs no test of its own, and a failed (k, l) has one of two reasons: no
triple member s*n0 (no qualifying base triple), or none with a positive
integer r (no condition-ii positivity).  ``search_condition_iii`` walks the
condition-ii family up to a bound on t, visiting only the divisors of
(k*l)^2, as a cross-check.  ``admissible_residues`` sieves a whole modulus
with the same divisors, finding every solvable residue without deciding any.

``identity_holds`` is the one identity check: it evaluates the cleared
identity exactly, in integers, at one more point than the degree of its
residual, which proves the polynomial identity.  Independent verification
routes live in the tests.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from math import lcm

from .base_solutions import enumerate_base_solutions
from .intmath import divisors, divisors_from, factorize, gcd
from .qpoly import RationalPoly, linear


@dataclass(frozen=True)
class ResidueClass:
    """The instance (m, n0, n1) defining m/(n0 + n1*lambda)."""

    m: int
    n0: int
    n1: int

    def __post_init__(self):
        if self.m < 4:
            raise ValueError(f"m must be >= 4, got {self.m}")
        if self.n0 < 1:
            raise ValueError(f"n0 must be >= 1, got {self.n0}")
        if self.n1 < 2:
            raise ValueError(f"n1 must be >= 2, got {self.n1}")
        g = gcd(self.n0, self.n1)
        if g != 1:
            raise ValueError(f"gcd(n0, n1) must be 1, got gcd({self.n0}, {self.n1}) = {g}")
        g = gcd(self.n1, self.m)
        if g != 1:
            raise ValueError(f"gcd(n1, m) must be 1, got gcd({self.n1}, {self.m}) = {g}")

    def n_poly(self) -> RationalPoly:
        """The denominator polynomial n(lambda) = n0 + n1*lambda."""
        return linear(self.n0, self.n1)


@dataclass(frozen=True)
class ParamSet:
    """A full parameter set (k, l, s, r), all positive."""

    k: int
    l: int
    s: int
    r: int

    def __post_init__(self):
        for name in ("k", "l", "s", "r"):
            v = getattr(self, name)
            if v < 1:
                raise ValueError(f"{name} must be >= 1, got {v}")

    def check(self, rc: ResidueClass) -> None:
        """Raise unless conditions i)-iii) hold for rc."""
        if self.l * (rc.m * self.k - 1) != rc.n1:
            raise ValueError(
                f"condition i fails: l*(m*k - 1) = {self.l * (rc.m * self.k - 1)} != n1 = {rc.n1}"
            )
        if self.s * rc.n1 != self.k * self.l + self.r * rc.n0:
            raise ValueError(
                f"condition ii fails: s*n1 = {self.s * rc.n1} != "
                f"k*l + r*n0 = {self.k * self.l + self.r * rc.n0}"
            )
        if (self.s * self.k * self.l) % self.r != 0:
            raise ValueError(
                f"condition iii fails: r = {self.r} does not divide s*k*l = {self.s * self.k * self.l}"
            )


@dataclass(frozen=True)
class ParamFamily:
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


@dataclass(frozen=True)
class PolyTriple:
    x: RationalPoly
    y: RationalPoly
    z: RationalPoly


@dataclass(frozen=True)
class KlEvidence:
    """Why a given (k, l) yields no solution, for unsolvable outcomes."""

    k: int
    l: int
    s0: int
    r0: int
    family: str
    reason: str


@dataclass(frozen=True)
class DecisionOutcome:
    rc: ResidueClass
    status: str  # "solvable" | "unsolvable"
    solutions: tuple[tuple[ParamSet, PolyTriple], ...]
    kl_pairs: tuple[tuple[int, int], ...]
    evidence: tuple[KlEvidence, ...] = field(default=())

    def is_solvable(self) -> bool:
        return self.status == "solvable"


REASON_NO_BASE_TRIPLE = "no qualifying base triple"
REASON_CONDITION_II = "no condition-ii positivity"


def enumerate_kl(m: int, n1: int) -> list[tuple[int, int]]:
    """All positive (k, l) with l*(m*k - 1) = n1, ordered by l ascending.

    Empty when no divisor d of n1 satisfies d = -1 (mod m); in that case no
    integer polynomial solution exists for any residue n0.
    """
    if m < 4:
        raise ValueError(f"m must be >= 4, got {m}")
    if n1 < 2:
        raise ValueError(f"n1 must be >= 2, got {n1}")
    g = gcd(n1, m)
    if g != 1:
        raise ValueError(f"gcd(n1, m) must be 1, got gcd({n1}, {m}) = {g}")
    out = []
    for l in divisors(n1):
        d = n1 // l
        if (d + 1) % m == 0:
            out.append(((d + 1) // m, l))
    return out


def solve_condition_ii(rc: ResidueClass, k: int, l: int) -> ParamFamily:
    """Minimal solution of s*n1 = k*l + r*n0 and the line through it.

    gcd(n0, n1) = 1 guarantees a solution; s0 is normalized into [1, n0]
    (so s0 = 1 when n0 = 1) and r0 = (s0*n1 - k*l)/n0 may be <= 0.
    """
    n0, n1 = rc.n0, rc.n1
    inv = pow(n1, -1, n0) if n0 > 1 else 0
    s0 = (k * l * inv) % n0 if n0 > 1 else 0
    if s0 == 0:
        s0 = n0
    r0 = (s0 * n1 - k * l) // n0
    assert s0 * n1 == k * l + r0 * n0
    return ParamFamily(k=k, l=l, s0=s0, r0=r0, step=(n0, n1))


def _kl_square_divisors(k: int, l: int) -> list[int]:
    """The divisors of (k*l)^2, ascending, factored through k and l."""
    factors = Counter(factorize(k)) + Counter(factorize(l))
    return divisors_from({p: 2 * e for p, e in factors.items()})


def admissible_residues(m: int, n1: int) -> list[int]:
    """Every n0 in [1, n1) coprime to n1 whose class is solvable, ascending.

    Conditions ii) and iii) force r | (k*l)^2, since (k*l)^2 =
    k*l*(s*n1 - r*n0) = s*k*l*n1 = 0 (mod r).  For each (k, l) of condition
    i) and each such r with g = gcd(r, n1) dividing k*l, r*n0 = -k*l (mod n1)
    fixes n0 modulo n1/g, s = (k*l + r*n0)/n1 is then a positive integer,
    and n0 is kept when r | s*k*l.
    """
    found = set()
    for k, l in enumerate_kl(m, n1):
        kl = k * l
        for r in _kl_square_divisors(k, l):
            g = gcd(r, n1)
            if kl % g:
                continue
            step = n1 // g
            first = -(kl // g) * pow(r // g, -1, step) % step
            for n0 in range(first or step, n1, step):
                if gcd(n0, n1) == 1 and (kl + r * n0) // n1 * kl % r == 0:
                    found.add(n0)
    return sorted(found)


def search_condition_iii(fam: ParamFamily, t_max: int) -> ParamSet | None:
    """Smallest t in [0, t_max] meeting condition iii, or None.

    On the line, s*n1 = k*l + r*n0 gives k*l = s*n1 (mod r), so r | s*k*l
    forces r | (k*l)^2 (factored through k and l).  The walk visits those
    divisors with r = r0 (mod n1) in ascending order, as r grows with t.  A
    family off condition ii, or with a nonpositive step, raises ValueError.
    A miss up to t_max certifies nothing; ``decide`` gives the complete answer.
    """
    if t_max < 0:
        raise ValueError(f"t_max must be >= 0, got {t_max}")
    k, l, s0, r0 = fam.k, fam.l, fam.s0, fam.r0
    n0, n1 = fam.step
    if n0 < 1 or n1 < 1 or s0 * n1 != k * l + r0 * n0:
        raise ValueError(f"{fam.describe()} with (k, l) = ({k}, {l}) is not a condition-ii family")
    r_max = r0 + n1 * t_max
    for r in _kl_square_divisors(k, l):
        if r > r_max:
            break
        t, off = divmod(r - r0, n1)
        s = s0 + n0 * t
        if off == 0 and t >= 0 and s >= 1 and (s * k * l) % r == 0:
            return ParamSet(k=k, l=l, s=s, r=r)
    return None


def construct_solution(rc: ResidueClass, ps: ParamSet) -> PolyTriple:
    """Build the solution triple for a parameter set satisfying i)-iii).

    x = k*n(lambda), z = (k*l/r)*(s + r*lambda), y = n(lambda)*(s + r*lambda);
    condition iii makes every coefficient a positive integer.
    """
    ps.check(rc)
    k, l, s, r = ps.k, ps.l, ps.s, ps.r
    x = linear(k * rc.n0, k * rc.n1)
    z = linear(s * k * l // r, k * l)
    y = rc.n_poly() * linear(s, r)
    return PolyTriple(x=x, y=y, z=z)


def identity_holds(rc: ResidueClass, pt: PolyTriple) -> bool:
    """Whether m*x*y*z = n*(x*y + x*z + y*z) holds identically in lambda.

    The package's one identity check.  Over a common denominator d, x, y, z
    have integer numerators X, Y, Z of degrees dx, dy, dz (0 if constant),
    and d^3 times the residual is R = m*X*Y*Z - d*n*(X*Y + (X + Y)*Z).  Its
    terms have degree at most D = dx + dy + dz and D + 1 - min(dx, dy, dz),
    so R is zero exactly when it vanishes at lambda = 0, 1, ..., D, plus one
    more point when some member is constant: a nonzero polynomial has no
    more roots than its degree.  X, Y, Z are evaluated by Horner's rule, in
    integers, and the first point where R is nonzero ends the check.
    """
    polys = (pt.x, pt.y, pt.z)
    d = lcm(pt.x.den, pt.y.den, pt.z.den)
    X, Y, Z = ([c * (d // p.den) for c in reversed(p.nums)] for p in polys)
    sizes = [max(len(p.nums), 1) for p in polys]
    m, n0, n1 = rc.m, d * rc.n0, d * rc.n1
    # D = sum(sizes) - 3; D + 1 points, and one more when a member is constant
    for lam in range(sum(sizes) - 2 + (min(sizes) == 1)):
        x = y = z = 0
        for c in X:
            x = x * lam + c
        for c in Y:
            y = y * lam + c
        for c in Z:
            z = z * lam + c
        if m * x * y * z != (n0 + n1 * lam) * (x * y + (x + y) * z):
            return False
    return True


def verify_identity(rc: ResidueClass, pt: PolyTriple) -> bool:
    """True iff all three polynomials have strictly positive integer
    coefficients and the triple solves the residue-class equation exactly."""
    return (pt.x.is_positive_integral() and pt.y.is_positive_integral()
            and pt.z.is_positive_integral() and identity_holds(rc, pt))


def decide(rc: ResidueClass) -> DecisionOutcome:
    """Complete decision for the residue class.

    For each (k, l) from condition i), walk the base triples of m/n0 through
    x0 = k*n0 (a divisor walk) and try each other member y0, ascending and
    once: accept when n0 | y0 and r = (s*n1 - k*l)/n0 is a positive integer
    for s = y0/n0.  Condition iii) then holds by itself: the third member is
    z0 = k*s*n0/((m*k - 1)*s - k), and i) turns ii) into
    (m*k - 1)*s - k = r*n0/l, so z0 = k*l*s/r.  The accepted sets are thus
    exactly those satisfying i)-iii), an empty sweep certifies
    unsolvability, and no two share a triple.  A failed (k, l) reports
    REASON_CONDITION_II when some y0 was divisible by n0, else
    REASON_NO_BASE_TRIPLE.
    """
    n0 = rc.n0
    kl_pairs = enumerate_kl(rc.m, rc.n1)
    solutions: list[tuple[ParamSet, PolyTriple]] = []
    evidence: list[KlEvidence] = []

    for k, l in kl_pairs:
        found = len(solutions)
        divisible = False
        for bt in enumerate_base_solutions(rc.m, n0, k * n0):
            rest = list(bt)
            rest.remove(k * n0)
            for y0 in dict.fromkeys(rest):
                s, off = divmod(y0, n0)
                if off:
                    continue
                divisible = True
                r, off = divmod(s * rc.n1 - k * l, n0)
                if off or r < 1:
                    continue
                ps = ParamSet(k=k, l=l, s=s, r=r)
                pt = construct_solution(rc, ps)
                if not verify_identity(rc, pt):
                    raise AssertionError(f"accepted parameter set {ps} failed verification")
                solutions.append((ps, pt))
        if len(solutions) == found:
            fam = solve_condition_ii(rc, k, l)
            reason = REASON_CONDITION_II if divisible else REASON_NO_BASE_TRIPLE
            evidence.append(
                KlEvidence(k=k, l=l, s0=fam.s0, r0=fam.r0, family=fam.describe(), reason=reason)
            )

    status = "solvable" if solutions else "unsolvable"
    return DecisionOutcome(
        rc=rc,
        status=status,
        solutions=tuple(solutions),
        kl_pairs=tuple(kl_pairs),
        evidence=tuple(evidence) if status == "unsolvable" else (),
    )


@dataclass(frozen=True)
class DegreeReport:
    """Sorted degree pattern of a verified triple, plus the degree of the
    auxiliary polynomial m*z*x - n*(x + z) taken with the highest-degree
    member in the y role."""

    degrees: tuple[int, int, int]
    aux_degree: int | None


def analyze_degrees(rc: ResidueClass, pt: PolyTriple) -> DegreeReport:
    """Degree report for a verified solution triple.

    Rejects unverified triples; every verified triple has pattern {1, 1, 2}
    and auxiliary degree 1, and callers assert exactly that.
    """
    if not verify_identity(rc, pt):
        raise ValueError("analyze_degrees requires a triple that passes verify_identity")
    polys = [pt.x, pt.y, pt.z]
    degs = [p.degree for p in polys]
    y_pos = max(range(3), key=lambda i: degs[i])
    xz = [polys[i] for i in range(3) if i != y_pos]
    aux = (xz[0] * xz[1]).scale(rc.m) - rc.n_poly() * (xz[0] + xz[1])
    return DegreeReport(degrees=tuple(sorted(degs)), aux_degree=aux.degree)
