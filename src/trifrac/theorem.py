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

With P = m*k - 1, conditions ii) and iii) have a closed form (the lemma):
(k, l, s, r) meets them exactly when r = l*h for a divisor h of k^2 with
n0*h = -k (mod P), and then s = (n0*h + k)/P.  Proof: i) turns ii) into
l*(s*P - k) = r*n0, and gcd(l, n0) = 1 since l | n1, so r = l*h with
n0*h = s*P - k.  Then iii) is h | s*k; as s*P = k (mod h) and
gcd(h, P) = gcd(k, P) = 1 for h | k^2, h | s*k is h | k^2.  Conversely any
such h gives a positive integer s, and r = l*h meets ii) and iii).  Call
n0 admitted at (k, l) when such an h exists.  At most two h qualify (the
two-candidate corollary): t = -k*n0^-1 or t' = -k*n0 mod P, if it is <= k
and divides k^2, with h = t or h = k^2/t'.  Proof: k is a unit mod P, and
P > k.  An h <= k lies in [1, P), so n0*h = -k makes h = t; else k^2/h < k,
and n0*h = -k times k^2/h gives k^2/h = -k*n0 = t'.  Conversely n0*t = -k
and n0*(k^2/t') = -(t'/k)*(k^2/t') = -k.  ``_admits`` tests both.

Every parameter set is a role assignment (x0, y0, z0) = (k*n0, s*n0,
s*k*l/r) of a base triple of the lambda = 0 instance through x0 = k*n0, so
``decide`` walks those triples only where the lemma admits n0 (and finds a
set there).  Elsewhere it reports why (k, l) fails, by the reason rule:
another member y0 of a triple through x0 is divisible by n0 exactly when
some divisor f of n0 is admitted at (k, l).
Proof: with Q = k*n0, 1/y0 + 1/z0 = m/n0 - 1/Q = P/Q in lowest terms
(gcd(P, k) = gcd(P, n0) = 1 as P | n1), so the members through x0 are the
(d + Q)/P over the d | Q^2 with d = -Q (mod P).  As gcd(n0, P) = 1, n0
divides one exactly when n0 | d, i.e. d = n0*F with F | k^2*n0 and
F = -k (mod P).  Such F are the products h*f with h | k^2, f | n0 and
f*h = -k (mod P), which is f admitted.  ``admissible_residues`` sieves a
whole modulus by the lemma without deciding any residue.  The rule sieves
too: every divisor of an n0 in [1, n1) coprime to n1 is itself there, so
marking the multiples of each admitted f in [1, n1) coprime to n1 marks
exactly the n0 with REASON_CONDITION_II at (k, l) (``_sieve_reasons``).

Quadratic character: if 4 | m, an n0 admitted at (k, l) has Jacobi symbol
(n0/P) = -1, so it is a square neither mod P nor mod n1.  Proof: m*k = 1
(mod P) makes n0 = -(m*h)^-1, so (n0/P) = (-1/P)*(m*h/P), and (-1/P) = -1
as P = 3 (mod 4).  Each odd prime q | m*h has P = -1 (mod q), so (q/P) =
(-1/q)^2 = 1 by reciprocity; 2 | m*h to an odd power only if 8 | m*k, when
P = 7 (mod 8) and (2/P) = 1.  So (m*h/P) = 1.

``identity_holds`` is the one identity check: it evaluates the cleared
residual exactly at lambda = 2^k (Kronecker substitution), with 2^k more
than twice any coefficient, so the value is zero only for the zero
polynomial; ``residual`` unpacks the same value into the residual's
coefficients.  Independent verification routes live in the tests.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple

from .base_solutions import enumerate_base_solutions
from .intmath import divisors, factorize, gcd
from .qpoly import RationalPoly


@classmethod
def _validated_make(cls, iterable):
    """Build through ``__new__``, so ``_make`` and ``_replace`` validate too."""
    return cls(*iterable)


def _check_class(m: int, n0: int, n1: int) -> None:
    """Raise ValueError unless (m, n0, n1) is a residue class: m >= 4,
    n0 >= 1, n1 >= 2, gcd(n0, n1) = 1 and gcd(n1, m) = 1.  A modulus alone
    is checked as the class n0 = 1."""
    if m < 4:
        raise ValueError(f"m must be >= 4, got {m}")
    if n0 < 1:
        raise ValueError(f"n0 must be >= 1, got {n0}")
    if n1 < 2:
        raise ValueError(f"n1 must be >= 2, got {n1}")
    g = gcd(n0, n1)
    if g != 1:
        raise ValueError(f"gcd(n0, n1) must be 1, got gcd({n0}, {n1}) = {g}")
    g = gcd(n1, m)
    if g != 1:
        raise ValueError(f"gcd(n1, m) must be 1, got gcd({n1}, {m}) = {g}")


_ResidueClass = NamedTuple("_ResidueClass", [("m", int), ("n0", int), ("n1", int)])


class ResidueClass(_ResidueClass):
    """The instance (m, n0, n1) defining m/(n0 + n1*lambda)."""

    __slots__ = ()
    _make = _validated_make

    def __new__(cls, m: int, n0: int, n1: int):
        _check_class(m, n0, n1)
        return tuple.__new__(cls, (m, n0, n1))


_ParamSet = NamedTuple("_ParamSet", [("k", int), ("l", int), ("s", int), ("r", int)])


class ParamSet(_ParamSet):
    """A full parameter set (k, l, s, r), all positive."""

    __slots__ = ()
    _make = _validated_make

    def __new__(cls, k: int, l: int, s: int, r: int):
        for name, v in zip(cls._fields, (k, l, s, r)):
            if v < 1:
                raise ValueError(f"{name} must be >= 1, got {v}")
        return tuple.__new__(cls, (k, l, s, r))

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


class PolyTriple(NamedTuple):
    x: RationalPoly
    y: RationalPoly
    z: RationalPoly


class KlEvidence(NamedTuple):
    """Why a given (k, l) yields no solution, for unsolvable outcomes."""

    k: int
    l: int
    s0: int
    r0: int
    family: str
    reason: str


class DecisionOutcome(NamedTuple):
    rc: ResidueClass
    status: str  # "solvable" | "unsolvable"
    solutions: tuple[tuple[ParamSet, PolyTriple], ...]
    kl_pairs: tuple[tuple[int, int], ...]
    evidence: tuple[KlEvidence, ...] = ()

    def is_solvable(self) -> bool:
        return self.status == "solvable"


REASON_NO_BASE_TRIPLE = "no qualifying base triple"
REASON_CONDITION_II = "no condition-ii positivity"

# Most residues ``_lemma_pairs`` keeps in one (k, l)'s targets: far above
# d(k^2) <= 567 in a full scan (``decide`` builds no targets).
_TARGET_SET_MAX = 1 << 16


def enumerate_kl(m: int, n1: int) -> list[tuple[int, int]]:
    """All positive (k, l) with l*(m*k - 1) = n1, ordered by l ascending.

    Empty when no divisor d of n1 satisfies d = -1 (mod m); in that case no
    integer polynomial solution exists for any residue n0.
    """
    _check_class(m, 1, n1)
    out = []
    for l in divisors(n1):
        d = n1 // l
        if (d + 1) % m == 0:
            out.append(((d + 1) // m, l))
    return out


def admissible_residues(m: int, n1: int) -> list[int]:
    """Every n0 in [1, n1) coprime to n1 whose class is solvable, ascending.

    By the lemma in the module docstring, these are the n0 coprime to n1
    with n0 = -k*h^-1 (mod m*k - 1) for some (k, l) of condition i) and
    some divisor h of k^2.
    """
    return _sieve_residues(n1, _lemma_pairs(m, n1))


def _times_powers(values: set[int], a: int, e: int, p: int) -> set[int]:
    """{v*a^i mod p : v in values, 0 <= i <= e}."""
    out = set(values)
    for _ in range(e):
        values = {v * a % p for v in values}
        out |= values
    return out


def _lemma_pairs(m: int, n1: int) -> Iterator[tuple[int, int, int, set[int], set[int]]]:
    """Yield ``enumerate_kl(m, n1)`` as (k, l, p, shifts, targets), p = n1/l,
    with n0 admitted at (k, l) iff n0*a mod p is in targets for some a in
    shifts.  The lemma's classes -k*h^-1 mod p, h | k^2, are built prime
    power by prime power: q^e || k spreads the targets by q^-i, i <= 2e, or,
    should that take them past _TARGET_SET_MAX, the shifts by q^i instead."""
    for k, l in enumerate_kl(m, n1):
        p = n1 // l
        shifts, targets = {1}, {-k % p}
        for q, e in factorize(k).items():
            if len(targets) * (2 * e + 1) <= _TARGET_SET_MAX:
                targets = _times_powers(targets, pow(q, -1, p), 2 * e, p)
            else:
                shifts = _times_powers(shifts, q, 2 * e, p)
        yield k, l, p, shifts, targets


def _pair_residues(n1: int, pairs: Iterable) -> Iterator[list[int]]:
    """For each of n1's ``_lemma_pairs``, the n0 in [1, n1) coprime to n1 it admits."""
    for _, _, p, shifts, targets in pairs:
        inverses = [pow(a, -1, p) for a in shifts]
        yield [n0 for first in {t * b % p for b in inverses for t in targets}
               for n0 in range(first, n1, p) if gcd(n0, n1) == 1]


def _sieve_residues(n1: int, pairs: Iterable[tuple[int, int, int, set[int], set[int]]]) -> list[int]:
    """The sieve of ``admissible_residues``, given ``_lemma_pairs`` for n1."""
    return sorted(set().union(*_pair_residues(n1, pairs)))


def _sieve_reasons(n1: int, pairs: list) -> tuple[set[int], list[tuple[int, int, bytearray]]]:
    """The residues ``_sieve_residues`` finds, and for each pair (k, l, mark),
    mark a bytearray(n1) whose byte at n0 is 1 iff a divisor of n0 is admitted
    there (the reason rule's sieve form): each admitted f marks its multiples."""
    admitted, marks, ones = set(), [], memoryview(b"\1" * n1)
    for (k, l, *_), found in zip(pairs, _pair_residues(n1, pairs)):
        admitted.update(found)
        mark = bytearray(n1)
        for f in found:
            mark[f::f] = ones[:(n1 - 1) // f]
        marks.append((k, l, mark))
    return admitted, marks


def construct_solution(rc: ResidueClass, ps: ParamSet) -> PolyTriple:
    """Build the solution triple for a parameter set satisfying i)-iii).

    x = k*n(lambda), z = (k*l/r)*(s + r*lambda), y = n(lambda)*(s + r*lambda);
    condition iii makes every coefficient a positive integer.
    """
    ps.check(rc)
    k, l, s, r = ps
    x = RationalPoly([k * rc.n0, k * rc.n1])
    z = RationalPoly([s * k * l // r, k * l])
    y = RationalPoly([rc.n0, rc.n1]) * RationalPoly([s, r])
    return PolyTriple(x, y, z)


def _packed_residual(rc: ResidueClass, pt: PolyTriple) -> tuple[int, int]:
    """R(2^k) and k, for R = a*b*c times the residual (Kronecker substitution).

    With x = X/a, y = Y/b, z = Z/c, R = m*X*Y*Z - n*(c*X*Y + (b*X + a*Y)*Z)
    has integer coefficients of absolute value at most ``bound``, and k is
    the least whole number of bytes with 2^k > 2*bound.  So R(2^k) = 0 only
    when R = 0: in sum r_i*2^(k*i) with every |r_i| < 2^(k - 1), the top
    nonzero term outweighs all those below it.
    """
    m, n0, n1 = rc
    (X, a), (Y, b), (Z, c) = pt
    nx = ny = nz = 0  # l1 norms: on a few terms, plain loops beat sum(map(abs, .))
    for d in X:
        nx += abs(d)
    for d in Y:
        ny += abs(d)
    for d in Z:
        nz += abs(d)
    bound = m * nx * ny * nz + (n0 + n1) * (c * nx * ny + b * nx * nz + a * ny * nz)
    k = (bound.bit_length() + 8) // 8 * 8
    u = v = w = 0
    for d in reversed(X):
        u = (u << k) + d
    for d in reversed(Y):
        v = (v << k) + d
    for d in reversed(Z):
        w = (w << k) + d
    uv = u * v
    return m * uv * w - (n0 + (n1 << k)) * (c * uv + (b * u + a * v) * w), k


def identity_holds(rc: ResidueClass, pt: PolyTriple) -> bool:
    """Whether m*x*y*z = n*(x*y + x*z + y*z) holds identically in lambda:
    the package's one identity check, one exact evaluation at lambda = 2^k."""
    return _packed_residual(rc, pt)[0] == 0


def residual(rc: ResidueClass, pt: PolyTriple) -> RationalPoly:
    """The residual m*x*y*z - n*(x*y + x*z + y*z), unpacked from R(2^k) in
    linear time: adding 2^(k - 1) to each balanced base-2^k digit of R makes
    it a k-bit unsigned field of the sum's bytes."""
    packed, k = _packed_residual(rc, pt)
    size, half = k // 8, 1 << (k - 1)
    digits = len(pt.x.nums) + len(pt.y.nums) + len(pt.z.nums)
    offset = int.from_bytes((bytes(size - 1) + b"\x80") * digits, "little")
    raw = (packed + offset).to_bytes(size * digits, "little")
    return RationalPoly(
        [int.from_bytes(raw[i:i + size], "little") - half for i in range(0, len(raw), size)],
        pt.x.den * pt.y.den * pt.z.den)


def verify_identity(rc: ResidueClass, pt: PolyTriple) -> bool:
    """True iff all three polynomials have strictly positive integer
    coefficients and the triple solves the residue-class equation exactly."""
    return (pt.x.is_positive_integral() and pt.y.is_positive_integral()
            and pt.z.is_positive_integral() and identity_holds(rc, pt))


def _admits(k: int, p: int, f: int) -> bool:
    """Whether f, a unit mod p = m*k - 1, is admitted at (k, l): t' = -k*f first, then t."""
    t = -k * f % p
    if t > k or k * k % t:
        t = -k * pow(f, -1, p) % p
    return t <= k and k * k % t == 0


def _evidence(rc: ResidueClass, k: int, l: int, divisible: bool) -> KlEvidence:
    """Why (k, l) gives the class no solution: its condition-ii family and,
    by the reason rule, REASON_CONDITION_II iff a divisor of n0 is admitted.

    Condition ii) s*n1 = k*l + r*n0 says s*n1 = k*l (mod n0), and n1 is a unit
    mod n0 as gcd(n0, n1) = 1: its solutions are the line s = s0 + n0*t,
    r = r0 + n1*t through s0 = k*l*n1^-1 mod n0, taken in [1, n0] (1 when
    n0 = 1), and the integer r0 = (s0*n1 - k*l)/n0, which may be <= 0.
    """
    _, n0, n1 = rc
    s0 = k * l * pow(n1, -1, n0) % n0 or n0
    r0 = (s0 * n1 - k * l) // n0
    assert s0 * n1 == k * l + r0 * n0
    return KlEvidence(k, l, s0, r0, f"s = {s0} + {n0}t, r = {r0} + {n1}t",
                      REASON_CONDITION_II if divisible else REASON_NO_BASE_TRIPLE)


def decide(rc: ResidueClass, *, pairs: Iterable[tuple[int, int]] | None = None) -> DecisionOutcome:
    """Complete decision for the residue class, in one pass over the (k, l)
    of condition i), ``enumerate_kl(m, n1)`` unless a sweep passes them in.

    Each (k, l) that admits n0 (``_admits``: no k is factored) walks the
    base triples of m/n0 through x0 = k*n0 and tries each other member y0,
    ascending and once: it accepts when n0 | y0 and r = (s*n1 - k*l)/n0 is a
    positive integer for s = y0/n0.  Condition iii) holds by itself: the
    third member is z0 = k*s*n0/((m*k - 1)*s - k), and i) turns ii) into
    (m*k - 1)*s - k = r*n0/l, so z0 = k*l*s/r.  The accepted sets are those
    of the lemma, in (k, l) order and then by h = r/l descending, no two
    sharing a triple; an admitted (k, l) that accepts nothing raises
    AssertionError.  Only an unsolvable class builds evidence, after the
    pass: REASON_CONDITION_II for a (k, l) that admits a divisor of n0 (the
    reason rule), else REASON_NO_BASE_TRIPLE.
    """
    m, n0, n1 = rc
    kl_pairs = tuple(enumerate_kl(m, n1) if pairs is None else pairs)
    solutions: list[tuple[ParamSet, PolyTriple]] = []
    failed, n0_divisors = [], None  # failed: (k, l, divisible) until a solution

    for k, l in kl_pairs:
        p = m * k - 1
        if not _admits(k, p, n0):
            if not solutions:
                n0_divisors = divisors(n0) if n0_divisors is None else n0_divisors
                v, w = -k * pow(n0, -1, p) % p, p - k  # f | n0 has t' = w*f, t = v*(n0/f)
                failed.append((k, l, any(k * k % t == 0 for f in n0_divisors
                                         for t in (w * f % p, v * f % p) if t <= k)))
            continue
        found = len(solutions)
        for bt in enumerate_base_solutions(m, n0, k * n0):
            rest = list(bt)
            rest.remove(k * n0)
            for y0 in dict.fromkeys(rest):
                s, off = divmod(y0, n0)
                if off:
                    continue
                r, off = divmod(s * n1 - k * l, n0)
                if off or r < 1:
                    continue
                ps = ParamSet(k=k, l=l, s=s, r=r)
                pt = construct_solution(rc, ps)
                if not verify_identity(rc, pt):
                    raise AssertionError(f"accepted parameter set {ps} failed verification")
                solutions.append((ps, pt))
        if len(solutions) == found:
            raise AssertionError(f"(k, l) = ({k}, {l}) admits n0 = {n0}, yet its walk accepts nothing")

    evidence = () if solutions else tuple([_evidence(rc, *pair) for pair in failed])
    return DecisionOutcome(rc, "solvable" if solutions else "unsolvable", tuple(solutions),
                           kl_pairs, evidence)


class DegreeReport(NamedTuple):
    """Sorted degree pattern of a verified triple, plus the degree of the
    auxiliary polynomial m*z*x - n*(x + z) taken with the highest-degree
    member in the y role."""

    degrees: tuple[int, int, int]
    aux_degree: int


def analyze_degrees(rc: ResidueClass, pt: PolyTriple) -> DegreeReport:
    """Degree report for a verified solution triple.

    Rejects unverified triples; every verified triple has pattern {1, 1, 2}
    and auxiliary degree 1, and callers assert exactly that.  The sorted
    degrees a <= b <= c give the auxiliary degree 1 + a + b - c: as
    m*x*y*z - n*(x*y + x*z + y*z) = y*(m*x*z - n*(x + z)) - n*x*z, a
    verified triple has y*aux = n*x*z.
    """
    if not verify_identity(rc, pt):
        raise ValueError("analyze_degrees requires a triple that passes verify_identity")
    a, b, c = sorted(p.degree for p in pt)
    return DegreeReport(degrees=(a, b, c), aux_degree=1 + a + b - c)
