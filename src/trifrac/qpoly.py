"""Dense univariate polynomials over the rationals, in the variable lambda.

A polynomial is stored as integer numerators ``nums`` (constant term first)
over one positive common denominator ``den``.  Every constructor reduces to
a canonical form: the last numerator is nonzero and gcd(den, *nums) = 1, so
equal polynomials have equal fields.  The zero polynomial is ``nums = ()``,
``den = 1`` and its degree is None.  All arithmetic is integer arithmetic,
and degrees stay small, so a dense representation is the right one.
"""

from __future__ import annotations

import re
import reprlib
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence, Union

Coeff = Union[int, Fraction]

# What ``to_coeff_strings`` writes: an integer or p/q with q > 0, ASCII digits.
_COEFF_RE = re.compile(r"(-?[0-9]+)(?:/(0*[1-9][0-9]*))?")
# Longest coefficient string ``from_coeff_strings`` parses; well inside
# int()'s default 4300-digit conversion limit.
MAX_COEFF_CHARS = 1000
# Most coefficients per polynomial, and most digits of its common denominator.
# At all three limits (2-core Xeon, Python 3.11) `verify` takes 0.1 s on a
# solution and 35 s on a failing triple, nearly all of it multiplying the
# packed polynomials of the identity check.
MAX_COEFFS = 1000
MAX_DEN_DIGITS = 300
# Most digits of the m, n0 and n1 the CLI accepts, checked before any
# arithmetic.  At every limit above, a failing verify's residual numerators
# have at most 3*(1000 + 300) + 5 + 100 digits, under int()'s 4300-digit
# conversion limit: 4,005 with 100-digit m, n0 and n1 (46 s, 112 MB).
_MAX_ARG_DIGITS = 100


def _coeff_str(num: int, den: int) -> str:
    """The coefficient num/den in lowest terms: "7" or "9/5"."""
    g = gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


class RationalPoly:
    """Immutable polynomial with exact rational coefficients."""

    __slots__ = ("nums", "den")

    def __init__(self, coeffs: Iterable[Coeff] = ()):
        cs = list(coeffs)
        den = lcm(*(c.denominator for c in cs))
        self._store([c.numerator * (den // c.denominator) for c in cs], den)

    @classmethod
    def from_ints(cls, nums: Iterable[int], den: int = 1) -> "RationalPoly":
        """The polynomial with coefficients nums[i]/den, constant term first."""
        if den < 1:
            raise ValueError(f"denominator must be >= 1, got {den}")
        self = cls.__new__(cls)
        self._store(list(nums), den)
        return self

    def _store(self, nums: list[int], den: int) -> None:
        while nums and not nums[-1]:
            nums.pop()
        g = gcd(den, *nums)
        if g > 1:
            nums = [c // g for c in nums]
            den //= g
        object.__setattr__(self, "nums", tuple(nums))
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RationalPoly is immutable")

    def __reduce__(self):
        # pickle and copy rebuild through the constructor, not the guarded setattr
        return RationalPoly.from_ints, (list(self.nums), self.den)

    @property
    def degree(self) -> int | None:
        """Index of the last nonzero coefficient; None for the zero polynomial."""
        return len(self.nums) - 1 if self.nums else None

    def is_zero(self) -> bool:
        return not self.nums

    def __bool__(self) -> bool:
        return bool(self.nums)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalPoly):
            return NotImplemented
        return self.nums == other.nums and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.nums, self.den))

    def __add__(self, other: "RationalPoly") -> "RationalPoly":
        den = lcm(self.den, other.den)
        a = [c * (den // self.den) for c in self.nums]
        b = [c * (den // other.den) for c in other.nums]
        if len(a) < len(b):
            a, b = b, a
        for i, c in enumerate(b):
            a[i] += c
        return RationalPoly.from_ints(a, den)

    def __neg__(self) -> "RationalPoly":
        return RationalPoly.from_ints([-c for c in self.nums], self.den)

    def __sub__(self, other: "RationalPoly") -> "RationalPoly":
        return self + (-other)

    def __mul__(self, other: "RationalPoly") -> "RationalPoly":
        out = [0] * (len(self.nums) + len(other.nums) - 1)
        for i, a in enumerate(self.nums):
            for j, b in enumerate(other.nums):
                out[i + j] += a * b
        return RationalPoly.from_ints(out, self.den * other.den)

    def scale(self, factor: Coeff) -> "RationalPoly":
        return RationalPoly.from_ints([factor.numerator * c for c in self.nums],
                                      self.den * factor.denominator)

    def is_positive_integral(self) -> bool:
        """True iff nonzero and every stored coefficient is a positive integer."""
        return self.den == 1 and bool(self.nums) and all(c > 0 for c in self.nums)

    def to_coeff_strings(self) -> list[str]:
        """Serialize as coefficient strings, constant term first ("7" or "9/5")."""
        return [_coeff_str(c, self.den) for c in self.nums]

    @classmethod
    def from_coeff_strings(cls, items: Sequence[str]) -> "RationalPoly":
        """Parse what ``to_coeff_strings`` writes, and nothing else.

        Each item must match ``-?[0-9]+(/[0-9]+)?`` with a nonzero denominator
        and be at most MAX_COEFF_CHARS long, and there may be at most
        MAX_COEFFS items; anything else raises ValueError.
        """
        if len(items) > MAX_COEFFS:
            raise ValueError(f"{len(items)} coefficients; at most {MAX_COEFFS} are accepted")
        pairs = []
        for s in items:
            match = _COEFF_RE.fullmatch(s) if len(s) <= MAX_COEFF_CHARS else None
            if match is None:
                raise ValueError(f"coefficient {reprlib.repr(s)} is not an integer or p/q "
                                 f"(q > 0) of at most {MAX_COEFF_CHARS} characters")
            pairs.append((int(match[1]), int(match[2] or 1)))
        den = 1
        for _, q in pairs:
            den = lcm(den, q)
            if den >= 10 ** MAX_DEN_DIGITS:
                raise ValueError(f"common denominator of more than {MAX_DEN_DIGITS} digits; "
                                 f"at most {MAX_DEN_DIGITS} are accepted")
        return cls.from_ints([p * (den // q) for p, q in pairs], den)

    def format_text(self, var: str = "λ") -> str:
        """Human-readable form like "7 + 16λ + 9λ^2"; "0" for the zero polynomial."""
        parts = []
        for i, c in enumerate(self.nums):
            if c == 0:
                continue
            coeff = _coeff_str(abs(c), self.den)
            if c % self.den:
                coeff = f"({coeff})"
            if i == 0:
                term = coeff
            elif i == 1:
                term = f"{coeff}{var}"
            else:
                term = f"{coeff}{var}^{i}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"RationalPoly.from_ints({list(self.nums)!r}, {self.den})"

    def __str__(self) -> str:
        return self.format_text()


def linear(c0: Coeff, c1: Coeff) -> RationalPoly:
    """The polynomial c0 + c1*lambda."""
    return RationalPoly([c0, c1])
