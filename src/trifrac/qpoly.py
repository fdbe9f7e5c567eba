"""Dense univariate polynomials over the rationals, in the variable lambda.

A polynomial is the NamedTuple record ``(nums, den)``: integer numerators
``nums`` (constant term first) over one positive common denominator ``den``.
It unpacks as ``nums, den = p`` and equals the plain tuple ``(nums, den)``.
Its one constructor, ``RationalPoly(nums, den=1)``, reduces to a canonical
form: the last numerator is nonzero and gcd(den, *nums) = 1, so equal
polynomials have equal fields.  The zero polynomial is ``nums = ()``,
``den = 1`` and its degree is None.  All arithmetic is integer arithmetic,
and degrees stay small, so a dense representation is the right one.
"""

from __future__ import annotations

import re
import reprlib
from math import gcd, lcm
from typing import Iterable, NamedTuple, Sequence

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
# Most bytes of a `verify --file`: three members at both limits above take
# 3,000,000, and a third as much again leaves room for quotes and whitespace.
MAX_FILE_BYTES = 4 * MAX_COEFFS * MAX_COEFF_CHARS
# Most digits of the m, n0 and n1 the CLI accepts, checked before any
# arithmetic.  At every limit above, a failing verify's residual numerators
# have at most 3*(1000 + 300) + 5 + 100 digits, under int()'s 4300-digit
# conversion limit: 4,005 with 100-digit m, n0 and n1 (46 s, 112 MB).
_MAX_ARG_DIGITS = 100


def _coeff_str(num: int, den: int) -> str:
    """The coefficient num/den in lowest terms: "7" or "9/5"."""
    g = gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


_new = tuple.__new__
_RationalPoly = NamedTuple("_RationalPoly", [("nums", tuple[int, ...]), ("den", int)])


class RationalPoly(_RationalPoly):
    """Immutable polynomial with exact rational coefficients."""

    __slots__ = ()

    def __new__(cls, nums: Iterable[int] = (), den: int = 1):
        """The polynomial with coefficients nums[i]/den, constant term first."""
        if den < 1:
            raise ValueError(f"denominator must be >= 1, got {den}")
        nums = tuple(nums)
        while nums and not nums[-1]:  # trailing zeros are rare, and at most a few thousand
            nums = nums[:-1]
        g = gcd(den, *nums)
        if g > 1:
            nums, den = tuple([c // g for c in nums]), den // g
        return _new(cls, (nums, den))

    @classmethod
    def _make(cls, iterable) -> "RationalPoly":  # canonical; _replace calls it too
        return cls(*iterable)

    def __setattr__(self, name, value):
        raise AttributeError("RationalPoly is immutable")

    def __reduce__(self):  # pickle and copy rebuild through the constructor too
        return RationalPoly, tuple(self)

    @property
    def degree(self) -> int | None:
        """Index of the last nonzero coefficient; None for the zero polynomial."""
        return len(self.nums) - 1 if self.nums else None

    def is_zero(self) -> bool:
        return not self.nums

    def __bool__(self) -> bool:
        return bool(self.nums)

    def __mul__(self, other: "RationalPoly") -> "RationalPoly":
        (a, da), (b, db) = self, other
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return RationalPoly(out, da * db)

    def __rmul__(self, other):  # never tuple repetition or concatenation:
        return NotImplemented  # 2 * p and p + q are TypeErrors

    __add__ = __rmul__

    def __radd__(self, other):  # runs before a tuple's +, which concatenates unless this raises
        raise TypeError(f"unsupported operand type(s) for +: {type(other).__name__!r} "
                        "and 'RationalPoly'")

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
        return cls([p * (den // q) for p, q in pairs], den)

    def format_text(self) -> str:
        """Human-readable form like "7 + 16λ + 9λ^2"; "0" for the zero polynomial."""
        parts = []
        for i, c in enumerate(self.nums):
            if c == 0:
                continue
            coeff = _coeff_str(abs(c), self.den)
            if c % self.den:
                coeff = f"({coeff})"
            term = coeff + ("" if i == 0 else "λ" if i == 1 else f"λ^{i}")
            sign = "+" if c > 0 else "-"
            parts.append(f"{sign} {term}" if parts else term if c > 0 else f"-{term}")
        return " ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"RationalPoly({list(self.nums)!r}, {self.den})"

    def __str__(self) -> str:
        return self.format_text()

