from __future__ import annotations

import copy
import pickle
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracles import linear, poly, poly_eval

from trifrac.qpoly import MAX_DEN_DIGITS, RationalPoly

ZERO = RationalPoly()
ONE = RationalPoly([1])

coeffs = st.fractions(min_value=-50, max_value=50, max_denominator=12)
coeff_lists = st.lists(coeffs, min_size=0, max_size=4)
polys = coeff_lists.map(poly)


def test_mul_examples():
    assert linear(1, 1) * linear(7, 9) == RationalPoly([7, 16, 9])
    p = poly([3, Fraction(1, 2), 5])
    assert p * ONE == p
    assert linear(1, 1) * ZERO == ZERO


def test_eval_examples():
    assert poly_eval(RationalPoly([7, 16, 9]), 0) == 7
    assert poly_eval(linear(7, 9), 1) == 16
    assert poly_eval(ZERO, 5) == 0
    assert poly_eval(RationalPoly([7, 16, 9]), Fraction(1, 3)) == 7 + Fraction(16, 3) + 1
    assert poly_eval(poly([Fraction(1, 2), Fraction(3, 4)]), 2) == 2


def test_degree_and_normalization():
    assert ZERO.degree is None
    assert RationalPoly([0]).degree is None
    assert RationalPoly([5, 0, 0]).degree == 0
    assert RationalPoly([0, 0, 3]).degree == 2
    assert RationalPoly([1, 2, 0]) == linear(1, 2)


def test_is_positive_integral():
    assert linear(2, 2).is_positive_integral()
    assert not poly([7, Fraction(9, 5)]).is_positive_integral()
    assert not ZERO.is_positive_integral()
    assert not RationalPoly([1, 0, 1]).is_positive_integral()  # stored zero
    assert not linear(-1, 2).is_positive_integral()


def test_immutability_and_hash():
    p = linear(1, 2)
    q = linear(1, 2)
    assert p == q and hash(p) == hash(q)
    for name in ("nums", "den", "coeffs"):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(p, name, ())


def test_record_unpacks_and_equals_the_plain_tuple():
    p = poly([7, Fraction(9, 5)])
    nums, den = p
    assert (nums, den) == ((35, 9), 5) == p
    assert hash(p) == hash(((35, 9), 5))
    assert not ZERO and ZERO == ((), 1)  # a 2-tuple, yet false when zero


def test_no_operator_but_mul():
    """Neither tuple concatenation nor repetition, and no +, - or negation."""
    p, q = linear(1, 2), linear(3, 4)
    for op in (lambda: p + q, lambda: p + (1,), lambda: 2 * p, lambda: p * 2,
               lambda: -p, lambda: p - q, lambda: (1,) + p):
        with pytest.raises(TypeError):
            op()


def test_repr_round_trips():
    assert repr(poly([7, Fraction(9, 5)])) == "RationalPoly([35, 9], 5)"
    for p in (ZERO, linear(-1, 2), poly([3, Fraction(1, 2), 5])):
        assert eval(repr(p)) == p


def test_make_and_replace_stay_canonical():
    made = RationalPoly._make(((2, 4), 6))
    assert made == RationalPoly([2, 4, 0], 6) == ((1, 2), 3)
    assert type(made) is RationalPoly
    assert linear(1, 2)._replace(den=4) == poly([Fraction(1, 4), Fraction(1, 2)])
    assert linear(1, 2)._replace(nums=(6, 4, 0), den=2) == linear(3, 2)
    for bad in (((1,), 0), ((1,), -3)):
        with pytest.raises(ValueError, match="denominator must be >= 1"):
            RationalPoly._make(bad)
    with pytest.raises(ValueError, match="denominator must be >= 1"):
        linear(1, 2)._replace(den=0)
    with pytest.raises(ValueError, match="denominator must be >= 1"):
        RationalPoly([1], 0)


def test_pickle_and_copies_rebuild_through_the_constructor():
    """Even a record made around the constructor comes back canonical."""
    raw = tuple.__new__(RationalPoly, ((2, 4, 0), 6))
    copies = [copy.copy(raw), copy.deepcopy(raw), raw._replace()]
    copies += [pickle.loads(pickle.dumps(raw, protocol))
               for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for q in copies:
        assert q == ((1, 2), 3) and type(q) is RationalPoly


@given(polys, polys, polys)
def test_mul_is_commutative_and_associative(p, q, r):
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)


@given(polys, polys)
def test_degree_of_product(p, q):
    if p.is_zero() or q.is_zero():
        assert (p * q).is_zero()
    else:
        assert (p * q).degree == p.degree + q.degree


@given(polys, polys, coeffs)
def test_eval_is_multiplicative(p, q, a):
    assert poly_eval(p * q, a) == poly_eval(p, a) * poly_eval(q, a)


def _trim(cs: list[Fraction]) -> list[Fraction]:
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _fractions(p: RationalPoly) -> list[Fraction]:
    """The stored form as plain coefficients, after checking it is canonical."""
    assert p.den >= 1
    assert not p.nums or p.nums[-1] != 0
    assert gcd(p.den, *p.nums) == 1
    return [Fraction(c, p.den) for c in p.nums]


@given(coeff_lists, coeff_lists)
def test_operations_match_fraction_list_reference(a, b):
    p, q = poly(a), poly(b)
    product = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            product[i + j] += ca * cb

    assert _fractions(p) == _trim(a)
    assert _fractions(p * q) == _trim(product)
    assert p.degree == (len(_trim(a)) - 1 if _trim(a) else None)
    assert p.to_coeff_strings() == [str(c) for c in _trim(a)]
    parsed = RationalPoly.from_coeff_strings([str(c) for c in a])
    assert parsed == p
    assert _fractions(parsed) == _trim(a)


def test_coeff_string_serialization():
    p = RationalPoly([7, 16, 9])
    assert p.to_coeff_strings() == ["7", "16", "9"]
    assert RationalPoly.from_coeff_strings(["7", "16", "9"]) == p
    q = poly([7, Fraction(9, 5)])
    assert q.to_coeff_strings() == ["7", "9/5"]
    assert RationalPoly.from_coeff_strings(["7", "9/5"]) == q


def test_common_denominator_digit_limit():
    widest = 10 ** MAX_DEN_DIGITS - 1
    assert RationalPoly.from_coeff_strings(["1", f"1/{widest}"]).den == widest
    # the limit is on the lcm, so factors that each fit may still exceed it
    q = 10 ** (MAX_DEN_DIGITS // 2 + 1)
    for items in (["1", f"1/{widest + 1}"], [f"1/{q - 1}", f"1/{q + 1}"]):
        with pytest.raises(ValueError, match=f"at most {MAX_DEN_DIGITS} are accepted"):
            RationalPoly.from_coeff_strings(items)


@given(polys)
def test_serialization_round_trip(p):
    assert RationalPoly.from_coeff_strings(p.to_coeff_strings()) == p


def test_format_text():
    assert RationalPoly([7, 16, 9]).format_text() == "7 + 16λ + 9λ^2"
    assert linear(2, 2).format_text() == "2 + 2λ"
    assert ZERO.format_text() == "0"
    assert poly([7, Fraction(9, 5)]).format_text() == "7 + (9/5)λ"
    assert RationalPoly([7, -2]).format_text() == "7 - 2λ"
    assert RationalPoly([0, 0, 3]).format_text() == "3λ^2"
