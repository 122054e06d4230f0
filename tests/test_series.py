"""Exact series arithmetic: pinned examples and algebraic properties."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraction_series import ConstantTermError, OrderMismatchError, Series, exp


def S(values, order):
    return Series.from_coeffs(values, order)


# pinned examples


def test_add_basic():
    one_x = S([1, 1], 1)
    assert one_x + one_x == S([2, 2], 1)
    assert S([1, 2, 3], 2) + Series.zero(2) == S([1, 2, 3], 2)
    assert S([1, -1], 1) + S([0, 1], 1) == S([1], 1)


def test_add_order_mismatch():
    with pytest.raises(OrderMismatchError):
        S([1], 1) + S([1], 2)


def test_mul_basic():
    assert S([1, 1], 2) * S([1, 1], 2) == S([1, 2, 1], 2)
    s = S([1, 1, 3], 2)
    assert s * s == S([1, 2, 7], 2)
    assert s * Series.one(2) == s


def test_pow():
    assert S([1, 1], 2).pow(0) == Series.one(2)
    assert S([1, 1], 2).pow(3) == S([1, 3, 3], 2)
    cube = S([1, 1, 3, 10], 3).pow(3)
    assert cube.coeffs[:3] == (Fraction(1), Fraction(3), Fraction(12))


def test_substitute_power():
    assert S([1, 1, 2], 4).substitute_power(2) == S([1, 0, 1, 0, 2], 4)
    s = S([2, 5, 1], 2)
    assert s.substitute_power(1) == s
    assert S([1, 1], 2).substitute_power(3) == Series.one(2)


def test_exp_pinned():
    assert exp(Series.x(3)) == S([1, 1, Fraction(1, 2), Fraction(1, 6)], 3)
    assert exp(Series.zero(3)) == Series.one(3)
    assert exp(S([0, 1, Fraction(5, 2)], 2)) == S([1, 1, 3], 2)


def test_exp_rejects_constant_term():
    with pytest.raises(ConstantTermError):
        exp(Series.one(2))


def test_shift_and_truncate():
    assert S([1, 2, 3], 2).shift(1) == S([0, 1, 2], 2)
    assert S([1, 2, 3], 2).shift(4) == Series.zero(2)
    assert S([1, 2, 3], 2).truncate(1) == S([1, 2], 1)
    with pytest.raises(ValueError):
        S([1], 0).truncate(1)


def test_integer_coeffs():
    assert S([1, 4, 9], 2).integer_coeffs() == (1, 4, 9)
    with pytest.raises(ValueError):
        S([1, Fraction(1, 2)], 1).integer_coeffs()


# property tests

small_fraction = st.builds(
    Fraction, st.integers(min_value=-9, max_value=9), st.integers(min_value=1, max_value=9)
)


def series_strategy(order):
    return st.lists(small_fraction, min_size=order + 1, max_size=order + 1).map(
        lambda cs: Series(order, tuple(cs))
    )


triple = st.integers(min_value=0, max_value=5).flatmap(
    lambda n: st.tuples(series_strategy(n), series_strategy(n), series_strategy(n))
)


@settings(max_examples=60)
@given(triple)
def test_ring_axioms(abc):
    a, b, c = abc
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=40)
@given(triple)
def test_exp_is_homomorphism(abc):
    a, b, _ = abc
    a = Series(a.order, (Fraction(0),) + a.coeffs[1:])
    b = Series(b.order, (Fraction(0),) + b.coeffs[1:])
    assert exp(a + b) == exp(a) * exp(b)


@settings(max_examples=40)
@given(triple, st.integers(min_value=1, max_value=4))
def test_substitution_distributes_over_mul(abc, d):
    a, b, _ = abc
    assert (a * b).substitute_power(d) == a.substitute_power(d) * b.substitute_power(d)


@settings(max_examples=40)
@given(triple, st.integers(min_value=0, max_value=6))
def test_pow_matches_repeated_mul(abc, e):
    a, _, _ = abc
    expected = Series.one(a.order)
    for _ in range(e):
        expected = expected * a
    assert a.pow(e) == expected
