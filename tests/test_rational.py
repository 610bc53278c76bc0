"""Exact root and parsing helpers."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from qtv.rational import (floor_sqrt_rational, format_rational, iroot,
                          parse_rational)


@given(st.integers(min_value=0, max_value=10**40), st.integers(2, 9))
def test_iroot_brackets(n, k):
    r = iroot(n, k)
    assert r**k <= n < (r + 1) ** k


def test_iroot_exact_powers():
    for base in (0, 1, 2, 7, 10, 12345):
        for k in (2, 3, 5, 7):
            assert iroot(base**k, k) == base


def test_iroot_rejects_negative():
    with pytest.raises(ValueError):
        iroot(-1, 3)


@given(st.fractions(min_value=0, max_value=10**12))
def test_floor_sqrt_rational_brackets(r):
    s = floor_sqrt_rational(r)
    assert s * s <= r < (s + 1) * (s + 1)


def test_floor_sqrt_rational_known():
    assert floor_sqrt_rational(Fraction(0)) == 0
    assert floor_sqrt_rational(Fraction(1)) == 1
    assert floor_sqrt_rational(Fraction(35, 9)) == 1
    assert floor_sqrt_rational(Fraction(36, 9)) == 2
    assert floor_sqrt_rational(Fraction(10**9)) == 31622


def test_parse_rational_forms():
    assert parse_rational("3/2") == Fraction(3, 2)
    assert parse_rational("100") == 100
    assert parse_rational("2.5") == Fraction(5, 2)
    assert parse_rational("-0.25") == Fraction(-1, 4)
    assert parse_rational("1e-9") == Fraction(1, 10**9)
    assert parse_rational("0.5e-3") == Fraction(1, 2000)


def test_parse_rational_rejects_junk():
    for bad in ("", "abc", "1/0", "1.2.3", "1e5000001", "0e-5000001",
                "-2.5E+999999999"):
        with pytest.raises(ValueError):
            parse_rational(bad)


@given(st.fractions(min_value=-10**6, max_value=10**6), st.integers(1, 20))
def test_format_rational_directed(value, digits):
    down = Fraction(format_rational(value, digits, "down"))
    up = Fraction(format_rational(value, digits, "up"))
    assert down <= value <= up
    assert up - down <= Fraction(1, 10**digits)


@given(st.fractions(min_value=-10**6, max_value=10**6))
def test_format_rational_nearest_close(value):
    near = Fraction(format_rational(value, 12, "nearest"))
    assert abs(near - value) <= Fraction(1, 10**12)


def test_format_round_trip_exact_when_decimal():
    assert parse_rational(format_rational(Fraction(5, 4), 6, "down")) == Fraction(5, 4)
