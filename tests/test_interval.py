"""Enclosure arithmetic must never lose containment."""

import pickle
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from qtv.interval import (MAX_ROUNDINGS, BudgetError, Enclosure,
                          PrecisionBudget, ScaledSum, pow_enclosure,
                          root_enclosure, scale_for, sqrt_enclosure)

fractions_small = st.fractions(min_value=-100, max_value=100)


def enc(lo, hi):
    return Enclosure(Fraction(lo), Fraction(hi))


@st.composite
def enclosures(draw):
    a = draw(fractions_small)
    b = draw(fractions_small)
    return Enclosure(min(a, b), max(a, b))


def test_ordering_enforced():
    with pytest.raises(ValueError):
        enc(1, 0)


@given(enclosures(), enclosures(), fractions_small, fractions_small)
def test_arithmetic_preserves_membership(a, b, pa, pb):
    # pick one member of each interval by convex combination
    ta = a.lo + (a.hi - a.lo) * Fraction(1, 3)
    tb = b.lo + (b.hi - b.lo) * Fraction(2, 3)
    assert (a + b).contains(ta + tb)
    assert (a - b).contains(ta - tb)
    assert (a * b).contains(ta * tb)
    assert (-a).contains(-ta)
    assert a.scale(pa).contains(ta * pa)
    assert a.shift(pb).contains(ta + pb)
    assert a.abs().contains(abs(ta))


@given(enclosures())
def test_reciprocal_when_separated(a):
    shifted = a.shift(Fraction(101))  # force positivity
    member = shifted.lo + shifted.width / 2
    assert shifted.reciprocal().contains(1 / member)


def test_reciprocal_rejects_zero_straddle():
    with pytest.raises(ZeroDivisionError):
        enc(-1, 1).reciprocal()


def test_division():
    q = enc(4, 8) / enc(2, 4)
    assert q.contains(Fraction(2))
    assert q.lo == 1 and q.hi == 4


@given(st.fractions(min_value=0, max_value=10**6),
       st.integers(1, 30))
def test_sqrt_enclosure_contains_and_meets_width(r, digits):
    budget = PrecisionBudget(Fraction(1, 10**digits))
    out = sqrt_enclosure(r, budget)
    assert out.lo * out.lo <= r <= out.hi * out.hi
    assert out.width <= budget.target_width


@given(st.fractions(min_value=0, max_value=10**6), st.integers(2, 7))
def test_root_enclosure_contains(r, k):
    out = root_enclosure(r, k, PrecisionBudget(Fraction(1, 10**12)))
    assert out.lo**k <= r <= out.hi**k


def test_pow_enclosure_three_sevenths():
    out = pow_enclosure(Fraction(128), 3, 7, PrecisionBudget(Fraction(1, 10**12)))
    assert out.contains(Fraction(8))  # 128^(3/7) = 2^3
    out = pow_enclosure(Fraction(10**7), 3, 7)
    assert out.lo > 0 and out.lo**7 <= Fraction(10**21) <= out.hi**7


def test_scale_for_guarantee():
    s = scale_for(Fraction(1, 1000), units=7)
    assert Fraction(7, s) <= Fraction(1, 1000)
    assert scale_for(Fraction(2)) == 1


def test_scale_for_deep_budget_no_string_blowup():
    # digit counting must not route through int->str (capped at 4300)
    s = scale_for(Fraction(1, 10**5000), units=3)
    assert Fraction(3, s) <= Fraction(1, 10**5000)


def test_budget_error_carries_request():
    with pytest.raises(BudgetError) as info:
        scale_for(Fraction(1, 10**200000))
    assert info.value.requested == Fraction(1, 10**200000)
    assert "10^-" in str(info.value)


def test_budget_error_pickles_whole():
    # a pooled scan point hands its BudgetError back through pickle
    error = BudgetError(Fraction(1, 10**5000), "scale cap exceeded")
    back = pickle.loads(pickle.dumps(error))
    assert type(back) is BudgetError
    assert back.requested == error.requested
    assert back.detail == error.detail
    assert str(back) == str(error)


def test_scale_cap_boundary_is_exact():
    assert scale_for(Fraction(1, 10**100000)) == 10**100000
    with pytest.raises(BudgetError):
        scale_for(Fraction(1, 10**100001))
    with pytest.raises(BudgetError):
        scale_for(Fraction(1, 10**99999), units=11)


def test_loop_cap_boundary_is_exact():
    assert scale_for(Fraction(1, 10**9), units=MAX_ROUNDINGS) == 10**17
    with pytest.raises(BudgetError, match="loop cap"):
        scale_for(Fraction(1, 10**9), units=MAX_ROUNDINGS + 1)
    with pytest.raises(BudgetError, match="loop cap"):
        ScaledSum(Fraction(1), 10**1000)


def test_budget_split():
    b = PrecisionBudget(Fraction(1, 10))
    assert b.split(4).target_width == Fraction(1, 40)
    with pytest.raises(ValueError):
        b.split(0)
    with pytest.raises(ValueError):
        PrecisionBudget(Fraction(0))


@given(enclosures(), enclosures())
def test_set_predicates(a, b):
    assert a.intersects(b) == (a.lo <= b.hi and b.lo <= a.hi)
    if a.encloses(b):
        assert a.intersects(b)
    assert a.straddles_zero() == (a.lo <= 0 <= a.hi)


def test_from_scaled():
    out = Enclosure.from_scaled(250, 252, 1000)
    assert out.lo == Fraction(1, 4) and out.hi == Fraction(63, 250)
    assert out.width == Fraction(2, 1000)


@given(st.lists(st.tuples(st.fractions(min_value=0, max_value=1000),
                          st.integers(-6, 6)), max_size=25),
       st.integers(0, 15))
def test_scaled_sum_contains_exact_sum(terms, digits):
    width = Fraction(1, 10**digits)
    floors = ScaledSum(width, len(terms))
    enclosures = ScaledSum(width, len(terms))
    scale = floors.scale
    # floor totals go in grouped by coefficient, as the long loops do
    for coef in {c for _, c in terms}:
        group = [t for t, c in terms if c == coef]
        total = sum(t.numerator * scale // t.denominator for t in group)
        floors.add_floors(total, len(group), coef)
    for t, coef in terms:
        enclosures.add(Enclosure.point(t), coef)
    exact = sum(c * t for t, c in terms)
    bound = Fraction(sum(abs(c) for _, c in terms), scale)
    for acc in (floors, enclosures):
        enc = acc.enclosure()
        assert enc.contains(exact)
        assert enc.width <= bound
