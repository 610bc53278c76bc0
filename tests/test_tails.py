"""Deep tails of the reciprocal square series and its relatives.

Reference values used here are independent closed forms: the full sum
over n >= 1 of 1/(n(n+1))^2 equals pi^2/3 - 3 (partial fractions
against zeta(2)), and the trigamma tail at 1 is zeta(2) itself.
"""

from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

import qtv.tails
from qtv.interval import BudgetError, PrecisionBudget
from qtv.oracle import q_eval
from qtv.tails import g2, g2_tail, g2_tail_real, jump_weight, trigamma_tail


def frac_of(mp_value, digits=38):
    # keep the decimal far finer than any enclosure it is checked against
    return Fraction(mpmath.nstr(mp_value, digits, strip_zeros=False))


def test_full_sum_is_pi_squared_third_minus_three():
    mpmath.mp.dps = 40
    reference = frac_of(mpmath.pi**2 / 3 - 3)
    out = g2_tail(1, PrecisionBudget(Fraction(1, 10**25)))
    assert out.lo <= reference <= out.hi
    assert out.width <= Fraction(1, 10**25)


def test_trigamma_tail_at_one_is_zeta_two():
    mpmath.mp.dps = 40
    reference = frac_of(mpmath.zeta(2))
    out = trigamma_tail(1, PrecisionBudget(Fraction(1, 10**30)))
    assert out.lo <= reference <= out.hi


@given(st.integers(1, 500))
@settings(max_examples=60, deadline=None)
def test_tail_telescopes_one_term(m):
    b = PrecisionBudget(Fraction(1, 10**15))
    step = g2_tail(m, b) - g2_tail(m + 1, b)
    assert step.contains(g2(m))


@given(st.integers(1, 10**6))
@settings(max_examples=40, deadline=None)
def test_tail_is_positive_decreasing(m):
    b = PrecisionBudget(Fraction(1, 10**12))
    here = g2_tail(m, b)
    there = g2_tail(m + 1, b)
    assert here.lo > 0
    assert there.lo <= here.hi  # intervals may touch, order can't flip
    assert there.midpoint < here.midpoint


def test_deep_tail_meets_tight_budget():
    out = g2_tail(10**9, PrecisionBudget(Fraction(1, 10**30)))
    assert out.width <= Fraction(1, 10**30)
    # leading behavior 1/(3 m^3)
    m = 10**9
    assert abs(out.midpoint - Fraction(1, 3 * m**3)) < Fraction(1, m**4)


def test_jump_weight_matches_fraction_jump():
    # weight at t is the drop of 1/floor(t)(floor(t)+1) slots
    assert jump_weight(Fraction(1)) == Fraction(1, 2)
    assert jump_weight(Fraction(7, 2)) == Fraction(1, 12)
    assert jump_weight(Fraction(10)) == Fraction(1, 110)
    with pytest.raises(ValueError):
        jump_weight(Fraction(1, 2))


@given(st.fractions(min_value=1, max_value=10**4))
@settings(max_examples=60, deadline=None)
def test_real_argument_reduces_to_floor(t):
    b = PrecisionBudget(Fraction(1, 10**12))
    m = t.numerator // t.denominator
    left = g2_tail_real(t, b)
    right = g2_tail(m, b)
    assert left.intersects(right)


def test_real_argument_recurrence():
    b = PrecisionBudget(Fraction(1, 10**15))
    t = Fraction(9, 2)
    m = t.numerator // t.denominator
    drop = g2_tail_real(t, b) - g2_tail_real(t + 1, b)
    assert g2(m) == jump_weight(t) ** 2
    assert drop.contains(g2(m))


def test_out_of_reach_tail_budget_is_refused_before_the_root(monkeypatch):
    # The head this width needs breaks the scale cap however the ninth
    # root comes out, so the refusal must come before the root is taken.
    def no_root(n, k):
        raise AssertionError("iroot called on an out-of-reach budget")

    monkeypatch.setattr(qtv.tails, "iroot", no_root)
    with pytest.raises(BudgetError):
        q_eval(Fraction(37, 3), PrecisionBudget(Fraction(1, 10**100001)))
