"""Deep tails of the reciprocal square series and its relatives.

Reference values used here are independent closed forms: the full sum
over n >= 1 of 1/(n(n+1))^2 equals pi^2/3 - 3 (partial fractions
against zeta(2)), and the trigamma tail at 1 is zeta(2) itself.  At
tight widths the tails are checked against mpmath's Hurwitz zeta.
"""

import hashlib
from fractions import Fraction
from math import comb, factorial, prod

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

import qtv.coefficients
import qtv.tails
from qtv.coefficients import pi_enclosure, zeta_3_2
from qtv.interval import BudgetError, PrecisionBudget
from qtv.oracle import q_eval
from qtv.tails import (ORDER_CAP, bernoulli, em_coeff, em_order, em_tail, g2,
                       g2_tail, trigamma_tail)


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


def test_bernoulli_matches_the_binomial_recurrence():
    # sum_{k<=n} C(n+1, k) B_k = 0 with B_0 = 1, an independent route
    b = [Fraction(1)]
    for n in range(1, 61):
        b.append(-sum(comb(n + 1, k) * b[k] for k in range(n)) / (n + 1))
    assert [bernoulli(n) for n in range(2, 61, 2)] == b[2::2]
    assert bernoulli(8) == Fraction(-1, 30)
    p, q = mpmath.bernfrac(200)
    assert bernoulli(200) == Fraction(int(p), int(q))
    for n in (0, 3, -2):
        with pytest.raises(ValueError):
            bernoulli(n)


def test_order_stays_three_while_its_cutoff_is_small():
    t2 = lambda j: bernoulli(2 * j)  # noqa: E731
    # order-3 cutoffs: 52 at 1e-16 (<= 64), 66 at 1e-17, 10^6 at 1e-60
    assert em_order(Fraction(1, 10**16), t2, 2) == (3, 52)
    assert em_order(Fraction(1, 10**17), t2, 2)[0] > 3
    assert em_order(Fraction(1, 10**60), t2, 2, least=10**7)[0] == 3
    order, cut = em_order(Fraction(1, 10**60), t2, 2)
    assert 3 < order and cut <= 64
    with pytest.raises(BudgetError):
        em_order(Fraction(1, 10**1000), t2, 2)


def _exact(value):
    man, exp = value.man_exp
    return Fraction(man) * Fraction(2) ** exp


@pytest.mark.parametrize("digits", [20, 60, 200])
def test_tails_contain_independent_values_at_tight_widths(digits):
    mpmath.mp.dps = digits + 60
    slack = Fraction(1, 10 ** (digits + 50))  # mpmath's own rounding
    width = Fraction(1, 10**digits)
    for m in (1, 2, 7, 63, 64, 65, 1000, 10**6):
        t = mpmath.zeta(2, m)
        for got, ref in ((trigamma_tail(m, PrecisionBudget(width)), t),
                         (g2_tail(m, PrecisionBudget(width)),
                          2 * t - mpmath.mpf(1) / m**2 - mpmath.mpf(2) / m)):
            assert got.width <= width, m
            assert got.lo - slack <= _exact(ref) <= got.hi + slack, m


def test_trigamma_tail_at_one_meets_pi_squared_over_six():
    w = PrecisionBudget(Fraction(1, 10**60))
    pi = pi_enclosure(w)
    assert trigamma_tail(1, w).intersects((pi * pi).scale(Fraction(1, 6)))


# Order-3 endpoints, unchanged since the fixed three-term expansion.
PINNED = {
    (1, 9): ("669145218536935411283/406791513450000000000",
             "1338290437378278313373/813583026900000000000"),
    (1, 15): ("565447781593062315378856465063103/343751031113659050000000000000000",
              "226179112637225022026662195209691/137500412445463620000000000000000"),
    (10, 9): ("11042465243/105000000000", "11042465257/105000000000"),
    (10, 15): ("72302072658049179635762581449079/687502062227318100000000000000000",
               "18075518164512407877819534569651/171875515556829525000000000000000"),
    (1000, 9): ("105052517499996500002499993/105000000000000000000000000000",
                "105052517499996500002500007/105000000000000000000000000000"),
    (1000, 15): ("105052517499996500002499993/105000000000000000000000000000",
                 "105052517499996500002500007/105000000000000000000000000000"),
}


def test_order_three_endpoints_are_pinned():
    for (m, digits), (lo, hi) in PINNED.items():
        out = trigamma_tail(m, PrecisionBudget(Fraction(1, 10**digits)))
        assert (out.lo, out.hi) == (Fraction(lo), Fraction(hi)), (m, digits)


# Orders above 3, from the separate trigamma and zeta(3/2) expansions
# that em_tail replaced: sha256 of "lo hi", each endpoint as str(Fraction).
DEEP_PINS = [
    (lambda b: trigamma_tail(1, b), 60,
     "b457c87cf39790aabb33088e3b389f884123cbfbc5a04a6cd79b6e5fbe3a2a59"),
    (lambda b: trigamma_tail(7, b), 200,
     "e77655dff2bcac2fcb711f3f736379b5a67c59df0c5f15cbfabae85a3e7dc1e5"),
    (zeta_3_2, 60, "5b2c8cfc5f2ebf081e5bd44983e93647d1c36c0fca302585b39a3368ba7edf3a"),
    (zeta_3_2, 300, "58366eca65f53db41b4fac2f66916900c74480e09672fe22f2011022bb14a91b"),
]


@pytest.mark.parametrize("call, digits, digest", DEEP_PINS,
                         ids=["trigamma-1-1e-60", "trigamma-7-1e-200",
                              "zeta-1e-60", "zeta-1e-300"])
def test_deep_order_endpoints_are_pinned(call, digits, digest):
    out = call(PrecisionBudget(Fraction(1, 10**digits)))
    assert hashlib.sha256(f"{out.lo} {out.hi}".encode()).hexdigest() == digest


def test_em_coeff_is_bernoulli_at_k_1_and_the_zeta_term_at_k_2():
    for j in range(1, 41):
        assert em_coeff(1, j) == bernoulli(2 * j)
        # B_2j / (2j)! times (3/2)(5/2)...((4j-1)/2), written out
        zeta_term = (bernoulli(2 * j) * prod(range(3, 4 * j, 2))
                     / (factorial(2 * j) * 2 ** (2 * j - 1)))
        assert em_coeff(2, j) == zeta_term


@pytest.mark.parametrize("digits", [9, 60, 300])
@pytest.mark.parametrize("k", [1, 2])
def test_em_tail_contains_the_hurwitz_zeta(k, digits):
    mpmath.mp.dps = digits + 60
    slack = Fraction(1, 10 ** (digits + 50))  # mpmath's own rounding
    width = Fraction(1, 10**digits)
    s = 1 + mpmath.mpf(1) / k
    for least in (0, 2, 64, 10**6):
        u, tail = em_tail(k, width, least)
        assert u >= least and tail.width <= width / 2, least
        ref = _exact(mpmath.zeta(s, u**k))
        assert tail.lo - slack <= ref <= tail.hi + slack, least


def _forbid(monkeypatch, module, *names):
    def forbidden(*args, **kwargs):
        raise AssertionError("called on an out-of-reach budget")

    for name in names:
        monkeypatch.setattr(module, name, forbidden)


def test_out_of_reach_tail_budget_is_refused_before_the_root(monkeypatch):
    # The head this width needs breaks the scale cap whatever the order,
    # so the refusal must come before the order search and any root.
    _forbid(monkeypatch, qtv.tails, "iroot", "bernoulli", "em_order")
    with pytest.raises(BudgetError):
        q_eval(Fraction(37, 3), PrecisionBudget(Fraction(1, 10**100001)))


def test_out_of_reach_zeta_budget_is_refused_before_the_search(monkeypatch):
    _forbid(monkeypatch, qtv.tails, "em_order", "em_coeff")
    _forbid(monkeypatch, qtv.coefficients, "isqrt")
    with pytest.raises(BudgetError):
        zeta_3_2(PrecisionBudget(Fraction(1, 10**100001)))


@pytest.mark.parametrize("call", [lambda b: trigamma_tail(1, b), zeta_3_2],
                         ids=["trigamma_tail", "zeta_3_2"])
def test_deep_budget_is_met_or_refused_within_the_order_cap(monkeypatch, call):
    asked = []
    search = qtv.tails.em_order

    def recorded(width, coeff, step, least=0):
        def spy(j):
            asked.append(j)
            return coeff(j)
        return search(width, spy, step, least)

    monkeypatch.setattr(qtv.tails, "em_order", recorded)
    width = Fraction(1, 10**5000)
    try:
        assert call(PrecisionBudget(width)).width <= width
    except BudgetError:
        pass
    assert asked and max(asked) <= ORDER_CAP + 1
