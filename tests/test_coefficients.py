"""Amplitude coefficients, their partial sums, and the limit constant."""

from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from qtv.coefficients import (DEFAULT_COEFFS, CoeffPartialSum, coeff_sum_limit,
                              gap_coeff, gap_coeff_partial_sum, gap_coeff_sum,
                              gap_coeff_telescoped, limit_estimate,
                              main_constant, pi_enclosure, sqrt_sum, zeta_3_2)
from qtv.interval import Enclosure, PrecisionBudget, ScaledSum
from qtv.rational import isqrt

TIGHT = PrecisionBudget(Fraction(1, 10**20))


def mp_fraction(value, digits=40):
    return Fraction(mpmath.nstr(value, digits))


def padded(value, pad=Fraction(1, 10**30)):
    return Enclosure(value - pad, value + pad)


def test_first_amplitude_exact_algebra():
    # amplitude(1) = 32/5 - (62/15) sqrt(2): the d-1 branch vanishes
    grid = 10**40
    r2_lo = Fraction(isqrt(2 * grid * grid), grid)
    r2_hi = r2_lo + Fraction(1, grid)
    target = Enclosure(Fraction(32, 5) - Fraction(62, 15) * r2_hi,
                       Fraction(32, 5) - Fraction(62, 15) * r2_lo)
    enc = gap_coeff(1, PrecisionBudget(Fraction(1, 10**30)))
    assert enc.intersects(target)
    # 18-digit truncation pins the leading decimals without a knife edge
    assert abs(enc.midpoint - Fraction("0.554583942191207131")) <= Fraction(1, 10**18)
    assert enc.width <= Fraction(1, 10**30)


@given(st.integers(1, 1000))
@settings(max_examples=60, deadline=None)
def test_telescoped_form_always_intersects(d):
    a = gap_coeff(d, TIGHT)
    b = gap_coeff_telescoped(d, TIGHT)
    assert a.intersects(b)
    assert a.width <= TIGHT.target_width
    assert b.width <= TIGHT.target_width


def test_each_integer_coefficient_matters():
    d = 3
    honest = gap_coeff_telescoped(d, TIGHT)
    for i in range(len(DEFAULT_COEFFS)):
        bad = list(DEFAULT_COEFFS)
        bad[i] += 1
        enc = gap_coeff(d, TIGHT, _coeffs=tuple(bad))
        assert not enc.intersects(honest), f"coefficient {i} is inert"


def test_amplitude_rejects_zero_class():
    with pytest.raises(ValueError):
        gap_coeff(0)
    with pytest.raises(ValueError):
        gap_coeff_telescoped(0)


def test_sqrt_sum_against_oracle():
    mpmath.mp.dps = 50
    ref = mp_fraction(mpmath.fsum(mpmath.sqrt(d) for d in range(1, 51)))
    enc = sqrt_sum(50, PrecisionBudget(Fraction(1, 10**12)))
    assert enc.intersects(padded(ref))
    assert enc.width <= Fraction(1, 10**12)
    assert sqrt_sum(0).width == 0
    with pytest.raises(ValueError):
        sqrt_sum(-1)


def test_empty_closed_form_collapses_to_zero():
    enc = gap_coeff_sum(0, TIGHT)
    assert enc.lo == enc.hi == 0


@pytest.mark.parametrize("limit", [1, 10, 100, 1000])
def test_partial_sum_identity(limit):
    rep = gap_coeff_partial_sum(limit, PrecisionBudget(Fraction(1, 10**16)))
    assert isinstance(rep, CoeffPartialSum)
    assert rep.identity_holds
    assert rep.direct_sum.width + rep.closed_form.width <= Fraction(1, 10**15)


def test_partial_sum_rejects_empty_range():
    with pytest.raises(ValueError):
        gap_coeff_partial_sum(0)


def test_limit_gap_decays_at_inverse_sqrt_rate():
    rep = gap_coeff_partial_sum(100, PrecisionBudget(Fraction(1, 10**12)))
    scaled = rep.limit_gap.scale(10).abs()
    assert Fraction(1, 12) <= scaled.lo
    assert scaled.hi <= Fraction(1, 3)


def sqrt_down(n):
    grid = 10**20
    return Fraction(isqrt(n * grid * grid), grid)


def sqrt_up(n):
    return sqrt_down(n) + Fraction(1, 10**20)


def test_zeta_value_against_mpmath_and_sandwich():
    mpmath.mp.dps = 50
    ref = mp_fraction(mpmath.zeta(mpmath.mpf(3) / 2))
    enc = zeta_3_2(PrecisionBudget(Fraction(1, 10**25)))
    assert enc.intersects(padded(ref))
    assert enc.width <= Fraction(1, 10**25)
    # independent sandwich: finite sum plus integral bounds on the tail
    n_cut = 10**4
    grid = 10**30
    acc_lo = 0
    for n in range(1, n_cut + 1):
        acc_lo += isqrt(n * grid * grid) // (n * n)
    head = Enclosure(Fraction(acc_lo, grid), Fraction(acc_lo + n_cut, grid))
    tail = Enclosure(2 / sqrt_up(n_cut + 1), 2 / sqrt_down(n_cut))
    sandwich = head + tail
    assert sandwich.contains(enc.midpoint)


def test_pi_bracket():
    # Machin's series meets every width, capped at 1e-40 for loose ones
    mpmath.mp.dps = 110
    ref = padded(mp_fraction(mpmath.pi, 100), Fraction(1, 10**99))
    for digits in range(10, 81, 5):
        width = Fraction(1, 10**digits)
        enc = pi_enclosure(PrecisionBudget(width))
        assert enc.width <= min(width, Fraction(1, 10**40))
        assert enc.intersects(ref)


def _pi_by_divisor_list(width):
    """Machin's series with each term floored from the full grid scale."""
    w = min(width, Fraction(1, 10**40))
    series = []
    for coef, k in ((16, 5), (-4, 239)):
        divs = [k]
        power = k
        while 4 * abs(coef) * w.denominator > w.numerator * divs[-1]:
            power *= k * k
            divs.append((2 * len(divs) + 1) * power)
        series.append((coef, divs))
    total = ScaledSum(w / 2, sum(abs(coef) * len(divs) for coef, divs in series))
    for coef, divs in series:
        for j, div in enumerate(divs[:-1]):
            total.add_floors(total.scale // div, 1, (-1) ** j * coef)
        total.add(Enclosure(Fraction(0), Fraction(1, divs[-1])),
                  (-1) ** (len(divs) - 1) * coef)
    return total.enclosure()


@pytest.mark.parametrize("digits", [45, 600, 2000])
def test_pi_running_floor_matches_the_divisor_list(digits):
    # floor(floor(S / a) / b) = floor(S / ab): the same grid units exactly
    width = Fraction(1, 10**digits)
    enc = pi_enclosure(PrecisionBudget(width))
    reference = _pi_by_divisor_list(width)
    assert (enc.lo, enc.hi) == (reference.lo, reference.hi)


def test_main_constant_meets_widths_past_forty_digits():
    mpmath.mp.dps = 110
    ref = mp_fraction(mpmath.zeta(mpmath.mpf(3) / 2) / mpmath.pi, 100)
    for digits in (45, 60, 80):
        width = Fraction(1, 10**digits)
        enc = main_constant(PrecisionBudget(width))
        assert enc.width <= width
        assert enc.intersects(padded(ref, Fraction(1, 10**99)))


def test_main_constant_against_oracle():
    mpmath.mp.dps = 50
    ref = mp_fraction(mpmath.zeta(mpmath.mpf(3) / 2) / mpmath.pi)
    enc = main_constant(TIGHT)
    assert enc.intersects(padded(ref))
    assert enc.width <= TIGHT.target_width
    lim = coeff_sum_limit(TIGHT)
    assert lim.intersects(padded(ref - Fraction(2, 15)))


def test_limit_estimate_converges_to_limit():
    est = limit_estimate(10**4, PrecisionBudget(Fraction(1, 10**12)))
    lim = coeff_sum_limit(PrecisionBudget(Fraction(1, 10**12)))
    gap = (est - lim).abs()
    assert gap.hi <= Fraction(1, 10**5)
    with pytest.raises(ValueError):
        limit_estimate(3)
