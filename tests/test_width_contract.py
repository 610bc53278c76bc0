"""The width contract on every public enclosure producer.

Each one returns an enclosure no wider than the requested budget or
raises BudgetError; none may come back wider.  The sweep runs widths
1e-5..1e-80, powers of ten and awkward fractions in between.
"""

from fractions import Fraction

import pytest

from qtv.coefficients import main_constant, pi_enclosure, zeta_3_2
from qtv.interval import BudgetError, PrecisionBudget, sqrt_enclosure
from qtv.oracle import q_eval
from qtv.tails import g2_tail, trigamma_tail

WIDTHS = [Fraction(1, 10**k) for k in range(5, 81, 5)] + [
    Fraction(7, 3 * 10**k) for k in (12, 33, 47, 79)]

PRODUCERS = {
    "q_eval(1)": lambda b: q_eval(Fraction(1), b).value,
    "q_eval(37/3)": lambda b: q_eval(Fraction(37, 3), b).value,
    "q_eval(50)": lambda b: q_eval(Fraction(50), b).value,
    "q_eval(9999)": lambda b: q_eval(Fraction(9999), b).value,
    "q_eval(10001)": lambda b: q_eval(Fraction(10001), b).value,
    "g2_tail(1)": lambda b: g2_tail(1, b),
    "g2_tail(70)": lambda b: g2_tail(70, b),
    "trigamma_tail(1)": lambda b: trigamma_tail(1, b),
    "trigamma_tail(64)": lambda b: trigamma_tail(64, b),
    "trigamma_tail(10**9)": lambda b: trigamma_tail(10**9, b),
    "zeta_3_2": zeta_3_2,
    "main_constant": main_constant,
    "pi_enclosure": pi_enclosure,
    "sqrt_enclosure(2)": lambda b: sqrt_enclosure(2, b),
    "sqrt_enclosure(10**40/7)": lambda b: sqrt_enclosure(Fraction(10**40, 7), b),
}


@pytest.mark.parametrize("name", PRODUCERS)
def test_width_is_met_or_refused(name):
    for width in WIDTHS:
        try:
            out = PRODUCERS[name](PrecisionBudget(width))
        except BudgetError:
            continue
        assert out.width <= width, (name, width)
