"""The per-gap amplitude coefficients and their limiting constant.

Each gap class contributes gap_coeff(d) * sqrt(x) to Q(x) up to O(d^2),
where 15 * gap_coeff(d) is the integer-coefficient combination

    96 d^2 sqrt(d) - (48 d^2 + 16 d - 2) sqrt(d+1)
                   - (48 d^2 - 16 d - 2) sqrt(d-1).

Regrouping by half-integer powers gives the telescoping form

    gap_coeff(d) = (16/5) (d^{5/2} - (d+1)^{5/2})
                 - (16/5) ((d-1)^{5/2} - d^{5/2})
                 + (16/3) ((d+1)^{3/2} - (d-1)^{3/2})
                 - 2 sqrt(d+1) - 2 sqrt(d-1),

whose partial sums collapse term by term:

    sum_{d<=D} gap_coeff(d) = -2/15
        - (16/5) ((D+1)^{5/2} - D^{5/2})
        + (16/3) ((D+1)^{3/2} + D^{3/2})
        - 2 ((D+1)^{1/2} - D^{1/2})
        - 4 sum_{d<=D} sqrt(d).

Expanding the powers and the square-root sum (Euler-Maclaurin, with
zeta(-1/2) = -zeta(3/2)/(4 pi) by the functional equation) every
growing power cancels and

    sum_{d<=D} gap_coeff(d) = -2/15 + zeta(3/2)/pi
                              - (1/6) D^{-1/2} + (1/24) D^{-3/2} + ...

so adding the 2/15 from the gap-0 class identifies the global
constant zeta(3/2)/pi of Q(x) ~ (zeta(3/2)/pi) sqrt(x).

zeta(3/2) is a head of sqrt(n)/n^2 floors on one grid plus
tails.em_tail at k = 2, whose cutoff m^2 keeps every Euler-Maclaurin
term rational; the tails module derives the bracket and its order rule.
pi is Machin's formula on a scaled-integer grid, at the requested width
or 1e-40.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .interval import (DEFAULT_BUDGET, Enclosure, PrecisionBudget, ScaledSum,
                       sqrt_enclosure)
from .rational import isqrt
from .tails import em_tail

DEFAULT_COEFFS = (96, 48, 16, 2, 48, 16, 2)


def gap_coeff(d: int, budget: PrecisionBudget = DEFAULT_BUDGET,
              _coeffs: tuple[int, ...] = DEFAULT_COEFFS) -> Enclosure:
    """Enclosure of the sqrt(x) amplitude of gap class d >= 1.

    _coeffs holds the seven integers of the quindecuple form above and
    exists so tests can prove each one matters; leave it alone.
    """
    if d < 1:
        raise ValueError("amplitudes are defined for d >= 1")
    c0, a2, a1, a0, b2, b1, b0 = _coeffs
    wa = abs(c0) * d * d
    wb = abs(a2 * d * d + a1 * d - a0)
    wc = abs(b2 * d * d - b1 * d - b0)
    per = PrecisionBudget(budget.target_width * 15 / (wa + wb + wc + 1))
    mid = sqrt_enclosure(Fraction(d), per).scale(c0 * d * d)
    up = sqrt_enclosure(Fraction(d + 1), per).scale(a2 * d * d + a1 * d - a0)
    dn = sqrt_enclosure(Fraction(d - 1), per).scale(b2 * d * d - b1 * d - b0)
    return (mid - up - dn).scale(Fraction(1, 15))


def gap_coeff_telescoped(d: int,
                         budget: PrecisionBudget = DEFAULT_BUDGET) -> Enclosure:
    """Same amplitude through the half-integer-power regrouping.

    Written independently of gap_coeff on purpose: the two enclosures
    must always intersect, which pins the algebra of both.
    """
    if d < 1:
        raise ValueError("amplitudes are defined for d >= 1")
    per = PrecisionBudget(budget.target_width / 30)
    five = (sqrt_enclosure(Fraction(d**5), per).scale(2)
            - sqrt_enclosure(Fraction((d + 1) ** 5), per)
            - sqrt_enclosure(Fraction((d - 1) ** 5), per)).scale(Fraction(16, 5))
    three = (sqrt_enclosure(Fraction((d + 1) ** 3), per)
             - sqrt_enclosure(Fraction((d - 1) ** 3), per)).scale(Fraction(16, 3))
    ones = (sqrt_enclosure(Fraction(d + 1), per)
            + sqrt_enclosure(Fraction(d - 1), per)).scale(2)
    return five + three - ones


def sqrt_sum(limit: int, budget: PrecisionBudget = DEFAULT_BUDGET) -> Enclosure:
    """Enclosure of sum_{d=1}^{limit} sqrt(d) by one scaled isqrt per d."""
    if limit < 0:
        raise ValueError("limit must be >= 0")
    total = ScaledSum(budget.target_width, limit)
    ss = total.scale ** 2
    total.add_floors(sum(isqrt(d * ss) for d in range(1, limit + 1)), limit)
    return total.enclosure()


def gap_coeff_sum(limit: int, budget: PrecisionBudget = DEFAULT_BUDGET) -> Enclosure:
    """Closed-form enclosure of sum_{d=1}^{limit} gap_coeff(d).

    The telescoped form: five roots and one sqrt_sum, so the cost does
    not grow with limit beyond the sqrt_sum loop; the fast estimator uses
    it.  limit = 0 gives the empty sum; the collapsed expression lands on
    an exact 0 there, a handy check that the telescoping bookkeeping is
    right.
    """
    if limit < 0:
        raise ValueError("limit must be >= 0")
    w = budget.target_width
    per = PrecisionBudget(w / 60)
    out = Enclosure.point(Fraction(-2, 15))
    out = out - (sqrt_enclosure(Fraction((limit + 1) ** 5), per)
                 - sqrt_enclosure(Fraction(limit**5), per)).scale(Fraction(16, 5))
    out = out + (sqrt_enclosure(Fraction((limit + 1) ** 3), per)
                 + sqrt_enclosure(Fraction(limit**3), per)).scale(Fraction(16, 3))
    out = out - (sqrt_enclosure(Fraction(limit + 1), per)
                 - sqrt_enclosure(Fraction(limit), per)).scale(2)
    out = out - sqrt_sum(limit, PrecisionBudget(w / 8)).scale(4)
    return out


@dataclass(frozen=True)
class CoeffPartialSum:
    """Partial sum of the amplitudes three ways.

    direct_sum adds gap_coeff(d) term by term; closed_form is the
    telescoped expression; limit_gap is closed_form minus the limit
    constant -2/15 + zeta(3/2)/pi.  The first two must intersect
    (same real number), and limit_gap * sqrt(D) should hover near
    -1/6, the leading coefficient of the convergence rate.
    """

    limit: int
    direct_sum: Enclosure
    closed_form: Enclosure
    limit_gap: Enclosure

    @property
    def identity_holds(self) -> bool:
        return self.direct_sum.intersects(self.closed_form)


def gap_coeff_partial_sum(limit: int,
                          budget: PrecisionBudget = DEFAULT_BUDGET) -> CoeffPartialSum:
    """Compare the term-by-term and telescoped partial sums up to limit."""
    if limit < 1:
        raise ValueError("partial sums need limit >= 1")
    w = budget.target_width
    per = PrecisionBudget(w / (2 * limit))
    total = Enclosure.point(Fraction(0))
    for d in range(1, limit + 1):
        total = total + gap_coeff(d, per)
    closed = gap_coeff_sum(limit, PrecisionBudget(w / 2))
    lim = coeff_sum_limit(PrecisionBudget(w / 2))
    return CoeffPartialSum(limit, total, closed, closed - lim)


def zeta_3_2(budget: PrecisionBudget = DEFAULT_BUDGET) -> Enclosure:
    """Enclosure of zeta(3/2) = sum n^{-3/2}, width <= budget."""
    w = budget.target_width
    m, tail = em_tail(2, w, 2)
    # head slice: n^{-3/2} = sqrt(n)/n^2 floored onto the grid
    cut = m * m
    head = ScaledSum(w / 2, cut - 1)
    ss = head.scale ** 2
    head.add_floors(sum(isqrt(n * ss) // (n * n) for n in range(1, cut)), cut - 1)
    return head.enclosure() + tail


def pi_enclosure(budget: PrecisionBudget = DEFAULT_BUDGET) -> Enclosure:
    """Enclosure of pi by Machin's formula, width <= min(budget, 1e-40).

    pi = 16 atan(1/5) - 4 atan(1/239) with atan(1/k) = sum_j (-1)^j t_j,
    t_j = 1/((2j+1) k^(2j+1)); the terms fall, so stopping before t_J
    leaves a remainder between 0 and (-1)^J t_J.  The two remainders get
    a quarter of the width each, the grid floors the other half.  Each
    series keeps a running floor r = floor(S / k^(2j+1)) of the grid
    scale S, divided by k^2 per step; floor(r / (2j+1)) is the grid
    floor of t_j, so every division is by a small integer."""
    w = min(budget.target_width, Fraction(1, 10**40))
    wn, wd = w.numerator, w.denominator
    series = []
    for coef, k in ((16, 5), (-4, 239)):
        # the first J with |coef| t_J <= w/4, and the divisor of t_J
        terms, power = 0, k
        while 4 * abs(coef) * wd > wn * (2 * terms + 1) * power:
            terms += 1
            power *= k * k
        series.append((coef, k, terms, (2 * terms + 1) * power))
    total = ScaledSum(w / 2, sum(abs(coef) * (terms + 1)
                                 for coef, _, terms, _ in series))
    for coef, k, terms, div in series:
        r = total.scale // k
        for j in range(terms):
            total.add_floors(r // (2 * j + 1), 1, (-1) ** j * coef)
            r //= k * k
        total.add(Enclosure(Fraction(0), Fraction(1, div)),
                  (-1) ** terms * coef)
    return total.enclosure()


def main_constant(budget: PrecisionBudget = DEFAULT_BUDGET) -> Enclosure:
    """Enclosure of zeta(3/2)/pi, the sqrt(x) coefficient of Q(x).

    zeta at width 2w and pi at w/2 give 2w/pi + zeta(3/2) w / (2 pi^2)
    < 0.77 w."""
    z = zeta_3_2(PrecisionBudget(budget.target_width * 2))
    return z / pi_enclosure(budget.split(2))


def coeff_sum_limit(budget: PrecisionBudget = DEFAULT_BUDGET) -> Enclosure:
    """Enclosure of -2/15 + zeta(3/2)/pi, the amplitude series limit."""
    return main_constant(budget).shift(Fraction(-2, 15))


def limit_estimate(limit: int,
                   budget: PrecisionBudget = DEFAULT_BUDGET) -> Enclosure:
    """Estimate the series limit from partial sums alone.

    Richardson step on the D^{-1/2} decay: with S(D) the closed-form
    partial sum, 2 S(D) - S(D/4) cancels the leading term, leaving
    -(1/4) D^{-3/2} + O(D^{-5/2}).  The enclosure covers only the
    arithmetic, not that model error, so this is an estimator to be
    compared against coeff_sum_limit, not a certificate.
    """
    if limit < 4:
        raise ValueError("the two-point estimate needs limit >= 4")
    w = budget.target_width
    big = gap_coeff_sum(limit, PrecisionBudget(w / 4))
    small = gap_coeff_sum(limit // 4, PrecisionBudget(w / 2))
    return big.scale(2) - small
