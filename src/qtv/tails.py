"""Certified tails of the series sum 1/(n(n+1))^2.

The squared increments of x/n on a gap-0 run are x^2 g2(n) with
g2(n) = 1/(n(n+1))^2, so every tail evaluation in the package reduces
to g2_tail(m) = sum_{n>=m} g2(n).  Partial fractions collapse it to
the inverse-square tail alone:

    1/(n(n+1))^2 = 1/n^2 + 1/(n+1)^2 - 2 (1/n - 1/(n+1)),

and the rightmost part telescopes, so

    g2_tail(m) = 2 T(m) - 1/m^2 - 2/m,    T(m) = sum_{n>=m} 1/n^2.

(At m = 1 this is the familiar pi^2/3 - 3.)

T(m) is enclosed by an exact scaled head up to a cutoff M plus the
Euler-Maclaurin expansion at M, to order J:

    T(M) = 1/M + 1/(2 M^2) + sum_{j=1}^{J} B_2j M^-(2j+1) + R,

with the Bernoulli numbers B_2 = 1/6, B_4 = -1/30, B_6 = 1/42, ...
against f(t) = t^-2, whose derivatives alternate in sign (completely
monotone).  For such f the remainder after any Bernoulli term has the
sign of the first omitted term and no larger magnitude, here
|B_(2J+2)| M^-(2J+3).  The bracket charges twice that, which also
absorbs either sign convention: at J = 3 it is R in [-M^-9/15, +M^-9/15].

The order rule (em_order, which zeta(3/2) shares): start at J = 3 and
raise J until the cutoff that leaves a quarter of the width to the
remainder is at most max(64, m, J).  Widths down to about 1e-16, and
every m whose order-3 cutoff is already at most m, keep J = 3 and the
same endpoints.  Tighter widths raise the order instead of the cutoff,
so the head stays within max(64, J) terms, where order 3 alone needed
M of order w^(-1/9) (about 1900 at w = 1e-30, 10^6 at 1e-60).  Since
|B_2J| grows like (2J)!/(2 pi)^(2J), a fixed cutoff M stalls near
widths e^(-2 pi M); a cutoff that follows J keeps each order step worth
about 2 log2(pi) bits.  Orders past ORDER_CAP are refused with
BudgetError, which puts the reach of trigamma_tail(1) at about 1e-470;
the Bernoulli numbers up to B_514 and the search cost tens of
milliseconds, once per process.
"""

from __future__ import annotations

from collections.abc import Callable
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import lcm

from .interval import BudgetError, Enclosure, PrecisionBudget, scale_for
from .rational import iroot

# Highest Euler-Maclaurin order em_order hands out; widths that need a
# higher one are refused.
ORDER_CAP = 256


def g2(n: int) -> Fraction:
    """1/(n(n+1))^2 for n >= 1."""
    if n < 1:
        raise ValueError("index must be >= 1")
    return Fraction(1, (n * (n + 1)) ** 2)


@lru_cache(maxsize=None)
def _tangent_numbers(count: int) -> tuple[int, ...]:
    """(0, T_1, ..., T_count) = (0, 1, 2, 16, 272, ...): the odd-indexed
    zigzag numbers, read off the Seidel-Entringer boustrophedon by
    additions alone (row n is the running sum of row n-1 reversed,
    from 0, and the zigzag number A_n ends it; T_k = A_(2k-1))."""
    row = [0, 1]
    out = [0]
    while True:
        out.append(row[-1])
        if len(out) > count:
            return tuple(out)
        for _ in range(2):
            row = list(accumulate(reversed(row), initial=0))


@lru_cache(maxsize=None)
def bernoulli(n: int) -> Fraction:
    """B_n for even n >= 2: B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1))."""
    if n < 2 or n % 2:
        raise ValueError("bernoulli takes an even index >= 2")
    k = n // 2
    # tables of doubling length, none past what the order cap needs
    size = max(k, min(1 << k.bit_length(), ORDER_CAP + 1))
    t = _tangent_numbers(size)[k]
    return Fraction((-1) ** (k - 1) * 2 * k * t, 4**k * (4**k - 1))


def em_order(width: Fraction, coeff: Callable[[int], Fraction], step: int,
             least: int = 0) -> tuple[int, int]:
    """Order J and cutoff M of an Euler-Maclaurin tail, remainder <= width/4.

    Term j of the expansion is coeff(j) M^-(step j + 1) and the summand
    is completely monotone, so the remainder after term J is charged
    2 |coeff(J+1)| M^-e, e = step (J+1) + 1; M = iroot(need, e) + 1 with
    need = ceil(8 |coeff(J+1)| / width) keeps it within width/4.  J is
    the first order from 3 with M <= max(64, least, J), that is with
    need < max(64, least, J)^e: bit lengths rule out the far orders and
    one exact power decides near the edge, so no order step takes a root.
    """
    for order in range(3, ORDER_CAP + 1):
        bound = 2 * abs(coeff(order + 1))
        need = -(-4 * bound.numerator * width.denominator
                 // (bound.denominator * width.numerator))
        power = step * (order + 1) + 1
        limit = max(64, least, order)
        if need.bit_length() <= power * limit.bit_length() and need < limit**power:
            return order, iroot(need, power) + 1
    raise BudgetError(width, "Euler-Maclaurin order cap exceeded")


@lru_cache(maxsize=None)
def _bernoulli_numerators(order: int) -> tuple[int, tuple[int, ...]]:
    """D and (a_1, ..., a_J) with B_2j = a_j / D for j <= J = order."""
    terms = [bernoulli(2 * j) for j in range(1, order + 1)]
    den = lcm(*(b.denominator for b in terms))
    return den, tuple(b.numerator * (den // b.denominator) for b in terms)


@lru_cache(maxsize=65536)
def _trigamma_head_units(m: int, cut: int, scale: int) -> tuple[int, int]:
    """Bracket of sum_{n=m}^{cut-1} 1/n^2 in units of 1/scale."""
    lo = 0
    hi = 0
    for n in range(m, cut):
        nn = n * n
        lo += scale // nn
        hi += -(-scale // nn)
    return lo, hi


def trigamma_tail(m: int, budget: PrecisionBudget) -> Enclosure:
    """Enclosure of T(m) = sum_{n>=m} 1/n^2, width <= budget."""
    if m < 1:
        raise ValueError("tail start must be >= 1")
    width = budget.target_width
    scale_for(width / 2)  # past the scale cap, refuse before the search
    # the remainder takes width/4 per side, the head slice width/2
    order, cut = em_order(width, lambda j: bernoulli(2 * j), 2, m)
    cut = max(m, cut)
    # 1/M + 1/(2 M^2) + sum_j a_j / (D M^(2j+1)) over 2 D M^(2J+1), Horner
    den, numerators = _bernoulli_numerators(order)
    poly = 0
    for a in numerators:
        poly = poly * cut * cut + a
    core = Fraction((2 * cut + 1) * den * cut ** (2 * order - 1) + 2 * poly,
                    2 * den * cut ** (2 * order + 1))
    rest = bernoulli(2 * order + 2)
    margin = Fraction(2 * abs(rest.numerator), rest.denominator * cut ** (2 * order + 3))
    if cut == m:
        return Enclosure(core - margin, core + margin)
    # Head slice: (cut - m) one-unit roundings within width/2.
    scale = scale_for(width / 2, units=cut - m)
    lo, hi = _trigamma_head_units(m, cut, scale)
    return Enclosure(Fraction(lo, scale) + core - margin,
                     Fraction(hi, scale) + core + margin)


def g2_tail(m: int, budget: PrecisionBudget) -> Enclosure:
    """Enclosure of g2_tail(m) = sum_{n>=m} 1/(n(n+1))^2, width <= budget."""
    if m < 1:
        raise ValueError("tail start must be >= 1")
    t = trigamma_tail(m, PrecisionBudget(budget.target_width / 2))
    shift = Fraction(1, m * m) + Fraction(2, m)
    return Enclosure(2 * t.lo - shift, 2 * t.hi - shift)
