"""Certified tails of the series sum 1/(n(n+1))^2, and the one
Euler-Maclaurin tail they share with zeta(3/2).

The squared increments of x/n on a gap-0 run are x^2 g2(n) with
g2(n) = 1/(n(n+1))^2, so every tail evaluation in the package reduces
to g2_tail(m) = sum_{n>=m} g2(n).  Partial fractions collapse it to
the inverse-square tail alone:

    1/(n(n+1))^2 = 1/n^2 + 1/(n+1)^2 - 2 (1/n - 1/(n+1)),

and the rightmost part telescopes, so

    g2_tail(m) = 2 T(m) - 1/m^2 - 2/m,    T(m) = sum_{n>=m} 1/n^2.

(At m = 1 this is the familiar pi^2/3 - 3.)

T(m) is an exact scaled head up to a cutoff M plus em_tail, the
Euler-Maclaurin tail that T (k = 1) and zeta(3/2) (k = 2) share: both
sum n^-s with s = 1 + 1/k from N = u^k, a perfect square at k = 2, so
every term is rational.  With f(t) = t^-s the integral is k/u, the half
term 1/(2 u^(k+1)), and -B_2j/(2j)! f^(2j-1)(N) = c_j u^-(2kj+1):

    sum_{n>=u^k} n^-s = k/u + 1/(2 u^(k+1)) + sum_{j=1}^{J} c_j u^-(2kj+1) + R,
    c_j = B_2j s (s+1) ... (s+2j-2) / (2j)!,

so c_j = B_2j at k = 1 (B_2 = 1/6, B_4 = -1/30, ...).  f is completely
monotone, so the remainder after any Bernoulli term has the sign of the
first omitted term and no larger magnitude, |c_(J+1)| u^-(2k(J+1)+1).
The bracket charges twice that, which also absorbs either sign
convention: for T at J = 3 it is R in [-M^-9/15, +M^-9/15].

The order rule (em_order): start at J = 3 and raise J until the cutoff
that leaves a quarter of the width to the remainder is at most
max(64, m, J).  Widths down to about 1e-16 for T (1e-32 for zeta(3/2)),
and every m whose order-3 cutoff is already at most m, keep J = 3 and
the same endpoints.  Tighter widths raise the order instead of the
cutoff, where order 3 alone needed M of order w^(-1/9) for T (about
1900 at w = 1e-30, 10^6 at 1e-60).  Since |B_2J| grows like
(2J)!/(2 pi)^(2J), a fixed cutoff M stalls near widths e^(-2 pi M); a
cutoff that follows J keeps each order step worth about 2 log2(pi)
bits.  Orders past ORDER_CAP are refused with BudgetError, which puts
the reach of trigamma_tail(1) at about 1e-470 and of zeta(3/2) between
1e-1700 and 1e-1800; the Bernoulli numbers up to B_514 and the search
cost tens of milliseconds, once per process.
"""

from __future__ import annotations

from collections.abc import Callable
from fractions import Fraction
from functools import lru_cache, partial
from itertools import accumulate
from math import factorial, lcm, prod

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
def em_coeff(k: int, j: int) -> Fraction:
    """c_j = B_2j s (s+1) ... (s+2j-2) / (2j)! for s = 1 + 1/k: term j of
    the tail of n^-s at u^k, in units of u^-(2kj+1)."""
    return bernoulli(2 * j) * Fraction(prod(range(k + 1, 2 * j * k + 1, k)),
                                       k ** (2 * j - 1) * factorial(2 * j))


@lru_cache(maxsize=None)
def _em_numerators(k: int, order: int) -> tuple[int, tuple[int, ...]]:
    """D and (a_1, ..., a_J) with em_coeff(k, j) = a_j / D for j <= J = order."""
    terms = [em_coeff(k, j) for j in range(1, order + 1)]
    den = lcm(*(c.denominator for c in terms))
    return den, tuple(c.numerator * (den // c.denominator) for c in terms)


def em_tail(k: int, width: Fraction, least: int = 0) -> tuple[int, Enclosure]:
    """u = max(least, M) and an enclosure of sum_{n >= u^k} n^-(1+1/k).

    The remainder takes width/4 per side; the caller's head slice up to
    u^k is left width/2, so a width whose grid breaks the scale cap is
    refused before the order search.
    """
    scale_for(width / 2)
    order, cut = em_order(width, partial(em_coeff, k), 2 * k, least)
    u = max(least, cut)
    # k/u + 1/(2 u^(k+1)) + sum_j a_j / (D u^(2kj+1)) over 2 D u^(2kJ+1), Horner
    den, numerators = _em_numerators(k, order)
    poly, step = 0, u ** (2 * k)
    for a in numerators:
        poly = poly * step + a
    core = Fraction((2 * k * u**k + 1) * den * u ** (2 * k * order - k) + 2 * poly,
                    2 * den * u ** (2 * k * order + 1))
    rest = em_coeff(k, order + 1)
    margin = Fraction(2 * abs(rest.numerator),
                      rest.denominator * u ** (2 * k * (order + 1) + 1))
    return u, Enclosure(core - margin, core + margin)


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
    cut, tail = em_tail(1, width, m)
    if cut == m:
        return tail
    # Head slice: (cut - m) one-unit roundings within width/2.
    scale = scale_for(width / 2, units=cut - m)
    lo, hi = _trigamma_head_units(m, cut, scale)
    return Enclosure(Fraction(lo, scale) + tail.lo, Fraction(hi, scale) + tail.hi)


def g2_tail(m: int, budget: PrecisionBudget) -> Enclosure:
    """Enclosure of g2_tail(m) = sum_{n>=m} 1/(n(n+1))^2, width <= budget."""
    if m < 1:
        raise ValueError("tail start must be >= 1")
    t = trigamma_tail(m, PrecisionBudget(budget.target_width / 2))
    shift = Fraction(1, m * m) + Fraction(2, m)
    return Enclosure(2 * t.lo - shift, 2 * t.hi - shift)
