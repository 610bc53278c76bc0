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
Euler-Maclaurin expansion at M:

    T(M) = 1/M + 1/(2 M^2) + 1/(6 M^3) - 1/(30 M^5) + 1/(42 M^7) + R.

The coefficients are the Bernoulli numbers B_2 = 1/6, B_4 = -1/30,
B_6 = 1/42 against f(t) = t^-2, whose derivatives alternate in sign
(completely monotone); for such f the remainder after any Bernoulli
term has the sign of the first omitted term and no larger magnitude,
here |B_8| M^-9 = M^-9/30.  The bracket charges twice that, R in
[-M^-9/15, +M^-9/15], which also absorbs either sign convention.

The M^-9 decay is the point: a width budget w needs M of order
w^(-1/9), about 1900 at w = 1e-30, so tail evaluations deep in the
block machinery stay O(1) whenever m is already large and cost at
most a couple thousand small integer steps otherwise.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .interval import Enclosure, PrecisionBudget, scale_for
from .rational import RationalScalar, iroot


def g2(n: int) -> Fraction:
    """1/(n(n+1))^2 for n >= 1."""
    if n < 1:
        raise ValueError("index must be >= 1")
    return Fraction(1, (n * (n + 1)) ** 2)


def jump_weight(t: RationalScalar) -> Fraction:
    """1/floor(t) - 1/(floor(t)+1), the drop of 1/floor at t; t >= 1."""
    ft = Fraction(t)
    if ft < 1:
        raise ValueError("jump_weight needs t >= 1")
    m = ft.numerator // ft.denominator
    return Fraction(1, m * (m + 1))


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
    # Euler-Maclaurin slice: the bracket charges 2 margins, so
    # (1/15) cut^-9 <= width/4 leaves width/2 for the head slice.
    need = -(-4 * width.denominator // (15 * width.numerator))
    # 2^floor(log2(need) / 9) <= need^(1/9) < cut: a head that long
    # already breaks the scale cap, so refuse before the huge root.
    floor_cut = 1 << ((need.bit_length() - 1) // 9)
    if floor_cut > m:
        scale_for(width / 2, units=floor_cut - m)
    cut = max(m, iroot(need, 9) + 1)
    core = (Fraction(1, cut) + Fraction(1, 2 * cut**2) + Fraction(1, 6 * cut**3)
            - Fraction(1, 30 * cut**5) + Fraction(1, 42 * cut**7))
    margin = Fraction(1, 15 * cut**9)
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


def g2_tail_real(t: RationalScalar, budget: PrecisionBudget) -> Enclosure:
    """Enclosure of sum over n > t-1 of g2(n) for rational t >= 1.

    The condition n > t-1 selects exactly n >= floor(t): for integer t
    it is n >= t, otherwise n >= ceil(t-1) = floor(t).  So the value
    only depends on floor(t), matching the recurrence
    tail(t+1) = tail(t) - jump_weight(t)^2.
    """
    ft = Fraction(t)
    if ft < 1:
        raise ValueError("g2_tail_real needs t >= 1")
    return g2_tail(ft.numerator // ft.denominator, budget)
