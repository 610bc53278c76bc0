"""Closed-form block evaluation of the gap classes of Q(x).

The gap d >= 1 indices are block ends of floor(x/n), so each class is
reachable without visiting indices one by one.  Writing K_d for the
largest k >= 0 with k(k - d) <= dx (equivalently floor((d +
sqrt(d^2+4dx))/2); K_0 = 0), the class-d sum collapses, for
d + 1 <= x/2, to five short sums over quotients k:

    Q_d(x) = ( 2 sum_{K_d-d < k <= K_d}
                 - sum_{K_{d+1}-d-1 < k <= K_{d+1}}
                 - sum_{K_{d-1}-d+1 < k <= K_{d-1}} ) summand(k)
             - ( sum_{K_d < k <= K_{d+1}}
                 - sum_{K_{d-1} < k <= K_d} ) (d - x/(n(n+1)))^2

with n = floor(x/k) in every term, summand(k) = d^2 n + 2dx/n -
x^2 g2_tail(n) and g2_tail(n) = sum_{m >= n} 1/(m(m+1))^2, the
tail from floor(x/k) on.  The three summand sums run over
O(d) values of k near sqrt(dx), the two square sums over the about
sqrt(x/d)/2 values of k between consecutive cut points, so the cost is
O(d + sqrt(x/d)) terms (70,734 at x = 1e11, d = 20).  Every piece is
exact rational except the tail, which carries a certified bracket.
Empty ranges (upper bound <= lower bound) contribute nothing, which
silently handles d = 1 where the K_0 ranges vanish.

The gap-0 class has its own cut: K, the largest k >= 0 with
k(k+1) <= x.  The block of quotient v, {n : floor(x/n) = v}, is the
integers in (x/(v+1), x/v], of real length x/(v(v+1)).

- v <= K exactly when that length is >= 1, so the block is nonempty.
- Its end n = floor(x/v) has n(n+1) > x, so the gap there is 1, and
  the ends for v = 1..K are pairwise distinct.
- A block with v > K holds at most one index, so every
  n <= floor(x/(K+1)) ends its own block and has a nonzero gap.

The gap-0 indices are thus every n > floor(x/(K+1)) except the K block
ends, so

    Q_0(x) = x^2 ( sum_{n > floor(x/(K+1))} g2(n)
                   - sum_{v=1}^{K} g2(floor(x/v)) ),

one tail evaluation and K exact terms, again O(sqrt(x)) total.

end_squares sums the gap-d terms (d - x/(n(n+1)))^2 at the block ends
n = floor(x/k) of a quotient range: qd_blocks' two square sums,
q0_blocks' K ends (d = 0) and asymptotics.decompose's gap-1 walk (d = 1).
end_moments, the other quotient loop, visits every block end once for
decomposed_eval: the exact sum of g^2 and a grid sum of x g/(n(n+1)).

residual_report packages the difference between each of these sums
and its leading asymptotic term, normalized by the expected error
envelope, so the envelopes can be checked empirically.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction

from .interval import (DEFAULT_BUDGET, Enclosure, PrecisionBudget, ScaledSum,
                       sqrt_enclosure)
from .oracle import q_d_direct
from .rational import RationalScalar, floor_sqrt_rational
from .tails import g2_tail


def q0_block_cut(x: RationalScalar) -> int:
    """Largest k >= 0 with k(k+1) <= x; blocks with quotient above it
    are singletons or empty."""
    f = Fraction(x)
    if f <= 0:
        raise ValueError("x must be positive")
    # k(k+1) <= x  iff  (2k+1)^2 <= 4x+1
    s = floor_sqrt_rational(4 * f + 1)
    return (s - 1) // 2


def cut_point(x: RationalScalar, d: int) -> int:
    """Largest k >= 0 with k(k - d) <= dx, for 0 <= d <= x.

    Equals floor((d + sqrt(d^2 + 4dx))/2): both conditions say
    (2k - d)^2 <= d^2 + 4dx on the increasing branch k >= d/2, and
    below that branch k(k - d) <= 0 <= dx holds anyway.
    """
    f = Fraction(x)
    if f <= 0:
        raise ValueError("x must be positive")
    if d < 0 or d > f:
        raise ValueError("cut_point needs 0 <= d <= x")
    s = floor_sqrt_rational(Fraction(d * d) + 4 * d * f)
    return (d + s) // 2


def _s1(n: int) -> int:
    return n * (n + 1) // 2


def _s3(n: int) -> int:
    return (n * (n + 1) // 2) ** 2


def _s4(n: int) -> int:
    return n * (n + 1) * (2 * n + 1) * (3 * n * n + 3 * n - 1) // 30


def _range_sum(prefix, a: int, b: int) -> int:
    if a < 0:
        raise ValueError("range sums start at nonnegative cuts")
    return prefix(b) - prefix(a) if b > a else 0


def sum_k_range(a: int, b: int) -> int:
    """sum of k over a < k <= b, 0 when the range is empty."""
    return _range_sum(_s1, a, b)


def sum_k3_range(a: int, b: int) -> int:
    """sum of k^3 over a < k <= b, 0 when the range is empty."""
    return _range_sum(_s3, a, b)


def sum_k4_range(a: int, b: int) -> int:
    """sum of k^4 over a < k <= b, 0 when the range is empty."""
    return _range_sum(_s4, a, b)


def block_summand(x: RationalScalar, d: int, k: int,
                  budget: PrecisionBudget = DEFAULT_BUDGET) -> Enclosure:
    """d^2 n + 2dx/n - x^2 g2_tail(n) at n = floor(x/k), needs x/k >= 1."""
    f = Fraction(x)
    if f <= 0:
        raise ValueError("x must be positive")
    if k < 1 or k > f:
        raise ValueError("block summand needs 1 <= k <= x")
    if d < 0:
        raise ValueError("gap values are nonnegative")
    fk = f.numerator // (f.denominator * k)
    exact = d * d * fk + 2 * d * f / fk
    xx = f * f
    tail = g2_tail(fk, PrecisionBudget(budget.target_width / xx))
    return Enclosure(exact - xx * tail.hi, exact - xx * tail.lo)


def end_squares(p: int, q: int, d: int, a: int, b: int, scale: int) -> int:
    """sum_{a < k <= b} floor(scale (d - x/(n(n+1)))^2), n = floor(x/k),
    x = p/q, 0 <= a, b <= floor(x).  Each term is scale d^2 plus the floor
    of (spp - sdq t)/(q t)^2, t = n(n+1), with spp and sdq made once."""
    if a < 0:
        raise ValueError("quotient ranges start at k >= 1")
    spp, sdq, qq = scale * p * p, 2 * d * q * scale * p, q * q
    units = 0
    for qk in range(q * (a + 1), q * b + 1, q):
        n = p // qk
        t = n * n + n
        units += (spp - sdq * t) // (qq * t * t)
    return units + scale * d * d * max(0, b - a)


def end_moments(x: RationalScalar, width: Fraction) -> tuple[int, Enclosure]:
    """Exact sum g^2 and sum x g/(n(n+1)) within `width` over the block
    ends n, g the gap: each n <= floor(x/(K+1)), then the gap-1 ends
    floor(x/v), v = 1..K = q0_block_cut(x), one grid floor each."""
    p, q = Fraction(x).as_integer_ratio()
    cut = q0_block_cut(x)
    n1 = p // (q * (cut + 1))
    grid = ScaledSum(width, n1 + cut)
    sp = grid.scale * p
    squares, units, v = 0, 0, p // q
    for n in range(1, n1 + 1):
        q_next = q * (n + 1)
        g = v - (v := p // q_next)
        squares += g * g
        units += sp * g // (q_next * n)
    spq = sp // q  # floor(floor(a/q)/t) == floor(a/(q t))
    for qv in range(q, q * cut + 1, q):
        n = p // qv
        units += spq // (n * n + n)
    grid.add_floors(units, n1 + cut)
    return squares + cut, grid.enclosure()


@dataclass(frozen=True)
class QdBlockReport:
    """Outcome of the closed-form class-d evaluation.

    cuts = (K_{d-1}, K_d, K_{d+1}); direct is the per-index exact
    value when it was computed, and matches says the closed form
    brackets it.
    """

    x: Fraction
    d: int
    value: Enclosure
    cuts: tuple[int, int, int]
    direct: Fraction | None

    @property
    def matches(self) -> bool:
        return self.direct is not None and self.value.contains(self.direct)


def qd_blocks(x: RationalScalar, d: int,
              budget: PrecisionBudget = DEFAULT_BUDGET,
              compare_direct: bool = True,
              _middle_shift: int = 0) -> QdBlockReport:
    """Evaluate Q_d(x) by the five-range closed form, d >= 1.

    Needs d + 1 <= x/2.  The result enclosure has width at most the
    budget; with compare_direct the exact per-index value is computed
    too (O(sqrt x) extra).  _middle_shift displaces the middle summand
    range and exists so tests can prove the range endpoints matter;
    leave it at 0.
    """
    f = Fraction(x)
    if d < 1:
        raise ValueError("closed form covers d >= 1; use q0_blocks for d = 0")
    if 2 * (d + 1) > f:
        raise ValueError("closed form needs d + 1 <= x/2")
    km = cut_point(f, d - 1)
    k0 = cut_point(f, d)
    kp = cut_point(f, d + 1)
    summand_ranges = (
        ("center", (k0 - d, k0), 2),
        ("upper", (kp - d - 1 + _middle_shift, kp + _middle_shift), -1),
        ("lower", (km - d + 1, km), -1),
    )
    # All accumulation happens on power-of-ten grids: every term is
    # outward-rounded to integer units first, so denominators never
    # compound across the sum.  Budget: at most w/4 on the summand
    # tails, w/2 on summand rounding (ScaledSum.add charges up to two
    # units per enclosure) and w/4 on square-term floors; summand
    # ranges sized by |coefficient| times length.
    w = budget.target_width
    evals = sum(abs(c) * max(0, b - a) for _, (a, b), c in summand_ranges)
    per = PrecisionBudget(w / (4 * max(1, evals)))
    for name, (a, b), _ in summand_ranges:
        if b > a and a < 0:
            raise ValueError(f"range '{name}' reaches k = {a + 1} < 1")
    summands = ScaledSum(w / 4, evals)
    for _, (a, b), coef in summand_ranges:
        for k in range(a + 1, b + 1):
            summands.add(block_summand(f, d, k, per), coef)
    squares = ScaledSum(w / 4, kp - km)
    p, q, scale = f.numerator, f.denominator, squares.scale
    squares.add_floors(end_squares(p, q, d, k0, kp, scale), kp - k0, -1)
    squares.add_floors(end_squares(p, q, d, km, k0, scale), k0 - km)
    value = summands.enclosure() + squares.enclosure()
    direct = q_d_direct(f, d) if compare_direct else None
    return QdBlockReport(f, d, value, (km, k0, kp), direct)


def q0_blocks(x: RationalScalar,
              budget: PrecisionBudget = DEFAULT_BUDGET) -> Enclosure:
    """Certified enclosure of Q_0(x) in O(sqrt x) operations."""
    f = Fraction(x)
    if f <= 0:
        raise ValueError("x must be positive")
    p, q = f.numerator, f.denominator
    cut = q0_block_cut(f)
    xx = f * f
    half = budget.target_width / 2
    top = p // (q * (cut + 1)) + 1
    whole = g2_tail(top, PrecisionBudget(half / xx))
    # subtract the block ends floor(x/v), v = 1..cut, as grid floors
    ends = ScaledSum(half, cut)
    ends.add_floors(end_squares(p, q, 0, 0, cut, ends.scale), cut, -1)
    sub = ends.enclosure()
    return Enclosure(max(Fraction(0), xx * whole.lo + sub.lo), xx * whole.hi + sub.hi)


@dataclass(frozen=True)
class ResidualReport:
    """actual - main compared against an error envelope.

    ratio_hi is a certified upper estimate of |actual - main| divided
    by the envelope; watching it stay bounded (and drift slowly in x)
    is the empirical check that the envelope has the right shape.
    """

    name: str
    x: Fraction
    d: int | None
    k: int | None
    actual: Enclosure
    main: Enclosure
    residual: Enclosure
    bound: Enclosure

    @property
    def ratio_hi(self) -> Fraction:
        if self.bound.lo <= 0:
            raise ValueError("error envelope enclosure touches zero; "
                             "tighten the budget")
        r = self.residual.abs()
        return r.hi / self.bound.lo


def _r_cut_point(f, d, k, b):
    actual = Enclosure.point(Fraction(cut_point(f, d)))
    main = sqrt_enclosure(d * f, b).shift(Fraction(d, 2))
    bound = sqrt_enclosure(Fraction(d**3) / f, b).shift(1)
    return actual, main, bound


def _r_cut_window_k1(f, d, k, b):
    k0 = cut_point(f, d)
    actual = Enclosure.point(Fraction(sum_k_range(k0 - d, k0)))
    main = sqrt_enclosure(d * f, b).scale(d)
    bound = sqrt_enclosure(Fraction(d**5) / f, b).shift(d)
    return actual, main, bound


def _r_cut_window_k3(f, d, k, b):
    k0 = cut_point(f, d)
    actual = Enclosure.point(Fraction(sum_k3_range(k0 - d, k0)))
    main = sqrt_enclosure(d * f, b).scale(d * d * f)
    bound = sqrt_enclosure(Fraction(d**7) * f, b).shift(d * d * f)
    return actual, main, bound


def _r_between_cuts_k4(f, d, k, b):
    lo_cut = cut_point(f, d)
    hi_cut = cut_point(f, d + 1)
    actual = Enclosure.point(Fraction(sum_k4_range(lo_cut, hi_cut)))
    x5 = f**5
    main = (sqrt_enclosure((d + 1) * x5, b).scale(Fraction((d + 1) ** 2, 5))
            - sqrt_enclosure(d * x5, b).scale(Fraction(d * d, 5)))
    bound = Enclosure.point(Fraction((d + 1) ** 2) * f * f)
    return actual, main, bound


def _r_tail_series(f, d, k, b):
    if f < 1:
        raise ValueError("tail comparison needs t >= 1")
    m = f.numerator // f.denominator
    actual = g2_tail(m, b)
    main = Enclosure.point(Fraction(1, 3 * m**3))
    bound = Enclosure.point(f**-5)
    return actual, main, bound


def _r_summand_main(f, d, k, b):
    k0 = cut_point(f, d)
    if k is None or not k0 - d < k <= k0:
        raise ValueError("summand comparison needs k in the center range")
    actual = block_summand(f, d, k, b)
    main = sqrt_enclosure(d * f, b).scale(2 * d).shift(k * d - Fraction(k**3, 3) / f)
    bound = sqrt_enclosure(Fraction(d**5) / f, b)
    return actual, main, bound


def _window_actual(f, d, a, co, b):
    per = PrecisionBudget(b.target_width / max(1, co - a))
    return sum((block_summand(f, d, k, per) for k in range(a + 1, co + 1)),
               Enclosure.point(Fraction(0)))


def _r_window_sum(shift):
    """Builder for the class-d summands over the window (K_e - e, K_e]
    of the neighbouring class e = d + shift, shift in (-1, 0, 1)."""
    def build(f, d, k, b):
        e = d + shift
        if shift and 2 * e > f:
            raise ValueError(f"the window of class {e} needs {e} <= x/2")
        ke = cut_point(f, e)
        actual = _window_actual(f, d, ke - e, ke, b)
        main = sqrt_enclosure(e * f, b).scale(
            Fraction(8 * d * d + 4 * shift * d - shift * shift, 3))
        bound = sqrt_enclosure(Fraction(d**7) / f, b).shift(d * d)
        return actual, main, bound
    return build


def _r_q0_mean(f, d, k, b):
    actual = q0_blocks(f, b)
    main = sqrt_enclosure(f, b).scale(Fraction(2, 15))
    bound = Enclosure.point(Fraction(1))
    return actual, main, bound


# name: (builder, pass cap, least class d, or None where d is unused).
# The caps are the pass thresholds of the residual checks: roughly twice
# the worst ratio seen on dev panels (x = 1e4 and 1e6, d <= 50), so a
# genuine shape change in any envelope trips them while honest noise
# does not.
_RESIDUALS = {
    "cut_point": (_r_cut_point, Fraction(4), 0),
    "cut_window_k1": (_r_cut_window_k1, Fraction(1), 1),
    "cut_window_k3": (_r_cut_window_k3, Fraction(3), 1),
    "between_cuts_k4": (_r_between_cuts_k4, Fraction(5), 0),
    "tail_series": (_r_tail_series, Fraction(1, 4), None),
    "summand_main": (_r_summand_main, Fraction(1), 1),
    "window_sum_center": (_r_window_sum(0), Fraction(1, 2), 1),
    "window_sum_upper": (_r_window_sum(1), Fraction(3), 1),
    "window_sum_lower": (_r_window_sum(-1), Fraction(1, 2), 1),
    "q0_mean": (_r_q0_mean, Fraction(1), None),
}

RESIDUAL_NAMES = tuple(_RESIDUALS)
RESIDUAL_CAPS = {name: cap for name, (_, cap, _) in _RESIDUALS.items()}


def residual_report(name: str, x: RationalScalar, d: int | None = None,
                    k: int | None = None,
                    budget: PrecisionBudget = DEFAULT_BUDGET) -> ResidualReport:
    """Compare one of the named quantities against its main term.

    Returns enclosures for the actual value, the main term, their
    difference, and the error envelope the difference is expected to
    respect up to a bounded constant.
    """
    try:
        builder, _, least = _RESIDUALS[name]
    except KeyError:
        raise ValueError(f"unknown residual {name!r}; "
                         f"choose from {', '.join(RESIDUAL_NAMES)}") from None
    f = Fraction(x)
    if f <= 0:
        raise ValueError("x must be positive")
    if least is not None and (d is None or d < least):
        raise ValueError(f"this residual needs d >= {least}")
    b = PrecisionBudget(budget.target_width / 4)
    actual, main, bound = builder(f, d, k, b)
    return ResidualReport(name, f, d, k, actual, main, actual - main, bound)


def residual_cases(name: str, x: Fraction, ds: Iterable[int],
                   t: Fraction | None = None
                   ) -> list[tuple[int | None, int | None, Fraction]]:
    """The (d, k, argument) triples residual `name` is checked at near x.

    Gap residuals run at x for each d in ds from their least class on
    (d = 0 only for cut_point and between_cuts_k4), with k the cut point
    for summand_main; classes with 2(d+1) > x are outside the block
    formulas and skipped.  q0_mean runs once at x.  tail_series does not
    depend on x: it runs once at t, or not at all when t is None.
    """
    if name == "tail_series":
        return [] if t is None else [(None, None, t)]
    if name == "q0_mean":
        return [(None, None, x)]
    least = _RESIDUALS[name][2]
    return [(d, cut_point(x, d) if name == "summand_main" else None, x)
            for d in ds if d >= least and 2 * (d + 1) <= x]
