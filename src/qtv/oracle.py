"""Reference evaluation of Q(x) = sum_{n>=1} ({x/(n+1)} - {x/n})^2.

Everything else in the package is checked against this module, so it
stays as close to the definition as possible and certifies its output:
q_eval returns an enclosure whose endpoints are exact rationals that
provably bracket Q(x).

Writing {u} = u - floor(u) and gap(n) = floor(x/n) - floor(x/(n+1)),

    {x/(n+1)} - {x/n} = gap(n) - x/(n(n+1)),

so with x = p/q and m = q n (n+1) each term is the exact rational
(gap(n) m - p)^2 / m^2.  For n > x both floors vanish, gap(n) = 0,
and the term is x^2/(n(n+1))^2, which sums to the certified series
tail of tails.g2_tail.  The crossover is sharp: for x >= 1 the last
nonzero gap sits exactly at n = floor(x), because x/floor(x) >= 1 >
x/(floor(x)+1), so the head must cover n <= floor(x) and no further.

Heads are walked block by block along the constancy blocks of
floor(x/n) (below): the interior of a block has gap 0, so its terms are
p^2/(q n(n+1))^2 summed straight over the index range, and the block end
adds its one term with the block's gap.  q_eval adds floor(term * scale)
at a power-of-ten scale sized so the N dropped sub-unit remainders stay
inside half the width budget; the reported head is the floor sum, an
exact certified lower bound, and the rounding slack rides along in the
tail bracket.  q_head walks the same runs in exact fractions, whose
reduced denominator grows like lcm(1..N)^2 (on the order of 0.87 N
digits), so it serves as the exact reference for short heads only.

Gap values partition the index set, which is what the rest of the
package decomposes along: gap(n) = d >= 1 happens only at the final n
of each constancy block of floor(x/n), and there are O(sqrt(x)) such
blocks, enumerated by the standard divisor sweep n -> floor(x/v).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .interval import DEFAULT_BUDGET, Enclosure, PrecisionBudget, ScaledSum
from .rational import RationalScalar
from .tails import g2_tail

# Head length up to which q_head's exact fractions stay affordable.
EXACT_HEAD_LIMIT = 10_000


def frac_part(r: RationalScalar) -> Fraction:
    """{r} = r - floor(r), exact."""
    f = Fraction(r)
    return f - (f.numerator // f.denominator)


def _checked(x: RationalScalar, n: int) -> Fraction:
    f = Fraction(x)
    if f <= 0:
        raise ValueError("x must be positive")
    if n < 1:
        raise ValueError("index must be >= 1")
    return f


def gap(x: RationalScalar, n: int) -> int:
    """floor(x/n) - floor(x/(n+1)) for x > 0, n >= 1."""
    f = _checked(x, n)
    p, q = f.numerator, f.denominator
    return p // (q * n) - p // (q * (n + 1))


def term(x: RationalScalar, n: int) -> Fraction:
    """({x/(n+1)} - {x/n})^2, straight from the definition."""
    f = _checked(x, n)
    return (frac_part(f / (n + 1)) - frac_part(f / n)) ** 2


def _tree_sum(values: list[Fraction]) -> Fraction:
    """Sum by pairwise merging to keep denominators balanced."""
    if not values:
        return Fraction(0)
    vals = values
    while len(vals) > 1:
        nxt = [vals[i] + vals[i + 1] for i in range(0, len(vals) - 1, 2)]
        if len(vals) % 2:
            nxt.append(vals[-1])
        vals = nxt
    return vals[0]


def _term(p: int, q: int, g: int, n: int) -> tuple[int, int]:
    """(num, den) of the term (g m - p)^2 / m^2 at index n with gap g,
    for x = p/q and m = q n (n+1)."""
    m = q * n * (n + 1)
    e = g * m - p
    return e * e, m * m


def _head_runs(x: Fraction, count: int) -> Iterator[tuple[int, int, int, int]]:
    """(start, stop, num, den) runs covering n = 1..count: gap 0 on
    start..stop-1, then num/den, the term at a block end stop, or 0/1
    after a last run cut off at count or running past floor(x)."""
    n = 1
    for n_start, n_end, _, (num, den) in _blocks(x):
        if n_end > count:
            break
        yield n_start, n_end, num, den
        n = n_end + 1
    if n <= count:
        yield n, count + 1, 0, 1


def q_head(x: RationalScalar, count: int) -> Fraction:
    """Exact sum of the first `count` terms, the reference for q_eval's head.

    Costs exact-rational arithmetic on denominators up to
    lcm(1..count)^2; practical for count <= EXACT_HEAD_LIMIT.
    """
    f = Fraction(x)
    if f <= 0:
        raise ValueError("x must be positive")
    if count < 0:
        raise ValueError("count must be >= 0")
    pp, q = f.numerator ** 2, f.denominator
    terms: list[Fraction] = []
    for start, stop, num, den in _head_runs(f, count):
        terms.extend(Fraction(pp, (q * n * (n + 1)) ** 2) for n in range(start, stop))
        terms.append(Fraction(num, den))
    return _tree_sum(terms)


def _head_scaled(x: Fraction, count: int, budget: PrecisionBudget) -> Enclosure:
    """Enclosure of the head sum of `count` terms: the walk adds each
    term's floor on the grid, and one unit per term covers the rest."""
    head = ScaledSum(budget.target_width, count)
    scale = head.scale
    pps, qq = x.numerator ** 2 * scale, x.denominator ** 2
    units = 0
    for start, stop, num, den in _head_runs(x, count):
        units += (sum(pps // (qq * (n * (n + 1)) ** 2) for n in range(start, stop))
                  + num * scale // den)
    head.add_floors(units, count)
    return head.enclosure()


def tail_enclosure(x: RationalScalar, start: int, budget: PrecisionBudget) -> Enclosure:
    """Enclosure of sum_{n>=start} term(n), valid only past the floors.

    Requires start > x so every term in range is x^2/(n(n+1))^2.
    """
    f = Fraction(x)
    if f <= 0:
        raise ValueError("x must be positive")
    if start < 1 or start <= f:
        raise ValueError("tail must start strictly past x")
    xx = f * f
    inner = g2_tail(start, PrecisionBudget(budget.target_width / xx))
    scaled = inner.scale(xx)
    # the true tail is a sum of squares, so 0 is always a valid floor
    return Enclosure(max(Fraction(0), scaled.lo), scaled.hi)


@dataclass(frozen=True)
class QValue:
    """Certified value of Q(x): grid head plus bracketed tail.

    head is the floor-sum lower bound for the first head_count terms,
    an exact rational; tail brackets everything past them, including
    the head's rounding slack, so value = head + tail endpointwise.
    """

    x: Fraction
    value: Enclosure
    head: Fraction
    tail: Enclosure
    head_count: int

    def __post_init__(self) -> None:
        if self.head_count < 0:
            raise ValueError("head_count must be >= 0")
        if self.tail.lo < 0:
            raise ValueError("tail of squares cannot be negative")
        if (self.value.lo != self.head + self.tail.lo
                or self.value.hi != self.head + self.tail.hi):
            raise ValueError("value must equal head + tail endpointwise")


def q_eval(x: RationalScalar, budget: PrecisionBudget = DEFAULT_BUDGET) -> QValue:
    """Certified enclosure of Q(x) for rational x > 0.

    Head covers n <= floor(x) (empty for x < 1), the minimal range
    containing every nonzero gap; the remainder is the certified
    series tail.  Half the budget goes to the scaled integer head,
    half to the tail.
    """
    f = Fraction(x)
    if f <= 0:
        raise ValueError("x must be positive")
    count = f.numerator // f.denominator
    half = budget.split(2)
    series = tail_enclosure(f, count + 1, half)  # refuses before the head
    scaled = _head_scaled(f, count, half)
    head, tail = scaled.lo, Enclosure(series.lo, series.hi + scaled.width)
    value = Enclosure(head + tail.lo, head + tail.hi)
    return QValue(f, value, head, tail, count)


@dataclass(frozen=True)
class GapClass:
    """Index set {n : gap(n) = d} as inclusive runs plus optional tail.

    For d >= 1 the runs are singleton block ends.  For d = 0 the runs
    are the block interiors and tail_start marks where the class
    continues forever (floor(x)+1, past every nonzero gap).
    """

    d: int
    ranges: tuple[tuple[int, int], ...]
    tail_start: int | None

    def members(self) -> Iterator[int]:
        """Finite members only, in increasing order."""
        for a, b in self.ranges:
            yield from range(a, b + 1)


def _blocks(x: Fraction) -> Iterator[tuple[int, int, int, tuple[int, int]]]:
    """(n_start, n_end, gap, (num, den)) per constancy block of floor(x/n).

    Covers 1 <= n <= floor(x); the gap at each block end is >= 1, every
    interior index has gap 0, and num/den is the term at n_end.
    O(sqrt(x)) blocks.
    """
    p, q = x.numerator, x.denominator
    top = v = p // q
    n = 1
    while n <= top:
        n_end = p // (q * v)
        nxt = p // (q * (n_end + 1))
        yield n, n_end, v - nxt, _term(p, q, v - nxt, n_end)
        n = n_end + 1
        v = nxt


def gap_class(x: RationalScalar, d: int) -> GapClass:
    """The index set where gap equals d, from one block sweep."""
    f = Fraction(x)
    if f <= 0:
        raise ValueError("x must be positive")
    if d < 0:
        raise ValueError("gap values are nonnegative")
    runs: list[tuple[int, int]] = []
    if d == 0:
        for n_start, n_end, _, _ in _blocks(f):
            if n_start < n_end:
                runs.append((n_start, n_end - 1))
        return GapClass(0, tuple(runs), f.numerator // f.denominator + 1)
    for _, n_end, jump, _ in _blocks(f):
        if jump == d:
            runs.append((n_end, n_end))
    return GapClass(d, tuple(runs), None)


def q_values_by_gap(x: RationalScalar) -> dict[int, Fraction]:
    """{d: Q_d(x)} for every d >= 1 with a nonempty class, exact.

    One block sweep, one exact term per block end; O(sqrt(x)) terms.
    """
    f = Fraction(x)
    if f <= 0:
        raise ValueError("x must be positive")
    parts: dict[int, list[Fraction]] = {}
    for _, _, jump, (num, den) in _blocks(f):
        parts.setdefault(jump, []).append(Fraction(num, den))
    return {d: _tree_sum(vals) for d, vals in sorted(parts.items())}


def q_d_direct(x: RationalScalar, d: int) -> Fraction:
    """Exact Q_d(x) for d >= 1 (the class is finite there)."""
    if d < 1:
        raise ValueError("finite classes have d >= 1; use q0_direct for d = 0")
    f = Fraction(x)
    if f <= 0:
        raise ValueError("x must be positive")
    return _tree_sum([Fraction(num, den)
                      for _, _, jump, (num, den) in _blocks(f) if jump == d])


def q0_direct(x: RationalScalar, budget: PrecisionBudget = DEFAULT_BUDGET) -> Enclosure:
    """Certified enclosure of Q_0(x), the gap-0 slice of the series.

    Computed as Q(x) minus the exact finite classes, so it inherits
    q_eval's certificate; per-index cost, reference use only.
    """
    f = Fraction(x)
    qv = q_eval(f, budget)
    finite = _tree_sum(list(q_values_by_gap(f).values()))
    return Enclosure(qv.value.lo - finite, qv.value.hi - finite)
