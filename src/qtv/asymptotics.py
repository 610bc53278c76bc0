"""Grid experiments on the error term E(x) = Q(x) - c sqrt(x).

Here c = zeta(3/2)/pi.  Everything that claims to be an enclosure is
one: Q(x) comes from the direct evaluator or from the gap-class
decomposition, c sqrt(x) from the constants module, and x^(3/7) from
exact 7th-root bracketing of x^3, so a record's bound_ratio really
brackets |E(x)| / x^(3/7).

The decomposition evaluator re-sums the series by gap class.  Every
term with a nonzero gap sits at a block end of floor(x/n), so one pass
over the about 2 sqrt(x) blocks (never x terms) puts each end term on
one scaled-integer grid: into the bin of its class d <= d_cut, or into
a single rest bin for the classes above the cut.  The pass splits at
K = q0_block_cut(x).  Below N1 = floor(x/(K+1)) it walks the indices,
each its own block end; above it walks the quotients v = 1..K, whose
block ends floor(x/v) all have gap 1, through blocks.end_squares.  The
zero-gap class comes from its own closed form.  The rest is enclosed as
tightly as any class bin, and the total does not depend on d_cut.
op_count reports the pass length plus the closed form's K terms so
scaling tests can watch the growth rate.  decomposed_eval needs no bins:
Q(x) = sum g^2 - 2 sum x g/(n(n+1)) + x^2 (pi^2/3 - 3) over the ends n.

The fast estimator is the one uncertified number in this module.  It
evaluates (2/15 + sum_{d <= D} gap_coeff(d)) * sqrt(x) through the
closed-form partial sum and attaches the allowance C1 D^3 +
C2 sqrt(x/D).  The allowance is a fitted envelope, not a bound; the
rigorous flag on the result stays False and FAST_C1, FAST_C2 record
what the dev-time panels showed, nothing more.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterator
from contextlib import closing
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import islice
from math import fsum, log, sqrt
from statistics import StatisticsError, linear_regression

from .blocks import end_moments, end_squares, q0_block_cut, q0_blocks
from .coefficients import gap_coeff_sum, main_constant, pi_enclosure
from .interval import (DEFAULT_BUDGET, Enclosure, PrecisionBudget, ScaledSum,
                       pow_enclosure, scale_for, sqrt_enclosure)
from .oracle import QValue, q_eval
from .rational import RationalScalar, iroot, isqrt

EVALUATORS = ("oracle", "decomposed", "fast")


@dataclass(frozen=True)
class DecompositionReport:
    """Q(x) reassembled from gap classes up to d_cut.

    base is the zero-gap class, classes[i] encloses the exact class
    d = i + 1 total, rest encloses the sum of every class above d_cut,
    and value is their interval sum.  rest is an exact 0 when the block
    pass saw no gap above the cut.
    """

    x: RationalScalar
    d_cut: int
    base: Enclosure
    classes: tuple[Enclosure, ...]
    rest: Enclosure
    value: Enclosure
    op_count: int

    def __post_init__(self) -> None:
        if len(self.classes) != self.d_cut:
            raise ValueError("need one class enclosure per d <= d_cut")
        if self.rest.lo < 0:
            raise ValueError("the rest classes are sums of squares")

    @property
    def class_total(self) -> Enclosure:
        return sum(self.classes, self.base)


def decompose(x: RationalScalar, d_cut: int = 50,
              budget: PrecisionBudget = DEFAULT_BUDGET) -> DecompositionReport:
    """Enclose Q(x) as base + classes 1..d_cut + rest.

    The budget is split in halves: one for the zero-gap closed form, one
    for the grid that holds every block end (one rounding per end, each
    class bin and the rest bin on the same scale).  Work is one O(sqrt(x))
    block pass in two phases, an index walk for n <= floor(x/(K+1)) and
    a gap-1 quotient walk end_squares(p, q, 1, 0, K, scale) with
    K = q0_block_cut(x), plus the zero-gap formula's own pass over the
    same K quotients.
    """
    f = Fraction(x)
    if f <= 0:
        raise ValueError("x must be positive")
    if d_cut < 0:
        raise ValueError("d_cut must be >= 0")
    part = budget.split(2)
    base = q0_blocks(f, part)  # its tail refuses before the block pass
    p, q = f.numerator, f.denominator
    cut = q0_block_cut(f)
    n1 = p // (q * (cut + 1))

    # Every block end has a nonzero gap and puts its term on one grid:
    # slot d <= d_cut takes class d, slot 0 the gaps above the cut.
    end_bound = 2 * isqrt(p // q) + 4
    bins = [ScaledSum(part.target_width, end_bound) for _ in range(d_cut + 1)]
    scale = bins[0].scale
    units, counts = [0] * (d_cut + 1), [0] * (d_cut + 1)

    # Index phase, n = 1..n1: the quotient floor(x/n) exceeds cut, and
    # such a block holds at most one index, so n ends its own block and
    # its gap g is the drop to the next quotient.  The term is
    # (g m - p)^2/m^2 with m = q n (n+1).
    v = p // q
    for n in range(1, n1 + 1):
        q_next = q * (n + 1)
        nxt = p // q_next
        g = v - nxt
        m = q_next * n
        e = g * m - p
        slot = g if g <= d_cut else 0
        units[slot] += e * e * scale // (m * m)
        counts[slot] += 1
        v = nxt

    # Quotient phase, v = 1..cut: the block end n = floor(x/v) has
    # n(n+1) > x, so its gap is 1; end_squares sums the gap-1 terms.
    slot = 1 if d_cut else 0
    units[slot] += end_squares(p, q, 1, 0, cut, scale)
    counts[slot] += cut

    for acc, total, count in zip(bins, units, counts):
        acc.add_floors(total, count)
    rest, *classes = (acc.enclosure() for acc in bins)
    ops = sum(counts) + cut
    value = sum(classes, base + rest)
    return DecompositionReport(f, d_cut, base, tuple(classes), rest, value, ops)


def decomposed_eval(x: RationalScalar,
                    budget: PrecisionBudget = DEFAULT_BUDGET) -> QValue:
    """Q(x) through the gap-class route, packaged like q_eval output.

    Only block ends have a nonzero gap g, so Q(x) = sum g^2 -
    2 sum x g/(n(n+1)) + x^2 (pi^2/3 - 3): one blocks.end_moments walk
    (grid w/4, so w/2 after the factor -2) and pi at w/(5 x^2), which
    keeps x^2 (pi_hi^2 - pi_lo^2)/3 below w/2; unlike g2_tail(1), Machin's
    series has no order cap.  The whole enclosure rides in the tail slot.
    """
    f = Fraction(x)
    xx = f * f
    pi_budget = PrecisionBudget(budget.target_width / (5 * xx))
    scale_for(pi_budget.target_width / 2)  # refuse before the walk and the series
    squares, grid = end_moments(f, budget.target_width / 4)
    pi = pi_enclosure(pi_budget)
    value = Enclosure(
        max(Fraction(0), squares + xx * (pi.lo**2 / 3 - 3) - 2 * grid.hi),
        squares + xx * (pi.hi**2 / 3 - 3) - 2 * grid.lo)
    return QValue(f, value, Fraction(0), value, 0)


# Fitted on dev panels x in {10^5, 10^6, 10^7} (direct evaluator as
# truth), d_cut in {5, 10, 20, 50}; see FastEstimate.
FAST_C1 = Fraction(1, 1000)
FAST_C2 = Fraction(1, 3)


@dataclass(frozen=True)
class FastEstimate:
    """The closed-form estimate of Q(x) with a fitted error allowance.

    value rigorously encloses the expression
    (2/15 + sum_{d <= d_cut} gap_coeff(d)) * sqrt(x) -- the expression,
    not Q(x).  allowance is C1 d_cut^3 + C2 sqrt(x / d_cut) with fitted
    constants: the d^2-sized wobble each kept class leaves behind, plus
    the discarded classes.  Nothing certifies it, hence rigorous False.
    """

    x: RationalScalar
    d_cut: int
    value: Enclosure
    allowance: Fraction
    rigorous: bool = False


def default_fast_cut(x: RationalScalar) -> int:
    """Balance point of the allowance terms: x^(1/7), rounded."""
    f = Fraction(x)
    if f < 1:
        return 1
    n = f.numerator // f.denominator
    lo = iroot(n, 7)
    # nearest integer: compare n against the half-step (lo + 1/2)^7
    up = 128 * n > (2 * lo + 1) ** 7
    return max(1, lo + 1 if up else lo)


def fast_estimate(x: RationalScalar, d_cut: int | None = None,
                  budget: PrecisionBudget = DEFAULT_BUDGET) -> FastEstimate:
    """Estimate Q(x) from the amplitude partial sum, O(d_cut) work.

    d_cut defaults to x^(1/7) rounded, which balances the two halves
    of the allowance.  The result is labeled non-rigorous: its value
    encloses the estimating expression exactly, but the distance from
    that expression to Q(x) is only covered by the fitted allowance.
    """
    f = Fraction(x)
    if f <= 0:
        raise ValueError("x must be positive")
    if d_cut is None:
        d_cut = default_fast_cut(f)
    if d_cut < 1:
        raise ValueError("d_cut must be >= 1")
    half = budget.split(2)
    root_x = isqrt(f.numerator // f.denominator) + 2
    amp = gap_coeff_sum(d_cut, PrecisionBudget(half.target_width / root_x))
    amp = amp.shift(Fraction(2, 15))
    value = amp * sqrt_enclosure(f, half)
    allowance = (FAST_C1 * d_cut**3
                 + FAST_C2 * (isqrt(f.numerator // (f.denominator * d_cut)) + 1))
    return FastEstimate(f, d_cut, value, allowance)


@dataclass(frozen=True)
class ScanRecord:
    """One grid point of the error-term experiment.

    error = value - main endpointwise and bound_ratio brackets
    |error| / x^(3/7).  seconds is wall clock and stays out of
    equality, so records of duplicate grid points compare equal.
    """

    x: RationalScalar
    value: Enclosure
    main: Enclosure
    error: Enclosure
    bound_ratio: Enclosure
    evaluator: str
    seconds: float = field(default=0.0, compare=False)

    def __post_init__(self) -> None:
        if self.evaluator not in EVALUATORS:
            raise ValueError(f"unknown evaluator {self.evaluator!r}")
        if self.error != self.value - self.main:
            raise ValueError("error must equal value - main endpointwise")


def error_term(x: RationalScalar, budget: PrecisionBudget = DEFAULT_BUDGET,
               evaluator: str = "oracle", d_cut: int = 50) -> ScanRecord:
    """Enclose E(x) = Q(x) - c sqrt(x) at one point.

    evaluator picks the Q(x) route; "fast" substitutes the estimator
    expression (the record then inherits its non-rigorous status, which
    the evaluator tag carries).  d_cut feeds the fast route only.
    """
    f = Fraction(x)
    if f < 2:
        raise ValueError("the error-term experiment starts at x = 2")
    if evaluator not in EVALUATORS:
        raise ValueError(f"unknown evaluator {evaluator!r}")
    started = time.perf_counter()
    # the constant refuses past its order cap before the value's loops
    root_x = isqrt(f.numerator // f.denominator) + 2
    const = main_constant(PrecisionBudget(budget.target_width / (4 * root_x)))
    half = budget.split(2)
    if evaluator == "oracle":
        value = q_eval(f, half).value
    elif evaluator == "decomposed":
        value = decomposed_eval(f, half).value
    else:
        value = fast_estimate(f, d_cut, half).value
    main = const * sqrt_enclosure(f, budget.split(4))
    error = value - main
    ratio = error.abs() / pow_enclosure(f, 3, 7, budget)
    seconds = time.perf_counter() - started
    return ScanRecord(f, value, main, error, ratio, evaluator, seconds)


@dataclass(frozen=True)
class ScanResult:
    """Records in grid order, with per-point failures kept aside.

    capped means the time budget ran out: records is then a prefix of
    the grid.  failures hold (index, x, message) for points that raised
    instead of producing a record; they do not abort the scan.
    """

    records: tuple[ScanRecord, ...]
    failures: tuple[tuple[int, RationalScalar, str], ...] = ()
    capped: bool = False


def _pooled(points: list[Fraction], args: tuple, workers: int,
            in_time: Callable[[], bool]) -> Iterator[Callable[[], ScanRecord]]:
    """Yield error_term(point, *args) result getters in grid order.

    A pool hands queued points to its workers ahead of time, where a
    time cap can no longer stop them, so at most `workers` points are
    in flight: each finished point makes room for the next one while
    in_time() holds, and for none after.
    """
    # only a pooled scan starts a pool; the import slows every CLI start
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
    with ProcessPoolExecutor(max_workers=workers) as pool:
        ahead = (pool.submit(error_term, point, *args) for point in points)
        futures = list(islice(ahead, workers))
        running = set(futures)
        for index in range(len(points)):
            while futures[index] in running:
                done, running = wait(running, return_when=FIRST_COMPLETED)
                if in_time():
                    fresh = list(islice(ahead, len(done)))
                    futures += fresh
                    running.update(fresh)
            yield futures[index].result


def scan(grid: list[RationalScalar],
         budget: PrecisionBudget = DEFAULT_BUDGET,
         evaluator: str = "oracle", d_cut: int = 50,
         workers: int = 1, time_cap: float | None = None) -> ScanResult:
    """Run error_term over a grid; order of records follows the grid.

    One loop takes the points' results in grid order, keeps each record
    or failure, and stops after the point that crosses time_cap, marking
    the result capped.  The results are lazy error_term calls when
    workers == 1 and a process pool's futures otherwise (_pooled).
    Records and exceptions cross the process boundary whole, so the
    output, failure messages included, does not depend on workers or on
    scheduling.  Past the cap a pool finishes at most workers - 1 points
    before it closes, and drops their records.
    """
    points = [Fraction(x) for x in grid]
    if workers < 1:
        raise ValueError("workers must be >= 1")
    started = time.perf_counter()

    def in_time() -> bool:
        return time_cap is None or time.perf_counter() - started <= time_cap

    args = (budget, evaluator, d_cut)
    if workers == 1:
        results = (partial(error_term, point, *args) for point in points)
    else:
        results = _pooled(points, args, workers, in_time)
    records: list[ScanRecord] = []
    failures: list[tuple[int, RationalScalar, str]] = []
    capped = False
    with closing(results):
        for index, (point, result) in enumerate(zip(points, results)):
            try:
                records.append(result())
            except Exception as exc:  # noqa: BLE001  recorded, not fatal
                failures.append((index, point, f"{type(exc).__name__}: {exc}"))
            if not in_time():
                capped = index + 1 < len(points)
                break
    return ScanResult(tuple(records), tuple(failures), capped)


class FitError(ValueError):
    """Raised when fewer than three usable points remain to fit."""


@dataclass(frozen=True)
class FitReport:
    """Least-squares slope of log |E(x)| against log x.

    Only records whose error enclosure excludes zero enter the fit
    (their midpoints have a well-defined magnitude); the rest are
    counted in n_skipped.  max_bound_ratio is the largest certified
    upper bound of |E(x)| / x^(3/7) over all records, skipped or not.
    """

    slope: float
    stderr: float
    max_bound_ratio: RationalScalar
    n_points: int
    n_skipped: int
    records: tuple[ScanRecord, ...]


def fit_exponent(records: list[ScanRecord]) -> FitReport:
    """Fit the growth exponent of the error term from scan records."""
    usable = [r for r in records if not r.error.straddles_zero()]
    skipped = len(records) - len(usable)
    if len(usable) < 3:
        raise FitError(f"need >= 3 usable points, have {len(usable)} "
                       f"({skipped} skipped for straddling zero)")
    xs = [log(float(r.x)) for r in usable]
    ys = [log(abs(float(r.error.midpoint))) for r in usable]
    try:
        slope, intercept = linear_regression(xs, ys)
    except StatisticsError as exc:
        raise FitError(str(exc)) from exc
    residue = fsum((y - (intercept + slope * x)) ** 2
                   for x, y in zip(xs, ys))
    mean_x = fsum(xs) / len(xs)
    spread = fsum((x - mean_x) ** 2 for x in xs)
    if len(usable) > 2 and spread > 0:
        stderr = sqrt(max(0.0, residue) / ((len(usable) - 2) * spread))
    else:
        stderr = 0.0
    top = max(r.bound_ratio.hi for r in records)
    return FitReport(slope, stderr, top, len(usable), skipped,
                     tuple(records))


def geometric_grid(start: int, stop: int,
                   ratio: RationalScalar = Fraction(10)) -> list[int]:
    """Integer grid start, ~start*ratio, ... capped at stop, deduplicated.

    The running point is kept as an exact rational and rounded to the
    nearest integer at each step, so the grid is reproducible no matter
    how the ratio was written.
    """
    r = Fraction(ratio)
    if start < 1 or stop < start:
        raise ValueError("need 1 <= start <= stop")
    if r <= 1:
        raise ValueError("ratio must be > 1")
    grid: list[int] = []
    current = Fraction(start)
    while True:
        point = round(current)
        if point > stop:
            break
        if not grid or point != grid[-1]:
            grid.append(point)
        current *= r
    return grid
