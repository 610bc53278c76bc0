"""Rational-endpoint enclosures.

An Enclosure is a closed interval [lo, hi] with exact Fraction endpoints
that is guaranteed to contain the (possibly irrational) value being
computed.  All arithmetic here is outward-exact: endpoints are computed
with exact rational operations, so no directed rounding mode is needed
and containment is preserved by construction.

Square roots and k-th roots are enclosed by one exact integer root at a
power-of-ten denominator chosen from the precision budget: for a target
width w pick S = 10^e >= 1/w, then

    lo = floor(sqrt(r) * S) / S,   hi = lo            if lo is exact,
                                        lo + 1/S      otherwise,

with lo decided by one integer root of floor(r * S^2).  This is the unit
integer bracket [floor(sqrt r), floor(sqrt r)+1] bisected e decimal
digits deep, collapsed into a single integer square root; the iteration
count is deterministic in the budget and the result is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .rational import RationalScalar, iroot

RationalLike = Union[RationalScalar, int]

# Hard cap on the decimal scale of any single enclosure step.  Budgets
# that would need a longer denominator raise BudgetError instead of
# silently grinding on multi-megabyte integers.
MAX_SCALE_DIGITS = 100_000

# Hard cap on the roundings a grid is sized for, which is the length of
# the loop that fills it: a longer loop (q_eval's head past x = 1e8, a
# block pass past x of about 2.5e15, a fast-evaluator class cut past
# 1e8) is refused with BudgetError before it starts.
MAX_ROUNDINGS = 10**8


def _decimal_digits(n: int) -> int:
    """Digit count of n >= 1 without int-to-str (which caps at 4300)."""
    d = max(1, n.bit_length() * 30103 // 100000)
    power = 10**d
    while power <= n:
        power *= 10
        d += 1
    while d > 1 and power // 10 > n:
        power //= 10
        d -= 1
    return d


class BudgetError(RuntimeError):
    """A precision budget cannot be met within the scale or loop cap.

    The exact requested width rides along as .requested; the message
    only sketches its magnitude, since the width's own denominator can
    be too large to print.
    """

    def __init__(self, requested: Fraction, detail: str = ""):
        self.requested = requested
        self.detail = detail
        mag = (_decimal_digits(requested.denominator)
               - _decimal_digits(requested.numerator))
        msg = f"cannot reach target width (about 10^-{mag})"
        super().__init__(msg + (f": {detail}" if detail else ""))

    def __reduce__(self):
        # rebuilt from its arguments, so it unpickles (from a pool) whole
        return type(self), (self.requested, self.detail)


@dataclass(frozen=True)
class PrecisionBudget:
    """Target width for one enclosure result; must be > 0."""

    target_width: RationalScalar

    def __post_init__(self) -> None:
        if self.target_width <= 0:
            raise ValueError("target width must be positive")

    def split(self, parts: int) -> "PrecisionBudget":
        """Budget for one of `parts` summands whose widths add up."""
        if parts < 1:
            raise ValueError("parts must be >= 1")
        return PrecisionBudget(self.target_width / parts)


DEFAULT_BUDGET = PrecisionBudget(Fraction(1, 10**9))


def scale_for(width: Fraction, units: int = 1) -> int:
    """Smallest power of ten S with units/S <= width.

    `units` is the number of terms that will each contribute at most 1/S
    of slack, so an accumulation of that many floor-rounded terms stays
    inside `width`; more than MAX_ROUNDINGS of them are refused.
    """
    if width <= 0:
        raise ValueError("width must be positive")
    if units > MAX_ROUNDINGS:
        raise BudgetError(width, "loop cap exceeded (over 10^8 terms)")
    if units < 1:
        units = 1
    need = (units * width.denominator + width.numerator - 1) // width.numerator
    if need <= 1:
        return 1
    # the bit length rules out the far side without counting digits
    if ((need - 1).bit_length() > int(3.33 * MAX_SCALE_DIGITS)
            or (digits := _decimal_digits(need - 1)) > MAX_SCALE_DIGITS):
        raise BudgetError(width, "scale cap exceeded")
    return 10**digits


@dataclass(frozen=True)
class Enclosure:
    """Closed interval [lo, hi] with exact rational endpoints, lo <= hi."""

    lo: RationalScalar
    hi: RationalScalar

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"inverted enclosure [{self.lo}, {self.hi}]")

    # --- constructors -------------------------------------------------

    @classmethod
    def point(cls, value: RationalLike) -> "Enclosure":
        f = Fraction(value)
        return cls(f, f)

    @classmethod
    def from_scaled(cls, lo_units: int, hi_units: int, scale: int) -> "Enclosure":
        return cls(Fraction(lo_units, scale), Fraction(hi_units, scale))

    # --- queries ------------------------------------------------------

    @property
    def width(self) -> RationalScalar:
        return self.hi - self.lo

    @property
    def midpoint(self) -> RationalScalar:
        return (self.lo + self.hi) / 2

    def contains(self, value: RationalLike) -> bool:
        return self.lo <= value <= self.hi

    def encloses(self, other: "Enclosure") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def intersects(self, other: "Enclosure") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    def straddles_zero(self) -> bool:
        return self.lo <= 0 <= self.hi

    # --- arithmetic (containment-preserving) --------------------------

    def __add__(self, other: "Enclosure") -> "Enclosure":
        return Enclosure(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other: "Enclosure") -> "Enclosure":
        return Enclosure(self.lo - other.hi, self.hi - other.lo)

    def __neg__(self) -> "Enclosure":
        return Enclosure(-self.hi, -self.lo)

    def __mul__(self, other: "Enclosure") -> "Enclosure":
        cands = (
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        )
        return Enclosure(min(cands), max(cands))

    def scale(self, factor: RationalLike) -> "Enclosure":
        f = Fraction(factor)
        if f >= 0:
            return Enclosure(self.lo * f, self.hi * f)
        return Enclosure(self.hi * f, self.lo * f)

    def shift(self, offset: RationalLike) -> "Enclosure":
        f = Fraction(offset)
        return Enclosure(self.lo + f, self.hi + f)

    def abs(self) -> "Enclosure":
        if self.lo >= 0:
            return self
        if self.hi <= 0:
            return -self
        return Enclosure(Fraction(0), max(-self.lo, self.hi))

    def reciprocal(self) -> "Enclosure":
        if self.straddles_zero():
            raise ZeroDivisionError("reciprocal of an enclosure containing 0")
        return Enclosure(1 / self.hi, 1 / self.lo)

    def __truediv__(self, other: "Enclosure") -> "Enclosure":
        return self * other.reciprocal()

    def __repr__(self) -> str:
        return f"Enclosure({self.lo}, {self.hi})"


class ScaledSum:
    """Outward-rounded sum on the grid 1/scale, the smallest power of ten
    that keeps `roundings` one-unit roundings inside `width`.

    Long loops floor their terms onto the grid and hand in the integer
    total (add_floors); an enclosure is rounded outward here (add).  A
    negative coefficient swaps the bracket ends.  A floored term or exact
    value costs |coef| units of width, an enclosure of width v at most
    |coef| (v scale + 2).
    """

    def __init__(self, width: Fraction, roundings: int):
        self.scale = scale_for(width, units=roundings)
        self.lo = 0
        self.hi = 0

    def add_floors(self, total: int, count: int, coef: int = 1) -> None:
        """Add coef times `count` terms whose grid floors sum to `total`."""
        if coef >= 0:
            self.lo += coef * total
            self.hi += coef * (total + count)
        else:
            self.lo += coef * (total + count)
            self.hi += coef * total

    def add(self, enc: Enclosure, coef: int = 1) -> None:
        """Add coef times a value inside enc, rounded outward."""
        lo = enc.lo.numerator * self.scale // enc.lo.denominator
        hi = -(-enc.hi.numerator * self.scale // enc.hi.denominator)
        self.add_floors(lo, hi - lo, coef)

    def enclosure(self) -> Enclosure:
        return Enclosure.from_scaled(self.lo, self.hi, self.scale)


def _root(f: Fraction, k: int, budget: PrecisionBudget) -> Enclosure:
    """[a, a or a + 1] / S around f^(1/k) >= 0 with a = floor(f^(1/k) S)."""
    scale = scale_for(budget.target_width)
    target = f.numerator * scale**k
    a = iroot(target // f.denominator, k)
    return Enclosure.from_scaled(a, a if a**k * f.denominator == target else a + 1, scale)


def sqrt_enclosure(r: RationalLike, budget: PrecisionBudget = DEFAULT_BUDGET) -> Enclosure:
    """Enclosure of sqrt(r) with width <= budget.target_width."""
    f = Fraction(r)
    if f < 0:
        raise ValueError("sqrt of a negative value")
    return _root(f, 2, budget)


def root_enclosure(r: RationalLike, k: int, budget: PrecisionBudget = DEFAULT_BUDGET) -> Enclosure:
    """Enclosure of r ** (1/k) with width <= budget.target_width."""
    f = Fraction(r)
    if f < 0:
        raise ValueError("root of a negative value")
    if k < 1:
        raise ValueError("root order must be >= 1")
    return _root(f, k, budget)


def pow_enclosure(
    r: RationalLike, num: int, den: int, budget: PrecisionBudget = DEFAULT_BUDGET
) -> Enclosure:
    """Enclosure of r ** (num/den) for r >= 0, num >= 0, den >= 1.

    Exact integer power first, then one k-th root at budget scale.
    """
    f = Fraction(r)
    if num < 0:
        raise ValueError("negative exponents not supported")
    return root_enclosure(f**num, den, budget)
