"""Exact rational scalars and integer root helpers.

Rationals are plain fractions.Fraction throughout the package: exact,
normalized (gcd reduced, positive denominator), arbitrary precision.
This module adds the handful of exact integer operations the enclosure
layer is built from: integer square roots (math.isqrt), integer k-th
roots, and floors of roots of rationals, all decided by pure integer
comparisons, never by floating point.
"""

from __future__ import annotations

import math
from decimal import Decimal
from fractions import Fraction

RationalScalar = Fraction

# Exact floor of sqrt on nonnegative ints; raises ValueError on negatives.
isqrt = math.isqrt

# Largest |exponent| parse_rational accepts in a decimal literal.  The
# exact value holds 10^|exponent|, whose build grows faster than the
# digit count (about 3 s at 5e6 and 11 s at 1e7 on 2 vCPUs); 50 times
# interval.MAX_SCALE_DIGITS still lets every width the scale cap
# refuses reach that refusal.
MAX_EXPONENT = 5_000_000


def iroot(m: int, k: int) -> int:
    """Exact floor(m ** (1/k)) for m >= 0, k >= 1, by Newton on integers.

    Result r satisfies r**k <= m < (r+1)**k.
    """
    if k < 1:
        raise ValueError("root order must be >= 1")
    if m < 0:
        raise ValueError("iroot undefined for negative values")
    if m == 0:
        return 0
    if k == 1:
        return m
    if k == 2:
        return math.isqrt(m)
    # Seed above the true root, then Newton descends monotonically.
    r = 1 << ((m.bit_length() + k - 1) // k + 1)
    while True:
        nxt = ((k - 1) * r + m // r ** (k - 1)) // k
        if nxt >= r:
            break
        r = nxt
    # Newton can land one too high when m+1 is a perfect power.
    while r ** k > m:
        r -= 1
    return r


def floor_sqrt_rational(r: Fraction) -> int:
    """floor(sqrt(p/q)) exactly: sqrt(p/q) = sqrt(pq)/q and floor nests."""
    if r < 0:
        raise ValueError("square root of a negative rational")
    return isqrt(r.numerator * r.denominator) // r.denominator


def parse_rational(text: str) -> Fraction:
    """Parse 'p/q', a plain decimal string, or scientific notation, exactly.

    This is the only input path for x and tolerances: no float round trip.
    A decimal exponent beyond +-MAX_EXPONENT is refused with ValueError
    before any conversion.
    """
    s = text.strip()
    if not s:
        raise ValueError("empty rational literal")
    if "/" in s:
        num, _, den = s.partition("/")
        try:
            return Fraction(int(num.strip()), int(den.strip()))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad rational literal {text!r}") from exc
    try:
        value = Decimal(s)
    except ArithmeticError as exc:
        raise ValueError(f"bad rational literal {text!r}") from exc
    if not value.is_finite():
        raise ValueError(f"bad rational literal {text!r}")
    if abs(value.as_tuple().exponent) > MAX_EXPONENT:
        raise ValueError(f"decimal exponent of {text!r} is beyond "
                         f"+-{MAX_EXPONENT}")
    return Fraction(value)


def format_rational(value: Fraction, digits: int = 15, direction: str = "nearest") -> str:
    """Render a rational as a decimal string with explicit precision.

    direction 'down'/'up' round toward -inf/+inf so printed enclosure
    endpoints still bracket the true value; 'nearest' halves the slack.
    Exact terminating decimals print exactly (no spurious digits).
    """
    if digits < 1:
        raise ValueError("digits must be >= 1")
    sign = "-" if value < 0 else ""
    mag = -value if value < 0 else value
    scaled = mag * 10**digits
    floor_scaled = scaled.numerator // scaled.denominator
    exact = floor_scaled * scaled.denominator == scaled.numerator
    if direction == "nearest":
        units = (2 * scaled.numerator + scaled.denominator) // (2 * scaled.denominator)
    elif (direction == "up") != (sign == "-"):
        units = floor_scaled if exact else floor_scaled + 1
    else:
        units = floor_scaled
    whole, frac = divmod(units, 10**digits)
    text = f"{sign}{whole}.{frac:0{digits}d}"
    return text
