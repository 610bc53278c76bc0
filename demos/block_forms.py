#!/usr/bin/env python3
# Closed forms for single classes, and the envelopes behind them.
from fractions import Fraction

from qtv.blocks import (cut_point, q0_blocks, qd_blocks, residual_report)
from qtv.interval import PrecisionBudget
from qtv.oracle import q0_direct

budget = PrecisionBudget(Fraction(1, 10**10))
x = Fraction(99991)  # prime, so no block boundary coincidences

# class d lives between cut points K_{d-1} and K_{d+1}; the closed form
# visits the quotients between them, about sqrt(x/d) of them near sqrt(dx)
print("cut points at x = 99991:")
for d in range(0, 6):
    k = cut_point(x, d)
    print("  K_%d = %6d   (sqrt(dx) + d/2 = %10.2f)"
          % (d, k, (d * float(x)) ** 0.5 + d / 2))
print()

print("closed form vs exact class total:")
for d in (1, 2, 7, 19):
    rep = qd_blocks(x, d, budget)
    status = "contains exact" if rep.matches else "MISMATCH"
    print("  d=%2d  [%.12f, %.12f]  %s"
          % (d, rep.value.lo, rep.value.hi, status))
print()

# the zero-gap class has its own O(sqrt x) formula; check it against
# the subtraction route at a size where the slow route is still bearable
small = Fraction(2026)
fast = q0_blocks(small, budget)
slow = q0_direct(small, budget)
print("Q_0(2026) formula:     [%.12f, %.12f]" % (fast.lo, fast.hi))
print("Q_0(2026) subtraction: [%.12f, %.12f]" % (slow.lo, slow.hi))
assert fast.intersects(slow)
print("routes agree")
print()

# every closed form above leans on an asymptotic main term with an
# error envelope; the report normalizes the residual by the envelope,
# and bounded ratios are what make the envelopes believable
print("residual / envelope ratios at x = 99991:")
for name in ("cut_point", "window_sum_center", "q0_mean"):
    worst = 0.0
    for d in (1, 5, 20, 50):
        rep = residual_report(name, x, d=d if name != "q0_mean" else None,
                              budget=PrecisionBudget(Fraction(1, 10**12)))
        worst = max(worst, float(rep.ratio_hi))
        if name == "q0_mean":
            break
    print("  %-20s worst ratio %.4f" % (name, worst))
