#!/usr/bin/env python3
# Certified point values of Q(x): what an enclosure buys you.
from fractions import Fraction

from qtv.interval import PrecisionBudget
from qtv.oracle import q_eval, q_head, term

x = Fraction(1)
out = q_eval(x, PrecisionBudget(Fraction(1, 10**12)))
print("Q(1) in [%s, %s]" % (float(out.value.lo), float(out.value.hi)))
print("head (grid floor sum, %d terms): %s" % (out.head_count, out.head))
print("tail bracket width: %.3e" % float(out.tail.width))
print()

# pi^2/3 - 3 = 0.2898681336964528...  the enclosure must straddle it
print("first terms of the series at x = 1:")
for n in range(1, 6):
    t = term(x, n)
    print("  n=%d  (%s)  = %.10f" % (n, t, float(t)))
print()

# budgets nest: a loose answer always contains a tight one
wide = q_eval(Fraction(997), PrecisionBudget(Fraction(1, 10**4))).value
tight = q_eval(Fraction(997), PrecisionBudget(Fraction(1, 10**14))).value
print("Q(997) at width 1e-4:  [%.6f, %.6f]" % (wide.lo, wide.hi))
print("Q(997) at width 1e-14: [%.14f, %.14f]" % (tight.lo, tight.hi))
assert wide.encloses(tight)
print("loose encloses tight: ok")
print()

# rational x works the same way; nothing here is floating point
x = Fraction(10**4) + Fraction(1, 3)
out = q_eval(x)
print("Q(10000 + 1/3) in [%.12f, %.12f]" % (out.value.lo, out.value.hi))
# the head is a floor sum on a power-of-ten grid, so its denominator
# stays short; the exact head's is too wide to print in full (it would
# trip the interpreter's int-to-string limit), so report its size instead
exact = q_head(x, out.head_count)
digits = exact.denominator.bit_length() * 30103 // 100000 + 1
print("head denominator %d; the exact head's has about %d digits"
      % (out.head.denominator, digits))
assert out.head <= exact <= out.head + out.tail.width
print("grid head within the tail bracket of the exact head: ok")
