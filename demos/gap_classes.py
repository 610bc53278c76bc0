#!/usr/bin/env python3
"""Where the series mass lives: the gap-class decomposition.

The jump gap(n) = floor(x/n) - floor(x/(n+1)) is zero except at the
last index of each constancy block of floor(x/n), so the series splits
into a dense gap-0 class plus sparse classes, one per jump height.
This script lays the classes of a small x on the table and then lets
the one-pass evaluator reassemble a large x.
"""
from fractions import Fraction

from qtv.asymptotics import decompose
from qtv.oracle import gap, gap_class, q_eval, q_values_by_gap

x = Fraction(30)
print("gap values at x = 30:")
print("  n:   " + " ".join("%2d" % n for n in range(1, 31)))
print("  gap: " + " ".join("%2d" % gap(x, n) for n in range(1, 31)))
print()

table = q_values_by_gap(x)
print("exact class totals (d >= 1):")
for d, value in table.items():
    members = list(gap_class(x, d).members())
    print("  d=%2d  members %-24s Q_d = %s" % (d, members, value))
print()

whole = q_eval(x)
finite = sum(table.values())
print("sum of finite classes: %.12f" % float(finite))
print("Q(30) in [%.12f, %.12f]" % (whole.value.lo, whole.value.hi))
print("gap-0 class gets the rest: %.12f" % float(whole.value.lo - finite))
print()

# one block pass reassembles a big x without touching every index
x = Fraction(10**8)
rep = decompose(x, d_cut=50)
print("x = 1e8, cut at d = 50:")
print("  block operations: %d  (compare sqrt(x) = 1e4)" % rep.op_count)
print("  gap-0 class:  [%.6f, %.6f]" % (rep.base.lo, rep.base.hi))
kept = rep.classes[0]
for enc in rep.classes[1:]:
    kept = kept + enc
print("  classes 1..50: [%.6f, %.6f]" % (kept.lo, kept.hi))
print("  rest d > 50:   [%.6f, %.6f]" % (rep.rest.lo, rep.rest.hi))
print("  total: [%.6f, %.6f]" % (rep.value.lo, rep.value.hi))
