"""The direct evaluator and the gap-class bookkeeping.

Frozen references: the full series at x = 1 sums to pi^2/3 - 3 =
0.289868133696452872944830333292... (partial fractions), the first
heads at x = 1 are 1/4 + 1/36 = 5/18, then 41/144, then 517/1800, and
the gap sequence at x = 10 is 5, 2, 1, 0, 1, 0, 0, 0, 0, 1 for
n = 1..10 (read off floor(10/n) by hand).
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qtv.interval import BudgetError, Enclosure, PrecisionBudget, scale_for
from qtv.oracle import (QValue, _head_scaled, frac_part, gap, gap_class,
                        q0_direct, q_d_direct, q_eval, q_head,
                        q_values_by_gap, term)

REFERENCE_Q1 = Fraction("0.289868133696452872944830333292")


def test_frozen_heads_at_one():
    assert q_head(Fraction(1), 2) == Fraction(5, 18)
    assert q_head(Fraction(1), 3) == Fraction(41, 144)
    assert q_head(Fraction(1), 4) == Fraction(517, 1800)


def test_head_matches_term_by_term():
    for x in (Fraction(1), Fraction(7, 2), Fraction(10), Fraction(37, 3)):
        direct = sum(term(x, n) for n in range(1, 30))
        assert q_head(x, 29) == direct
    # counts below, at and above floor(x): the block walk stops inside a
    # block, on a block end, at the last block, or runs on past floor(x)
    for x in (Fraction(1000), Fraction(12345, 7)):
        top = x.numerator // x.denominator
        counts = {top // 2 - 100, top // 2, top - 1, top, top + 1, top + 9}
        assert q_head(x, 0) == 0
        partial = Fraction(0)
        for n in range(1, max(counts) + 1):
            partial += term(x, n)
            if n in counts:
                assert q_head(x, n) == partial, (x, n)


def test_scaled_head_units_are_term_floors():
    budget = PrecisionBudget(Fraction(1, 10**9))
    for x in (Fraction(47), Fraction(12345, 7), Fraction(10001),
              Fraction(70001, 7)):
        count = x.numerator // x.denominator
        scale = scale_for(budget.target_width, units=count)
        units = sum(t.numerator * scale // t.denominator
                    for t in (term(x, n) for n in range(1, count + 1)))
        head = _head_scaled(x, count, budget)
        assert head == Enclosure(Fraction(units, scale),
                                 Fraction(units + count, scale))


def test_scaled_head_endpoints_are_pinned():
    # exact endpoints of q_eval(10001): any change in how the scaled head
    # rounds onto its grid moves them
    value = q_eval(Fraction(10001)).value
    assert value.lo == Fraction(
        "333265925080158005033885886010239211624572666460249/410895122150"
        "7077040397051890094502100000000000000")
    assert value.hi == Fraction(
        "33326592508056894124554880878515871766019476761527/4108951221507"
        "07704039705189009450210000000000000")


def test_out_of_reach_tail_is_refused_before_the_head(monkeypatch):
    # the 10^6-term head would take seconds; the tail's order cap refuses
    def no_head(*args):
        raise AssertionError("head summed on an out-of-reach budget")
    monkeypatch.setattr("qtv.oracle._head_scaled", no_head)
    with pytest.raises(BudgetError, match="order cap"):
        q_eval(Fraction(10**6), PrecisionBudget(Fraction(1, 10**3000)))


def test_gap_sequence_at_ten():
    x = Fraction(10)
    assert [gap(x, n) for n in range(1, 11)] == [5, 2, 1, 0, 1, 0, 0, 0, 0, 1]


@given(st.fractions(min_value=Fraction(1, 4), max_value=1000),
       st.integers(1, 200))
@settings(max_examples=80, deadline=None)
def test_term_is_gap_shifted_rational(x, n):
    # the summand is (gap - x/(n(n+1)))^2
    expected = (gap(x, n) - x / (n * (n + 1))) ** 2
    assert term(x, n) == expected


def test_q_eval_at_one_contains_reference():
    out = q_eval(Fraction(1), PrecisionBudget(Fraction(1, 10**12)))
    assert out.value.contains(REFERENCE_Q1)
    assert out.value.width <= Fraction(1, 10**12)


def test_q_eval_packaging_invariants():
    out = q_eval(Fraction(100))
    assert out.value.lo == out.head + out.tail.lo
    assert out.value.hi == out.head + out.tail.hi
    assert out.head_count == 100
    assert out.tail.lo >= 0


def test_qvalue_rejects_mismatched_parts():
    with pytest.raises(ValueError):
        QValue(Fraction(2), Enclosure(Fraction(1), Fraction(2)),
               Fraction(1), Enclosure(Fraction(1), Fraction(2)), 1)


def test_q_eval_head_brackets_the_exact_head():
    # the grid head is a floor sum: the exact head lies above it by at
    # most the slack the tail bracket carries
    for x in (Fraction(1), Fraction(47), Fraction(12345, 7), Fraction(9999)):
        exact = q_head(x, x.numerator // x.denominator)
        for width in (Fraction(1, 10**9), Fraction(1, 10**40)):
            qv = q_eval(x, PrecisionBudget(width))
            assert qv.head <= exact <= qv.head + qv.tail.width, (x, width)
            assert qv.value.width <= width, (x, width)


def test_frac_part():
    assert frac_part(Fraction(7, 2)) == Fraction(1, 2)
    assert frac_part(Fraction(3)) == 0


@given(st.fractions(min_value=2, max_value=300))
@settings(max_examples=30, deadline=None)
def test_classes_partition_small_indices(x):
    # every n <= floor(x) lands in exactly one finite class or class 0
    seen = {}
    top = gap(x, 1)
    for d in range(0, top + 1):
        cls = gap_class(x, d)
        for n in cls.members():
            assert n not in seen, (n, d, seen[n])
            seen[n] = d
    limit = x.numerator // x.denominator
    assert set(seen) == set(range(1, limit + 1))
    for n, d in seen.items():
        assert gap(x, n) == d


def test_class_zero_has_tail_start():
    cls = gap_class(Fraction(10), 0)
    assert cls.tail_start == 11
    assert 4 in cls.members() and 3 not in cls.members()


def test_by_gap_matches_per_class():
    for x in (Fraction(10), Fraction(37, 3), Fraction(150)):
        table = q_values_by_gap(x)
        for d, value in table.items():
            assert value == q_d_direct(x, d)
        assert all(d >= 1 for d in table)


def test_decomposition_reassembles():
    rng = random.Random(20260817)
    b = PrecisionBudget(Fraction(1, 10**10))
    for _ in range(12):
        numerator = rng.randrange(8, 1200)
        denominator = rng.choice([1, 1, 2, 3, 7])
        x = Fraction(numerator, denominator)
        whole = q_eval(x, b)
        zero = q0_direct(x, b)
        rest = sum(q_values_by_gap(x).values())
        recombined = zero.shift(rest)
        assert recombined.intersects(whole.value)


def test_q_d_direct_rejects_nonpositive_d():
    with pytest.raises(ValueError):
        q_d_direct(Fraction(10), 0)
