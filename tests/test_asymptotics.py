"""Decomposition evaluator, fast estimator, and the scan/fit pipeline."""

from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

from qtv.asymptotics import (EVALUATORS, DecompositionReport, FastEstimate,
                             FitError, ScanRecord, ScanResult, decompose,
                             decomposed_eval, default_fast_cut, error_term,
                             fast_estimate, fit_exponent, geometric_grid,
                             scan)
from qtv.blocks import q0_block_cut, q0_blocks
from qtv.interval import BudgetError, Enclosure, PrecisionBudget, ScaledSum
from qtv.oracle import (QValue, _blocks, gap, q0_direct, q_d_direct, q_eval,
                        q_values_by_gap)

BUDGET = PrecisionBudget(Fraction(1, 10**9))


def test_decomposed_eval_refuses_a_long_walk_before_pi(monkeypatch):
    def no_pi(budget):
        raise AssertionError("pi series started")
    monkeypatch.setattr("qtv.asymptotics.pi_enclosure", no_pi)
    with pytest.raises(BudgetError, match="loop cap"):
        decomposed_eval(Fraction(10**30))


def _no_loop(*args, **kwargs):
    raise AssertionError("loop started on an out-of-reach budget")


def test_decompose_refuses_the_zero_gap_tail_before_the_block_pass(monkeypatch):
    for name in ("ScaledSum", "end_squares"):  # the pass's grid and its walk
        monkeypatch.setattr(f"qtv.asymptotics.{name}", _no_loop)
    with pytest.raises(BudgetError, match="order cap"):
        decompose(Fraction(10**11), 5, PrecisionBudget(Fraction(1, 10**3000)))


def test_error_term_refuses_the_constant_before_the_value(monkeypatch):
    monkeypatch.setattr("qtv.asymptotics.q_eval", _no_loop)
    with pytest.raises(BudgetError, match="order cap"):
        error_term(Fraction(10**6), PrecisionBudget(Fraction(1, 10**1800)))


def test_decomposition_reassembles_the_series():
    for x in (Fraction(997), Fraction(2500), Fraction(10**4) + Fraction(1, 3)):
        rep = decompose(x, d_cut=50, budget=BUDGET)
        assert rep.value.intersects(q_eval(x, BUDGET).value)
        assert rep.value == rep.class_total + rep.rest
        for i, enc in enumerate(rep.classes):
            assert enc.contains(q_d_direct(x, i + 1))


@given(st.integers(1, 10**7), st.integers(1, 50), st.integers(0, 60))
@settings(max_examples=60, deadline=None)
def test_decompose_matches_the_reference_walk(p, q, d_cut):
    # the same bins rebuilt from oracle._blocks on the same grid
    x = Fraction(p, q)
    rep = decompose(x, d_cut, BUDGET)
    part = BUDGET.split(2)
    bins = [ScaledSum(part.target_width, 2 * isqrt(p // q) + 4)
            for _ in range(d_cut + 1)]
    units = [0] * (d_cut + 1)
    counts = [0] * (d_cut + 1)
    for _, _, g, (num, den) in _blocks(x):
        slot = g if g <= d_cut else 0
        units[slot] += num * bins[0].scale // den
        counts[slot] += 1
    for acc, total, count in zip(bins, units, counts):
        acc.add_floors(total, count)
    rest, *classes = (acc.enclosure() for acc in bins)
    assert rep.rest == rest
    assert rep.classes == tuple(classes)
    assert rep.base == q0_blocks(x, part)
    assert rep.op_count == sum(counts) + q0_block_cut(x)
    assert rep.value == sum(classes, rep.base + rest)


def test_base_class_matches_reference_subtraction():
    x = Fraction(997)
    rep = decompose(x, d_cut=50, budget=BUDGET)
    assert rep.base.intersects(q0_direct(x, BUDGET))


def test_generous_cut_discards_nothing():
    x = Fraction(300)
    cut = gap(x, 1) + 1
    rep = decompose(x, d_cut=cut, budget=BUDGET)
    assert rep.rest.lo == rep.rest.hi == 0
    assert rep.value.width <= BUDGET.target_width


def test_tight_cut_keeps_the_rest_tight():
    x = Fraction(10**4)
    truth = q_eval(x, BUDGET).value
    table = q_values_by_gap(x)
    top = max(table)
    reports = [decompose(x, d_cut=cut, budget=BUDGET)
               for cut in (0, 1, 2, 5, top - 1, top)]
    for rep in reports:
        assert rep.value == reports[0].value
        assert rep.value.width <= BUDGET.target_width
        assert rep.value.intersects(truth)
        assert rep.rest.contains(sum(v for d, v in table.items() if d > rep.d_cut))
    assert reports[-1].rest == Enclosure.point(Fraction(0))


def test_decompose_validates_arguments():
    with pytest.raises(ValueError):
        decompose(Fraction(0))
    with pytest.raises(ValueError):
        decompose(Fraction(100), d_cut=-1)
    with pytest.raises(ValueError):
        DecompositionReport(Fraction(4), 3, Enclosure.point(Fraction(0)),
                            (Enclosure.point(Fraction(0)),),
                            Enclosure.point(Fraction(0)),
                            Enclosure.point(Fraction(0)), 1)


def test_decomposed_eval_packaging():
    out = decomposed_eval(Fraction(997), budget=BUDGET)
    assert isinstance(out, QValue)
    assert out.head == 0
    assert out.head_count == 0
    assert out.value == out.tail
    assert out.value.intersects(q_eval(Fraction(997), BUDGET).value)


@pytest.mark.parametrize("width", [Fraction(1, 10**9), Fraction(1, 10**12)],
                         ids=["1e-9", "1e-12"])
@pytest.mark.parametrize("x", [Fraction(10**5), Fraction(10**6),
                               Fraction(12345678, 7)], ids=str)
def test_decomposed_eval_meets_its_budget(x, width):
    budget = PrecisionBudget(width)
    value = decomposed_eval(x, budget).value
    assert value.width <= width
    assert value.intersects(q_eval(x, budget).value)


@given(st.integers(1, 3 * 10**4), st.integers(1, 9), st.integers(3, 30))
@settings(max_examples=40, deadline=None)
def test_decomposed_eval_meets_random_budgets(p, q, digits):
    x, budget = Fraction(p, q), PrecisionBudget(Fraction(1, 10**digits))
    value = decomposed_eval(x, budget).value
    assert value.width <= budget.target_width
    assert value.intersects(q_eval(x, budget).value)


@pytest.mark.parametrize("x", [Fraction(10**8), Fraction(10**9 + 7),
                               Fraction(31415926535, 7)], ids=str)
def test_decomposed_eval_meets_decompose(x):
    assert decomposed_eval(x, BUDGET).value.intersects(
        decompose(x, 0, BUDGET).value)


def test_decomposed_eval_reaches_past_the_em_order_cap():
    # g2_tail(1) alone stops near 1e-470; pi by Machin's series has no cap
    x, budget = Fraction(10**8), PrecisionBudget(Fraction(1, 10**600))
    value = decomposed_eval(x, budget).value
    assert value.width <= budget.target_width
    assert value.intersects(decompose(x, 0, budget).value)


def test_out_of_reach_decomposed_budget_is_refused_before_the_walk():
    # the walk over the 2e12 block ends of 1e24 would not return
    with pytest.raises(BudgetError):
        decomposed_eval(Fraction(10**24),
                        PrecisionBudget(Fraction(1, 10**100001)))


def test_block_pass_scales_like_sqrt():
    small = decompose(Fraction(10**4), budget=BUDGET).op_count
    large = decompose(Fraction(10**5), budget=BUDGET).op_count
    assert large <= 4 * small


def test_default_fast_cut_rounds_to_nearest():
    assert default_fast_cut(Fraction(1)) == 1
    assert default_fast_cut(Fraction(127)) == 2   # 127^(1/7) = 1.9989
    assert default_fast_cut(Fraction(128)) == 2
    assert default_fast_cut(Fraction(10**9)) == 19
    assert default_fast_cut(Fraction(1, 2)) == 1


def test_fast_estimate_is_labeled_heuristic():
    est = fast_estimate(Fraction(10**6), d_cut=10, budget=BUDGET)
    assert isinstance(est, FastEstimate)
    assert est.rigorous is False
    assert est.d_cut == 10
    assert est.allowance > 0
    assert est.value.width <= BUDGET.target_width


def test_fast_estimate_allowance_covers_dev_panel_point():
    # regression for the fitted constants, not a certificate
    truth = q_eval(Fraction(10**6), BUDGET).value.midpoint
    est = fast_estimate(Fraction(10**6), d_cut=10, budget=BUDGET)
    assert abs(est.value.midpoint - truth) <= est.allowance


def test_fast_estimate_edge_arguments():
    est = fast_estimate(Fraction(1), budget=BUDGET)
    assert est.d_cut == 1
    assert est.value.width <= BUDGET.target_width
    with pytest.raises(ValueError):
        fast_estimate(Fraction(10), d_cut=0)
    with pytest.raises(ValueError):
        fast_estimate(Fraction(-3))


def test_error_term_record_consistency():
    rec = error_term(Fraction(4), BUDGET)
    assert rec.evaluator == "oracle"
    assert rec.error == rec.value - rec.main
    assert 0 <= rec.bound_ratio.lo <= rec.bound_ratio.hi
    assert rec.seconds >= 0


def test_error_term_validates_arguments():
    with pytest.raises(ValueError):
        error_term(Fraction(3, 2), BUDGET)
    with pytest.raises(ValueError):
        error_term(Fraction(10), BUDGET, evaluator="guess")
    with pytest.raises(ValueError):
        ScanRecord(Fraction(4), Enclosure.point(Fraction(2)),
                   Enclosure.point(Fraction(1)),
                   Enclosure.point(Fraction(7)),
                   Enclosure.point(Fraction(0)), "oracle")


def test_scan_is_a_pure_function_of_the_grid():
    grid = [Fraction(10), Fraction(100), Fraction(10)]
    first = scan(grid, BUDGET)
    second = scan(grid, BUDGET)
    assert first.records == second.records
    assert first.records[0] == first.records[2]
    assert not first.capped
    assert first.failures == ()


def test_scan_records_failures_and_continues():
    grid = [Fraction(10), Fraction(1), Fraction(100)]
    out = scan(grid, BUDGET)
    assert [r.x for r in out.records] == [10, 100]
    assert len(out.failures) == 1
    index, point, message = out.failures[0]
    assert (index, point) == (1, 1)
    assert message.startswith("ValueError")


def test_scan_parallel_matches_sequential():
    # failures cross the pool whole too, BudgetError included, also when
    # the width's denominator is too long for int-to-str (4300 digits)
    cases = [
        ([Fraction(100), Fraction(1), Fraction(1000), Fraction(10**4)], BUDGET),
        ([Fraction(5), Fraction(100)], PrecisionBudget(Fraction(1, 10**2000))),
        ([Fraction(5), Fraction(100)], PrecisionBudget(Fraction(1, 10**5000))),
    ]
    for grid, budget in cases:
        seq = scan(grid, budget, evaluator="decomposed")
        par = scan(grid, budget, evaluator="decomposed", workers=2)
        assert seq.failures
        assert (par.records, par.failures, par.capped) == \
               (seq.records, seq.failures, seq.capped)


def test_scan_time_cap_truncates():
    grid = [Fraction(d) for d in (10, 20, 30, 40, 50)]
    out = scan(grid, BUDGET, time_cap=0.0)
    assert out.capped
    assert len(out.records) < len(grid)
    with pytest.raises(ValueError):
        scan(grid, BUDGET, workers=0)


def test_pool_scan_time_cap_stops_after_the_crossing_point(monkeypatch):
    # like the serial loop, the pool keeps the point that crosses the cap,
    # and it holds at most `workers` points in flight, none past the cap
    submitted = []
    submit = ProcessPoolExecutor.submit

    def counting(self, fn, *args, **kwargs):
        submitted.append(args)
        return submit(self, fn, *args, **kwargs)

    monkeypatch.setattr(ProcessPoolExecutor, "submit", counting)
    grid = [Fraction(d) for d in (10, 20, 30, 40, 50, 60)]
    serial = scan(grid, BUDGET, time_cap=0.0)
    pooled = scan(grid, BUDGET, workers=2, time_cap=0.0)
    assert pooled.capped
    assert len(pooled.records) == 1
    assert pooled.records == serial.records
    assert len(submitted) <= 2


def synthetic_record(x, err):
    point = Enclosure.point(Fraction(err))
    return ScanRecord(Fraction(x), point, Enclosure.point(Fraction(0)),
                      point, Enclosure.point(Fraction(1)), "oracle")


def test_fit_recovers_exact_power_law():
    # err = x^(1/4) on x = r^4 grids, no noise
    records = [synthetic_record(r**4, r) for r in range(2, 9)]
    rep = fit_exponent(records)
    assert abs(rep.slope - 0.25) <= 1e-9
    assert rep.stderr <= 1e-9
    assert rep.n_points == 7
    assert rep.n_skipped == 0


def test_fit_recovers_flat_error():
    records = [synthetic_record(10**k, 5) for k in range(1, 6)]
    rep = fit_exponent(records)
    assert abs(rep.slope) <= 1e-9


def test_fit_skips_sign_straddlers_but_keeps_their_bounds():
    wide = Enclosure(Fraction(-1), Fraction(1))
    records = [synthetic_record(r**4, r) for r in range(2, 6)]
    straddler = ScanRecord(Fraction(10**6), wide,
                           Enclosure.point(Fraction(0)), wide,
                           Enclosure(Fraction(0), Fraction(10**6)), "oracle")
    rep = fit_exponent(records + [straddler])
    assert rep.n_points == 4
    assert rep.n_skipped == 1
    assert rep.max_bound_ratio == 10**6


def test_fit_needs_three_usable_points():
    records = [synthetic_record(r**4, r) for r in range(2, 4)]
    with pytest.raises(FitError):
        fit_exponent(records)
    wide = Enclosure(Fraction(-1), Fraction(1))
    straddlers = [ScanRecord(Fraction(10**k), wide,
                             Enclosure.point(Fraction(0)), wide,
                             Enclosure.point(Fraction(0)), "oracle")
                  for k in range(1, 5)]
    with pytest.raises(FitError):
        fit_exponent(records + straddlers)


def test_geometric_grid_shape():
    assert geometric_grid(100, 10**6) == [100, 1000, 10**4, 10**5, 10**6]
    half_decade = geometric_grid(100, 10**4, Fraction("3.16227766017"))
    assert half_decade == [100, 316, 1000, 3162, 10**4]
    assert geometric_grid(10, 10, Fraction(2)) == [10]
    dense = geometric_grid(10, 12, Fraction(101, 100))
    assert dense[0] == 10 and dense[-1] <= 12
    assert all(a < b for a, b in zip(dense, dense[1:]))


def test_geometric_grid_validates_arguments():
    with pytest.raises(ValueError):
        geometric_grid(0, 10)
    with pytest.raises(ValueError):
        geometric_grid(10, 5)
    with pytest.raises(ValueError):
        geometric_grid(10, 100, Fraction(1))


def test_evaluator_names_are_stable():
    assert EVALUATORS == ("oracle", "decomposed", "fast")
    assert isinstance(scan([], BUDGET), ScanResult)
