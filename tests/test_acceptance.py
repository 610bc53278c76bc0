"""Acceptance gate: the ten headline guarantees, one test each.

Each test prints a single pass/fail line through the capture bypass so
a -v run shows the verdicts inline.  Tolerances and time limits are the
contract values, not tuned-down stand-ins; reference constants were
frozen from independent computations (mpmath, integral sandwiches,
exact algebra) and are rechecked here where an oracle is cheap.
"""

import random
import time
from fractions import Fraction

import mpmath

from qtv.asymptotics import decompose, decomposed_eval, fast_estimate, \
    fit_exponent, geometric_grid, scan
from qtv.blocks import (RESIDUAL_CAPS, RESIDUAL_NAMES, qd_blocks,
                        residual_cases, residual_report)
from qtv.coefficients import (DEFAULT_COEFFS, coeff_sum_limit, gap_coeff,
                              gap_coeff_partial_sum, gap_coeff_sum,
                              limit_estimate, main_constant, zeta_3_2)
from qtv.interval import Enclosure, PrecisionBudget, sqrt_enclosure
from qtv.oracle import gap, q0_direct, q_d_direct, q_eval, q_values_by_gap
from qtv.rational import isqrt

ZETA_3_2 = Fraction("2.612375348685488")
MAIN_CONST_6DP = Fraction("0.83154500")


def report(capsys, label, ok, detail):
    with capsys.disabled():
        print(f"{label} {'pass' if ok else 'FAIL'}: {detail}")
    assert ok, f"{label}: {detail}"


def mp_fraction(value, digits=30):
    return Fraction(mpmath.nstr(value, digits))


def test_a1_point_value_at_one(capsys):
    mpmath.mp.dps = 40
    target = mp_fraction(mpmath.pi**2 / 3 - 3)
    started = time.perf_counter()
    out = q_eval(Fraction(1), PrecisionBudget(Fraction(1, 10**10)))
    dt = time.perf_counter() - started
    ok = (out.value.contains(target)
          and out.value.width <= Fraction(1, 10**10) and dt < 1.0)
    report(capsys, "A1", ok,
           f"Q(1) encloses pi^2/3 - 3 at width 1e-10 in {dt:.3f}s")


def test_a2_class_reassembly_on_random_rationals(capsys):
    budget = PrecisionBudget(Fraction(1, 10**10))
    rng = random.Random(20260817)
    started = time.perf_counter()
    worst = Fraction(0)
    for index in range(50):
        den = rng.choice([1, 2, 3, 4, 5, 6, 7])
        x = Fraction(rng.randrange(2 * den, 500 * den), den)
        whole = q_eval(x, budget)
        table = q_values_by_gap(x)
        per_class = sum((q_d_direct(x, d) for d in table), Fraction(0))
        assert per_class == sum(table.values(), Fraction(0)), x
        reassembled = q0_direct(x, budget).shift(per_class)
        assert reassembled.intersects(whole.value), x
        assert whole.value.width <= Fraction(1, 10**10), x
        assert reassembled.width <= Fraction(1, 10**10), x
        worst = max(worst, whole.value.width, reassembled.width)
        if index % 10 == 0:
            assert q_eval(x, budget).head == whole.head, x
    dt = time.perf_counter() - started
    ok = dt < 30.0
    report(capsys, "A2", ok,
           f"50 random x in [2, 500]: reassembly intersects, exact parts "
           f"bit-identical, worst width {float(worst):.2e}, {dt:.1f}s")


def test_a3_closed_form_matches_every_class(capsys):
    budget = PrecisionBudget(Fraction(1, 10**9))
    points = (Fraction(997), Fraction(10**4), Fraction(10**4) + Fraction(1, 3))
    started = time.perf_counter()
    checked = 0
    for x in points:
        for d in range(1, 21):
            rep = qd_blocks(x, d, budget)
            assert rep.matches, (x, d)
            assert rep.value.width <= Fraction(1, 10**9), (x, d)
            checked += 1
    dt = time.perf_counter() - started
    ok = checked == 60 and dt < 60.0
    report(capsys, "A3", ok,
           f"closed form brackets the exact class total for d = 1..20 at "
           f"{len(points)} points ({checked} cases) in {dt:.1f}s")


def test_a4_discard_bound_is_never_violated(capsys):
    violations = 0
    cases = 0
    for x in (Fraction(10**3), Fraction(10**4)):
        table = q_values_by_gap(x)
        top = gap(x, 1)
        suffix = Fraction(0)
        suffix_sq = Fraction(0)
        # exact comparison: suffix < sqrt(x/(D-1)) iff suffix^2 < x/(D-1)
        for cut in range(top, 1, -1):
            if cut + 1 in table:
                suffix += table[cut + 1]
                suffix_sq = suffix * suffix
            cases += 1
            if suffix_sq >= x / (cut - 1):
                violations += 1
    ok = violations == 0
    report(capsys, "A4", ok,
           f"exact discarded mass under sqrt(x/(D-1)) for every cut at "
           f"x = 1e3, 1e4 ({cases} cuts, {violations} violations)")


def test_a5_residual_envelopes_hold_with_bounded_drift(capsys):
    tight = PrecisionBudget(Fraction(1, 10**12))
    panels = (Fraction(10**4), Fraction(10**6))
    worst_name, worst_ratio = "", Fraction(0)
    worst_drift = 1.0
    for name in RESIDUAL_NAMES:
        cap = RESIDUAL_CAPS[name]
        maxima = []
        for panel_index, x in enumerate(panels):
            top = Fraction(0)
            cases = residual_cases(name, x, range(51),
                                   Fraction(10**(panel_index + 1)))
            for d, k, arg in cases:
                ratio = residual_report(name, arg, d, k, tight).ratio_hi
                top = max(top, ratio)
                assert ratio <= cap, (name, arg, d, ratio)
            maxima.append(top)
            if top / cap > worst_ratio / RESIDUAL_CAPS.get(worst_name, cap):
                worst_name, worst_ratio = name, top
        # growth test: the envelope constant must not grow with the scale;
        # shrinking (a more conservative bound at large x) is fine
        growth = float(maxima[1] / maxima[0])
        assert growth <= 1.5, (name, maxima)
        worst_drift = max(worst_drift, growth)
    ok = True
    report(capsys, "A5", ok,
           f"all ten residual ratios within caps on both panels (worst "
           f"{worst_name} at {float(worst_ratio):.2f} of cap "
           f"{float(RESIDUAL_CAPS[worst_name]):.2f}), growth <= "
           f"{worst_drift:.2f}")


def test_a6_error_exponent_stays_under_three_sevenths(capsys):
    grid = geometric_grid(100, 10**7, Fraction("2.15443469"))
    started = time.perf_counter()
    result = scan([Fraction(g) for g in grid],
                  PrecisionBudget(Fraction(1, 10**8)), workers=4)
    dt = time.perf_counter() - started
    assert not result.capped and result.failures == ()
    assert len(result.records) == len(grid)
    fit = fit_exponent(list(result.records))
    max_full = max(r.bound_ratio.hi for r in result.records)
    truncated = [r for r in result.records if r.x <= 10**6]
    max_trunc = max(r.bound_ratio.hi for r in truncated)
    drift = float(max_full / max_trunc)
    ok = (fit.slope <= 3 / 7 + 0.05 and drift <= 1.5 and dt < 600
          and fit.n_skipped == 0)
    report(capsys, "A6", ok,
           f"{len(grid)}-point oracle grid 1e2..1e7: slope {fit.slope:.3f} "
           f"<= {3 / 7 + 0.05:.3f}, running-max ratio drift {drift:.2f} "
           f"over the top decade, {dt:.1f}s")


def test_a7_constants_match_independent_oracles(capsys):
    budget = PrecisionBudget(Fraction(1, 10**9))
    zeta = zeta_3_2(budget)
    assert zeta.width <= Fraction(1, 10**9)
    assert zeta.contains(ZETA_3_2)

    # independent: 10^6 exact terms plus integral bounds on the tail
    n_cut = 10**6
    grid = 10**30
    acc = 0
    for n in range(1, n_cut + 1):
        acc += isqrt(n * grid * grid) // (n * n)
    head = Enclosure(Fraction(acc, grid), Fraction(acc + n_cut, grid))
    root_lo = Fraction(isqrt(n_cut * grid * grid), grid)
    root_hi_next = Fraction(isqrt((n_cut + 1) * grid * grid) + 1, grid)
    sandwich = head + Enclosure(2 / root_hi_next, 2 / root_lo)
    fine = zeta_3_2(PrecisionBudget(Fraction(1, 10**12)))
    assert sandwich.contains(fine.midpoint)

    const = main_constant(PrecisionBudget(Fraction(1, 10**6)))
    assert const.width <= Fraction(1, 10**6)
    assert abs(const.midpoint - MAIN_CONST_6DP) <= Fraction(1, 10**6)

    tight = PrecisionBudget(Fraction(1, 10**11))
    cross = (limit_estimate(10**6, tight) - coeff_sum_limit(tight)).abs().hi
    ok = cross <= Fraction(1, 10**4)
    report(capsys, "A7", ok,
           f"zeta(3/2) inside the 1e6-term sandwich; constant matches "
           f"0.831545 to 1e-6; extrapolation gap {float(cross):.2e} <= 1e-4")


def test_a8_partial_sums_telescope_and_decay(capsys):
    worst = Fraction(0)
    for limit in (1, 10, 100, 1000):
        rep = gap_coeff_partial_sum(limit, PrecisionBudget(Fraction(1, 10**16)))
        assert rep.identity_holds, limit
        combined = rep.direct_sum.width + rep.closed_form.width
        assert combined <= Fraction(1, 10**15), limit
        worst = max(worst, combined)

    budget = PrecisionBudget(Fraction(1, 10**12))
    lim = coeff_sum_limit(budget)
    for limit in (10**2, 10**3, 10**4):
        gap_enc = gap_coeff_sum(limit, budget) - lim
        scaled = gap_enc.abs() * sqrt_enclosure(Fraction(limit), budget)
        assert Fraction(1, 12) <= scaled.lo and scaled.hi <= Fraction(1, 3), limit
    ok = True
    report(capsys, "A8", ok,
           f"telescoped partial sums match term-by-term to width "
           f"{float(worst):.1e} and the limit gap decays at 1/(6 sqrt(D))")


def test_a9_decomposed_route_is_fast_and_scales(capsys):
    x_big = Fraction(10**9)
    budget = PrecisionBudget(Fraction(1, 10**9))
    started = time.perf_counter()
    value = decomposed_eval(x_big, budget).value
    dt_big = time.perf_counter() - started
    assert dt_big < 5.0
    assert value.width <= budget.target_width
    # Q(1e9) is known to the budget, so the fitted allowance of the fast
    # estimate is checked against it at the default cut and at 50.
    for d_cut in (None, 50):
        est = fast_estimate(x_big, d_cut=d_cut, budget=budget)
        mid = est.value.midpoint
        assert max(mid - value.lo, value.hi - mid) <= est.allowance, d_cut

    ops = [decompose(Fraction(10**k), 50, budget).op_count for k in (7, 8, 9)]
    assert ops[1] <= 4 * ops[0] and ops[2] <= 4 * ops[1]

    started = time.perf_counter()
    oracle = q_eval(Fraction(10**7), budget).value
    dt_oracle = time.perf_counter() - started
    assert decomposed_eval(Fraction(10**7), budget).value.intersects(oracle)
    ok = dt_oracle < 60.0
    report(capsys, "A9", ok,
           f"decomposed x = 1e9 in {dt_big:.2f}s (width within the budget, "
           f"fast estimate within its allowance), op growth "
           f"{ops[2] / ops[1]:.2f}x per decade, oracle x = 1e7 in "
           f"{dt_oracle:.1f}s (meets the decomposed route)")


def test_a10_single_corruptions_are_always_caught(capsys):
    per = PrecisionBudget(Fraction(1, 10**12))
    honest = gap_coeff_sum(10, per)
    caught = 0
    tried = 0
    for index in range(len(DEFAULT_COEFFS)):
        for delta in (1, -1):
            bad = list(DEFAULT_COEFFS)
            bad[index] += delta
            total = Enclosure.point(Fraction(0))
            for d in range(1, 11):
                total = total + gap_coeff(d, per, tuple(bad))
            tried += 1
            if not total.intersects(honest):
                caught += 1
    assert caught == tried

    shifts_caught = 0
    for d in (3, 5):
        exact = q_d_direct(Fraction(997), d)
        for shift in (-1, 1):
            rep = qd_blocks(Fraction(997), d, per, compare_direct=False,
                            _middle_shift=shift)
            if not rep.value.contains(exact):
                shifts_caught += 1
    ok = shifts_caught == 4
    report(capsys, "A10", ok,
           f"every single-coefficient flip breaks the partial-sum identity "
           f"({caught}/{tried}) and every one-index range shift breaks the "
           f"closed form ({shifts_caught}/4)")
