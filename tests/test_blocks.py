"""Cut points, power sums, and the closed forms built from them."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qtv.asymptotics import decompose
from qtv.blocks import (RESIDUAL_CAPS, RESIDUAL_NAMES, block_summand,
                        cut_point, end_moments, end_squares, q0_block_cut,
                        q0_blocks, qd_blocks, residual_report, sum_k3_range,
                        sum_k4_range, sum_k_range)
from qtv.coefficients import sqrt_sum, zeta_3_2
from qtv.interval import Enclosure, PrecisionBudget, scale_for
from qtv.oracle import _blocks, gap, q0_direct, q_d_direct


def brute_cut(x, d):
    k = 0
    while (k + 1) * (k + 1 - d) <= d * x:
        k += 1
    return k


@given(st.fractions(min_value=1, max_value=10**4), st.integers(0, 40))
@settings(max_examples=120, deadline=None)
def test_cut_point_matches_brute_force(x, d):
    if d > x:
        with pytest.raises(ValueError):
            cut_point(x, d)
        return
    assert cut_point(x, d) == brute_cut(x, d)


def test_cut_point_zero_class_is_zero():
    assert cut_point(Fraction(1000), 0) == 0


@given(st.fractions(min_value=Fraction(1, 2), max_value=10**6))
@settings(max_examples=80, deadline=None)
def test_zero_gap_cut_definition(x):
    k = q0_block_cut(x)
    assert k * (k + 1) <= x
    assert (k + 1) * (k + 2) > x


def _block_split_panel():
    xs = [Fraction(1, 3), Fraction(6, 7), Fraction(1), Fraction(3, 2)]
    for k in (1, 2, 3, 7, 30):
        xs += [Fraction(k * (k + 1)), k * (k + 1) - Fraction(1, 7)]
    xs += [Fraction(n) for n in range(2, 41)]
    xs += [Fraction(a, b) for b in range(2, 8) for a in range(b + 1, 12 * b, 5)]
    return xs


def test_zero_gap_cut_splits_the_blocks():
    # the facts the module docstring states and decompose's two phases use
    for x in _block_split_panel():
        p, q = x.numerator, x.denominator
        cut = q0_block_cut(x)
        n1 = p // (q * (cut + 1))
        blocks = {p // (q * start): (start, end, g)
                  for start, end, g, _ in _blocks(x)}
        for v in range(1, p // q + 2):
            assert (v <= cut) == (x / (v * (v + 1)) >= 1), (x, v)
        for v in range(1, cut + 1):
            start, end, g = blocks[v]
            assert (end, g) == (p // (q * v), 1), (x, v)
            assert start > n1
        assert len({p // (q * v) for v in range(1, cut + 1)}) == cut
        singles = sorted(end for v, (start, end, _) in blocks.items()
                         if v > cut and start == end)
        assert singles == list(range(1, n1 + 1)), x
        assert len(blocks) == n1 + cut, x


@given(st.integers(0, 500), st.integers(0, 500))
@settings(max_examples=60, deadline=None)
def test_power_sums_match_loops(a, b):
    assert sum_k_range(a, b) == sum(range(a + 1, b + 1))
    assert sum_k3_range(a, b) == sum(k**3 for k in range(a + 1, b + 1))
    assert sum_k4_range(a, b) == sum(k**4 for k in range(a + 1, b + 1))


def brute_end_squares(x, d, a, b, scale):
    total = 0
    for k in range(a + 1, b + 1):
        n = x.numerator // (x.denominator * k)
        term = scale * (d - x / (n * (n + 1))) ** 2
        total += term.numerator // term.denominator
    return total


@given(st.fractions(min_value=1, max_value=1000), st.integers(0, 40),
       st.integers(1, 10**30), st.data())
@settings(max_examples=100, deadline=None)
def test_end_squares_matches_exact_floors(x, d, scale, data):
    top = x.numerator // x.denominator
    a = data.draw(st.integers(0, top), label="a")
    b = data.draw(st.integers(0, top), label="b")  # b <= a half the time
    got = end_squares(x.numerator, x.denominator, d, a, b, scale)
    assert got == brute_end_squares(x, d, a, b, scale)


def test_end_squares_edges():
    p, q = 1000, 3
    # at k = 1, n = 333: 2 d q n(n+1) > p for every d >= 1, so the
    # expanded numerator spp - sdq t is negative there
    assert 2 * q * 333 * 334 > p
    for d in (1, 7, 40):
        expect = brute_end_squares(Fraction(p, q), d, 0, 333, 10**12)
        assert end_squares(p, q, d, 0, 333, 10**12) == expect
    assert end_squares(p, q, 5, 9, 9, 10) == end_squares(p, q, 5, 9, 2, 10) == 0
    with pytest.raises(ValueError):
        end_squares(p, q, 1, -1, 5, 10)


def check_end_moments(x, width):
    # every n <= floor(x) with a nonzero gap, one grid floor each
    gaps = [(n, gap(x, n)) for n in range(1, x.numerator // x.denominator + 1)]
    ends = [(n, g) for n, g in gaps if g]
    scale = scale_for(width, len(ends))
    units = 0
    for n, g in ends:
        term = scale * x * g / (n * (n + 1))
        units += term.numerator // term.denominator
    squares, grid = end_moments(x, width)
    assert squares == sum(g * g for _, g in gaps)
    assert grid == Enclosure.from_scaled(units, units + len(ends), scale)
    assert grid.contains(sum(x * g / Fraction(n * (n + 1)) for n, g in ends))
    assert grid.width <= width


@given(st.integers(1, 3 * 10**4), st.integers(1, 50), st.integers(0, 40))
@settings(max_examples=60, deadline=None)
def test_end_moments_matches_brute_force(p, q, digits):
    check_end_moments(Fraction(p, q), Fraction(1, 10**digits))


def test_end_moments_below_two():
    # x < 1 has no block end; 1 <= x < 2 has the one end n = 1 and K = 0
    for x in (Fraction(1, 3), Fraction(99, 100), Fraction(1), Fraction(3, 2),
              Fraction(199, 100)):
        check_end_moments(x, Fraction(1, 10**12))
    assert end_moments(Fraction(1, 3), Fraction(1, 10))[0] == 0
    assert end_moments(Fraction(3, 2), Fraction(1, 10))[0] == 1
    with pytest.raises(ValueError):
        end_moments(Fraction(0), Fraction(1, 10))


def test_block_summand_contains_true_value():
    b = PrecisionBudget(Fraction(1, 10**12))
    x = Fraction(997)
    for d in (1, 3, 7):
        k0 = cut_point(x, d)
        for k in (max(1, k0 - d + 1), k0):
            out = block_summand(x, d, k, b)
            # true summand: d^2 floor(x/k) + 2 d x / floor(x/k)
            #               - x^2 * tail, tail strictly positive
            fk = int(x / k)
            upper = Fraction(d * d) * fk + Fraction(2 * d) * x / fk
            assert out.hi <= upper
            assert out.lo >= upper - x * x * Fraction(2, int(x / k) ** 3)


def test_closed_form_brackets_exact_class_totals():
    b = PrecisionBudget(Fraction(1, 10**9))
    for x in (Fraction(997), Fraction(300), Fraction(10**4) + Fraction(1, 3)):
        for d in (1, 2, 5, 11):
            if 2 * (d + 1) > x:
                continue
            rep = qd_blocks(x, d, b)
            assert rep.direct is not None
            assert rep.matches
            assert rep.value.contains(q_d_direct(x, d))
            assert rep.value.width <= Fraction(1, 10**9)


def test_closed_form_middle_shift_breaks_containment():
    b = PrecisionBudget(Fraction(1, 10**9))
    x = Fraction(997)
    hits = 0
    for d in (2, 3, 5):
        exact = q_d_direct(x, d)
        for shift in (-1, 1):
            rep = qd_blocks(x, d, b, compare_direct=False,
                            _middle_shift=shift)
            if not rep.value.contains(exact):
                hits += 1
    assert hits >= 5  # a one-index corruption must be loudly visible


def test_zero_gap_formula_matches_subtraction():
    b = PrecisionBudget(Fraction(1, 10**10))
    rng = random.Random(1729)
    cases = [Fraction(2), Fraction(5, 2), Fraction(10), Fraction(997)]
    cases += [Fraction(rng.randrange(6, 1500), rng.choice([1, 2, 3]))
              for _ in range(12)]
    for x in cases:
        formula = q0_blocks(x, b)
        direct = q0_direct(x, b)
        assert formula.intersects(direct), x
        assert formula.width <= Fraction(1, 10**10)


def test_qd_blocks_validates_arguments():
    with pytest.raises(ValueError):
        qd_blocks(Fraction(10), 0, PrecisionBudget(Fraction(1, 100)))
    with pytest.raises(ValueError):
        qd_blocks(Fraction(10), 5, PrecisionBudget(Fraction(1, 100)))


def test_residual_reports_have_positive_envelopes():
    b = PrecisionBudget(Fraction(1, 10**12))
    x = Fraction(10**4)
    for name in RESIDUAL_NAMES:
        if name == "tail_series":
            rep = residual_report(name, Fraction(10), budget=b)
        elif name == "q0_mean":
            rep = residual_report(name, x, budget=b)
        elif name == "summand_main":
            rep = residual_report(name, x, d=3, k=cut_point(x, 3), budget=b)
        else:
            rep = residual_report(name, x, d=3, budget=b)
        assert rep.bound.lo > 0
        assert rep.ratio_hi >= 0
        assert rep.residual.lo <= (rep.actual - rep.main).midpoint <= rep.residual.hi


# Least class d of each gap residual; tail_series and q0_mean take no d.
LEAST_D = {"cut_point": 0, "cut_window_k1": 1, "cut_window_k3": 1,
           "between_cuts_k4": 0, "summand_main": 1, "window_sum_center": 1,
           "window_sum_upper": 1, "window_sum_lower": 1}


def test_residual_domains_refuse_classes_below_the_least():
    b = PrecisionBudget(Fraction(1, 10**9))
    x = Fraction(10**4)
    assert set(RESIDUAL_NAMES) - set(LEAST_D) == {"tail_series", "q0_mean"}
    for name, least in LEAST_D.items():
        for d in (None, least - 1):
            with pytest.raises(ValueError, match=f"needs d >= {least}$"):
                residual_report(name, x, d=d, budget=b)
    assert residual_report("tail_series", Fraction(10), d=None, budget=b).d is None
    assert residual_report("q0_mean", x, d=None, budget=b).d is None


def test_residual_gate_is_pinned():
    # the verify and A5 pass thresholds: a cap may not move unseen
    assert RESIDUAL_NAMES == (
        "cut_point", "cut_window_k1", "cut_window_k3", "between_cuts_k4",
        "tail_series", "summand_main", "window_sum_center",
        "window_sum_upper", "window_sum_lower", "q0_mean")
    assert RESIDUAL_CAPS == {
        "cut_point": Fraction(4),
        "cut_window_k1": Fraction(1),
        "cut_window_k3": Fraction(3),
        "between_cuts_k4": Fraction(5),
        "tail_series": Fraction(1, 4),
        "summand_main": Fraction(1),
        "window_sum_center": Fraction(1, 2),
        "window_sum_upper": Fraction(3),
        "window_sum_lower": Fraction(1, 2),
        "q0_mean": Fraction(1),
    }


def test_residual_report_rejects_unknown_name():
    with pytest.raises(ValueError):
        residual_report("no_such_lemma", Fraction(100), d=1)


# Exact endpoints of the grid-summed routes: any change in how one of
# them rounds onto its grid moves them.  decompose(10**7, 20) classes are
# in units of 1e-14.
PINNED = {
    "qd_blocks(10**6, 7)": ("54444234603831/10000000000000",
                            "54444234604991/10000000000000"),
    "q0_blocks(10**6)": (
        "2010994331994800520690013653817813369356943/15135541261891891260"
        "540135015000000000000",
        "4021988663992625130524153307509482657689883/30271082523783782521"
        "080270030000000000000"),
    "sqrt_sum(500)": ("7464534242051463/1000000000000",
                      "7464534242051963/1000000000000"),
    "zeta_3_2(1e-30)": (
        "930266358873156945271905363807778394901060599664995319106863343/"
        "356099807533880723995701136170000000000000000000000000000000000",
        "930266358873156945271905363808045541397894408653234201402267543/"
        "356099807533880723995701136170000000000000000000000000000000000"),
    "base": (
        "28061223158591824896950636502118500644189534049491/6654447789798"
        "5331055027507220418300000000000000",
        "14030611579296964183976495909216575031846385735977/3327223894899"
        "2665527513753610209150000000000000"),
    "rest": ("6348814245938711/50000000000000",
             "12697628491878119/100000000000000"),
    "value": (
        "43893181785451789016008425618696335716663645083113/1663611947449"
        "6332763756876805104575000000000000",
        "21946590892726683392796693425447825209429920600503/8318059737248"
        "166381878438402552287500000000000"),
}
PINNED_CLASS_UNITS = [
    (175303819963531895, 175303819963535599),
    (11442776432688745, 11442776432689355),
    (5473991336233690, 5473991336234005),
    (3417822483048833, 3417822483049035),
    (2436653862444875, 2436653862445019),
    (1773842766755854, 1773842766755961),
    (1494653402564583, 1494653402564670),
    (1167353079716336, 1167353079716406),
    (944662067936723, 944662067936781),
    (821234093263101, 821234093263152),
    (720677449975393, 720677449975437),
    (606059088918075, 606059088918112),
    (587137370517663, 587137370517697),
    (544469271023958, 544469271023989),
    (415778885669365, 415778885669391),
    (481503120097362, 481503120097388),
    (382461450104700, 382461450104722),
    (342362111287016, 342362111287036),
    (325241499847733, 325241499847753),
    (293418012283645, 293418012283663),
]


# decompose endpoints at x = 997, 4e6 and 31415926535/7: base and value
# (the same for every d_cut), then rest and classes 1..d_cut in grid units
# of 10**-digits for d_cut 0 and 8.
PINNED_DECOMPOSE = {
    Fraction(997): (
        ("23951441973870509347223517874437121/6127183579362433875000000000000000",
         "23951441974951153558104984477639077/6127183579362433875000000000000000"),
        ("142056045510551731396236910119687121/6127183579362433875000000000000000",
         "142056045512012260989038847623139077/6127183579362433875000000000000000"),
        12,
        {0: [(19275512477622, 19275512477684)],
         8: [(502284973520, 502284973530), (16799423200872, 16799423200909),
             (653758358035, 653758358041), (215455535130, 215455535133),
             (135696967512, 135696967514), (292201156596, 292201156598),
             (0, 0), (676692285957, 676692285959), (0, 0)]}),
    Fraction(4 * 10**6): (
        ("7187475370116984535042998240876224298075325841/"
         "27001202202451785875287560945052500000000000",
         "28749901480489528302349073411490777126032967343/"
         "108004808809807143501150243780210000000000000"),
        ("179260780336375764484886582487140938767834173297/"
         "108004808809807143501150243780210000000000000",
         "35852156067288109154021340962362585736810708651/"
         "21600961761961428700230048756042000000000000"),
        13,
        {0: [(13935571991146473, 13935571991150472)],
         8: [(1137992200698182, 1137992200698868),
             (11090334719905464, 11090334719907808),
             (716421838705207, 716421838705591),
             (349196244850737, 349196244850937),
             (213745277668596, 213745277668724),
             (153564497375915, 153564497376006),
             (109581048376269, 109581048376336),
             (98326485263550, 98326485263606),
             (66409678302553, 66409678302596)]}),
    Fraction(31415926535, 7): (
        ("509881188676733319673672669350998326691108035266480006746235179/"
         "57080021924306371000492016267362016441563725300000000000000",
         "5098811886767371435214214005703775685380842833293234435417567513/"
         "570800219243063710004920162673620164415637253000000000000000"),
        ("1590339433370319428410260950822167257630072376594383875697693577/"
         "28540010962153185500246008133681008220781862650000000000000",
         "15903394333703251642104240586021097580144682756083300391117577981/"
         "285400109621531855002460081336810082207818626500000000000000"),
        15,
        {0: [(46790410865742860750, 46790410865742994733)],
         8: [(3850076848504888732, 3850076848504911719),
             (37152227465856002581, 37152227465856081066),
             (2424509240064064201, 2424509240064077115),
             (1171664138018105409, 1171664138018112093),
             (732114323033968946, 732114323033973217),
             (515250031606404561, 515250031606407596),
             (388075260261952754, 388075260261955053),
             (306352744734639105, 306352744734640925),
             (250140813662834461, 250140813662835949)]}),
}


def test_grid_sums_are_pinned():
    report = decompose(Fraction(10**7), 20)
    got = {
        "qd_blocks(10**6, 7)": qd_blocks(Fraction(10**6), 7,
                                         compare_direct=False).value,
        "q0_blocks(10**6)": q0_blocks(Fraction(10**6)),
        "sqrt_sum(500)": sqrt_sum(500),
        "zeta_3_2(1e-30)": zeta_3_2(PrecisionBudget(Fraction(1, 10**30))),
        "base": report.base,
        "rest": report.rest,
        "value": report.value,
    }
    for name, (lo, hi) in PINNED.items():
        assert (got[name].lo, got[name].hi) == (Fraction(lo), Fraction(hi)), name
    units = [(c.lo * 10**14, c.hi * 10**14) for c in report.classes]
    assert units == PINNED_CLASS_UNITS
    for x, (base, value, digits, by_cut) in PINNED_DECOMPOSE.items():
        for d_cut, pinned in by_cut.items():
            report = decompose(x, d_cut)
            for name, (lo, hi) in (("base", base), ("value", value)):
                got = getattr(report, name)
                assert (got.lo, got.hi) == (Fraction(lo), Fraction(hi)), (x, d_cut, name)
            units = [(c.lo * 10**digits, c.hi * 10**digits)
                     for c in (report.rest, *report.classes)]
            assert units == pinned, (x, d_cut)
