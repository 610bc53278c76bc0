"""Command line front end.

Subcommands cover the library surface: eval (one enclosure of Q(x)),
decompose (per-gap-class table), verify (identity and residual checks,
the headline pass/fail gate), coeffs (per-class amplitudes and their
partial sums), constants (zeta(3/2), the main constant, and the
extrapolation cross-check), scan and fit (error-term grids and the
log-log slope), selftest (fast smoke checks).

Conventions shared by every subcommand: rational inputs are "p/q" or
decimal strings and are converted exactly; every numeric field in CSV
or JSON output is an enclosure endpoint or exact rational rendered in
decimal with directed rounding (lower endpoints down, upper endpoints
up), so nothing in the output is wider than the arithmetic behind it;
JSON objects carry "schema": 1; CSV uses a header row and LF line
endings.  Exit codes: 0 success, 1 verification failure, 2 usage or
parse error, 3 precision budget exhausted, 4 runtime cap hit.

There is one output path.  Each cmd_* computes its result and returns
(exit code, rendered text); main is the only writer, to --output PATH
or to sys.stdout as it is at write time, so a caller that redirects
stdout captures the output.  Only warnings go to stderr directly.  The
table commands (decompose, coeffs, scan) build their rows once, as
rounded strings and ints, and _table renders them as CSV or as JSON
records; every JSON payload goes through _json.

The only numbers exempt from the endpoint rule are wall-clock seconds
and the regression outputs of fit, which are measurements, not
enclosures; they are printed as plain decimals.

main parses with the process's one parser, built on first use, and
build_parser() returns that same parser, so do not mutate it.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
import time
from fractions import Fraction

from .asymptotics import (EVALUATORS, FitError, ScanRecord, decompose,
                          decomposed_eval, error_term, fast_estimate,
                          fit_exponent, geometric_grid, scan)
from .blocks import (RESIDUAL_CAPS, RESIDUAL_NAMES, q0_blocks, qd_blocks,
                     residual_cases, residual_report)
from .coefficients import (DEFAULT_COEFFS, coeff_sum_limit, gap_coeff,
                           gap_coeff_sum, limit_estimate, main_constant,
                           zeta_3_2)
from .interval import (BudgetError, Enclosure, PrecisionBudget,
                       sqrt_enclosure)
from .oracle import q0_direct, q_eval
from .rational import format_rational, parse_rational
from .tails import g2, g2_tail

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_CAP = 4

DIGITS = 15

class UsageError(ValueError):
    """Bad argument values discovered after argparse."""


def _up(value: Fraction) -> str:
    return format_rational(value, DIGITS, "up")


def _enc_pair(enc: Enclosure) -> tuple[str, str]:
    return format_rational(enc.lo, DIGITS, "down"), _up(enc.hi)


def _parse_x(text: str, minimum: Fraction = Fraction(0)) -> Fraction:
    try:
        x = parse_rational(text)
    except ValueError as exc:
        raise UsageError(f"cannot parse {text!r} as a rational") from exc
    if x <= minimum:
        raise UsageError(f"x must be > {minimum}, got {text}")
    limit = sys.get_int_max_str_digits()  # 0: no limit
    top = max(x.numerator, x.denominator)
    # below 2^(3 limit) < 10^limit the exact power is not needed
    if limit and top.bit_length() > 3 * limit and top >= 10**limit:
        raise UsageError(f"x has more than {limit} digits, too many to print")
    return x


def _budget(args: argparse.Namespace) -> PrecisionBudget:
    try:
        width = parse_rational(args.tolerance)
    except ValueError as exc:
        raise UsageError(f"cannot parse tolerance {args.tolerance!r}") from exc
    if width <= 0:
        raise UsageError("tolerance must be positive")
    return PrecisionBudget(width)


def _check_d_max(evaluator: str, d_max: int | None) -> None:
    if evaluator == "fast" and d_max is not None and d_max < 1:
        raise UsageError("--d-max must be >= 1 for the fast evaluator")


def _json(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _table(columns: list[str], rows: list[list], fmt: str) -> str | list[dict]:
    """Rows as CSV text (header plus LF rows), or as JSON records."""
    if fmt == "json":
        return [dict(zip(columns, row)) for row in rows]
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    return buffer.getvalue()


def _pair_table(width: int, first: str, second: str,
                rows: list[list]) -> list[str]:
    """Text lines for rows of (d, first lo, first hi, second lo, second hi)."""
    lines = [f"{'d':>{width}} {first:^44} {second:^44}"]
    for row in rows:
        lines.append(f"{row[0]:>{width}} [{row[1]:>20}, {row[2]:>20}] "
                     f"[{row[3]:>20}, {row[4]:>20}]")
    return lines


# ---------------------------------------------------------------- eval


def cmd_eval(args: argparse.Namespace) -> tuple[int, str]:
    x = _parse_x(args.x)
    budget = _budget(args)
    _check_d_max(args.evaluator, args.d_max)
    started = time.perf_counter()
    rigorous = args.evaluator != "fast"
    extra: dict[str, str] = {}
    if args.evaluator == "oracle":
        value = q_eval(x, budget).value
    elif args.evaluator == "decomposed":
        value = decomposed_eval(x, budget).value
    else:
        est = fast_estimate(x, args.d_max, budget)
        value = est.value
        extra["allowance"] = _up(est.allowance)
        extra["d_cut"] = str(est.d_cut)
    seconds = time.perf_counter() - started
    lo, hi = _enc_pair(value)

    if args.format == "json":
        payload = {
            "schema": 1,
            "x": str(x),
            "q_lo": lo,
            "q_hi": hi,
            "width": _up(value.width),
            "evaluator": args.evaluator,
            "rigorous": rigorous,
            "seconds": round(seconds, 3),
        }
        payload.update(extra)
        return EXIT_OK, _json(payload)
    tag = "rigorous" if rigorous else "heuristic, rigorous: false"
    lines = [f"Q({x}) in [{lo}, {hi}]",
             f"width <= {_up(value.width)}",
             f"evaluator {args.evaluator} ({tag})"]
    lines += [f"{key} {val}" for key, val in extra.items()]
    lines.append(f"seconds {seconds:.3f}")
    return EXIT_OK, "\n".join(lines) + "\n"


# ----------------------------------------------------------- decompose


DECOMPOSE_COLUMNS = ["d", "qd_lo", "qd_hi", "cum_lo", "cum_hi", "tail_bound"]


def cmd_decompose(args: argparse.Namespace) -> tuple[int, str]:
    x = _parse_x(args.x)
    if args.d_max < 0:
        raise UsageError("--d-max must be >= 0")
    budget = _budget(args)
    report = decompose(x, args.d_max, budget)

    cum = report.base
    rows = [["0", *_enc_pair(report.base), *_enc_pair(cum), ""]]
    for d in range(1, args.d_max + 1):
        enc = report.classes[d - 1]
        cum = cum + enc
        bound = _up(sqrt_enclosure(x / (d - 1), budget).hi) if d >= 2 else ""
        rows.append([str(d), *_enc_pair(enc), *_enc_pair(cum), bound])
    rest = report.rest
    cum = cum + rest
    rows.append(["rest", *_enc_pair(rest), *_enc_pair(cum), _up(rest.hi)])

    if args.format == "csv":
        return EXIT_OK, _table(DECOMPOSE_COLUMNS, rows, "csv")
    if args.format == "json":
        return EXIT_OK, _json({
            "schema": 1,
            "x": str(x),
            "d_max": args.d_max,
            "rows": _table(DECOMPOSE_COLUMNS, rows, "json"),
            "op_count": report.op_count,
        })
    lines = [f"Q({x}) by gap class, cut at d = {args.d_max}",
             *_pair_table(6, "class total", "cumulative", rows),
             f"block operations: {report.op_count}"]
    return EXIT_OK, "\n".join(lines) + "\n"


# -------------------------------------------------------------- verify


def _check(name: str, params: dict, lhs: Fraction | None,
           rhs: Enclosure, passed: bool) -> dict:
    lo, hi = _enc_pair(rhs)
    return {
        "name": name,
        "params": params,
        "lhs": (format_rational(lhs, DIGITS, "nearest")
                if lhs is not None else None),
        "rhs_lo": lo,
        "rhs_hi": hi,
        "pass": passed,
    }


def _mutated_coeffs(spec_text: str | None) -> tuple[int, ...]:
    if not spec_text:
        return DEFAULT_COEFFS
    try:
        index_text, delta_text = spec_text.split(":", 1)
        index, delta = int(index_text), int(delta_text)
        coeffs = list(DEFAULT_COEFFS)
        coeffs[index] += delta
    except (ValueError, IndexError) as exc:
        raise UsageError(f"bad coefficient mutation {spec_text!r}; "
                         f"expected INDEX:DELTA") from exc
    return tuple(coeffs)


def cmd_verify(args: argparse.Namespace) -> tuple[int, str]:
    budget = _budget(args)
    x_texts = args.x if args.x is not None else ["1000", "10000"]
    xs = [(_parse_x(text), text) for text in x_texts]
    coeffs = _mutated_coeffs(args.mutate_coeff)
    checks: list[dict] = []

    # Closed form of each gap-class total against the exact class sum.
    for x, x_text in xs:
        for d in range(1, args.d_max + 1):
            if 2 * (d + 1) > x:
                continue
            try:
                rep = qd_blocks(x, d, budget, _middle_shift=args.shift_middle)
            except ValueError as exc:  # a shifted range left 1 <= k <= x
                if not args.shift_middle:
                    raise
                raise UsageError(f"--shift-middle: {exc}") from exc
            checks.append(_check("class_closed_form", {"x": x_text, "d": d},
                                 rep.direct, rep.value, rep.matches))

    # Telescoped amplitude partial sums against term-by-term addition.
    for limit in (1, 10, 100):
        per = PrecisionBudget(budget.target_width / (2 * limit))
        direct = Enclosure.point(Fraction(0))
        for d in range(1, limit + 1):
            direct = direct + gap_coeff(d, per, coeffs)
        closed = gap_coeff_sum(limit, budget.split(2))
        checks.append(_check("coeff_partial_sum", {"limit": limit},
                             None, closed, direct.intersects(closed)))

    # One step of the tail series must telescope exactly.
    for m in (1, 10, 100):
        step = g2_tail(m, budget.split(2)) - g2_tail(m + 1, budget.split(2))
        checks.append(_check("tail_telescope", {"m": m}, g2(m), step,
                             step.contains(g2(m))))

    # Zero-gap closed form against the subtraction route.
    for x, x_text in xs:
        if x > 10**5:
            continue  # direct route sums x terms; keep verify quick
        direct = q0_direct(x, budget)
        formula = q0_blocks(x, budget)
        checks.append(_check("zero_gap_formula", {"x": x_text},
                             direct.midpoint, formula,
                             formula.intersects(direct)))

    # Residual envelopes: ratio against the fitted caps.
    tight = PrecisionBudget(Fraction(1, 10**12))
    for x, x_text in xs:
        t = Fraction(10) if x == xs[0][0] else None
        for name in RESIDUAL_NAMES:
            cap = RESIDUAL_CAPS[name]
            for d, k, arg in residual_cases(name, x, (0, 1, 5, 20), t):
                rep = residual_report(name, arg, d, k, tight)
                ratio = rep.ratio_hi
                params = {"x": x_text, "d": d, "k": k}
                if name == "tail_series":
                    params = {"t": str(arg)}
                checks.append(_check(f"residual_{name}", params, ratio,
                                     Enclosure(Fraction(0), cap),
                                     ratio <= cap))

    failed = sum(1 for c in checks if not c["pass"])
    text = _json({
        "schema": 1,
        "checks": checks,
        "passed": len(checks) - failed,
        "failed": failed,
    })
    if not checks:
        print("warning: no checks selected", file=sys.stderr)
    return (EXIT_OK if failed == 0 else EXIT_FAIL), text


# -------------------------------------------------------------- coeffs


COEFFS_COLUMNS = ["d", "coeff_lo", "coeff_hi", "partial_lo", "partial_hi"]


def cmd_coeffs(args: argparse.Namespace) -> tuple[int, str]:
    if args.limit < 0:
        raise UsageError("limit must be >= 0")
    budget = _budget(args)
    per = PrecisionBudget(budget.target_width / max(1, args.limit))
    rows = []
    partial = Enclosure.point(Fraction(0))
    for d in range(1, args.limit + 1):
        enc = gap_coeff(d, per)
        partial = partial + enc
        rows.append([d, *_enc_pair(enc), *_enc_pair(partial)])

    if args.format == "csv":
        return EXIT_OK, _table(COEFFS_COLUMNS, rows, "csv")
    # (JSON key, text label, enclosure) for the closed form and the limit
    summary = []
    if args.limit >= 1:
        closed = gap_coeff_sum(args.limit, budget.split(2))
        lim = coeff_sum_limit(budget.split(2))
        summary = [("closed_form", "closed form", closed),
                   ("limit", "series limit", lim),
                   ("limit_gap", "limit gap", closed - lim)]
    if args.format == "json":
        payload = {"schema": 1, "limit": args.limit,
                   "rows": _table(COEFFS_COLUMNS, rows, "json")}
        for key, _label, enc in summary:
            payload[f"{key}_lo"], payload[f"{key}_hi"] = _enc_pair(enc)
        return EXIT_OK, _json(payload)
    lines = _pair_table(5, "amplitude", "partial sum", rows)
    for _key, label, enc in summary:
        lo, hi = _enc_pair(enc)
        lines.append(f"{label:<12} [{lo}, {hi}]")
    return EXIT_OK, "\n".join(lines) + "\n"


# ----------------------------------------------------------- constants


def cmd_constants(args: argparse.Namespace) -> tuple[int, str]:
    cut = args.cross_check_cut
    if cut < 4:
        raise UsageError("--cross-check-cut must be >= 4")
    budget = _budget(args)
    zeta = zeta_3_2(budget)
    constant = main_constant(budget)
    tight = PrecisionBudget(min(budget.target_width, Fraction(1, 10**11)))
    est = limit_estimate(cut, tight)
    lim = coeff_sum_limit(tight)
    gap_value = (est - lim).abs().hi

    zl, zh = _enc_pair(zeta)
    cl, ch = _enc_pair(constant)
    if args.format == "json":
        return EXIT_OK, _json({
            "schema": 1,
            "zeta_3_2_lo": zl,
            "zeta_3_2_hi": zh,
            "main_constant_lo": cl,
            "main_constant_hi": ch,
            "cross_check_cut": cut,
            "cross_check_gap": _up(gap_value),
        })
    return EXIT_OK, (f"zeta(3/2)      in [{zl}, {zh}]\n"
                     f"zeta(3/2)/pi   in [{cl}, {ch}]\n"
                     f"extrapolation cross-check at cut {cut}: "
                     f"gap <= {_up(gap_value)}\n")


# ---------------------------------------------------------------- scan


SCAN_COLUMNS = ["x", "q_lo", "q_hi", "main_lo", "main_hi",
                "err_lo", "err_hi", "ratio_hi", "evaluator", "seconds"]


def _record_row(record: ScanRecord) -> list[str]:
    qlo, qhi = _enc_pair(record.value)
    mlo, mhi = _enc_pair(record.main)
    elo, ehi = _enc_pair(record.error)
    return [str(record.x), qlo, qhi, mlo, mhi, elo, ehi,
            _up(record.bound_ratio.hi), record.evaluator,
            f"{record.seconds:.3f}"]


def cmd_scan(args: argparse.Namespace) -> tuple[int, str]:
    budget = _budget(args)
    lo = _parse_x(args.grid_min)
    hi = _parse_x(args.grid_max)
    try:
        ratio = parse_rational(args.grid_ratio)
    except ValueError as exc:
        raise UsageError(f"cannot parse --grid-ratio {args.grid_ratio!r}") from exc
    if lo < 2 or lo.denominator != 1 or hi.denominator != 1:
        raise UsageError("grid endpoints must be integers >= 2")
    if hi < lo:
        raise UsageError("--grid-max must be >= --grid-min")
    if ratio <= 1:
        raise UsageError("--grid-ratio must be > 1")
    if args.workers < 1:
        raise UsageError("--workers must be >= 1")
    if args.runtime_cap is not None and not args.runtime_cap >= 0:
        raise UsageError("--runtime-cap must be >= 0")
    _check_d_max(args.evaluator, args.d_max)
    grid = [Fraction(g) for g in
            geometric_grid(int(lo), int(hi), ratio)]
    result = scan(grid, budget, args.evaluator, args.d_max,
                  workers=args.workers, time_cap=args.runtime_cap)

    for index, x, message in result.failures:
        print(f"warning: point {index} (x = {x}) failed: "
              f"{message}", file=sys.stderr)

    rows = [_record_row(record) for record in result.records]
    if args.format == "json":
        text = _json({
            "schema": 1,
            "evaluator": args.evaluator,
            "capped": result.capped,
            "records": _table(SCAN_COLUMNS, rows, "json"),
            "failures": [{"index": i, "x": str(x), "message": m}
                         for i, x, m in result.failures],
        })
    else:
        text = _table(SCAN_COLUMNS, rows, "csv")
    if result.capped:
        print("warning: runtime cap hit; output is a prefix of the grid",
              file=sys.stderr)
        return EXIT_CAP, text
    return EXIT_OK, text


# ----------------------------------------------------------------- fit


def cmd_fit(args: argparse.Namespace) -> tuple[int, str]:
    if args.input == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(args.input, encoding="utf-8", newline="") as stream:
                text = stream.read()
        except OSError as exc:
            raise UsageError(f"cannot read --input {args.input!r}: "
                             f"{exc.strerror}") from exc
    records = []
    try:
        for row in csv.DictReader(io.StringIO(text, newline="")):
            x = parse_rational(row["x"])
            error = Enclosure(parse_rational(row["err_lo"]),
                              parse_rational(row["err_hi"]))
            ratio_hi = parse_rational(row["ratio_hi"])
            records.append(ScanRecord(
                x=x, value=error, main=Enclosure.point(Fraction(0)),
                error=error,
                bound_ratio=Enclosure(Fraction(0), ratio_hi),
                evaluator=row.get("evaluator", "oracle"),
                seconds=float(row.get("seconds", "0") or 0.0),
            ))
    except (KeyError, ValueError) as exc:
        raise UsageError(f"input is not a scan CSV: {exc}") from exc

    report = fit_exponent(records)
    return EXIT_OK, _json({
        "schema": 1,
        "slope": round(report.slope, 12),
        "stderr": round(report.stderr, 12),
        "max_bound_ratio": _up(Fraction(report.max_bound_ratio)),
        "n_points": report.n_points,
        "n_skipped": report.n_skipped,
    })


# ------------------------------------------------------------ selftest


def cmd_selftest(args: argparse.Namespace) -> tuple[int, str]:
    del args
    lines: list[str] = []
    failures = 0

    def check(label: str, fn) -> None:
        nonlocal failures
        try:
            fn()
            lines.append(f"ok      {label}")
        except Exception as exc:  # noqa: BLE001  report and continue
            failures += 1
            lines.append(f"FAIL    {label}: {type(exc).__name__}: {exc}")

    def parse_exact():
        assert parse_rational("2.5") == Fraction(5, 2)
        assert parse_rational("3/2") == Fraction(3, 2)

    def nested_tolerances():
        wide = q_eval(Fraction(1), PrecisionBudget(Fraction(1, 100))).value
        tight = q_eval(Fraction(1), PrecisionBudget(Fraction(1, 10**10))).value
        assert wide.encloses(tight)

    def record_consistent():
        record = error_term(Fraction(4))
        assert record.error == record.value - record.main
        assert record.value.encloses(record.main + record.error) or \
            (record.main + record.error).encloses(record.value)

    def decompose_intersects():
        qv = q_eval(Fraction(10))
        rep = decompose(Fraction(10), 5)
        assert rep.value.intersects(qv.value)

    def empty_partial_sum():
        assert gap_coeff_sum(0).contains(Fraction(0))

    def duplicate_records():
        res = scan([Fraction(100), Fraction(100)],
                   PrecisionBudget(Fraction(1, 10**6)))
        assert res.records[0] == res.records[1]

    def synthetic_slope():
        recs = []
        for x in (10**4, 10**6, 10**8):
            e = Enclosure.point(Fraction(int(x**0.25 * 10**9), 10**9))
            zero = Enclosure.point(Fraction(0))
            recs.append(ScanRecord(Fraction(x), e, zero, e, e.abs(),
                                   "oracle"))
        fit = fit_exponent(recs)
        assert abs(fit.slope - 0.25) < 1e-6

    def heuristic_finite():
        est = fast_estimate(Fraction(1))
        assert est.rigorous is False
        assert est.value.width < 1

    check("parse rational inputs exactly", parse_exact)
    check("loose tolerance nests the tight result", nested_tolerances)
    check("error record internally consistent", record_consistent)
    check("decomposition intersects direct evaluation", decompose_intersects)
    check("empty amplitude partial sum is zero", empty_partial_sum)
    check("duplicate scan points give identical records", duplicate_records)
    check("synthetic exponent recovered", synthetic_slope)
    check("fast estimate flagged heuristic and finite", heuristic_finite)
    return (EXIT_OK if failures == 0 else EXIT_FAIL), "\n".join(lines) + "\n"


# ---------------------------------------------------------------- main


def _add_common(parser: argparse.ArgumentParser,
                tolerance: str = "1e-9") -> None:
    parser.add_argument("--tolerance", default=tolerance,
                        help=f"target enclosure width (default {tolerance})")
    parser.add_argument("--output", default=None, metavar="PATH",
                        help="write to PATH instead of stdout")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser, built on the first call."""
    parser = argparse.ArgumentParser(
        prog="qtv",
        description="Exact and certified evaluation of the fractional-part "
                    "increment series Q(x) and its square-root law.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="enclose Q(x) at one point")
    p.add_argument("x", help="evaluation point, 'p/q' or decimal")
    p.add_argument("--evaluator", choices=EVALUATORS, default="oracle")
    p.add_argument("--d-max", type=int, default=None,
                   help="class cut for the fast evaluator "
                        "(default x^(1/7) rounded)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    _add_common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("decompose", help="table of gap-class totals")
    p.add_argument("x")
    p.add_argument("--d-max", type=int, default=10)
    p.add_argument("--format", choices=("text", "csv", "json"),
                   default="text")
    _add_common(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("verify",
                       help="identity and residual checks (exit 1 on any "
                            "failure)")
    p.add_argument("--x", action="append",
                   default=None, metavar="X",
                   help="check points (repeatable; default 1000 and 10000)")
    p.add_argument("--d-max", type=int, default=20)
    p.add_argument("--mutate-coeff", default=None, help=argparse.SUPPRESS)
    p.add_argument("--shift-middle", type=int, default=0,
                   help=argparse.SUPPRESS)
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("coeffs",
                       help="per-class amplitudes and partial sums")
    p.add_argument("limit", type=int, help="largest class index d")
    p.add_argument("--format", choices=("text", "csv", "json"),
                   default="text")
    _add_common(p)
    p.set_defaults(func=cmd_coeffs)

    p = sub.add_parser("constants",
                       help="zeta(3/2), the main constant, cross-check")
    p.add_argument("--cross-check-cut", type=int, default=10**6,
                   help="partial-sum cut for the extrapolation cross-check")
    p.add_argument("--format", choices=("text", "json"), default="text")
    _add_common(p)
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("scan", help="error-term records over a grid")
    p.add_argument("--grid-min", default="100")
    p.add_argument("--grid-max", default="1000000")
    p.add_argument("--grid-ratio", default="3.16227766017",
                   help="geometric step (default ~sqrt(10))")
    p.add_argument("--evaluator", choices=EVALUATORS, default="oracle")
    p.add_argument("--d-max", type=int, default=50,
                   help="class cut for the fast evaluator (default 50)")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--runtime-cap", type=float, default=None,
                   metavar="SECONDS")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_common(p, tolerance="1e-8")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("fit", help="log-log slope of a scan CSV")
    p.add_argument("--input", default="-", metavar="PATH",
                   help="scan CSV (default stdin)")
    p.add_argument("--output", default=None, metavar="PATH")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("selftest", help="fast smoke checks")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    path = getattr(args, "output", None) or "-"  # selftest has no --output
    try:
        if path != "-" and not os.path.isdir(os.path.dirname(path) or "."):
            raise UsageError(f"--output directory does not exist: {path!r}")
        code, text = args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FitError as exc:
        print(f"fit error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetError as exc:
        print(f"precision budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    if path == "-":
        sys.stdout.write(text)
        return code
    try:
        with open(path, "w", encoding="utf-8", newline="") as stream:
            stream.write(text)
    except OSError as exc:
        print(f"error: cannot write --output {path}: {exc.strerror}",
              file=sys.stderr)
        return EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())
