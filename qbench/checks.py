"""Output checks: every op against a reference that does not share its route.

A check returns (ok, width): ok is False when the op's enclosure misses
the reference or its output breaks the command's contract; width is the
certified width the op reports, compared with the requested tolerance
to count width misses.  A width miss is a breach of the width contract,
not a wrong value, so it is counted apart from failures.

References:
- Q(x) for x >= 100: the gap-class identity Q = sum_{d>=1} Q_d + Q_0, with
  the block-end terms floored onto a power-of-ten grid here and Q_0 from
  q0_blocks.  It shares no code with the per-index head of q_eval nor
  with the class pass of decompose.
- decompose rows: the closed form qd_blocks(x, d) for the sampled d.
- Q(x) for small x at widths to 1e-50, zeta(3/2) and zeta(3/2)/pi:
  mpmath at 90 digits (the exact head plus x^2 times the tail through
  the trigamma function).
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from math import isqrt

import mpmath

from qtv import PrecisionBudget, q0_blocks, qd_blocks

from workloads import Op

# Width of the grid references; far below every tolerance the ops ask for.
_REF_DIGITS = 18
_REF_WIDTH = Fraction(1, 10**_REF_DIGITS)
# Slack around an mpmath value computed at 90 digits.
_MP_SLACK = Fraction(1, 10**80)


def _intersects(lo: Fraction, hi: Fraction, ref: tuple[Fraction, Fraction]) -> bool:
    return lo <= hi and lo <= ref[1] and ref[0] <= hi


def _mp_fraction(value) -> Fraction:
    man, exp = mpmath.mpf(value).man_exp
    return Fraction(man) * Fraction(2) ** exp


def _around(value) -> tuple[Fraction, Fraction]:
    centre = _mp_fraction(value)
    return centre - _MP_SLACK, centre + _MP_SLACK


@lru_cache(maxsize=256)
def q_reference(x_text: str) -> tuple[Fraction, Fraction]:
    """Enclosure of Q(x) from the gap-class identity, width <= 2e-18."""
    x = Fraction(x_text)
    p, q = x.numerator, x.denominator
    top = p // q
    # At most 2 sqrt(x) + 1 block ends, each floored by under one unit.
    scale = 10 ** (len(str(2 * isqrt(top) + 1)) + _REF_DIGITS)
    acc = 0
    count = 0
    n = 1
    while n <= top:
        v = p // (q * n)
        end = p // (q * v)
        m = q * end * (end + 1)
        e = (v - p // (q * (end + 1))) * m - p
        acc += e * e * scale // (m * m)
        count += 1
        n = end + 1
    q0 = q0_blocks(x, PrecisionBudget(_REF_WIDTH))
    return (Fraction(acc, scale) + q0.lo,
            Fraction(acc + count, scale) + q0.hi)


@lru_cache(maxsize=1)
def _constants() -> dict[str, tuple[Fraction, Fraction]]:
    with mpmath.workdps(90):
        zeta = mpmath.zeta(mpmath.mpf(3) / 2)
        return {"zeta_3_2": _around(zeta),
                "main_constant": _around(zeta / mpmath.pi)}


@lru_cache(maxsize=1024)
def small_q_reference(x_text: str) -> tuple[Fraction, Fraction]:
    """Q(x) to 80 digits: exact head, tail x^2 (2 psi'(N+1) - 1/(N+1)^2 - 2/(N+1))."""
    x = Fraction(x_text)
    count = x.numerator // x.denominator
    head = Fraction(0)
    for n in range(1, count + 1):
        a, b = x / (n + 1), x / n
        diff = (a - (a.numerator // a.denominator)) - (b - (b.numerator // b.denominator))
        head += diff * diff
    with mpmath.workdps(90):
        m = mpmath.mpf(count + 1)
        xx = mpmath.mpf(x.numerator) ** 2 / mpmath.mpf(x.denominator) ** 2
        tail = xx * (2 * mpmath.polygamma(1, m) - 1 / m**2 - 2 / m)
        lo, hi = _around(tail)
    return head + lo, head + hi


def _pair(payload: dict, lo_key: str, hi_key: str) -> tuple[Fraction, Fraction]:
    return Fraction(payload[lo_key]), Fraction(payload[hi_key])


def _check_eval(op: Op, rec: dict, evaluator: str) -> tuple[bool, Fraction | None]:
    out = json.loads(rec["out"])
    lo, hi = _pair(out, "q_lo", "q_hi")
    ok = (out["evaluator"] == evaluator and out["rigorous"] is True
          and Fraction(out["x"]) == Fraction(op.x)
          and _intersects(lo, hi, q_reference(op.x)))
    return ok, Fraction(out["width"])


def _check_fast(op: Op, rec: dict) -> tuple[bool, Fraction | None]:
    out = json.loads(rec["out"])
    lo, hi = _pair(out, "q_lo", "q_hi")
    ok = (out["evaluator"] == "fast" and out["rigorous"] is False
          and Fraction(out["x"]) == Fraction(op.x) and lo <= hi)
    return ok, Fraction(out["width"])


def _check_scan(op: Op, rec: dict) -> tuple[bool, Fraction | None]:
    out = json.loads(rec["out"])
    if out["failures"] or out["capped"] or len(out["records"]) != 1:
        return False, None
    row = out["records"][0]
    lo, hi = _pair(row, "q_lo", "q_hi")
    err_lo, err_hi = _pair(row, "err_lo", "err_hi")
    q_ref = q_reference(op.x)
    with mpmath.workdps(90):
        main = _mp_fraction(mpmath.zeta(mpmath.mpf(3) / 2) / mpmath.pi
                            * mpmath.sqrt(int(op.x)))
    err_ref = (q_ref[0] - main - _MP_SLACK, q_ref[1] - main + _MP_SLACK)
    ok = (Fraction(row["x"]) == Fraction(op.x)
          and _intersects(lo, hi, q_ref)
          and _intersects(err_lo, err_hi, err_ref))
    return ok, err_hi - err_lo


def _check_decompose(op: Op, rec: dict) -> tuple[bool, Fraction | None]:
    out = json.loads(rec["out"])
    rows = out["rows"]
    d_max = int(op.argv[op.argv.index("--d-max") + 1])
    labels = [row["d"] for row in rows]
    if labels != [str(d) for d in range(d_max + 1)] + ["rest"]:
        return False, None
    x = Fraction(op.x)
    ok = True
    for d in op.classes:
        ref = qd_blocks(x, d, PrecisionBudget(_REF_WIDTH), compare_direct=False).value
        lo, hi = _pair(rows[d], "qd_lo", "qd_hi")
        ok = ok and _intersects(lo, hi, (ref.lo, ref.hi))
    # Class rows carry the width contract; "rest" is the discard bracket.
    width = max(Fraction(row["qd_hi"]) - Fraction(row["qd_lo"]) for row in rows[:-1])
    return ok, width


def _check_library(op: Op, rec: dict) -> tuple[bool, Fraction | None]:
    lo, hi = (Fraction(v) for v in rec["result"])
    if op.kind == "q_eval":
        ref = small_q_reference(op.x)
    else:
        ref = _constants()[op.kind]
    return _intersects(lo, hi, ref), hi - lo


def _check_constants(op: Op, rec: dict) -> tuple[bool, Fraction | None]:
    out = json.loads(rec["out"])
    refs = _constants()
    widths = []
    ok = out["cross_check_cut"] == int(op.x)
    for name in ("zeta_3_2", "main_constant"):
        lo, hi = _pair(out, f"{name}_lo", f"{name}_hi")
        ok = ok and _intersects(lo, hi, refs[name])
        widths.append(hi - lo)
    return ok, max(widths)


def _check_verify(op: Op, rec: dict) -> tuple[bool, None]:
    out = json.loads(rec["out"])
    return out["failed"] == 0 and out["passed"] > 0, None


def _check_refuse(op: Op, rec: dict) -> tuple[bool, None]:
    ok = rec["out"] == "" and "precision budget exhausted" in rec["err"]
    return ok, None


_RULES = {
    "eval": lambda op, rec: _check_eval(op, rec, "oracle"),
    "eval_decomposed": lambda op, rec: _check_eval(op, rec, "decomposed"),
    "eval_fast": _check_fast,
    "scan": _check_scan,
    "decompose": _check_decompose,
    "q_eval": _check_library,
    "zeta_3_2": _check_library,
    "main_constant": _check_library,
    "constants": _check_constants,
    "verify": _check_verify,
    "refuse": _check_refuse,
}


def check(op: Op, rec: dict) -> tuple[bool, bool, str]:
    """(failed, width_miss, reason) for one op record."""
    if rec["raised"] is not None:
        return True, False, f"raised {rec['raised']}"
    if rec["code"] != op.expect:
        return True, False, f"exit {rec['code']}, expected {op.expect}"
    try:
        ok, width = _RULES[op.kind](op, rec)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return True, False, f"unreadable output: {type(exc).__name__}: {exc}"
    if not ok:
        return True, False, "output misses the reference or breaks the contract"
    miss = width is not None and width > Fraction(op.tol)
    return False, miss, "width above tolerance" if miss else ""


def tally(verdicts: list[tuple[bool, bool, str]]) -> dict[str, float]:
    """Failures and width misses, as counts and as shares of ops attempted."""
    attempted = len(verdicts)
    failed = sum(1 for bad, _, _ in verdicts if bad)
    misses = sum(1 for _, miss, _ in verdicts if miss)
    return {"attempted": attempted, "failed": failed, "width_misses": misses,
            "failed_frac": failed / attempted,
            "width_miss_frac": misses / attempted}
