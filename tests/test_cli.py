"""End-to-end checks of the command line surface.

Everything drives qtv.cli.main(argv) in process so exit codes and
stdout are observable; one smoke test goes through a real interpreter
to cover the module entry point.
"""

import csv
import io
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from qtv.cli import SCAN_COLUMNS, main
from qtv.oracle import q_eval

REFERENCE_Q1 = Fraction("0.289868133696452872944830333292")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


def test_eval_text_output(capsys):
    code, out, _ = run(capsys, "eval", "1")
    assert code == 0
    assert out.startswith("Q(1) in [")
    assert "evaluator oracle (rigorous)" in out


def test_eval_json_encloses_reference(capsys):
    code, payload, _ = run_json(capsys, "eval", "1", "--format", "json")
    assert code == 0
    assert payload["schema"] == 1
    assert payload["rigorous"] is True
    assert Fraction(payload["q_lo"]) <= REFERENCE_Q1 <= Fraction(payload["q_hi"])
    assert Fraction(payload["width"]) <= Fraction(2, 10**9)


def test_eval_decomposed_route(capsys):
    code, payload, _ = run_json(capsys, "eval", "997", "--evaluator",
                                "decomposed", "--format", "json")
    assert code == 0
    assert payload["rigorous"] is True
    truth = q_eval(Fraction(997)).value
    assert Fraction(payload["q_lo"]) <= truth.hi
    assert Fraction(payload["q_hi"]) >= truth.lo


def test_eval_fast_is_flagged(capsys):
    code, payload, _ = run_json(capsys, "eval", "1000000", "--evaluator",
                                "fast", "--format", "json")
    assert code == 0
    assert payload["rigorous"] is False
    assert payload["d_cut"] == "7"  # 10^(6/7) rounds to 7
    assert Fraction(payload["allowance"]) > 0


def test_eval_rejects_bad_points(capsys):
    for bad in ("0", "abc", "1/0"):
        code, _, err = run(capsys, "eval", bad)
        assert code == 2
        assert "error" in err


def test_eval_budget_exhaustion_is_exit_3(capsys):
    code, _, err = run(capsys, "eval", "2", "--tolerance", "1e-200000")
    assert code == 3
    assert "precision budget" in err


def test_eval_writes_output_file(tmp_path, capsys):
    target = tmp_path / "out.txt"
    code, out, _ = run(capsys, "eval", "1", "--output", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("Q(1) in [")


def test_decompose_csv_table(capsys):
    code, out, _ = run(capsys, "decompose", "10", "--d-max", "5",
                       "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["d", "qd_lo", "qd_hi", "cum_lo", "cum_hi",
                       "tail_bound"]
    assert [r[0] for r in rows[1:]] == ["0", "1", "2", "3", "4", "5", "rest"]
    # x = 10 puts its largest gap exactly at d = 5 with a zero term
    d5 = rows[6]
    assert Fraction(d5[1]) == 0 and Fraction(d5[2]) <= Fraction(1, 10**9)
    last = rows[-1]
    truth = q_eval(Fraction(10)).value
    assert Fraction(last[3]) <= truth.hi and truth.lo <= Fraction(last[4])
    for row in rows[3:-1]:
        assert Fraction(row[5]) > 0  # tail bound column kicks in at d >= 2
    assert Fraction(last[5]) == 0  # nothing above d = 5 at x = 10


def test_decompose_json_reports_op_count(capsys):
    code, payload, _ = run_json(capsys, "decompose", "1000", "--d-max", "3",
                                "--format", "json")
    assert code == 0
    assert payload["op_count"] > 0
    assert [row["d"] for row in payload["rows"]] == ["0", "1", "2", "3",
                                                     "rest"]


def test_verify_default_passes(capsys):
    code, payload, _ = run_json(capsys, "verify")
    assert code == 0
    assert payload["failed"] == 0
    assert payload["passed"] == len(payload["checks"]) > 20
    names = {c["name"] for c in payload["checks"]}
    assert {"class_closed_form", "coeff_partial_sum", "tail_telescope",
            "zero_gap_formula"} <= names
    assert any(n.startswith("residual_") for n in names)


def test_verify_detects_coefficient_mutation(capsys):
    code, payload, _ = run_json(capsys, "verify", "--x", "300", "--d-max",
                                "4", "--mutate-coeff", "2:1")
    assert code == 1
    broken = [c for c in payload["checks"] if not c["pass"]]
    assert broken
    assert all(c["name"] == "coeff_partial_sum" for c in broken)


def test_verify_detects_range_shift(capsys):
    code, payload, _ = run_json(capsys, "verify", "--x", "300", "--d-max",
                                "4", "--shift-middle", "1")
    assert code == 1
    broken = {c["name"] for c in payload["checks"] if not c["pass"]}
    assert broken == {"class_closed_form"}


@pytest.mark.parametrize("shift", ["-100", "10000"])
def test_verify_shift_out_of_range_is_exit_2(capsys, shift):
    code, out, err = run(capsys, "verify", "--x", "1000", "--shift-middle",
                         shift)
    assert code == 2
    assert out == ""
    assert err.startswith("error: --shift-middle")


def test_verify_skips_classes_beyond_small_x(capsys):
    # d = 20 has no cut point at x = 15: the residual cases drop it
    code, payload, _ = run_json(capsys, "verify", "--x", "15")
    assert code == 0
    assert {c["params"]["d"] for c in payload["checks"]
            if c["name"] == "residual_summand_main"} == {1, 5}


def test_verify_rejects_malformed_mutation(capsys):
    code, _, err = run(capsys, "verify", "--mutate-coeff", "nope")
    assert code == 2
    assert "INDEX:DELTA" in err


def test_coeffs_empty_limit(capsys):
    code, payload, _ = run_json(capsys, "coeffs", "0", "--format", "json")
    assert code == 0
    assert payload["rows"] == []
    assert "closed_form_lo" not in payload


def test_coeffs_partial_sum_consistency(capsys):
    code, payload, _ = run_json(capsys, "coeffs", "3", "--format", "json")
    assert code == 0
    assert len(payload["rows"]) == 3
    first = payload["rows"][0]
    assert Fraction(first["coeff_lo"]) <= Fraction("0.554583942191207") \
        <= Fraction(first["coeff_hi"])
    last = payload["rows"][-1]
    assert Fraction(last["partial_lo"]) <= Fraction(payload["closed_form_hi"])
    assert Fraction(payload["closed_form_lo"]) <= Fraction(last["partial_hi"])


def test_constants_brackets(capsys):
    code, payload, _ = run_json(capsys, "constants", "--cross-check-cut",
                                "10000", "--format", "json")
    assert code == 0
    zeta = Fraction("2.612375348685488")
    assert Fraction(payload["zeta_3_2_lo"]) <= zeta \
        <= Fraction(payload["zeta_3_2_hi"])
    constant = Fraction("0.8315448999094182")
    assert Fraction(payload["main_constant_lo"]) <= constant \
        <= Fraction(payload["main_constant_hi"])
    assert Fraction(payload["cross_check_gap"]) <= Fraction(1, 10**4)


def test_scan_csv_columns_and_fit_round_trip(tmp_path, capsys):
    table = tmp_path / "scan.csv"
    code, out, _ = run(capsys, "scan", "--grid-min", "100", "--grid-max",
                       "10000", "--grid-ratio", "10",
                       "--output", str(table))
    assert code == 0
    rows = list(csv.reader(table.open()))
    assert rows[0] == SCAN_COLUMNS
    assert [r[0] for r in rows[1:]] == ["100", "1000", "10000"]
    for row in rows[1:]:
        assert row[8] == "oracle"
        err_lo, err_hi = Fraction(row[5]), Fraction(row[6])
        assert err_lo <= err_hi

    code, payload, _ = run_json(capsys, "fit", "--input", str(table))
    assert code == 0
    assert set(payload) == {"schema", "slope", "stderr", "max_bound_ratio",
                            "n_points", "n_skipped"}
    assert payload["n_points"] == 3 and payload["n_skipped"] == 0
    assert isinstance(payload["slope"], float)


def test_scan_runtime_cap_is_exit_4(capsys):
    code, out, err = run(capsys, "scan", "--grid-min", "100", "--grid-max",
                         "1000000", "--evaluator", "decomposed",
                         "--runtime-cap", "0.0")
    assert code == 4
    assert "runtime cap" in err
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) - 1 == 1  # a zero cap stops after the first point


def test_scan_rejects_fractional_grid(capsys):
    code, _, err = run(capsys, "scan", "--grid-min", "5/2")
    assert code == 2
    assert "integers" in err


def test_fit_needs_enough_points(tmp_path, capsys):
    table = tmp_path / "one.csv"
    table.write_text("x,err_lo,err_hi,ratio_hi\n100,0.5,0.6,1\n")
    code, _, err = run(capsys, "fit", "--input", str(table))
    assert code == 2
    assert "fit error" in err


def test_fit_rejects_foreign_csv(tmp_path, capsys):
    table = tmp_path / "junk.csv"
    table.write_text("a,b\n1,2\n")
    code, _, err = run(capsys, "fit", "--input", str(table))
    assert code == 2
    assert "not a scan CSV" in err


def test_fit_rejects_non_finite_cells(tmp_path, capsys):
    table = tmp_path / "inf.csv"
    table.write_text("x,err_lo,err_hi,ratio_hi\n100,0.5,0.6,inf\n")
    code, _, err = run(capsys, "fit", "--input", str(table))
    assert code == 2
    assert err == "error: input is not a scan CSV: bad rational literal 'inf'\n"


def test_selftest_passes(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    lines = [line for line in out.splitlines() if line]
    assert len(lines) == 8
    assert all(line.startswith("ok") for line in lines)


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "qtv.cli", "eval", "4"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout.startswith("Q(4) in [")


@pytest.mark.parametrize("argv", [
    ("eval", "100", "--evaluator", "fast", "--d-max", "0"),
    ("constants", "--cross-check-cut", "2"),
    ("scan", "--workers", "0"),
    ("scan", "--grid-min", "2", "--grid-max", "1"),
    ("scan", "--grid-ratio", "abc"),
    ("eval", "inf"),
    ("eval", "5", "--tolerance", "inf"),
    ("scan", "--grid-ratio", "inf"),
    ("scan", "--runtime-cap", "-1"),
    ("scan", "--runtime-cap", "nan"),
    ("fit", "--input", "missing.csv"),
    ("eval", "1", "--output", "/nonexistent/x.txt"),
    ("eval", "1e999999999"),
    ("eval", "1e-99999999"),
    ("eval", "2", "--tolerance", "1e-999999999"),
    ("scan", "--grid-ratio", "1e999999999"),
    ("eval", "1e-5000"),
    ("decompose", "1e5000"),
    ("scan", "--grid-max", "1e5000"),
], ids=" ".join)
def test_bad_arguments_are_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("eval", "1e1000"),
    ("eval", "1e100", "--evaluator", "fast"),
    ("eval", "1e30", "--evaluator", "decomposed"),
    ("decompose", "1e30"),
    ("verify", "--x", "1e30"),
], ids=" ".join)
def test_loops_past_the_cap_are_exit_3_before_they_start(capsys, argv):
    started = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - started < 1
    assert code == 3
    assert out == ""
    assert err.startswith("precision budget exhausted: ") and "loop cap" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("eval", "1000000", "--tolerance", "1e-3000"),
    ("decompose", "1e11", "--tolerance", "1e-3000", "--d-max", "5"),
], ids=" ".join)
def test_tails_past_the_order_cap_are_exit_3_before_the_loops(capsys, argv):
    started = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - started < 1
    assert code == 3
    assert out == ""
    assert err.startswith("precision budget exhausted: ") and "order cap" in err
    assert err.count("\n") == 1


def test_unwritable_output_is_exit_2(tmp_path, capsys):
    code, out, err = run(capsys, "eval", "1", "--output", str(tmp_path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write --output ")
    assert err.count("\n") == 1


def test_pooled_scan_reports_budget_failures_like_serial(capsys):
    # the refused point comes back from the pool as a BudgetError failure
    argv = ("scan", "--grid-min", "100", "--grid-max", "100",
            "--tolerance", "1e-5000", "--format", "json")
    serial = run(capsys, *argv, "--workers", "1")
    assert run(capsys, *argv, "--workers", "2") == serial
    assert "BudgetError" in serial[2]


def _mask_seconds(text):
    text = re.sub(r"seconds \d+\.\d+", "seconds S", text)
    text = re.sub(r'"seconds": "?[0-9.e-]+"?', '"seconds": S', text)
    return re.sub(r",(oracle|decomposed|fast),\d+\.\d+$", r",\1,S", text,
                  flags=re.M)


@pytest.mark.parametrize("argv", [
    ("eval", "997"),
    ("eval", "997", "--format", "json"),
    ("eval", "1000000", "--evaluator", "fast"),
    ("decompose", "997", "--d-max", "8"),
    ("decompose", "997", "--d-max", "8", "--format", "csv"),
    ("decompose", "997", "--d-max", "8", "--format", "json"),
    ("verify", "--x", "300", "--d-max", "4"),
    ("coeffs", "5"),
    ("coeffs", "5", "--format", "csv"),
    ("coeffs", "5", "--format", "json"),
    ("constants", "--cross-check-cut", "10000"),
    ("constants", "--cross-check-cut", "10000", "--format", "json"),
    ("scan", "--grid-max", "1000", "--grid-ratio", "10"),
    ("scan", "--grid-max", "1000", "--grid-ratio", "10", "--format", "json"),
    ("fit", "--input", "SCAN_CSV"),
], ids=" ".join)
def test_output_file_holds_the_stdout_bytes(tmp_path, capsys, argv):
    table = tmp_path / "scan.csv"
    table.write_text("x,err_lo,err_hi,ratio_hi\n100,0.5,0.6,1\n"
                     "1000,1.5,1.6,1\n10000,3.5,3.6,1\n")
    argv = [str(table) if arg == "SCAN_CSV" else arg for arg in argv]
    code, out, err = run(capsys, *argv)
    target = tmp_path / "out"
    assert run(capsys, *argv, "--output", str(target)) == (code, "", err)
    assert out
    assert _mask_seconds(target.read_bytes().decode()) == _mask_seconds(out)


def test_argparse_usage_error_is_exit_2():
    proc = subprocess.run([sys.executable, "-m", "qtv.cli", "eval", "1",
                           "--evaluator", "wrong"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2


REUSE_SEQUENCE = [
    ("eval", "1000"),
    ("decompose", "997", "--format", "csv"),
    ("verify", "--x", "1000"),
    ("eval", "1", "--evaluator", "wrong"),
    ("scan", "--grid-max", "1000", "--grid-ratio", "10", "--format", "json"),
    ("verify", "--x", "1000"),
]


def _fresh_process(*argv):
    """Exit code, stdout and stderr of argv as the first command of a
    new interpreter, at a fixed help width."""
    proc = subprocess.run([sys.executable, "-m", "qtv.cli", *argv],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "COLUMNS": "80"})
    return proc.returncode, proc.stdout, proc.stderr


def _in_process(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse: usage errors and --help
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parser_reuse_matches_a_fresh_process(capsys, monkeypatch):
    # main parses with one parser per process: nothing one call parses
    # may leak into the next, and help texts stay as built
    monkeypatch.setenv("COLUMNS", "80")
    for argv in REUSE_SEQUENCE:
        code, out, err = _in_process(capsys, *argv)
        first = _fresh_process(*argv)
        assert (code, _mask_seconds(out), err) == \
            (first[0], _mask_seconds(first[1]), first[2]), argv
    assert code == 0
    xs = {check["params"]["x"] for check in json.loads(out)["checks"]
          if "x" in check["params"]}
    assert xs == {"1000"}  # the --x append list starts empty every call
    for argv in (("--help",), ("eval", "--help")):
        assert _in_process(capsys, *argv) == _fresh_process(*argv)
