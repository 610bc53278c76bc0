"""qtv benchmark: seeded closed-loop workloads with checked outputs.

    python3 qbench/run.py --workload oracle-scan --seed 1 --seconds 25 --trace 0

One client in one process sends each op after the previous one returns.
The ops run in a fresh worker interpreter (qbench/worker.py) on the
qtv sources under src/; this process then checks every output against
an independent reference (qbench/checks.py), outside the timed region.

--trace 0 prints the end-to-end metrics.  --trace 1 runs the same ops
twice, untraced and then with every public qtv function wrapped in a
span (qbench/spans.py), checks that both runs printed the same values,
and prints the per-layer metrics.  Either way the last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
--workload all runs the three workloads one after another.

The exit code is not 0 only when the benchmark cannot run or cannot
check its outputs; failed ops and width misses are reported, not fatal.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import mpmath

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# Cold interpreters timed for setup_s; the first one may compile bytecode
# and is not counted.
SETUP_SPAWNS = 9
_SETUP = ("import time; t = time.perf_counter(); import qtv.cli; "
          "qtv.cli.build_parser(); print(time.perf_counter() - t)")
# Time a worker may take beyond --seconds before the run is abandoned.
WORKER_SLACK = 100.0

UNITS = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_p50_s": "s",
    "op_p90_s": "s",
    "width_met_frac": "ratio",
    "peak_rss_mb": "MB",
}


def measure_setup() -> float:
    """Median time for a fresh interpreter to import qtv.cli and build the parser."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_SPAWNS + 1):
        done = subprocess.run([sys.executable, "-c", _SETUP], env=env, cwd=ROOT,
                              capture_output=True, text=True, check=True,
                              timeout=60)
        times.append(float(done.stdout))
    return statistics.median(times[1:])


def spawn(workload: str, seed: int, seconds: float, out: Path,
          count: int | None = None, spans: Path | None = None) -> dict:
    """Run the ops in a fresh worker interpreter and read back its records."""
    cmd = [sys.executable, str(BENCH / "worker.py"), workload, str(seed),
           str(seconds), str(out)]
    if count is not None:
        cmd += ["--count", str(count)]
    if spans is not None:
        cmd += ["--trace", str(spans)]
    subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, check=True,
                   timeout=seconds + WORKER_SLACK)
    return json.loads(out.read_text())


def _without_seconds(value):
    if isinstance(value, dict):
        return {k: _without_seconds(v) for k, v in value.items() if k != "seconds"}
    if isinstance(value, list):
        return [_without_seconds(v) for v in value]
    return value


def _printed_values(rec: dict):
    """What an op returned, minus wall-clock fields."""
    out = rec["out"]
    try:
        out = _without_seconds(json.loads(out)) if out else out
    except ValueError:
        pass
    return rec["code"], out, rec["result"], rec["raised"]


def quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile.

    A mean of all order statistics weighted by Beta(p(n+1), (1-p)(n+1)),
    so one op more or less on either side moves it by a fraction of the
    gap between neighbours rather than by the whole gap, as the sample
    quantile does where a workload's mix of op kinds leaves gaps.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    cdf = [mpmath.betainc(a, b, 0, i / n, regularized=True) for i in range(n + 1)]
    return float(sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(xs)))


def end_to_end(records: list[dict], wall: float, misses: int,
               peak_rss_mb: float) -> dict[str, float]:
    latencies = [rec["latency"] for rec in records]
    return {
        "setup_s": measure_setup(),
        "ops_per_s": len(records) / wall,
        "op_p50_s": quantile(latencies, 0.5),
        "op_p90_s": quantile(latencies, 0.9),
        "width_met_frac": 1 - misses / len(records),
        "peak_rss_mb": peak_rss_mb,
    }


def bench(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    """Run one workload; return the result object and the lines to print."""
    from checks import check, tally
    from workloads import op_list

    OUT.mkdir(exist_ok=True)
    tag = f"{workload}-{seed}"
    run = spawn(workload, seed, seconds, OUT / f"{tag}.json")
    records = run["records"]
    ops = op_list(workload, seed, len(records))
    verdicts = [check(op, rec) for op, rec in zip(ops, records)]

    if trace:
        from spans import METRICS, layer_metrics

        spans_path = OUT / f"{tag}-spans.json"
        traced = spawn(workload, seed, seconds, OUT / f"{tag}-traced.json",
                       count=len(records), spans=spans_path)
        verdicts = [
            (failed, miss, why) if failed or _printed_values(a) == _printed_values(b)
            else (True, miss, "traced run printed other values")
            for (failed, miss, why), a, b in zip(verdicts, records, traced["records"])
        ]
        values = layer_metrics(
            json.loads(spans_path.read_text()), len(records),
            op_wall=sum(rec["latency"] for rec in traced["records"]),
            untraced_wall=run["wall"], traced_wall=traced["wall"],
            out_bytes=sum(len(rec["out"].encode()) for rec in traced["records"]),
            head_cache=tuple(traced["head_cache"]))
        units = {name: unit for name, unit, _ in METRICS}
    counts = tally(verdicts)
    if not trace:
        values = end_to_end(records, run["wall"], counts["width_misses"],
                            run["peak_rss_mb"])
        units = UNITS

    lines = [f"workload {workload}, seed {seed}, {counts['attempted']} ops "
             f"({'traced' if trace else 'untraced'})"]
    for name, value in values.items():
        lines.append(f"  {name:<40} {value:>14.6g} {units[name]}")
    for name in ("failed_frac", "width_miss_frac"):
        lines.append(f"  {name:<40} {counts[name]:>14.6g} ratio")
    for op, (bad, _, why) in zip(ops, verdicts):
        if bad:
            print(f"failed: {op.kind} {' '.join(op.argv) or op.x} {op.tol}: {why}",
                  file=sys.stderr)
    result = {
        "correct": counts["failed"] == 0,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }
    return result, lines


def main(argv: list[str] | None = None) -> int:
    if not (SRC / "qtv" / "cli.py").is_file():
        print(f"error: no qtv sources at {SRC / 'qtv'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        result, lines = bench(workload, args.seed, args.seconds, bool(args.trace))
        print("\n".join(lines))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
