"""Child process that runs one workload's ops and writes their records.

Run by run.py in a fresh interpreter, so peak memory and caches belong
to this workload alone:

    python3 qbench/worker.py WORKLOAD SEED SECONDS OUT [--count N] [--trace SPANS]

Without --count it runs the whole number of batches whose time comes
closest to SECONDS, and at least MIN_OPS ops; with --count it replays the
first N ops.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# p90 needs at least ten samples beyond it.
MIN_OPS = 100
# Past SECONDS + GRACE a run stops after the current batch even below MIN_OPS.
GRACE = 30.0


def peak_rss_mb() -> float:
    """Peak resident memory of this process.

    Linux carries ru_maxrss across exec, so in a child it is never below
    the parent's resident size at fork; the high-water mark in
    /proc/self/status counts this interpreter alone.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("seconds", type=float)
    parser.add_argument("out")
    parser.add_argument("--count", type=int, default=None)
    parser.add_argument("--trace", default=None, metavar="SPANS")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import qtv
    if not Path(qtv.__file__).resolve().is_relative_to(SRC):
        print(f"qtv imported from {qtv.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from spans import Tracer
    from workloads import batches, run_op

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    records = []
    started = time.perf_counter()
    for done, batch in enumerate(batches(args.workload, args.seed), 1):
        for op in batch:
            if tracer:
                tracer.op = len(records)
            records.append(run_op(op))
        elapsed = time.perf_counter() - started
        if args.count is not None:
            if len(records) >= args.count:
                break
        # Stop when one more batch would overshoot SECONDS by more than
        # stopping now falls short of it.
        elif (elapsed + elapsed / done / 2 >= args.seconds
              and len(records) >= MIN_OPS
              or elapsed >= args.seconds + GRACE):
            break
    wall = time.perf_counter() - started
    if tracer:
        tracer.uninstall()

    info = qtv.tails._trigamma_head_units.cache_info()
    result = {
        "records": records[:args.count] if args.count else records,
        "wall": wall,
        "peak_rss_mb": peak_rss_mb(),
        "head_cache": [info.hits, info.misses],
    }
    Path(args.out).write_text(json.dumps(result))
    if tracer:
        Path(args.trace).write_text(json.dumps(tracer.spans))
    return 0


if __name__ == "__main__":
    sys.exit(main())
