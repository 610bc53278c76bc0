"""Seeded op streams for the three workloads, and how one op is run.

An op is one call a user of qtv makes: a `qtv.cli.main(argv)` call with
`--format json` and its output captured, or, where the CLI's 15-digit
printing cannot show the requested width, a call to the library.  Each
workload is an endless stream of batches, and a run is a whole number of
batches.  A batch is a fixed mix of op kinds, and each input of a kind
is drawn once from each of equally wide slices of its range, in seeded
order and at a seeded point inside the slice.  Runs with different seeds
thus see different inputs with the same spread of sizes, which keeps
their latency quantiles close without choosing the inputs.  A batch
takes about 25 s on the seed code, so that one run is mostly one batch
and the slices are as narrow as the run allows.
"""

from __future__ import annotations

import io
import math
import random
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction

import qtv
import qtv.cli
from qtv.cli import EXIT_BUDGET, EXIT_OK

WORKLOADS = ("oracle-scan", "blocks-large", "tight-budget")

# Tolerances of the ops that print 15 digits.
TOLERANCES = ("1e-9", "1e-12")
# A tolerance no route can reach: the scale cap refuses it with exit 3.
REFUSED_TOLERANCE = "1e-100001"


@dataclass(frozen=True)
class Op:
    """One request.  CLI ops carry argv; library ops leave it empty."""

    kind: str
    x: str = ""
    tol: str = ""
    argv: tuple[str, ...] = ()
    expect: int = EXIT_OK
    classes: tuple[int, ...] = ()  # decompose rows checked against qd_blocks


class _Draws:
    """Seeded draws, stratified per key.

    spread(key, n) deals from a shuffled deck of n points, one in each
    slice [j/n, (j+1)/n); a batch that draws a key n times covers [0, 1)
    once, slice by slice.  pick and pair deal the same way.
    """

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self._decks: dict[str, list] = {}

    def _deal(self, key: str, make):
        """Next card of the deck for key; make() builds a new deck when
        the last one is used up, and it is shuffled."""
        deck = self._decks.get(key)
        if not deck:
            deck = make()
            self.rng.shuffle(deck)
            self._decks[key] = deck
        return deck.pop()

    def spread(self, key: str, n: int) -> float:
        return self._deal(key, lambda: [(j + self.rng.random()) / n for j in range(n)])

    def log_uniform(self, key: str, n: int, lo_exp: float, hi_exp: float) -> float:
        return 10 ** (lo_exp + (hi_exp - lo_exp) * self.spread(key, n))

    def integer(self, key: str, n: int, lo_exp: float, hi_exp: float) -> str:
        return str(round(self.log_uniform(key, n, lo_exp, hi_exp)))

    def pick(self, key: str, options: tuple, n: int):
        """Like spread, over a few discrete options: a batch of n draws
        takes each option n / len(options) times, give or take one."""
        return self._deal(key, lambda: [options[j % len(options)] for j in range(n)])

    def pair(self, key: str, n: int, g: int) -> tuple[float, float]:
        """Like spread, for two inputs at once: the deck is the rank-1
        lattice {(i/n, i g/n)} under a seeded shift, which covers the
        unit square evenly as well as each side."""
        def lattice():
            s, t = self.rng.random(), self.rng.random()
            return [((i / n + s) % 1.0, (i * g / n + t) % 1.0) for i in range(n)]
        return self._deal(key, lattice)

    def rational(self, key: str, n: int, u: float, lo_exp: float, hi_exp: float) -> str:
        """p/q with q <= 7 near 10^(lo + (hi - lo) u), as the CLI reads it."""
        q = self.pick(key, (1, 2, 3, 4, 5, 6, 7), n)
        p = max(1, round(10 ** (lo_exp + (hi_exp - lo_exp) * u) * q))
        return str(Fraction(p, q))


def _width(u: float) -> str:
    """10^-k for k = 20 + 30 u, as an exact decimal such as 3.98e-38."""
    k = 20 + 30 * u
    return f"{10 ** (math.ceil(k) - k):.2f}e-{math.ceil(k)}"


def _cli_op(kind: str, *argv: str, x: str = "", tol: str = "",
            expect: int = EXIT_OK, classes: tuple[int, ...] = ()) -> Op:
    return Op(kind, x, tol, tuple(argv), expect, classes)


def _oracle_scan(draws: _Draws, rounds: int = 80):
    """Reference route, x in 1e2..1e6: three `eval` and one `scan` a round."""
    while True:
        ops = []
        for _ in range(rounds):
            for _ in range(3):
                x = draws.rational("eval q", 3 * rounds,
                                   draws.spread("eval", 3 * rounds), 2, 6)
                tol = draws.pick("eval tol", TOLERANCES, 3 * rounds)
                ops.append(_cli_op("eval", "eval", x, "--tolerance", tol,
                                   "--format", "json", x=x, tol=tol))
            x = draws.integer("scan", rounds, 2, 6)
            tol = draws.pick("scan tol", TOLERANCES, rounds)
            ops.append(_cli_op("scan", "scan", "--grid-min", x, "--grid-max", x,
                               "--tolerance", tol, "--format", "json",
                               x=x, tol=tol))
        yield ops


def _blocks_large(draws: _Draws, rounds: int = 40):
    """Block pass, x in 1e8..1e11: a decompose and a decomposed eval, then
    three fast evals that isolate CLI and formatting cost, a round."""
    tol = "1e-9"
    while True:
        ops = []
        for _ in range(rounds):
            x = draws.integer("decompose", rounds, 8, 11)
            d_max = 5 + int(46 * draws.spread("d_max", rounds))
            classes = tuple(sorted(draws.rng.sample(range(1, d_max + 1), 3)))
            ops.append(_cli_op("decompose", "decompose", x, "--d-max", str(d_max),
                               "--tolerance", tol, "--format", "json",
                               x=x, tol=tol, classes=classes))
            x = draws.integer("decomposed", rounds, 8, 11)
            ops.append(_cli_op("eval_decomposed", "eval", x,
                               "--evaluator", "decomposed", "--tolerance", tol,
                               "--format", "json", x=x, tol=tol))
            for _ in range(3):
                x = draws.integer("fast", 3 * rounds, 8, 11)
                ops.append(_cli_op("eval_fast", "eval", x, "--evaluator", "fast",
                                   "--tolerance", tol, "--format", "json",
                                   x=x, tol=tol))
        yield ops


def _tight_budget(draws: _Draws, rounds: int = 15):
    """Widths 1e-20..1e-50 on the library, the constants and verify
    commands, and one refused budget a round."""
    small = math.log10(50)
    while True:
        ops = []
        for _ in range(rounds):
            for _ in range(4):
                # Cost rises with both x and the width's exponent, so the
                # pairs come from a lattice rather than two separate decks;
                # g = 7 spaces the 60 points of the lattice the widest.
                u, v = draws.pair("q_eval", 4 * rounds, 7)
                x = draws.rational("q_eval q", 4 * rounds, u, 0, small)
                ops.append(Op("q_eval", x=x, tol=_width(v)))
            ops.append(Op("zeta_3_2", tol=_width(draws.spread("zeta", rounds))))
            ops.append(Op("main_constant", tol=_width(draws.spread("main", rounds))))
            cut = draws.integer("cut", rounds, 3, 5)
            tol = draws.pick("cut tol", TOLERANCES, rounds)
            ops.append(_cli_op("constants", "constants", "--cross-check-cut", cut,
                               "--tolerance", tol, "--format", "json",
                               x=cut, tol=tol))
            # verify's residual caps were fitted for x >= 1e3; below ~400 some
            # d = 20 checks trip (README.md, "Known breaches").
            x = draws.integer("verify", rounds, 3, 4)
            ops.append(_cli_op("verify", "verify", "--x", x, x=x))
            x = draws.rational("refuse q", rounds, draws.spread("refuse", rounds), 0, small)
            ops.append(_cli_op("refuse", "eval", x, "--tolerance", REFUSED_TOLERANCE,
                               "--format", "json", x=x, tol=REFUSED_TOLERANCE,
                               expect=EXIT_BUDGET))
        yield ops


_STREAMS = {
    "oracle-scan": _oracle_scan,
    "blocks-large": _blocks_large,
    "tight-budget": _tight_budget,
}


def batches(workload: str, seed: int):
    """Endless batches of ops for `workload`; the same seed, the same ops."""
    return _STREAMS[workload](_Draws(seed))


def op_list(workload: str, seed: int, count: int) -> list[Op]:
    """The first `count` ops of the stream."""
    ops: list[Op] = []
    for batch in batches(workload, seed):
        ops.extend(batch)
        if len(ops) >= count:
            return ops[:count]
    raise AssertionError("op streams are endless")


def _call_cli(argv: tuple[str, ...]) -> int:
    try:
        return qtv.cli.main(list(argv))
    except SystemExit as exc:  # argparse rejects the arguments
        return exc.code if isinstance(exc.code, int) else 1


def run_op(op: Op) -> dict:
    """Run one op and return its record: latency, exit code and output.

    Library ops (op.kind names the function) call through the qtv
    package.  The function is looked up at call time, so a tracer that
    replaced it sees the call.  Output is serialised after the clock
    stops.
    """
    out, err = io.StringIO(), io.StringIO()
    call = None
    if not op.argv:
        call = getattr(qtv, op.kind)
        width = qtv.PrecisionBudget(Fraction(op.tol))
        args = (Fraction(op.x), width) if op.x else (width,)
    result = None
    raised = None
    started = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            if call is None:
                code = _call_cli(op.argv)
            else:
                result = call(*args)
                code = EXIT_OK
    except Exception as exc:  # noqa: BLE001  an op that raises is a failed op
        code = None
        raised = f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - started
    if result is not None:
        enc = getattr(result, "value", result)  # QValue or Enclosure
        result = [str(enc.lo), str(enc.hi)]
    return {"latency": latency, "code": code, "out": out.getvalue(),
            "err": err.getvalue(), "raised": raised, "result": result}
