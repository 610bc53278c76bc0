"""Span tracing from outside the program, and the per-layer metrics.

Tracer.install replaces every public qtv function, at each name another
qtv module imports it under (qtv.asymptotics.q_eval, qtv.tails.iroot,
qtv.q_eval, ...), with a wrapper that records a span, so spans nest at
module boundaries.  qtv.cli.main and the functions the metrics below
name are wrapped in their own module too, so a call to one of them from
inside its module is a span as well.  A layer's self time is the time
spent in its module minus the time spent in the modules it called.
Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from fractions import Fraction

LAYERS = ("cli", "asymptotics", "blocks", "oracle", "tails", "coefficients",
          "interval", "rational")

# Function metrics: name -> the spans whose self times they add up.
FUNCTIONS = {
    "asymptotics.decompose": ("asymptotics.decompose",),
    "asymptotics.error_term": ("asymptotics.error_term",),
    "asymptotics.fast_estimate": ("asymptotics.fast_estimate",),
    "blocks.q0_blocks": ("blocks.q0_blocks",),
    "blocks.qd_blocks": ("blocks.qd_blocks",),
    "blocks.residual_report": ("blocks.residual_report",),
    "oracle.q_eval": ("oracle.q_eval",),
    "oracle.q_d_direct": ("oracle.q_d_direct",),
    "oracle.q0_direct": ("oracle.q0_direct",),
    "tails.trigamma_tail": ("tails.trigamma_tail",),
    "tails.g2_tail": ("tails.g2_tail",),
    "coefficients.zeta_3_2": ("coefficients.zeta_3_2",),
    "coefficients.main_constant": ("coefficients.main_constant",),
    "coefficients.sqrt_sum": ("coefficients.sqrt_sum",),
    "coefficients.limit_estimate": ("coefficients.limit_estimate",),
    "interval.root": ("interval.sqrt_enclosure", "interval.root_enclosure",
                      "interval.pow_enclosure"),
    "rational.iroot": ("rational.iroot",),
    "rational.format_rational": ("rational.format_rational",),
}
# Wrapped in their own module as well as at their imported names.
_HOME_SPANS = {"cli.main"} | {m for members in FUNCTIONS.values() for m in members}

COUNTED = ("asymptotics.decompose", "blocks.qd_blocks", "tails.trigamma_tail",
           "interval.root", "rational.iroot")

# Values kept from a call's arguments and result, for the derived ratios.
_NOTES = {
    "asymptotics.decompose": lambda args, result: [str(args[0]), result.op_count],
    "blocks.q0_blocks": lambda args, result: str(args[0]),
    "oracle.q_eval": lambda args, result: result.head_count,
}

# (name, unit, better) of every per-layer metric, in output order.
METRICS = (
    [(f"{layer}.self_s", "s/op", "lower") for layer in LAYERS]
    + [(f"{name}.self_s", "s/op", "lower") for name in FUNCTIONS]
    + [(f"{name}.calls", "count/op", "lower") for name in COUNTED]
    + [
        ("cli.out_bytes", "bytes/op", "lower"),
        ("asymptotics.decompose.blocks", "count/op", "lower"),
        ("asymptotics.decompose.ns_per_block", "ns", "lower"),
        ("blocks.q0_blocks.ns_per_block", "ns", "lower"),
        ("oracle.q_eval.terms", "count/op", "lower"),
        ("oracle.exact_head.ns_per_term", "ns", "lower"),
        ("oracle.scaled_head.ns_per_term", "ns", "lower"),
        ("tails.head_cache.hit_ratio", "ratio", "higher"),
        ("interval.budget_errors", "count/op", "lower"),
        ("trace.ops", "count", "higher"),
        ("trace.op_wall_s", "s/op", "lower"),
        ("trace.self_total_s", "s/op", "lower"),
        ("trace.overhead_frac", "ratio", "lower"),
    ]
)


class Tracer:
    """Records (name, start, end, parent, op, raised, note) spans."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.op = -1
        self._stack: list[int] = []
        self._restore: list[tuple[types.ModuleType, str, object]] = []

    def _wrap(self, name: str, fn):
        note = _NOTES.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            raised = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                raised = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op, raised, None)
            if note is not None:
                spans[index] = spans[index][:6] + (note(args, result),)
            return result

        return traced

    def install(self) -> None:
        """Wrap the public functions of every loaded qtv module."""
        wrapped: dict[int, object] = {}
        for name, module in sorted(sys.modules.items()):
            if name != "qtv" and not name.startswith("qtv."):
                continue
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not isinstance(fn, types.FunctionType)
                        or not fn.__module__.startswith("qtv.")):
                    continue
                span = f"{fn.__module__.rsplit('.', 1)[1]}.{fn.__name__}"
                if fn.__module__ == name and span not in _HOME_SPANS:
                    continue  # a call from its own module is not a boundary
                if id(fn) not in wrapped:
                    wrapped[id(fn)] = self._wrap(span, fn)
                self._restore.append((module, attr, fn))
                setattr(module, attr, wrapped[id(fn)])

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()


def self_times(spans: list[tuple]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[3] >= 0:
            children.setdefault(span[3], []).append((span[1], span[2]))
    result = []
    for index, (_, start, end, *_rest) in enumerate(spans):
        covered = 0.0
        reach = start
        for lo, hi in sorted(children.get(index, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append((end - start) - covered)
    return result


def layer_metrics(spans: list[tuple], ops: int, op_wall: float,
                  untraced_wall: float, traced_wall: float,
                  out_bytes: int, head_cache: tuple[int, int]) -> dict[str, float]:
    """Per-layer metrics of a traced run of `ops` ops; totals are per op.

    spans are (name, start, end, parent, op, raised, note) rows, as
    Tracer records them or as read back from its JSON.
    """
    from qtv.blocks import q0_block_cut
    from qtv.oracle import EXACT_HEAD_LIMIT

    own = self_times(spans)
    by_name: dict[str, float] = {}
    calls: dict[str, int] = {}
    for span, self_s in zip(spans, own):
        by_name[span[0]] = by_name.get(span[0], 0.0) + self_s
        calls[span[0]] = calls.get(span[0], 0) + 1
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(v for k, v in by_name.items()
                                     if k.split(".")[0] == layer) / ops
    for name, members in FUNCTIONS.items():
        out[f"{name}.self_s"] = sum(by_name.get(m, 0.0) for m in members) / ops
    for name in COUNTED:
        out[f"{name}.calls"] = sum(calls.get(m, 0) for m in FUNCTIONS[name]) / ops

    def ns_per(seconds: float, count: int) -> float:
        return seconds * 1e9 / count if count else 0.0

    blocks = q0_blocks = 0
    decompose_s = q0_s = 0.0
    head = {True: [0.0, 0], False: [0.0, 0]}  # exact head? -> [self s, terms]
    for span, self_s in zip(spans, own):
        name, note = span[0], span[6]
        if note is None:
            continue
        if name == "asymptotics.decompose":
            x, op_count = note
            blocks += op_count - q0_block_cut(Fraction(x))
            decompose_s += self_s
        elif name == "blocks.q0_blocks":
            q0_blocks += q0_block_cut(Fraction(note))
            q0_s += self_s
        elif name == "oracle.q_eval":
            bucket = head[note <= EXACT_HEAD_LIMIT]
            bucket[0] += self_s
            bucket[1] += note
    # BudgetErrors leaving the interval layer (not re-counted as they
    # pass through an enclosing interval span).
    budget_errors = sum(
        1 for span in spans
        if span[5] == "BudgetError" and span[0].startswith("interval.")
        and (span[3] < 0 or not spans[span[3]][0].startswith("interval.")))
    hits, misses = head_cache
    out.update({
        "cli.out_bytes": out_bytes / ops,
        "asymptotics.decompose.blocks": blocks / ops,
        "asymptotics.decompose.ns_per_block": ns_per(decompose_s, blocks),
        "blocks.q0_blocks.ns_per_block": ns_per(q0_s, q0_blocks),
        "oracle.q_eval.terms": (head[True][1] + head[False][1]) / ops,
        "oracle.exact_head.ns_per_term": ns_per(*head[True]),
        "oracle.scaled_head.ns_per_term": ns_per(*head[False]),
        "tails.head_cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "interval.budget_errors": budget_errors / ops,
        "trace.ops": ops,
        "trace.op_wall_s": op_wall / ops,
        "trace.self_total_s": sum(own) / ops,
        "trace.overhead_frac": traced_wall / untraced_wall - 1,
    })
    return out

