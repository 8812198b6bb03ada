"""In-memory span tracer for the traced benchmark run.

Spans are recorded from the benchmark's own files: `install` replaces public
functions of the package with timing wrappers at the places where callers
look them up (module globals, class attributes, the CLI runner table), and
restores the originals afterwards. No file of the package changes.

A span is `[name, start, end, parent, op, info]`. `parent` is the index of
the enclosing span (-1 for an op span), `op` the index of the benchmark op
it belongs to, and `info` a small outcome tag (result size, status or the
name of the exception raised).
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import types
from collections import defaultdict
from time import perf_counter

OP = "op"
QUANTUM_FUNCS = ("quad_indices", "quad_refined_sum", "c_k_values",
                 "coamoeba_area")
REALSPLIT_FUNCS = ("maximal_split", "m_prime",
                   "oriented_solution_count") + QUANTUM_FUNCS
INVARIANT_FUNCS = ("refined_count", "random_generic_moments", "r_from_n")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, self.op, None])
        self._stack.append(sid)
        self.spans[sid][1] = perf_counter()
        return sid

    def _close(self, sid: int, info) -> None:
        span = self.spans[sid]
        span[2] = perf_counter()
        span[5] = info
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, op: int | None = None):
        if op is not None:
            self.op = op
        sid = self._open(name)
        try:
            yield
        finally:
            self._close(sid, None)

    def wrap(self, name: str, fn, describe=None):
        """fn with every call recorded as one span."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._open(name)
            info = None
            try:
                result = fn(*args, **kwargs)
                if describe is not None:
                    info = describe(result)
                return result
            except BaseException as exc:
                info = type(exc).__name__
                raise
            finally:
                self._close(sid, info)
        return traced

    def wrap_iter(self, name: str, fn):
        """A generator function whose every `next` is recorded as one span,
        so enumeration time is separated from what the consumer does."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            items = iter(fn(*args, **kwargs))
            while True:
                sid = self._open(name)
                try:
                    item = next(items)
                except StopIteration:
                    self._close(sid, "end")
                    return
                except BaseException as exc:
                    self._close(sid, type(exc).__name__)
                    raise
                self._close(sid, "item")
                yield item
        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(["name", "start", "end", "parent", "op",
                                 "info"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _solve_status(result) -> str:
    return "accepted" if result is not None else "rejected"


def _text_bytes(text: str) -> int:
    return len(text.encode("utf-8"))


@contextlib.contextmanager
def install(tracer: Tracer, tr):
    """Wrap the traced entry points of package `tr` for the duration."""
    undo: list[tuple] = []

    def patch(owner, attr, wrapper):
        if isinstance(owner, dict):
            undo.append((owner.__setitem__, attr, owner[attr]))
            owner[attr] = wrapper
        else:
            undo.append((functools.partial(setattr, owner), attr,
                         owner.__dict__[attr]))
            setattr(owner, attr, wrapper)

    inv, rs, cli = tr.invariants, tr.realsplit, getattr(tr, "cli", None)
    patch(inv, "enumerate_types",
          tracer.wrap_iter("trees.enumerate_types", inv.enumerate_types))
    patch(inv, "solve",
          tracer.wrap("solver.solve", inv.solve, _solve_status))
    laurent = tr.HalfLaurent
    patch(laurent, "exact_div",
          tracer.wrap("laurent.exact_div", laurent.exact_div))
    patch(laurent, "__mul__", tracer.wrap("laurent.mul", laurent.__mul__))

    def describe_split(split):
        return len(split.quad_vertices)

    for module, names, layer in ((inv, INVARIANT_FUNCS, "invariants"),
                                 (rs, REALSPLIT_FUNCS, "realsplit")):
        for name in names:
            describe = describe_split if name == "maximal_split" else None
            wrapper = tracer.wrap(f"{layer}.{name}", getattr(module, name),
                                  describe)
            patch(module, name, wrapper)
            if cli is not None and name in cli.__dict__:
                patch(cli, name, wrapper)
    if cli is not None:
        for name, runner in list(cli._RUNNERS.items()):
            patch(cli._RUNNERS, name, tracer.wrap(f"cli.run_{name}", runner))
        patch(cli, "render_svg",
              tracer.wrap("svgplot.render_svg", cli.render_svg, _text_bytes))
        json_proxy = types.SimpleNamespace(
            **{k: getattr(json, k) for k in ("load", "loads", "dumps")})
        json_proxy.dumps = tracer.wrap("cli.json_encode", json.dumps,
                                       _text_bytes)
        patch(cli, "json", json_proxy)
    try:
        yield tracer
    finally:
        for setter, attr, original in reversed(undo):
            setter(attr, original)


# -- per-layer metrics -------------------------------------------------------


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(tracer: Tracer, overhead_ratio: float, startup_ms: float,
                  output_bytes: int) -> tuple[dict, dict]:
    """Per-layer metrics, name -> (value, unit), from the recorded spans.

    Span times are raw wall-clock times. overhead_ratio is the traced ops'
    time over the same ops' time untraced. Returns (metrics, self_ms_per_op
    by span name).
    """
    spans = tracer.spans
    child_s = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_s[parent] += end - start
    dur = defaultdict(float)
    self_s = defaultdict(float)
    info = defaultdict(list)            # one outcome tag per call
    per_call = defaultdict(list)
    attempts = 0
    op_s = []
    uncovered = 0.0
    for sid, (name, start, end, parent, _, tag) in enumerate(spans):
        d = end - start
        if name == OP:
            op_s.append(d)
            uncovered += d - child_s[sid]
            continue
        dur[name] += d
        self_s[name] += d - child_s[sid]
        info[name].append(tag)
        if name in ("solver.solve", "invariants.r_from_n"):
            per_call[name].append(d)
        if (name == "invariants.refined_count" and parent >= 0
                and spans[parent][0] == "invariants.random_generic_moments"):
            attempts += 1
    ops = len(op_s)
    total_s = sum(op_s)
    solves = len(info["solver.solve"])

    def per_op(x):
        return x / ops

    def share(x):
        return x / total_s

    m = {
        "trees.types_per_op":
            (per_op(info["trees.enumerate_types"].count("item")), "count/op"),
        "trees.enum_ms_per_op":
            (per_op(self_s["trees.enumerate_types"]) * 1e3, "ms/op"),
        "solver.solves_per_op": (per_op(solves), "count/op"),
        "solver.solve_us_p50": (_median(per_call["solver.solve"]) * 1e6, "us"),
        "solver.solve_ms_per_op":
            (per_op(self_s["solver.solve"]) * 1e3, "ms/op"),
        "solver.accept_ratio":
            (info["solver.solve"].count("accepted") / solves if solves else 0.0,
             "ratio"),
        "solver.degenerate_per_op":
            (per_op(info["solver.solve"].count("DegenerateType")), "count/op"),
        "invariants.refined_count_ms_per_op":
            (per_op(dur["invariants.refined_count"]) * 1e3, "ms/op"),
        "invariants.sample_ms_per_op":
            (per_op(dur["invariants.random_generic_moments"]) * 1e3, "ms/op"),
        "invariants.sample_attempts_per_op": (per_op(attempts), "count/op"),
        "invariants.sample_share":
            (share(dur["invariants.random_generic_moments"]), "ratio"),
        "invariants.r_from_n_us":
            (_median(per_call["invariants.r_from_n"]) * 1e6, "us"),
        "laurent.exact_div_calls_per_op":
            (per_op(len(info["laurent.exact_div"])), "count/op"),
        "laurent.exact_div_us_per_op":
            (per_op(self_s["laurent.exact_div"]) * 1e6, "us/op"),
        "laurent.mul_calls_per_op": (per_op(len(info["laurent.mul"])), "count/op"),
        "laurent.mul_us_per_op": (per_op(self_s["laurent.mul"]) * 1e6, "us/op"),
        "realsplit.maximal_split_us_per_op":
            (per_op(self_s["realsplit.maximal_split"]) * 1e6, "us/op"),
        "realsplit.m_prime_us_per_op":
            (per_op(self_s["realsplit.m_prime"]) * 1e6, "us/op"),
        "realsplit.quantum_us_per_op": (per_op(sum(
            self_s[f"realsplit.{f}"] for f in QUANTUM_FUNCS)) * 1e6, "us/op"),
        "realsplit.quad_vertices_per_op":
            (per_op(sum(info["realsplit.maximal_split"])), "count/op"),
        "svgplot.render_ms_per_op":
            (per_op(self_s["svgplot.render_svg"]) * 1e3, "ms/op"),
        "svgplot.svg_bytes_per_op":
            (per_op(sum(info["svgplot.render_svg"])), "B/op"),
        "cli.startup_ms": (startup_ms, "ms"),
        "cli.runner_ms_per_op": (per_op(sum(
            v for k, v in dur.items() if k.startswith("cli.run_"))) * 1e3,
            "ms/op"),
        "cli.encode_ms_per_op": (per_op(self_s["cli.json_encode"]) * 1e3, "ms/op"),
        "cli.output_bytes_per_op": (per_op(output_bytes), "B/op"),
    }
    layers = ("trees", "solver", "invariants", "laurent", "realsplit",
              "svgplot", "cli")
    for layer in layers:
        m[f"{layer}.self_share"] = (share(sum(
            v for k, v in self_s.items() if k.split(".")[0] == layer)), "ratio")
    m["trace.uncovered_share"] = (share(uncovered), "ratio")
    m["trace.op_ms_p50"] = (_median(op_s) * 1e3, "ms")
    m["trace.spans_per_op"] = (per_op(len(spans) - ops), "count/op")
    m["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    self_ms = {k: per_op(v) * 1e3 for k, v in sorted(self_s.items())}
    return m, self_ms
