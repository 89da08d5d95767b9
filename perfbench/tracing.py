"""Wrapper-based span tracing of iacloop's layers, kept in memory.

The tracer replaces each traced function with a timing wrapper in every
``iacloop`` module namespace that holds it, so a call such as
``iacloop.loop.extract_template(...)`` or ``iacloop.gateway.parse_located(...)``
records a span without any change to the package itself.  Spans live in one
in-memory list and are written out only after the traced pass.

Each thread keeps its own span stack.  A span opened on a thread whose stack
is empty (a benchmark pool worker) takes as parent the innermost open span of
the main thread, which runs the ``run_benchmark`` call that scheduled it.
A span's self time is its duration minus the union of the intervals its
children cover, so children running on two worker threads at once are not
subtracted twice.
"""

from __future__ import annotations

import inspect
import itertools
import json
import sys
import threading
import types
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

# Modules whose public functions are traced, in the order they are named in
# span names ("located_json.parse_located", "cli.dispatch", ...).
TRACED_MODULES = ("located_json", "schema_store", "linter", "gateway", "loop", "bench", "cli")

# Per-node helpers called hundreds of times per template.  Wrapping them
# would make the tracer's own cost dominate the layers it measures and hold
# millions of spans; their time stays in the caller's self time.
UNTRACED_HELPERS = frozenset({
    "located_json.node_at",
    "located_json.render_fragment",
    "located_json.render_value",
    "located_json.escape_pointer_token",
})

# Synthetic backend methods traced as their own layer.
SYNTHETIC_METHODS = ("complete", "synthetic_step", "initial_generation")


def _text_bytes(args: tuple, kwargs: dict) -> int:
    text = args[0] if args else kwargs.get("text", "")
    return len(text.encode("utf-8")) if isinstance(text, str) else 0


def _prompt_bytes(args: tuple, kwargs: dict) -> int:
    conversation = args[0] if args else kwargs.get("conversation", ())
    return sum(len(m.content.encode("utf-8")) for m in conversation)


def _diagnostic_count(result: Any) -> int:
    return len(result.diagnostics)


# Amounts recorded with a span: measured from the arguments ("in") or the
# result ("out") at the layer boundary, so ratios come from where the work is.
AMOUNT_IN: dict[str, Callable[[tuple, dict], int]] = {
    "located_json.parse_located": _text_bytes,
    "gateway.generate": _prompt_bytes,
}
AMOUNT_OUT: dict[str, Callable[[Any], int]] = {
    "linter.lint_template": _diagnostic_count,
}


@dataclass(frozen=True)
class Span:
    span_id: int
    parent_id: int  # 0 for a root span
    name: str
    start: float
    end: float
    failed: bool
    amount: int


class Tracer:
    """Collects spans from wrappers it installs into loaded iacloop modules."""

    def __init__(self) -> None:
        self._records: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main_ident = threading.get_ident()
        self._restore: list[tuple[Any, str, Any]] = []

    # -- recording -------------------------------------------------------------

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main_ident:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable) -> Callable:
        records = self._records
        ids = self._ids
        main_stack = self._main_stack
        stack_of = self._stack
        amount_in = AMOUNT_IN.get(name)
        amount_out = AMOUNT_OUT.get(name)

        def traced(*args, **kwargs):
            stack = stack_of()
            if stack:
                parent = stack[-1]
            else:
                parent = main_stack[-1] if main_stack else 0
            span_id = next(ids)
            amount = amount_in(args, kwargs) if amount_in is not None else 0
            stack.append(span_id)
            failed = True
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                end = perf_counter()
                stack.pop()
                if not failed and amount_out is not None:
                    amount = amount_out(result)
                records.append((span_id, parent, name, start, end, failed, amount))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function in every iacloop namespace that holds it."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        wrappers: dict[int, Callable] = {}
        for short in TRACED_MODULES:
            module = sys.modules[f"iacloop.{short}"]
            for attr in module.__all__:
                fn = getattr(module, attr)
                name = f"{short}.{attr}"
                if (
                    isinstance(fn, types.FunctionType)
                    and fn.__module__ == module.__name__
                    and not inspect.isgeneratorfunction(fn)
                    and name not in UNTRACED_HELPERS
                ):
                    wrappers[id(fn)] = self.wrap(name, fn)
        modules = [m for n, m in list(sys.modules.items()) if n == "iacloop" or n.startswith("iacloop.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrapper)
        backend_cls = sys.modules["iacloop.gateway"].SyntheticBackend
        for method in SYNTHETIC_METHODS:
            original = backend_cls.__dict__[method]
            self._restore.append((backend_cls, method, original))
            setattr(backend_cls, method, self.wrap(f"gateway.synthetic.{method}", original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results -------------------------------------------------------------------

    @property
    def spans(self) -> list[Span]:
        return [Span(*r) for r in self._records]

    def write(self, path: Path) -> None:
        """One JSON line per span; times in microseconds from the first span."""
        records = sorted(self._records, key=lambda r: r[3])
        origin = records[0][3] if records else 0.0
        with path.open("w", encoding="utf-8") as out:
            for span_id, parent, name, start, end, failed, amount in records:
                out.write(json.dumps({
                    "id": span_id, "parent": parent, "name": name,
                    "start_us": round((start - origin) * 1e6, 1),
                    "dur_us": round((end - start) * 1e6, 1),
                    "failed": failed, "amount": amount,
                }) + "\n")


def _covered(interval: tuple[float, float], children: list[tuple[float, float]]) -> float:
    """Length of the union of ``children`` clipped to ``interval``."""
    lo, hi = interval
    total = 0.0
    cursor = lo
    for start, end in sorted(children):
        start = max(start, cursor)
        end = min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


@dataclass
class LayerStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    failed: int = 0
    amount: int = 0


@dataclass
class SpanSummary:
    """Per-name totals plus the derived quantities the per-layer report needs."""

    layers: dict[str, LayerStats] = field(default_factory=dict)
    parse_attempts_in_extract: int = 0
    cell_span_s: float = 0.0  # run_loop spans scheduled by run_benchmark
    benchmark_span_s: float = 0.0
    benchmark_tail_s: float = 0.0  # run_benchmark time after its last cell ended
    span_count: int = 0

    def get(self, name: str) -> LayerStats:
        return self.layers.get(name, LayerStats())


def summarize(spans: list[Span]) -> SpanSummary:
    by_id = {s.span_id: s for s in spans}
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent_id:
            children.setdefault(s.parent_id, []).append((s.start, s.end))
    summary = SpanSummary(span_count=len(spans))
    for s in spans:
        stats = summary.layers.setdefault(s.name, LayerStats())
        duration = s.end - s.start
        kids = children.get(s.span_id, [])
        stats.calls += 1
        stats.total_s += duration
        stats.self_s += duration - _covered((s.start, s.end), kids)
        stats.failed += s.failed
        stats.amount += s.amount
        parent = by_id.get(s.parent_id)
        if parent is None:
            continue
        if s.name == "located_json.parse_located" and parent.name == "gateway.extract_template":
            summary.parse_attempts_in_extract += 1
        if s.name == "loop.run_loop" and parent.name == "bench.run_benchmark":
            summary.cell_span_s += duration
    for s in spans:
        if s.name != "bench.run_benchmark":
            continue
        summary.benchmark_span_s += s.end - s.start
        kids = children.get(s.span_id, [])
        last_child_end = max((end for _, end in kids), default=s.start)
        summary.benchmark_tail_s += s.end - last_child_end - _covered((last_child_end, s.end), kids)
    return summary


# Functions whose self time is reported together as bench.aggregate_export.
AGGREGATE_EXPORT = (
    "bench.aggregate",
    "bench.detect_plateau",
    "bench.results_to_dict",
    "bench.write_results",
    "bench.read_results",
    "bench.export",
    "bench.export_csv",
    "bench.export_json",
    "bench.export_svg",
)


def layer_metrics(
    summary: SpanSummary,
    rounds: int,
    turns: int,
    workers: int,
    untraced_s: float,
    traced_s: float,
    scale: float,
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics by name, as (value, unit).  Times are per round and
    multiplied by ``scale``, the speed correction of the traced pass;
    ``untraced_s`` and ``traced_s`` are the two passes' raw wall times: the
    passes run back to back, and each one's speed factor rests on the few
    probes taken between its calls, so the factors differ by more than
    tracing costs."""

    def self_ms(name: str) -> float:
        return summary.get(name).self_s * scale * 1e3 / rounds

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    parse = summary.get("located_json.parse_located")
    lint = summary.get("linter.lint_template")
    extract = summary.get("gateway.extract_template")
    generate = summary.get("gateway.generate")
    run_benchmark_self = summary.get("bench.run_benchmark").self_s - summary.benchmark_tail_s
    aggregate_export = sum(summary.get(n).self_s for n in AGGREGATE_EXPORT) + summary.benchmark_tail_s
    return {
        "turns": (turns / rounds, "count"),
        "located_json.parse_located.calls": (parse.calls / rounds, "count"),
        "located_json.parse_located.self_ms": (self_ms("located_json.parse_located"), "ms"),
        "located_json.parse_located.calls_per_turn": (ratio(parse.calls, turns), "ratio"),
        "located_json.parse_located.us_per_kb": (ratio(parse.total_s * scale * 1e6, parse.amount / 1024), "us/KB"),
        "linter.lint_template.calls": (lint.calls / rounds, "count"),
        "linter.lint_template.self_ms": (self_ms("linter.lint_template"), "ms"),
        "linter.lint_template.calls_per_turn": (ratio(lint.calls, turns), "ratio"),
        "linter.diagnostics_per_call": (ratio(lint.amount, lint.calls), "ratio"),
        "linter.format_diagnostic.self_ms": (self_ms("linter.format_diagnostic"), "ms"),
        "schema_store.builtin_core_schemas.self_ms": (self_ms("schema_store.builtin_core_schemas"), "ms"),
        # Building the store is mostly its child parse_schema_document calls,
        # which caching the store would remove.
        "schema_store.builtin_core_schemas.total_ms": (
            summary.get("schema_store.builtin_core_schemas").total_s * scale * 1e3 / rounds, "ms"),
        "gateway.extract_template.calls": (extract.calls / rounds, "count"),
        "gateway.extract_template.self_ms": (self_ms("gateway.extract_template"), "ms"),
        "gateway.extract_template.parse_attempts_per_call": (
            ratio(summary.parse_attempts_in_extract, extract.calls), "ratio"),
        "gateway.extract_template.failed_ratio": (ratio(extract.failed, extract.calls), "ratio"),
        "gateway.synthetic.complete.self_ms": (self_ms("gateway.synthetic.complete"), "ms"),
        "gateway.synthetic.synthetic_step.self_ms": (self_ms("gateway.synthetic.synthetic_step"), "ms"),
        "gateway.synthetic.initial_generation.self_ms": (self_ms("gateway.synthetic.initial_generation"), "ms"),
        "loop.run_loop.self_ms": (self_ms("loop.run_loop"), "ms"),
        "loop.render_diagnostics.self_ms": (self_ms("loop.render_diagnostics"), "ms"),
        "loop.prompt_kb_per_turn": (ratio(generate.amount / 1024, generate.calls), "KB"),
        "bench.run_benchmark.self_ms": (run_benchmark_self * scale * 1e3 / rounds, "ms"),
        "bench.cell_busy_ratio": (ratio(summary.cell_span_s, summary.benchmark_span_s * workers), "ratio"),
        "bench.aggregate_export.self_ms": (aggregate_export * scale * 1e3 / rounds, "ms"),
        "cli.dispatch.self_ms": (self_ms("cli.dispatch"), "ms"),
        "tracing.spans": (summary.span_count / rounds, "count"),
        "tracing.overhead_ms": ((traced_s - untraced_s) * scale * 1e3 / rounds, "ms"),
        "tracing.overhead_pct": (ratio(100.0 * (traced_s - untraced_s), untraced_s), "%"),
    }


def layer_table(summary: SpanSummary, rounds: int) -> list[str]:
    """Human-readable per-name table of raw wall-clock self time per round,
    sorted by self time."""
    total_self = sum(s.self_s for s in summary.layers.values()) or 1.0
    lines = [f"{'span':<44} {'calls/round':>12} {'raw self ms':>14} {'self %':>7}"]
    for name, stats in sorted(summary.layers.items(), key=lambda kv: -kv[1].self_s):
        lines.append(
            f"{name:<44} {stats.calls / rounds:>12.1f} {stats.self_s * 1e3 / rounds:>14.2f} "
            f"{100 * stats.self_s / total_self:>6.1f}%"
        )
    return lines
