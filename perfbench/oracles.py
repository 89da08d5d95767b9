"""Correctness oracles that use neither iacloop's linter nor its parser.

* ``protocol``: every synthetic cell is replayed from its seed with the
  synthetic backend's own defect bookkeeping (``initial_generation`` then
  ``synthetic_step(None)``, which repairs as if every live defect was
  flagged).  Live defects are counted by kind: ``unused_parameter`` is a
  warning, every other kind an error.  The per-trial, per-iteration sums must
  equal ``results.json``; the CSV must hold their mean and sample standard
  deviation.
* ``lint_corpus``: generated templates must report exactly the generator's
  live-defect counts, fixtures must match ``tests/fixtures/lint_golden.json``,
  and syntax-error files must report one E0000 diagnostic.
* ``noisy_replies``: a reply built around a template must extract to exactly
  that text with its known counts; a reply with no template must record
  ``extraction_failed``.  Counts carried forward on failed records are not
  pinned.
"""

from __future__ import annotations

import json
import math
import statistics
import xml.etree.ElementTree as ElementTree
from dataclasses import dataclass
from typing import Any, Optional

_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def mix64(*components: int) -> int:
    """The documented cell-seed derivation: a splitmix64 finalizer chain."""
    acc = 0x9E3779B97F4A7C15
    for c in components:
        acc = _splitmix64(acc ^ (c & _MASK64))
    return acc


def live_counts(backend: Any) -> tuple[int, int]:
    """(errors, warnings) the linter must report for a synthetic backend's template."""
    warnings = sum(1 for d in backend.live if d.kind == "unused_parameter")
    return len(backend.live) - warnings, warnings


# ---------------------------------------------------------------------------
# protocol
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProtocolSpec:
    seed: int
    cases: int
    trials: int
    generations: int
    iterations: int
    p_fix: float
    p_spawn: float
    stubborn_fraction: float
    defects: tuple[int, int]


@dataclass
class ProtocolExpectation:
    totals: list[list[list[int]]]  # [trial][iteration] -> [errors, warnings]
    cell_bytes: dict[tuple[int, int, int], int]  # reply bytes per (trial, case, generation)


def protocol_expectation(gateway: Any, store: Any, spec: ProtocolSpec) -> ProtocolExpectation:
    totals = [[[0, 0] for _ in range(spec.iterations + 1)] for _ in range(spec.trials)]
    cell_bytes = {}
    for trial in range(spec.trials):
        for case in range(spec.cases):
            for generation in range(spec.generations):
                params = gateway.SyntheticParams(
                    p_fix=spec.p_fix,
                    p_spawn=spec.p_spawn,
                    stubborn_fraction=spec.stubborn_fraction,
                    seed=mix64(spec.seed, trial, case, generation),
                )
                backend = gateway.SyntheticBackend(params, initial_defects=spec.defects, store=store)
                size = len(backend.initial_generation().encode("utf-8"))
                for iteration in range(spec.iterations + 1):
                    if iteration:
                        size += len(backend.synthetic_step(None).encode("utf-8"))
                    errors, warnings = live_counts(backend)
                    totals[trial][iteration][0] += errors
                    totals[trial][iteration][1] += warnings
                cell_bytes[(trial, case, generation)] = size
    return ProtocolExpectation(totals, cell_bytes)


def check_protocol_results(expected: ProtocolExpectation, results: dict) -> list[str]:
    problems = []
    failures = results.get("failures") or []
    if failures:
        problems.append(f"{len(failures)} failed cells in results.json")
    trials = results.get("trials", [])
    if len(trials) != len(expected.totals):
        return problems + [f"results.json holds {len(trials)} trials, expected {len(expected.totals)}"]
    for trial, (want, got) in enumerate(zip(expected.totals, trials)):
        if got.get("per_iteration_totals") != want:
            problems.append(f"trial {trial} totals {got.get('per_iteration_totals')} != oracle {want}")
    return problems


def expected_stats(expected: ProtocolExpectation) -> list[tuple[float, float, float, float]]:
    """Per iteration: mean and sample std of errors, then of warnings, across trials."""
    rows = []
    for iteration in range(len(expected.totals[0])):
        errors = [t[iteration][0] for t in expected.totals]
        warnings = [t[iteration][1] for t in expected.totals]
        rows.append((
            statistics.fmean(errors), statistics.stdev(errors),
            statistics.fmean(warnings), statistics.stdev(warnings),
        ))
    return rows


def check_protocol_exports(expected: ProtocolExpectation, csv_text: str, svg_text: str) -> list[str]:
    rows = expected_stats(expected)
    lines = csv_text.strip().splitlines()
    if len(lines) != len(rows) + 1:
        return [f"CSV has {len(lines)} lines, expected {len(rows) + 1}"]
    problems = []
    for iteration, (line, want) in enumerate(zip(lines[1:], rows)):
        fields = line.split(",")
        got = [float(x) for x in fields[1:]]
        if int(fields[0]) != iteration or any(not math.isclose(g, w, abs_tol=1e-5) for g, w in zip(got, want)):
            problems.append(f"CSV row {iteration} {line!r} != oracle {want}")
    try:
        svg = ElementTree.fromstring(svg_text)
    except ElementTree.ParseError as exc:
        return problems + [f"SVG is not well-formed: {exc}"]
    bars = [e for e in svg.iter() if e.get("class") == "bar"]
    if len(bars) != len(rows):
        problems.append(f"SVG has {len(bars)} bars, expected {len(rows)}")
    return problems


# ---------------------------------------------------------------------------
# lint_corpus
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LintExpectation:
    kind: str  # "counts" | "golden" | "syntax"
    counts: Optional[tuple[int, int]] = None
    golden: Optional[tuple[dict, ...]] = None


def parse_lint_output(fmt: str, stdout: str) -> list[dict]:
    """Diagnostics from ``iacloop lint`` output, as dicts (pointer only in json)."""
    if fmt == "json":
        return json.loads(stdout)
    if not stdout.strip():
        return []
    diagnostics = []
    for block in stdout.rstrip("\n").split("\n\n"):
        head, location = block.split("\n")
        code, message = head.split(" ", 1)
        prefix = "Error location - "
        if not location.startswith(prefix):
            raise ValueError(f"unexpected location line {location!r}")
        _, line, column = location[len(prefix):].rsplit(":", 2)
        diagnostics.append({"code": code, "message": message, "line": int(line), "column": int(column)})
    return diagnostics


def check_lint_output(expect: LintExpectation, fmt: str, exit_code: int, stdout: str) -> list[str]:
    try:
        diagnostics = parse_lint_output(fmt, stdout)
    except (ValueError, KeyError) as exc:
        return [f"unparseable {fmt} output: {exc}"]
    errors = sum(1 for d in diagnostics if d["code"].startswith("E"))
    warnings = sum(1 for d in diagnostics if d["code"].startswith("W"))
    problems = []
    if errors + warnings != len(diagnostics):
        problems.append("diagnostic code with neither E nor W prefix")
    if fmt == "json" and any(d.get("severity") != ("error" if d["code"][0] == "E" else "warning") for d in diagnostics):
        problems.append("severity does not match code prefix")
    want_exit = 2 if errors else 0
    if exit_code != want_exit:
        problems.append(f"exit code {exit_code}, expected {want_exit}")
    if expect.kind == "counts":
        if (errors, warnings) != expect.counts:
            problems.append(f"counts {(errors, warnings)} != generator {expect.counts}")
    elif expect.kind == "golden":
        keys = ("code", "pointer", "line", "column", "message") if fmt == "json" else ("code", "line", "column", "message")
        got = [{k: d.get(k) for k in keys} for d in diagnostics]
        want = [{k: d[k] for k in keys} for d in expect.golden]
        if got != want:
            problems.append(f"diagnostics {got} != golden {want}")
    elif [d["code"] for d in diagnostics] != ["E0000"]:
        problems.append(f"codes {[d['code'] for d in diagnostics]} != ['E0000']")
    return problems


# ---------------------------------------------------------------------------
# noisy_replies
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReplyPlan:
    kind: str
    text: str  # the full reply
    expect: str  # "template" | "none" | "any"
    template: Optional[str] = None  # exact text a "template" reply must extract to
    counts: Optional[tuple[int, int]] = None


def check_noisy_trace(replies: tuple[ReplyPlan, ...], exit_code: int, trace: dict) -> list[str]:
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    records = trace.get("records", [])
    if len(records) != len(replies):
        return problems + [f"{len(records)} records for {len(replies)} replies"]
    for index, (plan, record) in enumerate(zip(replies, records)):
        where = f"record {index} ({plan.kind})"
        failed = record["extraction_failed"]
        if record["index"] != index:
            problems.append(f"{where}: index {record['index']}")
        if plan.expect == "template":
            got = (record["error_count"], record["warning_count"])
            if failed or record["template_text"] != plan.template:
                problems.append(f"{where}: did not extract the embedded template")
            elif got != plan.counts:
                problems.append(f"{where}: counts {got} != generator {plan.counts}")
        elif plan.expect == "none":
            if not failed:
                problems.append(f"{where}: non-answer not recorded as extraction_failed")
        elif not failed:
            text = record["template_text"]
            try:
                json.loads(text)
            except ValueError:
                problems.append(f"{where}: extracted text is not JSON")
            if text not in plan.text:
                problems.append(f"{where}: extracted text is not part of the reply")
    return problems
