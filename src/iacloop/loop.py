"""The iterate-lint-refeed loop for a single (prompt, generation) cell.

Each turn sends a fresh two-message conversation (system + user) rather than
accumulating history, which bounds prompt growth.  Message strings are pinned
exactly so traces are reproducible byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Optional

from .gateway import (
    Backend,
    ChatMessage,
    NoTemplateFound,
    ScriptExhausted,
    TransportError,
    extract_template,
    generate,
)
from .linter import LintReport, format_diagnostic, lint_template
from .schema_store import SchemaStore

__all__ = [
    "SYSTEM_PROMPT",
    "FEEDBACK_HEADER",
    "FILE_ALIAS",
    "BenchmarkCase",
    "IterationRecord",
    "LoopTrace",
    "BackendFailure",
    "build_initial_messages",
    "build_feedback_messages",
    "render_diagnostics",
    "run_loop",
]

SYSTEM_PROMPT = (
    "You are an expert AWS CloudFormation engineer. "
    "Respond with a single JSON CloudFormation template and no other text."
)

# Every conversation opens with this one message; a ChatMessage is immutable.
_SYSTEM_MESSAGE = ChatMessage("system", SYSTEM_PROMPT)

FEEDBACK_HEADER = "Here is a CloudFormation template:\n"

# The file name diagnostics are located in when fed back to the model.
FILE_ALIAS = "template.json"

_FEEDBACK_INSTRUCTION = (
    "\nModify the template to fix these problems. "
    "Respond with only the corrected JSON template."
)

# Sent when the loop continues past a clean report (early_stop off).
_CLEAN_INSTRUCTION = (
    "\nRunning cfn-lint produced no problems. "
    "Respond with the same JSON template unchanged."
)


@dataclass(frozen=True)
class BenchmarkCase:
    """One natural-language prompt for a template to generate."""

    id: str
    prompt: str

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("case id must be non-empty")
        if not self.prompt:
            raise ValueError("case prompt must be non-empty")

    @classmethod
    def from_file(cls, path: str | Path) -> "BenchmarkCase":
        """The case a prompt file holds, id from the filename stem; a
        ValueError names the file."""
        path = Path(path)
        try:
            return cls(id=path.stem, prompt=path.read_text(encoding="utf-8").strip())
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


# Frozen: a repeated reply's turn holds the record object of the turn before.
@dataclass(frozen=True, kw_only=True)
class IterationRecord:
    error_count: int
    warning_count: int
    extraction_failed: bool = False
    template_text: str
    # Exactly the diagnostics text the next turn feeds back ("" when clean).
    diagnostics_rendered: str


# What a failed extraction carries forward when no record precedes it.
_NO_RECORD = IterationRecord(error_count=0, warning_count=0, template_text="", diagnostics_rendered="")


@dataclass
class LoopTrace:
    case_id: str
    generation_index: int
    records: list[IterationRecord] = field(default_factory=list)

    def counts(self) -> list[tuple[int, int]]:
        return [(r.error_count, r.warning_count) for r in self.records]

    def to_dict(self) -> dict:
        """The trace as JSON data; each record's ``"index"`` is its position."""
        return {**vars(self), "records": [{"index": i, **vars(r)} for i, r in enumerate(self.records)]}

    @classmethod
    def from_dict(cls, data: dict) -> "LoopTrace":
        """Raises ValueError unless the records' indexes count from 0."""
        rows = data["records"]
        if [r["index"] for r in rows] != list(range(len(rows))):
            raise ValueError("record indexes must count from 0")
        records = [IterationRecord(**{k: v for k, v in r.items() if k != "index"}) for r in rows]
        return cls(**{**data, "records": records})

    def text(self) -> str:
        """The trace file's text, the bytes of ``json.dumps(self.to_dict(),
        indent=2) + "\\n"``; the one place that format is built.

        ``json.dumps`` formats indented output in pure Python.  Here the
        layout is written out, and each string goes through the C escaper
        that ``json.dumps`` uses, once per distinct string, since a cell's
        repeated replies share one.
        """
        escaped: dict[str, str] = {}

        def quote(text: str) -> str:
            quoted = escaped.get(text)
            if quoted is None:
                quoted = escaped[text] = encode_basestring_ascii(text)
            return quoted

        items = ",\n".join(
            "    {\n"
            f'      "index": {i},\n'
            f'      "error_count": {r.error_count},\n'
            f'      "warning_count": {r.warning_count},\n'
            f'      "extraction_failed": {"true" if r.extraction_failed else "false"},\n'
            f'      "template_text": {quote(r.template_text)},\n'
            f'      "diagnostics_rendered": {quote(r.diagnostics_rendered)}\n'
            "    }"
            for i, r in enumerate(self.records)
        )
        records = f"[\n{items}\n  ]" if items else "[]"
        return (
            "{\n"
            f'  "case_id": {quote(self.case_id)},\n'
            f'  "generation_index": {self.generation_index},\n'
            f'  "records": {records}\n'
            "}\n"
        )

    def write(self, path: str | Path) -> None:
        """Write the trace file, ``text()``."""
        Path(path).write_text(self.text(), encoding="utf-8")


class BackendFailure(RuntimeError):
    """The backend failed mid-cell; the partial trace is preserved."""

    def __init__(self, message: str, trace: LoopTrace):
        super().__init__(message)
        self.trace = trace


def build_initial_messages(case: BenchmarkCase) -> list[ChatMessage]:
    return [_SYSTEM_MESSAGE, ChatMessage("user", case.prompt)]


def render_diagnostics(report: LintReport) -> str:
    """Blank-line separated two-line diagnostic blocks, the loop's feedback payload."""
    return "\n\n".join(format_diagnostic(d, FILE_ALIAS) for d in report.diagnostics)


def build_feedback_messages(prev_template: str, rendered: str) -> list[ChatMessage]:
    """Fresh two-message conversation refeeding the template and its rendered
    diagnostics; an empty rendering asks for the template unchanged."""
    if rendered:
        instruction = "\nRunning cfn-lint produced:\n" + rendered + _FEEDBACK_INSTRUCTION
    else:
        instruction = _CLEAN_INSTRUCTION
    user = FEEDBACK_HEADER + prev_template + instruction
    return [_SYSTEM_MESSAGE, ChatMessage("user", user)]


def run_loop(
    case: BenchmarkCase,
    backend: Backend,
    store: SchemaStore,
    *,
    max_iterations: int,
    early_stop: bool = False,
    generation_index: int = 0,
) -> LoopTrace:
    """Run one loop cell: initial generation plus up to max_iterations feedback rounds.

    Raises ValueError unless ``max_iterations`` is at least 1.  Record 0 is
    the initial generation.  On extraction failure the iteration is still
    consumed: counts carry forward from the previous record and the next
    round refeeds the last successfully extracted template.  With
    early_stop on, a report with zero errors and zero warnings is terminal.
    Templates are linted by block: a cell's turns resend mostly the same
    blocks, and each is checked once per process.
    """
    if max_iterations < 1:
        raise ValueError("max_iterations must be >= 1")
    trace = LoopTrace(case_id=case.id, generation_index=generation_index)
    last_template: Optional[str] = None
    last_raw: Optional[str] = None

    for index in range(max_iterations + 1):
        if last_template is None:
            # Initial generation; also re-prompts from scratch when no
            # template has ever been extracted.
            messages = build_initial_messages(case)
        else:
            # The last record carries the last extracted template's rendering.
            rendered = trace.records[-1].diagnostics_rendered
            messages = build_feedback_messages(last_template, rendered)

        try:
            raw = generate(messages, backend)
        except (TransportError, ScriptExhausted) as exc:
            raise BackendFailure(f"backend failed at iteration {index}: {exc}", trace) from exc

        # A repeated reply's turn holds the previous record itself: extract,
        # lint and render are pure functions of the reply, and a failed
        # extraction carries forward that record's counts and rendering, its own.
        if raw == last_raw:
            trace.records.append(trace.records[-1])
            continue
        last_raw = raw

        try:
            document = extract_template(raw)
        except NoTemplateFound:
            previous = trace.records[-1] if trace.records else _NO_RECORD
            trace.records.append(replace(previous, template_text=raw, extraction_failed=True))
            continue

        report = lint_template(document, store, by_block=True)
        trace.records.append(
            IterationRecord(
                template_text=document.text,
                error_count=report.error_count,
                warning_count=report.warning_count,
                diagnostics_rendered=render_diagnostics(report),
            )
        )
        last_template = document.text
        if early_stop and not report.diagnostics:
            break

    return trace
