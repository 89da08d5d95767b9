"""The iterate-lint-refeed loop for a single (prompt, generation) cell.

Each turn sends a fresh two-message conversation (system + user) rather than
accumulating history, which bounds prompt growth.  Message strings are pinned
exactly so traces are reproducible byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .gateway import (
    Backend,
    ChatMessage,
    GenerationConfig,
    NoTemplateFound,
    ScriptExhausted,
    TransportError,
    extract_template,
    generate,
)
from .linter import LintReport, Severity, format_diagnostic, lint_template
from .schema_store import SchemaStore

__all__ = [
    "SYSTEM_PROMPT",
    "FEEDBACK_HEADER",
    "BenchmarkCase",
    "IterationRecord",
    "LoopTrace",
    "LoopConfig",
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

FEEDBACK_HEADER = "Here is a CloudFormation template:\n"

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


@dataclass
class IterationRecord:
    index: int
    template_text: str
    error_count: int
    warning_count: int
    diagnostics_rendered: str
    extraction_failed: bool = False

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "error_count": self.error_count,
            "warning_count": self.warning_count,
            "extraction_failed": self.extraction_failed,
            "template_text": self.template_text,
            "diagnostics_rendered": self.diagnostics_rendered,
        }


@dataclass
class LoopTrace:
    case_id: str
    generation_index: int
    records: list[IterationRecord] = field(default_factory=list)

    def counts(self) -> list[tuple[int, int]]:
        return [(r.error_count, r.warning_count) for r in self.records]

    def to_dict(self) -> dict:
        return {
            "case_id": self.case_id,
            "generation_index": self.generation_index,
            "records": [r.to_dict() for r in self.records],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LoopTrace":
        records = [
            IterationRecord(
                index=r["index"],
                template_text=r["template_text"],
                error_count=r["error_count"],
                warning_count=r["warning_count"],
                diagnostics_rendered=r["diagnostics_rendered"],
                extraction_failed=r["extraction_failed"],
            )
            for r in data["records"]
        ]
        return cls(case_id=data["case_id"], generation_index=data["generation_index"], records=records)


@dataclass
class LoopConfig:
    max_iterations: int = 10
    early_stop: bool = False
    include_warnings_in_feedback: bool = True
    file_alias: str = "template.json"
    generation: GenerationConfig = field(default_factory=GenerationConfig)

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


class BackendFailure(RuntimeError):
    """The backend failed mid-cell; the partial trace is preserved."""

    def __init__(self, message: str, trace: LoopTrace):
        super().__init__(message)
        self.trace = trace


def build_initial_messages(case: BenchmarkCase) -> list[ChatMessage]:
    return [ChatMessage("system", SYSTEM_PROMPT), ChatMessage("user", case.prompt)]


def render_diagnostics(report: LintReport, file_alias: str, include_warnings: bool = True) -> str:
    """Blank-line separated two-line diagnostic blocks, the loop's feedback payload."""
    selected = [
        d
        for d in report.diagnostics
        if include_warnings or d.severity is Severity.ERROR
    ]
    return "\n\n".join(format_diagnostic(d, file_alias) for d in selected)


def build_feedback_messages(
    prev_template: str, report: LintReport, file_alias: str, include_warnings: bool = True
) -> list[ChatMessage]:
    """Fresh two-message conversation refeeding the template and its diagnostics."""
    if not report.diagnostics:
        raise ValueError("feedback requires a non-empty report")
    rendered = render_diagnostics(report, file_alias, include_warnings)
    if not rendered:
        # Warning-only report with warnings filtered out: feed everything
        # rather than sending an empty diagnostics block.
        rendered = render_diagnostics(report, file_alias, include_warnings=True)
    user = (
        FEEDBACK_HEADER
        + prev_template
        + "\nRunning cfn-lint produced:\n"
        + rendered
        + _FEEDBACK_INSTRUCTION
    )
    return [ChatMessage("system", SYSTEM_PROMPT), ChatMessage("user", user)]


def _build_clean_messages(prev_template: str) -> list[ChatMessage]:
    user = FEEDBACK_HEADER + prev_template + _CLEAN_INSTRUCTION
    return [ChatMessage("system", SYSTEM_PROMPT), ChatMessage("user", user)]


def run_loop(
    case: BenchmarkCase,
    backend: Backend,
    store: SchemaStore,
    cfg: Optional[LoopConfig] = None,
    generation_index: int = 0,
) -> LoopTrace:
    """Run one loop cell: initial generation plus up to max_iterations feedback rounds.

    Record 0 is the initial generation.  On extraction failure the iteration
    is still consumed: counts carry forward from the previous record and the
    next round refeeds the last successfully extracted template.  With
    early_stop on, a report with zero errors and zero warnings is terminal.
    """
    cfg = cfg if cfg is not None else LoopConfig()
    trace = LoopTrace(case_id=case.id, generation_index=generation_index)
    last_template: Optional[str] = None
    last_report: Optional[LintReport] = None

    for index in range(cfg.max_iterations + 1):
        if index == 0 or last_template is None:
            # Initial generation; also re-prompts from scratch when no
            # template has ever been extracted.
            messages = build_initial_messages(case)
        elif last_report is not None and last_report.diagnostics:
            messages = build_feedback_messages(
                last_template, last_report, cfg.file_alias, cfg.include_warnings_in_feedback
            )
        else:
            messages = _build_clean_messages(last_template)

        try:
            raw = generate(messages, cfg.generation, backend)
        except (TransportError, ScriptExhausted) as exc:
            raise BackendFailure(f"backend failed at iteration {index}: {exc}", trace) from exc

        try:
            document = extract_template(raw)
        except NoTemplateFound:
            prev = trace.records[-1] if trace.records else None
            trace.records.append(
                IterationRecord(
                    index=index,
                    template_text=raw,
                    error_count=prev.error_count if prev else 0,
                    warning_count=prev.warning_count if prev else 0,
                    diagnostics_rendered=prev.diagnostics_rendered if prev else "",
                    extraction_failed=True,
                )
            )
            continue

        report = lint_template(document, store)
        rendered = render_diagnostics(report, cfg.file_alias)
        template_text = document.text
        trace.records.append(
            IterationRecord(
                index=index,
                template_text=template_text,
                error_count=report.error_count,
                warning_count=report.warning_count,
                diagnostics_rendered=rendered,
            )
        )
        last_template = template_text
        last_report = report
        if cfg.early_stop and report.error_count == 0 and report.warning_count == 0:
            break

    return trace
