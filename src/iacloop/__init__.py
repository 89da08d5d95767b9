"""Lint-driven repair loop for LLM-generated CloudFormation templates.

Subpackages: JSON decoding with on-demand spans (located_json), resource
schemas (schema_store), the rule-registry linter (linter), generation
backends (gateway), the feedback loop (loop), and the benchmark harness
(bench).
"""

from .located_json import (
    DuplicateKeyError,
    JsonDocument,
    JsonSyntaxError,
    MalformedPointerError,
    SourceSpan,
    parse_located,
    resolve_spans,
)
from .schema_store import (
    PropertySpec,
    ResourceSchema,
    SchemaFormatError,
    SchemaStore,
    builtin_core_schemas,
    load_schema_dir,
)
from .linter import Diagnostic, LintReport, Severity, format_diagnostic, lint_template
from .gateway import (
    ChatMessage,
    GenerationConfig,
    HttpBackend,
    NoTemplateFound,
    ScriptedBackend,
    ScriptExhausted,
    SyntheticBackend,
    SyntheticParams,
    TransportError,
    extract_template,
    generate,
    mix64,
)
from .loop import (
    BackendFailure,
    BenchmarkCase,
    IterationRecord,
    LoopTrace,
    build_feedback_messages,
    build_initial_messages,
    run_loop,
)
from .bench import (
    AggregateStats,
    BenchmarkConfig,
    BenchmarkResult,
    TrialResult,
    aggregate,
    detect_plateau,
    export_csv,
    export_json,
    export_svg,
    load_cases,
    run_benchmark,
)

__version__ = "0.1.0"
