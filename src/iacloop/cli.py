"""Command-line entry point: lint / loop / bench / report subcommands.

Exit codes: 0 success, 1 usage or configuration error, 2 lint errors present
(lint subcommand only), 3 runtime failure.  Flags win over the --config file,
which wins over defaults; ``BenchmarkConfig`` owns the defaults of the flags
of ``loop`` and ``bench`` that set its fields.  The argument parser is built on
the first ``dispatch`` and shared by every later call in the process; each call
parses into a fresh namespace and nothing mutates the parser.  An argv that starts
with a command is parsed once, by that command's parser; any other (``--config``
or ``--help`` first, an unknown word, none) goes through the top-level parser.
A usage error prints the usage of the parser that declares the rejected
arguments: a bad ``--config`` file the top-level one, ``report`` with no output
``report``'s.
Importing this module loads only the settings and what ``lint`` runs (the
linter, the JSON decoder and the schema store); ``loop``, ``bench`` and
``report`` import the backends, the loop and the benchmark harness when they
run.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import fields
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Optional, Sequence

from .linter import Diagnostic, format_diagnostic, lint_template
from .located_json import JsonSyntaxError, parse_located
from .schema_store import load_store
from .settings import BenchmarkConfig, MissingSetting

__all__ = ["dispatch", "main"]


class UsageError(Exception):
    def __init__(self, message: str, parser: argparse.ArgumentParser) -> None:
        super().__init__(message)
        self.parser = parser  # the parser that declares the rejected arguments


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message, self)


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="iacloop", description="CloudFormation lint-driven repair loop tools")
    parser.add_argument("--config", help="JSON config file, given before the command; flags override its values")
    sub = parser.add_subparsers(dest="command")
    parser.commands = sub.choices  # each command's parser, by name

    schemas = _Parser(add_help=False)  # the flag lint, loop and bench share
    schemas.add_argument("--schemas", dest="schemas_dir", help="schema directory (builtin store when absent)")
    lint = sub.add_parser("lint", parents=[schemas], help="lint one template file")
    lint.add_argument("file")
    lint.add_argument("--strict-types", action="store_true", help="unknown resource types are errors")
    lint.add_argument("--format", choices=("text", "json"), default="text")

    # The flags loop and bench share.  A flag of either that sets a BenchmarkConfig
    # field stores under its name, with no default: BenchmarkConfig owns the defaults.
    run = _Parser(parents=[schemas], add_help=False)
    run.add_argument("--backend", choices=("synthetic", "scripted", "http"))
    run.add_argument("--iterations", type=int)
    run.add_argument("--seed", dest="master_seed", type=int)
    run.add_argument("--script-dir", help="scripted backend response directory")
    run.add_argument("--api-base", dest="api_base_url", help="http backend base URL")
    run.add_argument("--model", help="http backend model name")
    run.add_argument("--p-fix", type=float)
    run.add_argument("--p-spawn", type=float)
    run.add_argument("--stubborn-fraction", type=float)
    run.add_argument("--defects-min", dest="initial_defects_min", type=int)
    run.add_argument("--defects-max", dest="initial_defects_max", type=int)

    loop = sub.add_parser("loop", parents=[run], help="run one feedback-loop cell")
    loop.add_argument("--prompt-file", required=True)
    loop.add_argument("--early-stop", action="store_true", default=None)
    loop.add_argument("--out", required=True, help="trace JSON output path")
    loop.add_argument("--temperature", type=float)

    bench = sub.add_parser("bench", parents=[run], help="run the full benchmark protocol")
    bench.add_argument("--cases", dest="cases_dir", required=True, help="directory of *.txt prompt files")
    bench.add_argument("--trials", type=int)
    bench.add_argument("--generations", dest="generations_per_case", type=int)
    bench.add_argument("--out", required=True, help="results JSON output path")
    bench.add_argument("--parallel", dest="parallelism", type=int)
    bench.add_argument("--traces-dir", help="persist per-cell traces here")

    report = sub.add_parser("report", help="export charts and tables from results JSON")
    report.add_argument("--in", dest="results_in", required=True)
    report.add_argument("--csv")
    report.add_argument("--svg")
    report.add_argument("--skip-initial", action="store_true", help="omit iteration 0 from the chart")

    return parser


_CONFIG_KEYS = ("schemas_dir", "script_dir", "api_base_url")


def _load_config_file(path: Optional[str], parser: argparse.ArgumentParser) -> dict:
    """The settings in the ``--config`` file; its usage errors name ``parser``, which declares the flag."""
    if not path:
        return {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read config file {path}: {exc}", parser) from exc
    try:
        data = parse_located(text).value
    except JsonSyntaxError as exc:
        raise UsageError(f"config file {path}:{exc.span.line}:{exc.span.column}: {exc.reason}", parser) from exc
    if not isinstance(data, dict):
        raise UsageError(f"config file {path} must hold a JSON object", parser)
    for key, value in data.items():
        if key not in _CONFIG_KEYS:
            raise UsageError(f"config file {path}: unknown key {key!r} (known: {', '.join(_CONFIG_KEYS)})", parser)
        if not isinstance(value, str):
            raise UsageError(f"config file {path}: {key} must be a string", parser)
    return data


_BENCH_FIELDS = {f.name for f in fields(BenchmarkConfig)}


def _given_fields(args: argparse.Namespace) -> dict:
    """The BenchmarkConfig fields that a flag or the config file set."""
    return {name: value for name, value in vars(args).items() if name in _BENCH_FIELDS and value is not None}


def _check_out(path: str, what: str) -> None:
    """Fail before any backend call or cell when ``--out`` cannot be written."""
    out = Path(path)
    if not out.parent.is_dir():
        raise FileNotFoundError(f"{what} directory not found: {out.parent}")
    if out.is_dir():
        raise IsADirectoryError(f"--out names a directory: {out}")


def _json_rows(rows: Sequence[tuple[str, str, str, int, int, int, Optional[str]]]) -> str:
    """The ``--format json`` report of (code, message, severity, line,
    column, byte_offset, pointer) rows: the bytes of ``json.dumps(..., indent=2)``
    over one object per row.  ``indent`` makes ``json.dumps`` format in pure
    Python; here the layout is written out and each string goes through the
    C escaper that ``json.dumps`` uses."""
    items = ",\n".join(
        "  {\n"
        f'    "code": {encode_basestring_ascii(code)},\n'
        f'    "message": {encode_basestring_ascii(message)},\n'
        f'    "severity": {encode_basestring_ascii(severity)},\n'
        f'    "line": {line},\n'
        f'    "column": {column},\n'
        f'    "byte_offset": {byte_offset},\n'
        f'    "pointer": {"null" if pointer is None else encode_basestring_ascii(pointer)}\n'
        "  }"
        for code, message, severity, line, column, byte_offset, pointer in rows
    )
    return f"[\n{items}\n]" if items else "[]"


def _cmd_lint(args: argparse.Namespace) -> int:
    store = load_store(args.schemas_dir)
    try:
        text = Path(args.file).read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:
        print(f"cannot read {args.file}: {exc}", file=sys.stderr)
        return 3
    try:
        document = parse_located(text)
    except JsonSyntaxError as exc:
        # Not part of the rule registry: a parse failure is an E0000 finding,
        # in the same two-line layout and the same JSON row (pointer null), so
        # tooling sees one shape.
        diagnostics = (Diagnostic("E0000", exc.reason, exc.span, None),)
    else:
        diagnostics = lint_template(document, store, strict_unknown_types=args.strict_types).diagnostics
    severities = [d.severity for d in diagnostics]
    if args.format == "json":
        print(_json_rows([
            (code, message, severity, *span, pointer)
            for (code, message, span, pointer), severity in zip(diagnostics, severities)
        ]))
    elif diagnostics:
        print("\n\n".join(format_diagnostic(d, args.file) for d in diagnostics))
    return 2 if "error" in severities else 0


def _cmd_loop(args: argparse.Namespace) -> int:
    from .bench import Cell, CellFailure, Cells, run_cell
    from .gateway import make_backend
    from .loop import BenchmarkCase

    _check_out(args.out, "trace")
    cfg = BenchmarkConfig(cases_dir=args.prompt_file, **_given_fields(args))  # cases_dir is not read
    store = load_store(cfg.schemas_dir)
    case = BenchmarkCase.from_file(args.prompt_file)
    cells = Cells([case], store, make_backend(cfg, store), cfg.iterations, cfg.early_stop)
    outcome = run_cell(cells, Cell(0, 0, 0), cfg.master_seed)  # a one-cell run, seeded with --seed itself
    if isinstance(outcome, CellFailure):
        outcome.trace.write(args.out)
        print(f"backend failure: {outcome.error}", file=sys.stderr)
        return 3
    outcome.write(args.out)
    counts = ", ".join(f"{r.error_count}e/{r.warning_count}w" for r in outcome.records)
    print(f"{case.id}: {len(outcome.records)} records ({counts})")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from .bench import run_benchmark, write_results

    cfg = BenchmarkConfig(**_given_fields(args))
    _check_out(args.out, "results")
    result = run_benchmark(cfg)
    plateau = write_results(result, args.out)["plateau_index"]
    print(f"{result.completed} cells completed, {len(result.failures)} failed; results -> {args.out}")
    if not result.completed:
        print(f"no cell completed; first failure: {result.failures[0].error}", file=sys.stderr)
        return 3
    if plateau is not None:
        print(f"plateau at iteration {plateau}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .bench import AggregateStats, export_csv, export_svg, read_results

    if not (args.csv or args.svg):
        raise UsageError("report requires --csv, --svg or both", _build_parser().commands["report"])
    try:
        data = read_results(args.results_in)
        if not isinstance(data, dict):
            raise ValueError("not a JSON object")
        stats = AggregateStats.from_dict(data["stats"]) if data.get("stats") else None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"results file {args.results_in} is malformed: {exc}") from exc
    if stats is None:
        print(f"results file {args.results_in} has no aggregate stats (needs >= 2 trials)", file=sys.stderr)
        return 3
    if args.csv:
        export_csv(stats, args.csv)
    if args.svg:
        export_svg(stats, args.svg, include_initial=not args.skip_initial)
    print("wrote " + ", ".join(path for path in (args.csv, args.svg) if path))
    return 0


_COMMANDS = {
    "lint": _cmd_lint,
    "loop": _cmd_loop,
    "bench": _cmd_bench,
    "report": _cmd_report,
}


def dispatch(argv: Sequence[str]) -> int:
    parser = _build_parser()
    command = parser.commands.get(argv[0]) if argv else None
    try:
        if command is None:
            args = parser.parse_args(list(argv))
        else:  # the namespace the top-level parse would give, in one pass
            args = command.parse_args(argv[1:], argparse.Namespace(config=None, command=argv[0]))
        if not args.command:
            parser.print_usage(sys.stderr)
            return 1
        config = _load_config_file(args.config, parser)
        for key in _CONFIG_KEYS:
            if not getattr(args, key, None):
                setattr(args, key, config.get(key))
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        exc.parser.print_usage(sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return 0 if exc.code in (0, None) else 1
    except MissingSetting as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
