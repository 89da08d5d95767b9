"""Command-line entry point: lint / loop / bench / report subcommands.

Exit codes: 0 success, 1 usage or configuration error, 2 lint errors present
(lint subcommand only), 3 runtime failure.  Flags win over the --config file,
which wins over defaults; ``BenchmarkConfig`` owns the defaults of the flags
``loop`` and ``bench`` share.  The argument parser is built on the first
``dispatch`` and shared by every later call in the process; each call parses
into a fresh namespace and nothing mutates the parser.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import fields
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Optional, Sequence

from .bench import (
    BenchmarkConfig,
    aggregate,
    detect_plateau,
    export_csv,
    export_json,
    export_svg,
    AggregateStats,
    read_results,
    run_benchmark,
    write_results,
)
from .gateway import GenerationConfig, MissingSetting, make_backend
from .linter import Diagnostic, format_diagnostic, lint_template
from .located_json import JsonSyntaxError, parse_located
from .loop import BackendFailure, BenchmarkCase, LoopConfig, run_loop
from .schema_store import load_store

__all__ = ["dispatch", "main"]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="iacloop", description="CloudFormation lint-driven repair loop tools")
    parser.add_argument("--config", help="JSON config file; flags override its values")
    sub = parser.add_subparsers(dest="command")

    lint = sub.add_parser("lint", help="lint one template file")
    lint.add_argument("file")
    lint.add_argument("--schemas", dest="schemas_dir", help="schema directory (builtin store when absent)")
    lint.add_argument("--strict-types", action="store_true", help="unknown resource types are errors")
    lint.add_argument("--format", choices=("text", "json"), default="text")

    # The flags loop and bench share.  A flag that sets a BenchmarkConfig field
    # stores under its name, with no default: BenchmarkConfig owns the defaults.
    run = _Parser(add_help=False)
    run.add_argument("--iterations", type=int)
    run.add_argument("--seed", dest="master_seed", type=int)
    run.add_argument("--schemas", dest="schemas_dir")
    run.add_argument("--script-dir", help="scripted backend response directory")
    run.add_argument("--api-base", dest="api_base_url", help="http backend base URL")
    run.add_argument("--p-fix", type=float)
    run.add_argument("--p-spawn", type=float)
    run.add_argument("--stubborn-fraction", type=float)

    loop = sub.add_parser("loop", parents=[run], help="run one feedback-loop cell")
    loop.add_argument("--prompt-file", required=True)
    loop.add_argument("--backend", choices=("http", "scripted", "synthetic"), required=True)
    loop.add_argument("--early-stop", action="store_true")
    loop.add_argument("--out", required=True, help="trace JSON output path")
    loop.add_argument("--initial-defects", type=int, default=8)
    loop.add_argument("--model")
    loop.add_argument("--temperature", type=float, default=0.0)

    bench = sub.add_parser("bench", parents=[run], help="run the full benchmark protocol")
    bench.add_argument("--cases", dest="cases_dir", required=True, help="directory of *.txt prompt files")
    bench.add_argument("--backend", choices=("synthetic", "scripted", "http"))
    bench.add_argument("--trials", type=int)
    bench.add_argument("--generations", dest="generations_per_case", type=int)
    bench.add_argument("--out", required=True, help="results JSON output path")
    bench.add_argument("--parallel", dest="parallelism", type=int)
    bench.add_argument("--defects-min", dest="initial_defects_min", type=int)
    bench.add_argument("--defects-max", dest="initial_defects_max", type=int)
    bench.add_argument("--traces-dir", help="persist per-cell traces here")

    report = sub.add_parser("report", help="export charts and tables from results JSON")
    report.add_argument("--in", dest="results_in", required=True)
    report.add_argument("--csv")
    report.add_argument("--svg")
    report.add_argument("--json", dest="json_out")
    report.add_argument("--skip-initial", action="store_true", help="omit iteration 0 from the chart")

    return parser


_CONFIG_KEYS = ("schemas_dir", "script_dir", "api_base_url")


def _load_config_file(path: Optional[str]) -> dict:
    if not path:
        return {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    try:
        data = parse_located(text).value
    except JsonSyntaxError as exc:
        raise UsageError(f"config file {path}:{exc.span.line}:{exc.span.column}: {exc.reason}") from exc
    if not isinstance(data, dict):
        raise UsageError(f"config file {path} must hold a JSON object")
    for key, value in data.items():
        if key not in _CONFIG_KEYS:
            raise UsageError(f"config file {path}: unknown key {key!r} (known: {', '.join(_CONFIG_KEYS)})")
        if not isinstance(value, str):
            raise UsageError(f"config file {path}: {key} must be a string")
    return data


# Each BenchmarkConfig field and its default (MISSING for cases_dir).
_BENCH_DEFAULTS = {f.name: f.default for f in fields(BenchmarkConfig)}


def _given_fields(args: argparse.Namespace) -> dict:
    """The BenchmarkConfig fields that a flag or the config file set."""
    return {name: value for name, value in vars(args).items() if name in _BENCH_DEFAULTS and value is not None}


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
        diagnostics, errors = [Diagnostic("E0000", exc.reason, exc.span, None)], 1
    else:
        report = lint_template(document, store, strict_unknown_types=args.strict_types)
        diagnostics, errors = report.diagnostics, report.error_count
    if args.format == "json":
        print(_json_rows([
            (code, message, "error" if code[0] == "E" else "warning", line, column, byte_offset, pointer)
            for code, message, (line, column, byte_offset), pointer in diagnostics
        ]))
    elif diagnostics:
        print("\n\n".join(format_diagnostic(d, args.file) for d in diagnostics))
    return 2 if errors else 0


def _cmd_loop(args: argparse.Namespace) -> int:
    _check_out(args.out, "trace")
    settings = {**_BENCH_DEFAULTS, **_given_fields(args)}
    store = load_store(args.schemas_dir)
    try:
        case = BenchmarkCase.from_file(args.prompt_file)
    except OSError as exc:
        print(f"cannot read prompt file: {exc}", file=sys.stderr)
        return 3
    backend = make_backend(
        args.backend,
        store,
        p_fix=settings["p_fix"],
        p_spawn=settings["p_spawn"],
        stubborn_fraction=settings["stubborn_fraction"],
        initial_defects=args.initial_defects,
        script_dir=args.script_dir,
        api_base_url=args.api_base_url,
    )(settings["master_seed"])
    loop_cfg = LoopConfig(
        max_iterations=settings["iterations"],
        early_stop=args.early_stop,
        generation=GenerationConfig(model=settings["model"], temperature=args.temperature),
    )
    try:
        trace = run_loop(case, backend, store, loop_cfg)
    except BackendFailure as exc:
        exc.trace.write(args.out)
        print(f"backend failure: {exc}", file=sys.stderr)
        return 3
    trace.write(args.out)
    counts = ", ".join(f"{r.error_count}e/{r.warning_count}w" for r in trace.records)
    print(f"{case.id}: {len(trace.records)} records ({counts})")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    cfg = BenchmarkConfig(**_given_fields(args))
    _check_out(args.out, "results")
    result = run_benchmark(cfg)
    stats = aggregate(result.trials) if cfg.trials >= 2 else None
    # detect_plateau needs window + 1 = 3 means; --iterations 1 gives 2.
    plateau = detect_plateau(stats.mean_errors) if stats is not None and len(stats) > 2 else None
    write_results(result, args.out, stats=stats, plateau_index=plateau)
    print(f"{result.completed} cells completed, {len(result.failures)} failed; results -> {args.out}")
    if not result.completed:
        print(f"no cell completed; first failure: {result.failures[0].error}", file=sys.stderr)
        return 3
    if plateau is not None:
        print(f"plateau at iteration {plateau}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
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
    wrote = []
    if args.csv:
        export_csv(stats, args.csv)
        wrote.append(args.csv)
    if args.svg:
        export_svg(stats, args.svg, include_initial=not args.skip_initial)
        wrote.append(args.svg)
    if args.json_out:
        export_json(stats, args.json_out)
        wrote.append(args.json_out)
    if not wrote:
        raise UsageError("report requires at least one of --csv, --svg, --json")
    print("wrote " + ", ".join(wrote))
    return 0


_COMMANDS = {
    "lint": _cmd_lint,
    "loop": _cmd_loop,
    "bench": _cmd_bench,
    "report": _cmd_report,
}


def dispatch(argv: Sequence[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return 0 if exc.code in (0, None) else 1
    if not args.command:
        parser.print_usage(sys.stderr)
        return 1
    try:
        config = _load_config_file(args.config)
        for key in _CONFIG_KEYS:
            if not getattr(args, key, None):
                setattr(args, key, config.get(key))
        return _COMMANDS[args.command](args)
    except (UsageError, MissingSetting) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
