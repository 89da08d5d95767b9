"""Command-line entry point: lint / loop / bench / report subcommands.

Exit codes: 0 success, 1 usage or configuration error, 2 lint errors present
(lint subcommand only), 3 runtime failure.  Flags win over the --config file,
which wins over defaults.  The argument parser is built on the first
``dispatch`` and shared by every later call in the process; each call parses
into a fresh namespace and nothing mutates the parser.
"""

from __future__ import annotations

import argparse
import functools
import sys
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
from .linter import format_diagnostic, lint_template
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
    lint.add_argument("--schemas", help="schema directory (builtin store when absent)")
    lint.add_argument("--strict-types", action="store_true", help="unknown resource types are errors")
    lint.add_argument("--format", choices=("text", "json"), default="text")

    loop = sub.add_parser("loop", help="run one feedback-loop cell")
    loop.add_argument("--prompt-file", required=True)
    loop.add_argument("--backend", choices=("http", "scripted", "synthetic"), required=True)
    loop.add_argument("--iterations", type=int, default=10)
    loop.add_argument("--early-stop", action="store_true")
    loop.add_argument("--out", required=True, help="trace JSON output path")
    loop.add_argument("--schemas")
    loop.add_argument("--script-dir", help="scripted backend response directory")
    loop.add_argument("--seed", type=int, default=0)
    loop.add_argument("--p-fix", type=float, default=0.55)
    loop.add_argument("--p-spawn", type=float, default=0.15)
    loop.add_argument("--stubborn-fraction", type=float, default=0.25)
    loop.add_argument("--initial-defects", type=int, default=8)
    loop.add_argument("--api-base", help="http backend base URL")
    loop.add_argument("--model", default="gpt-4o")
    loop.add_argument("--temperature", type=float, default=0.0)

    bench = sub.add_parser("bench", help="run the full benchmark protocol")
    bench.add_argument("--cases", required=True, help="directory of *.txt prompt files")
    bench.add_argument("--backend", choices=("synthetic", "scripted", "http"), default="synthetic")
    bench.add_argument("--trials", type=int, default=6)
    bench.add_argument("--generations", type=int, default=5)
    bench.add_argument("--iterations", type=int, default=10)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--out", required=True, help="results JSON output path")
    bench.add_argument("--parallel", type=int, default=1)
    bench.add_argument("--schemas")
    bench.add_argument("--script-dir")
    bench.add_argument("--api-base")
    bench.add_argument("--p-fix", type=float, default=0.55)
    bench.add_argument("--p-spawn", type=float, default=0.15)
    bench.add_argument("--stubborn-fraction", type=float, default=0.25)
    bench.add_argument("--defects-min", type=int, default=6)
    bench.add_argument("--defects-max", type=int, default=10)
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
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from exc
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


def _cmd_lint(args: argparse.Namespace, config: dict) -> int:
    schemas_dir = args.schemas or config.get("schemas_dir")
    store = load_store(schemas_dir)
    try:
        text = Path(args.file).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"cannot read {args.file}: {exc}", file=sys.stderr)
        return 3
    try:
        document = parse_located(text)
    except JsonSyntaxError as exc:
        # Not part of the rule registry: parse failures surface as E0000 in
        # the same two-line layout and the same JSON row, so tooling sees
        # one shape.
        span = exc.span
        if args.format == "json":
            print(_json_rows([("E0000", exc.reason, "error", span.line, span.column, span.byte_offset, None)]))
        else:
            print(f"E0000 {exc.reason}\nError location - {args.file}:{span.line}:{span.column}")
        return 2
    report = lint_template(document, store, strict_unknown_types=args.strict_types)
    if args.format == "json":
        print(_json_rows([
            (code, message, "error" if code[0] == "E" else "warning", line, column, byte_offset, pointer)
            for code, message, (line, column, byte_offset), pointer in report.diagnostics
        ]))
    elif report.diagnostics:
        print("\n\n".join(format_diagnostic(d, args.file) for d in report.diagnostics))
    return 2 if report.error_count else 0


def _cmd_loop(args: argparse.Namespace, config: dict) -> int:
    _check_out(args.out, "trace")
    schemas_dir = args.schemas or config.get("schemas_dir")
    store = load_store(schemas_dir)
    try:
        case = BenchmarkCase.from_file(args.prompt_file)
    except OSError as exc:
        print(f"cannot read prompt file: {exc}", file=sys.stderr)
        return 3
    try:
        backend = make_backend(
            args.backend,
            store,
            p_fix=args.p_fix,
            p_spawn=args.p_spawn,
            stubborn_fraction=args.stubborn_fraction,
            initial_defects=args.initial_defects,
            script_dir=args.script_dir or config.get("script_dir"),
            api_base_url=args.api_base or config.get("api_base_url"),
        )(args.seed)
    except MissingSetting as exc:
        raise UsageError(str(exc)) from exc
    loop_cfg = LoopConfig(
        max_iterations=args.iterations,
        early_stop=args.early_stop,
        generation=GenerationConfig(model=args.model, temperature=args.temperature),
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


def _cmd_bench(args: argparse.Namespace, config: dict) -> int:
    cfg = BenchmarkConfig(
        cases_dir=args.cases,
        generations_per_case=args.generations,
        iterations=args.iterations,
        trials=args.trials,
        master_seed=args.seed,
        backend=args.backend,
        parallelism=args.parallel,
        p_fix=args.p_fix,
        p_spawn=args.p_spawn,
        stubborn_fraction=args.stubborn_fraction,
        initial_defects_min=args.defects_min,
        initial_defects_max=args.defects_max,
        script_dir=args.script_dir or config.get("script_dir"),
        api_base_url=args.api_base or config.get("api_base_url"),
        schemas_dir=args.schemas or config.get("schemas_dir"),
        traces_dir=args.traces_dir,
    )
    _check_out(args.out, "results")
    try:
        result = run_benchmark(cfg)
    except MissingSetting as exc:
        raise UsageError(str(exc)) from exc
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


def _cmd_report(args: argparse.Namespace, config: dict) -> int:
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
        return _COMMANDS[args.command](args, config)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
