import argparse
import io
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from iacloop import bench
from iacloop import loop as loop_module
from iacloop import cli
from iacloop.cli import dispatch
from iacloop import gateway
from iacloop.gateway import SyntheticBackend, SyntheticParams
from iacloop.linter import lint_template
from iacloop.located_json import JsonSyntaxError, parse_located
from iacloop.schema_store import builtin_core_schemas
from iacloop.settings import BenchmarkConfig, MissingSetting

from helpers import oracle_spans, pointer_of, save_schema_dir

FIXTURES = Path(__file__).parent / "fixtures" / "lint"
CASES = Path(__file__).resolve().parents[1] / "benchmarks" / "cases"
KEYLESS_ERROR = "error: http backend requires an API key (set IACLOOP_API_KEY or OPENAI_API_KEY)\n"

THREE_ERRORS = json.dumps(
    {"Resources": {"I": {"Type": "AWS::EC2::Instance",
                         "Properties": {"InstanceType": 5, "Monitoring": "x"}}}}
)
ONE_ERROR = json.dumps(
    {"Resources": {"I": {"Type": "AWS::EC2::Instance",
                         "Properties": {"InstanceType": "t2.micro"}}}}
)
CLEAN = json.dumps(
    {"AWSTemplateFormatVersion": "2010-09-09",
     "Resources": {"M": {"Type": "AWS::EC2::Instance",
                         "Properties": {"InstanceType": "t2.micro", "ImageId": "ami-1"}}}}
)


class TestLintCommand:
    def test_clean_template_exit_0_empty_stdout(self, capsys):
        code = dispatch(["lint", str(FIXTURES / "clean.json")])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out == ""

    def test_errors_exit_2_with_two_line_blocks(self, capsys):
        path = FIXTURES / "getazs_in_string.json"
        code = dispatch(["lint", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out.startswith("E1015 {'Fn::GetAZs': ''} is not of type 'string'\n")
        assert f"Error location - {path}:" in captured.out

    def test_warnings_only_exit_0(self, capsys):
        code = dispatch(["lint", str(FIXTURES / "unused_parameter.json")])
        captured = capsys.readouterr()
        assert code == 0
        assert "W2001 Parameter 'Env' is never used" in captured.out

    def test_blank_line_between_diagnostics(self, capsys):
        dispatch(["lint", str(FIXTURES / "multi_defect_three.json")])
        captured = capsys.readouterr()
        blocks = captured.out.strip().split("\n\n")
        assert len(blocks) == 3

    def test_json_format(self, capsys):
        code = dispatch(["lint", str(FIXTURES / "getazs_in_string.json"), "--format", "json"])
        captured = capsys.readouterr()
        assert code == 2
        payload = json.loads(captured.out)
        assert payload[0]["code"] == "E1015"
        assert payload[0]["pointer"] == "/Resources/Instance/Properties/AvailabilityZone"

    def test_strict_types_flag(self, capsys):
        path = FIXTURES / "unknown_type_lenient.json"
        assert dispatch(["lint", str(path)]) == 0
        assert dispatch(["lint", str(path), "--strict-types"]) == 2
        captured = capsys.readouterr()
        assert "E3002" in captured.out

    def test_schemas_dir_flag(self, tmp_path, capsys):
        schema = {
            "typeName": "AWS::Custom::Widget",
            "properties": {"Size": {"type": "integer"}},
            "required": ["Size"],
        }
        (tmp_path / "widget.json").write_text(json.dumps(schema))
        template = tmp_path / "t.json"
        template.write_text(json.dumps(
            {"Resources": {"W": {"Type": "AWS::Custom::Widget", "Properties": {}}}}
        ))
        code = dispatch(["lint", str(template), "--schemas", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert "E3003 Required property 'Size' is missing" in captured.out

    def test_syntax_error_reported_as_e0000(self, tmp_path, capsys):
        bad = tmp_path / "broken.json"
        bad.write_text('{"a": }')
        code = dispatch(["lint", str(bad)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out.startswith("E0000 ")
        assert f"Error location - {bad}:1:7" in captured.out

    def test_syntax_error_json_format_pins_position(self, tmp_path, capsys):
        bad = tmp_path / "broken.json"
        bad.write_text('{\n  "Resources": {}\n  "Outputs": {}\n}\n')
        code = dispatch(["lint", str(bad), "--format", "json"])
        captured = capsys.readouterr()
        assert code == 2
        assert json.loads(captured.out) == [{
            "code": "E0000",
            "message": "Expecting ',' delimiter",
            "severity": "error",
            "line": 3,
            "column": 3,
            "byte_offset": 22,
            "pointer": None,
        }]

    def test_over_long_integer_reported_as_e0000(self, tmp_path, capsys):
        bad = tmp_path / "long.json"
        bad.write_text('{\n  "Resources": {"N": ' + "1" * 5000 + "}\n}\n")
        code = dispatch(["lint", str(bad), "--format", "json"])
        captured = capsys.readouterr()
        assert code == 2
        [entry] = json.loads(captured.out)
        assert (entry["code"], entry["line"], entry["column"]) == ("E0000", 2, 22)
        assert dispatch(["--config", str(bad), "lint", str(FIXTURES / "clean.json")]) == 1
        assert f"config file {bad}:2:22: " in capsys.readouterr().err

    def test_schema_load_warnings_printed(self, tmp_path, capsys):
        schema = {
            "typeName": "AWS::Custom::Widget",
            "properties": {"Size": {"type": "integer", "minimum": 1}},
            "required": [],
            "additionalProperties": False,
        }
        (tmp_path / "widget.json").write_text(json.dumps(schema))
        code = dispatch(["lint", str(FIXTURES / "clean.json"), "--schemas", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err.splitlines() == [
            "schema load: widget.json: ignored unsupported keyword 'additionalProperties'",
            "schema load: widget.json: ignored unsupported keyword 'minimum' on property 'Size'",
        ]

    def test_missing_file_runtime_failure(self, capsys):
        assert dispatch(["lint", "/no/such/file.json"]) == 3

    def test_not_utf8_file_is_named(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff")
        assert dispatch(["lint", str(bad)]) == 3
        assert capsys.readouterr().err.startswith(f"cannot read {bad}: 'utf-8' codec")

    def test_lone_surrogates_are_escaped_in_text_output(self, tmp_path, monkeypatch):
        # Valid JSON whose escapes decode to lone surrogates, which no UTF-8
        # stream can write raw; the messages quote them escaped.
        path = tmp_path / "surrogates.json"
        path.write_text(r'{"Resources": {"B": {"Type": "AWS::S3::Bucket", "Properties": '
                        r'{"AccessControl": "\ud83d"}}}, "X\ud800": 1}', encoding="utf-8")
        out = io.BytesIO()
        monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(out, encoding="utf-8", write_through=True))
        assert dispatch(["lint", str(path)]) == 2
        text = out.getvalue().decode("utf-8")
        assert text.startswith("E3030 '\\ud83d' is not one of ['Private', ")
        assert "\nE1001 Unknown top-level section 'X\\ud800'\n" in text


GOLDEN = json.loads((FIXTURES.parent / "lint_golden.json").read_text())

# Messages and pointers that hold quotes, backslashes, control characters,
# non-ASCII text, "/" and "~", and, from a key and enum values written as
# lone surrogate escapes, lone surrogates.
AWKWARD_MESSAGES = r"""{
  "W\u00e9\"ird\\ \u0007\t~/\ud800": 1,
  "Parameters": {"P\"\\\u0001猫": {"Type": "String"}, "a/b~c\n\u0000\u001f": {"Type": "String"}},
  "Resources": {
    "B\u00e9": {"Type": "AWS::S3::Bucket",
                 "Properties": {"AccessControl": "\ud83d", "BucketName": ["q\"\\\n\u0000é"]}},
    "I": {"Type": "AWS::EC2::Instance", "Properties": {"Tenancy": "d\"\\\u001fé\ud83d"}}
  }
}"""


def _synthetic_8_block_texts() -> dict[str, str]:
    """A template of 8 synthetic blocks (25 resources) at each defect
    density, from clean to every injected defect live."""
    store = builtin_core_schemas()
    texts = {}
    for seed, (label, stubborn) in enumerate((("clean", 0.0), ("sparse", 0.05), ("medium", 0.3), ("dense", None))):
        backend = SyntheticBackend(
            SyntheticParams(p_fix=1.0, p_spawn=0.0, stubborn_fraction=stubborn or 0.0, seed=seed),
            initial_defects=83,
            store=store,
        )
        texts[label] = backend.initial_generation()
        if stubborn is not None:
            texts[label] = backend.synthetic_step()  # repairs every defect that is not stubborn
    return texts


def _expected_json_report(text: str, strict: bool = False) -> str:
    """``lint --format json``'s stdout for ``text``, built with ``json.dumps``."""
    try:
        document = parse_located(text)
    except JsonSyntaxError as exc:
        span = exc.span
        rows = [{"code": "E0000", "message": exc.reason, "severity": "error", "line": span.line,
                 "column": span.column, "byte_offset": span.byte_offset, "pointer": None}]
    else:
        report = lint_template(document, builtin_core_schemas(), strict_unknown_types=strict)
        rows = [
            {"code": d.code, "message": d.message, "severity": d.severity, "line": d.span.line,
             "column": d.span.column, "byte_offset": d.span.byte_offset, "pointer": d.pointer}
            for d in report.diagnostics
        ]
    return json.dumps(rows, indent=2) + "\n"


class TestLintJsonBytes:
    """``lint --format json`` writes the bytes ``json.dumps(rows, indent=2)``
    would, one row shape for rule findings and E0000."""

    @staticmethod
    def _assert_bytes(capsys, path: Path, strict: bool = False) -> str:
        argv = ["lint", str(path), "--format", "json"] + (["--strict-types"] if strict else [])
        dispatch(argv)
        out = capsys.readouterr().out
        assert out == _expected_json_report(path.read_text(encoding="utf-8"), strict), path.name
        return out

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_golden_fixtures(self, capsys, name):
        strict = bool(GOLDEN[name].get("options", {}).get("strict_unknown_types"))
        self._assert_bytes(capsys, FIXTURES / f"{name}.json", strict)

    def test_synthetic_templates_at_each_density(self, tmp_path, capsys):
        counts = []
        for label, text in _synthetic_8_block_texts().items():
            path = tmp_path / f"{label}.json"
            path.write_text(text, encoding="utf-8")
            counts.append(len(json.loads(self._assert_bytes(capsys, path))))
        assert counts[0] == 0 and counts[1] < counts[2] < counts[3]

    def test_escaped_and_non_ascii_messages(self, tmp_path, capsys):
        path = tmp_path / "awkward.json"
        path.write_text(AWKWARD_MESSAGES, encoding="utf-8")
        rows = json.loads(self._assert_bytes(capsys, path))
        assert [row["code"] for row in rows] == ["E1001", "W2001", "W2001", "E3030", "E3012", "E3003", "E3030"]
        messages = "".join(row["message"] for row in rows)
        for part in ('"', "\\", "\\x07", "\\t", "\\x01", "\\n", "\\x00", "\\x1f", "\u00e9", "\u732b", "\\ud83d",
                     "\\ud800"):
            assert part in messages, part
        # Messages escape control characters and lone surrogates as repr
        # does; pointers keep them.
        assert [c for c in messages if c < " " or c == "\x7f" or "\ud800" <= c <= "\udfff"] == []
        pointers = "".join(row["pointer"] for row in rows)
        for part in ("\u0007", "\t", "\u0001", "\n", "\u0000", "\u001f", "\ud800"):
            assert part in pointers, part

    def test_escaped_pointers(self, tmp_path, capsys):
        # Written outside the fixture directory, which the benchmark lints.
        text = json.dumps({
            "a/b~c": 1,
            "Parameters": {"a/b~c": {"Type": "String"}, "p~1": {"Type": "String"}},
            "Resources": {
                "x/y~1": {"Type": "AWS::EC2::Instance", "Properties": {
                    "ImageId": "ami-1", "we/ird~0": 1, "Monitoring": "yes", "SecurityGroupIds": ["sg", 5]}},
                "s/3": {"Type": "AWS::S3::Bucket", "Properties": {"AccessControl": "Nope"}},
                "~": {"Type": "AWS::EC2::VPC", "Properties": {"CidrBlock": 5}},
            },
        }, indent=2)
        path = tmp_path / "escaped.json"
        path.write_text(text, encoding="utf-8")
        rows = json.loads(self._assert_bytes(capsys, path))
        assert [(row["code"], row["pointer"]) for row in rows] == [
            ("E1001", "/a~1b~0c"),
            ("W2001", "/Parameters/a~1b~0c"),
            ("W2001", "/Parameters/p~01"),
            ("E3012", "/Resources/x~1y~01/Properties/Monitoring"),
            ("E3012", "/Resources/x~1y~01/Properties/SecurityGroupIds/1"),
            ("E3030", "/Resources/s~13/Properties/AccessControl"),
            ("E3012", "/Resources/~0/Properties/CidrBlock"),
        ]
        spans = {pointer_of(path): span for path, span in oracle_spans(text).items()}
        assert [spans[row["pointer"]] for row in rows] == [(row["line"], row["column"], row["byte_offset"]) for row in rows]
        document = parse_located(text)
        whole = lint_template(document, builtin_core_schemas())
        assert lint_template(document, builtin_core_schemas(), by_block=True) == whole
        assert [d.pointer for d in whole.diagnostics] == [row["pointer"] for row in rows]

    def test_syntax_error_row(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "Resources": {}\n  "Outputs": {}\n}\n', encoding="utf-8")
        out = self._assert_bytes(capsys, path)
        assert '"byte_offset": 22,\n    "pointer": null\n' in out


def _expected_text_report(path: Path, strict: bool = False) -> tuple[int, str]:
    """``lint``'s exit code and text stdout for the file at ``path``: each
    finding's code and message, then its file:line:column, the findings
    separated by blank lines."""
    text = path.read_text(encoding="utf-8")
    try:
        document = parse_located(text)
    except JsonSyntaxError as exc:
        rows = [("E0000", exc.reason, exc.span)]
    else:
        report = lint_template(document, builtin_core_schemas(), strict_unknown_types=strict)
        rows = [(d.code, d.message, d.span) for d in report.diagnostics]
    blocks = [f"{code} {message}\nError location - {path}:{span.line}:{span.column}" for code, message, span in rows]
    code = 2 if any(code.startswith("E") for code, _, _ in rows) else 0
    return code, "\n\n".join(blocks) + "\n" if blocks else ""


class TestLintTextBytes:
    """``lint``'s text output, byte for byte, and its exit code."""

    @staticmethod
    def _assert_bytes(capsys, path: Path, strict: bool = False) -> str:
        code = dispatch(["lint", str(path)] + (["--strict-types"] if strict else []))
        out = capsys.readouterr().out
        assert (code, out) == _expected_text_report(path, strict), path.name
        return out

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_golden_fixtures(self, capsys, name):
        strict = bool(GOLDEN[name].get("options", {}).get("strict_unknown_types"))
        self._assert_bytes(capsys, FIXTURES / f"{name}.json", strict)

    def test_synthetic_templates_at_each_density(self, tmp_path, capsys):
        counts = []
        for label, text in _synthetic_8_block_texts().items():
            path = tmp_path / f"{label}.json"
            path.write_text(text, encoding="utf-8")
            counts.append(self._assert_bytes(capsys, path).count("\nError location - "))
        assert counts[0] == 0 and counts[1] < counts[2] < counts[3]

    def test_syntax_error(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "Resources": {}\n  "Outputs": {}\n}\n', encoding="utf-8")
        assert self._assert_bytes(capsys, path).endswith(f"\nError location - {path}:3:3\n")


# A --config file's settings, which name no real directory or endpoint.
FILE_SETTINGS = {"schemas_dir": "file-schemas", "script_dir": "file-script", "api_base_url": "file-url"}


class TestDispatchBasics:
    def test_unknown_subcommand_usage_error(self, capsys):
        code = dispatch(["frobnicate"])
        captured = capsys.readouterr()
        assert code == 1
        assert "usage" in captured.err.lower()

    def test_usage_error_prints_the_usage_of_the_parser_that_rejected_it(self, capsys):
        assert dispatch(["lint", str(FIXTURES / "clean.json"), "--format", "xml"]) == 1
        assert capsys.readouterr().err.splitlines()[1].startswith("usage: iacloop lint ")
        assert dispatch(["frobnicate"]) == 1
        assert capsys.readouterr().err.splitlines()[1].startswith("usage: iacloop [-h] [--config CONFIG] ")

    @pytest.mark.parametrize("config, error", [
        pytest.param(None, "error: cannot read config file {path}: ", id="missing"),
        pytest.param({"schema_dir": "s"}, "error: config file {path}: unknown key 'schema_dir'", id="unknown-key"),
    ])
    def test_bad_config_file_prints_the_top_level_usage(self, tmp_path, capsys, config, error):
        # Found after parsing, like report's missing output (tested with report).
        path = tmp_path / "cfg.json"
        if config is not None:
            path.write_text(json.dumps(config))
        assert dispatch(["--config", str(path), "lint", str(FIXTURES / "clean.json")]) == 1
        message, usage = capsys.readouterr().err.split("\n", 1)
        assert message.startswith(error.format(path=path))
        assert usage == cli._build_parser().format_usage()

    @pytest.mark.parametrize("argv", [
        pytest.param(["loop", "--prompt-file", "p.txt", "--backend", "synthetic", "--out", "t.json",
                      "--initial-defects", "8"], id="loop--initial-defects"),
        pytest.param(["report", "--in", "results.json", "--json", "stats.json"], id="report--json"),
    ])
    def test_removed_flags_are_unknown(self, capsys, argv):
        assert dispatch(argv) == 1
        assert f"error: unrecognized arguments: {' '.join(argv[-2:])}\n" in capsys.readouterr().err

    def test_no_subcommand_usage_error(self, capsys):
        assert dispatch([]) == 1

    def test_help_exits_zero(self, capsys):
        assert dispatch(["--help"]) == 0

    def test_help_lists_interface_flags(self, capsys):
        expectations = {
            "lint": ["--schemas", "--strict-types", "--format"],
            "loop": ["--prompt-file", "--backend", "--iterations", "--early-stop", "--out", "--model",
                     "--temperature", "--defects-min", "--defects-max"],
            "bench": ["--cases", "--backend", "--trials", "--generations", "--iterations",
                      "--seed", "--out", "--parallel", "--model", "--defects-min", "--defects-max"],
            "report": ["--in", "--csv", "--svg"],
        }
        for command, flags in expectations.items():
            dispatch([command, "--help"])
            text = capsys.readouterr().out
            for flag in flags:
                assert flag in text, (command, flag)
        dispatch(["--help"])
        assert "--config" in capsys.readouterr().out

    def test_malformed_config_positioned_error(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text('{\n  "schemas_dir": \n}')
        code = dispatch(["--config", str(config), "lint", str(FIXTURES / "clean.json")])
        captured = capsys.readouterr()
        assert code == 1
        assert "cfg.json:3:1" in captured.err

    def test_config_supplies_schemas_dir(self, tmp_path, capsys):
        schema = {
            "typeName": "AWS::Custom::Widget",
            "properties": {"Size": {"type": "integer"}},
            "required": ["Size"],
        }
        schemas = tmp_path / "schemas"
        schemas.mkdir()
        (schemas / "widget.json").write_text(json.dumps(schema))
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"schemas_dir": str(schemas)}))
        template = tmp_path / "t.json"
        template.write_text(json.dumps(
            {"Resources": {"W": {"Type": "AWS::Custom::Widget", "Properties": {}}}}
        ))
        assert dispatch(["--config", str(config), "lint", str(template)]) == 2

    @pytest.mark.parametrize("key", ["schemas_dir", "script_dir", "api_base_url"])
    @pytest.mark.parametrize("command", ["lint", "loop", "bench"])
    def test_config_setting_that_is_not_a_string(self, tmp_path, capsys, key, command):
        assert dispatch(_config_argv(tmp_path, {key: 5}, command)) == 1
        assert f"{key} must be a string" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["lint", "loop", "bench"])
    def test_unknown_config_key(self, tmp_path, capsys, generate_calls, command):
        assert dispatch(_config_argv(tmp_path, {"schema_dir": str(tmp_path)}, command)) == 1
        assert "unknown key 'schema_dir'" in capsys.readouterr().err
        assert generate_calls == []

    @pytest.mark.parametrize("flags, expected", [
        pytest.param([], FILE_SETTINGS, id="file"),
        pytest.param(["--schemas", "flag-schemas", "--script-dir", "flag-script", "--api-base", "flag-url"],
                     {"schemas_dir": "flag-schemas", "script_dir": "flag-script", "api_base_url": "flag-url"},
                     id="flags-beat-the-file"),
        pytest.param(["--schemas", "", "--script-dir", "", "--api-base", ""], FILE_SETTINGS, id="empty-flags"),
    ])
    @pytest.mark.parametrize("command", ["loop", "bench"])
    def test_config_file_fills_what_the_flags_left_empty(self, tmp_path, capsys, settings_seen, command, flags,
                                                         expected):
        assert dispatch([*_config_argv(tmp_path, FILE_SETTINGS, command), *flags]) == 1
        assert settings_seen == expected

    def test_not_utf8_config_file_is_named(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_bytes(b"\xff")
        assert dispatch(["--config", str(config), "lint", str(FIXTURES / "clean.json")]) == 1
        assert f"error: cannot read config file {config}: 'utf-8' codec" in capsys.readouterr().err


def _config_argv(tmp_path, config: dict, command: str) -> list[str]:
    """``iacloop --config <file holding config> lint|loop|bench ...`` on valid inputs."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    prompt = tmp_path / "p.txt"
    prompt.write_text("Create a vpc")
    argv = {
        "lint": ["lint", str(FIXTURES / "clean.json")],
        "loop": ["loop", "--prompt-file", str(prompt), "--backend", "synthetic",
                 "--out", str(tmp_path / "t.json")],
        "bench": [*_bench_args(tmp_path), "--out", str(tmp_path / "r.json")],
    }[command]
    return ["--config", str(path), *argv]


@pytest.fixture
def settings_seen(monkeypatch):
    """The schemas_dir, script_dir and api_base_url that a loop or bench run
    hands on; the run stops there with a usage error."""
    seen = {}

    def load_store(schemas_dir):
        seen["schemas_dir"] = schemas_dir
        return builtin_core_schemas()

    def make_backend(cfg, store):
        seen.update(script_dir=cfg.script_dir, api_base_url=cfg.api_base_url)
        raise MissingSetting("stopped")

    def run_benchmark(cfg):
        seen.update(schemas_dir=cfg.schemas_dir, script_dir=cfg.script_dir, api_base_url=cfg.api_base_url)
        raise MissingSetting("stopped")

    monkeypatch.setattr(cli, "load_store", load_store)
    monkeypatch.setattr(gateway, "make_backend", make_backend)
    monkeypatch.setattr(bench, "run_benchmark", run_benchmark)
    return seen


@pytest.fixture
def generate_calls(monkeypatch):
    """The backend calls a loop run makes, counted at ``loop.generate``."""
    calls = []
    inner = loop_module.generate
    monkeypatch.setattr(loop_module, "generate", lambda *args: calls.append(1) or inner(*args))
    return calls


# Defect ranges that the synthetic backend rejects; loop and bench share the flags.
INVALID_DEFECT_RANGES = {
    "10-5": ("--defects-min", "10", "--defects-max", "5"),
    "-3--1": ("--defects-min", "-3", "--defects-max", "-1"),
    "-1-4": ("--defects-min", "-1", "--defects-max", "4"),
}


class TestLoopCommand:
    def test_scripted_loop_writes_trace(self, tmp_path, capsys):
        script = tmp_path / "script"
        script.mkdir()
        for i, text in enumerate([THREE_ERRORS, ONE_ERROR, CLEAN]):
            (script / f"{i:03d}.txt").write_text(text)
        prompt = tmp_path / "p.txt"
        prompt.write_text("Create a bucket stack")
        out = tmp_path / "trace.json"
        code = dispatch([
            "loop", "--prompt-file", str(prompt), "--backend", "scripted",
            "--script-dir", str(script), "--iterations", "5", "--early-stop",
            "--out", str(out),
        ])
        assert code == 0
        trace = json.loads(out.read_text())
        assert trace["case_id"] == "p"
        assert [r["error_count"] for r in trace["records"]] == [3, 1, 0]

    def test_deeply_nested_reply_is_an_extraction_failure(self, tmp_path, capsys):
        script = tmp_path / "script"
        script.mkdir()
        replies = ["[" * 3000, 'Here: {"a":' * 600 + "0" + "}" * 600, ONE_ERROR]
        for i, text in enumerate(replies):
            (script / f"{i:03d}.txt").write_text(text)
        prompt = tmp_path / "p.txt"
        prompt.write_text("Create a bucket stack")
        out = tmp_path / "trace.json"
        code = dispatch([
            "loop", "--prompt-file", str(prompt), "--backend", "scripted",
            "--script-dir", str(script), "--iterations", "2", "--out", str(out),
        ])
        assert code == 0
        records = json.loads(out.read_text())["records"]
        assert [r["extraction_failed"] for r in records] == [True, True, False]
        assert records[2]["error_count"] == 1

    def test_synthetic_loop_deterministic(self, tmp_path, capsys):
        prompt = tmp_path / "p.txt"
        prompt.write_text("Create a vpc")
        outputs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            code = dispatch([
                "loop", "--prompt-file", str(prompt), "--backend", "synthetic",
                "--iterations", "4", "--seed", "11", "--defects-min", "6", "--defects-max", "9",
                "--out", str(out),
            ])
            assert code == 0
            outputs.append(out.read_text())
        assert outputs[0] == outputs[1]

    def test_loop_is_a_one_cell_bench(self, tmp_path, capsys):
        # loop seeded with a bench cell's seed writes that cell's trace bytes.
        cases = [f"case_{i:02d}" for i in range(1, 6)]
        (tmp_path / "cases").mkdir()
        for case in cases:
            (tmp_path / "cases" / f"{case}.txt").write_bytes((CASES / f"{case}.txt").read_bytes())
        traces = tmp_path / "traces"
        assert dispatch([
            "bench", "--cases", str(tmp_path / "cases"), "--trials", "2", "--generations", "1", "--seed", "3",
            "--out", str(tmp_path / "results.json"), "--traces-dir", str(traces),
        ]) == 0
        for trial in range(2):
            for index, case in enumerate(cases):
                out = tmp_path / "loop.json"
                assert dispatch([
                    "loop", "--prompt-file", str(tmp_path / "cases" / f"{case}.txt"), "--backend", "synthetic",
                    "--seed", str(bench.Cell(trial, index, 0).seed(3)), "--out", str(out),
                ]) == 0
                assert out.read_bytes() == (traces / f"trial{trial:02d}_{case}_gen0.json").read_bytes()

    def test_default_backend_is_benchmark_config_default(self, tmp_path, capsys):
        # --backend is shared with bench, and BenchmarkConfig owns its default.
        outputs = []
        for backend in ((), ("--backend", "synthetic")):
            out = tmp_path / f"loop{len(outputs)}.json"
            assert dispatch(["loop", "--prompt-file", str(CASES / "case_01.txt"), *backend,
                             "--seed", "4787635008706537062", "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert BenchmarkConfig(cases_dir="").backend == "synthetic"
        assert outputs[0] == outputs[1]

    def test_missing_prompt_file_is_a_runtime_failure(self, tmp_path, capsys, generate_calls):
        prompt = tmp_path / "missing.txt"
        out = tmp_path / "t.json"
        assert dispatch(["loop", "--prompt-file", str(prompt), "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"runtime failure: [Errno 2] No such file or directory: {str(prompt)!r}\n"
        assert generate_calls == []
        assert not out.exists()

    def test_not_utf8_script_file_is_named(self, tmp_path, capsys, generate_calls):
        script = tmp_path / "script"
        script.mkdir()
        (script / "000.txt").write_text(CLEAN)
        (script / "001.txt").write_bytes(b"\xff")
        prompt = tmp_path / "p.txt"
        prompt.write_text("Create a bucket stack")
        code = dispatch([
            "loop", "--prompt-file", str(prompt), "--backend", "scripted",
            "--script-dir", str(script), "--out", str(tmp_path / "t.json"),
        ])
        assert code == 3
        assert f"runtime failure: {script / '001.txt'}: 'utf-8' codec" in capsys.readouterr().err
        assert generate_calls == []

    def test_defaults_are_benchmark_config_defaults(self, tmp_path, capsys, monkeypatch):
        seen = {}
        inner_backend, inner_loop = gateway.make_backend, bench.run_loop

        def make_backend(cfg, store):
            seen.update(cfg=cfg)
            return lambda seed: seen.update(seed=seed) or inner_backend(cfg, store)(seed)

        def run_loop(case, backend, store, **settings):
            seen.update(settings)
            return inner_loop(case, backend, store, **settings)

        monkeypatch.setattr(gateway, "make_backend", make_backend)
        monkeypatch.setattr(bench, "run_loop", run_loop)
        prompt = tmp_path / "p.txt"
        prompt.write_text("Create a vpc")
        assert dispatch(["loop", "--prompt-file", str(prompt), "--backend", "synthetic",
                         "--out", str(tmp_path / "t.json")]) == 0
        defaults = BenchmarkConfig(cases_dir=str(prompt))  # the prompt file stands in for the cases
        assert seen == {
            "cfg": defaults, "seed": defaults.master_seed,
            "max_iterations": defaults.iterations, "early_stop": defaults.early_stop, "generation_index": 0,
        }
        assert (seen["cfg"].temperature, seen["early_stop"]) == (0.0, False)
        assert (seen["seed"], seen["max_iterations"]) == (0, 10)
        assert (defaults.initial_defects_min, defaults.initial_defects_max) == (6, 10)  # a bench cell's range
        assert defaults.model == "gpt-4o"

    @pytest.mark.parametrize("extra, message", [
        pytest.param(("--temperature", "nan"), "temperature must be finite and >= 0, got nan", id="temperature-nan"),
        pytest.param(("--temperature", "inf"), "temperature must be finite and >= 0, got inf", id="temperature-inf"),
        pytest.param(("--temperature", "-1"), "temperature must be finite and >= 0, got -1.0", id="temperature-neg"),
        pytest.param(("--model", ""), "model must be non-empty", id="empty-model"),
        pytest.param(("--iterations", "0"), "iterations must be >= 1", id="no-iteration"),
    ])
    def test_settings_are_checked_before_any_call(self, tmp_path, capsys, generate_calls, extra, message):
        prompt = tmp_path / "p.txt"
        prompt.write_text("Create a vpc")
        out = tmp_path / "t.json"
        code = dispatch(["loop", "--prompt-file", str(prompt), "--backend", "synthetic", *extra, "--out", str(out)])
        assert code == 3
        assert f"runtime failure: {message}" in capsys.readouterr().err
        assert generate_calls == []
        assert not out.exists()

    def test_missing_script_dir_usage_error(self, tmp_path, capsys):
        prompt = tmp_path / "p.txt"
        prompt.write_text("x")
        code = dispatch([
            "loop", "--prompt-file", str(prompt), "--backend", "scripted",
            "--out", str(tmp_path / "t.json"),
        ])
        assert code == 1
        assert capsys.readouterr().err == "error: scripted backend requires script_dir\n"  # no usage line

    def test_cell_error_is_a_failed_cell(self, tmp_path, capsys, monkeypatch):
        # The cell fails as a bench cell does: its exception becomes the
        # error, and the trace written is the cell's, with no record.
        def run_loop(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(bench, "run_loop", run_loop)
        prompt = tmp_path / "p.txt"
        prompt.write_text("Create a vpc")
        out = tmp_path / "trace.json"
        code = dispatch(["loop", "--prompt-file", str(prompt), "--backend", "synthetic", "--out", str(out)])
        assert code == 3
        assert capsys.readouterr().err == "backend failure: RuntimeError: boom\n"
        assert json.loads(out.read_text()) == {"case_id": "p", "generation_index": 0, "records": []}

    def test_too_few_defect_sites_fail_before_the_cell(self, tmp_path, capsys, generate_calls):
        schemas = tmp_path / "schemas"  # no schema for the template's types: six defect sites
        schemas.mkdir()
        (schemas / "widget.json").write_text(json.dumps({"typeName": "AWS::Custom::Widget", "properties": {}}))
        prompt = tmp_path / "p.txt"
        prompt.write_text("Create a vpc")
        out = tmp_path / "trace.json"
        code = dispatch([
            "loop", "--prompt-file", str(prompt), "--backend", "synthetic", "--schemas", str(schemas),
            "--defects-min", "7", "--defects-max", "7", "--out", str(out),
        ])
        assert code == 3
        assert capsys.readouterr().err == (
            "runtime failure: schema store leaves 6 defect sites, 11 needed for 7 defects: "
            "it has no property schemas for the template's types\n"
        )
        assert generate_calls == []
        assert not out.exists()

    def test_keyless_http_loop_fails_before_any_request(self, tmp_path, capsys, generate_calls, monkeypatch):
        monkeypatch.delenv("IACLOOP_API_KEY", raising=False)
        monkeypatch.delenv("OPENAI_API_KEY", raising=False)
        prompt = tmp_path / "p.txt"
        prompt.write_text("Create a vpc")
        out = tmp_path / "trace.json"
        code = dispatch(["loop", "--prompt-file", str(prompt), "--backend", "http", "--api-base", "http://127.0.0.1:9",
                         "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == KEYLESS_ERROR
        assert generate_calls == []
        assert not out.exists()

    def test_negative_initial_defects_fail_before_the_loop(self, tmp_path, capsys):
        prompt = tmp_path / "p.txt"
        prompt.write_text("Create a vpc")
        out = tmp_path / "trace.json"
        code = dispatch([
            "loop", "--prompt-file", str(prompt), "--backend", "synthetic",
            "--defects-min", "-1", "--out", str(out),
        ])
        assert code == 3
        assert "initial defects" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("defects", INVALID_DEFECT_RANGES.values(), ids=list(INVALID_DEFECT_RANGES))
    def test_invalid_defect_range_fails_before_any_call(self, tmp_path, capsys, generate_calls, defects):
        prompt = tmp_path / "p.txt"
        prompt.write_text("Create a vpc")
        out = tmp_path / "trace.json"
        code = dispatch(["loop", "--prompt-file", str(prompt), "--backend", "synthetic", *defects, "--out", str(out)])
        assert code == 3
        assert "runtime failure: initial defects must be" in capsys.readouterr().err
        assert generate_calls == []
        assert not out.exists()

    def test_out_in_a_missing_directory_fails_before_any_call(self, tmp_path, capsys, generate_calls):
        prompt = tmp_path / "p.txt"
        prompt.write_text("Create a vpc")
        code = dispatch([
            "loop", "--prompt-file", str(prompt), "--backend", "synthetic",
            "--iterations", "5", "--out", str(tmp_path / "missing" / "t.json"),
        ])
        assert code == 3
        assert "trace directory not found" in capsys.readouterr().err
        assert generate_calls == []

    def test_blank_prompt_file_is_named(self, tmp_path, capsys, generate_calls):
        prompt = tmp_path / "blank.txt"
        prompt.write_text(" \n\t\n")
        out = tmp_path / "t.json"
        code = dispatch(["loop", "--prompt-file", str(prompt), "--backend", "synthetic", "--out", str(out)])
        assert code == 3
        assert f"{prompt}: case prompt must be non-empty" in capsys.readouterr().err
        assert generate_calls == []
        assert not out.exists()

    def test_out_that_is_a_directory_fails_before_any_call(self, tmp_path, capsys, generate_calls):
        prompt = tmp_path / "p.txt"
        prompt.write_text("Create a vpc")
        code = dispatch([
            "loop", "--prompt-file", str(prompt), "--backend", "synthetic",
            "--iterations", "5", "--out", str(tmp_path),
        ])
        assert code == 3
        assert "--out names a directory" in capsys.readouterr().err
        assert generate_calls == []


@pytest.fixture
def cells_run(monkeypatch):
    """The cells a bench run starts, counted at ``bench.run_loop``."""
    calls = []
    inner = bench.run_loop

    def counting(*args, **kwargs):
        calls.append(args[0].id)
        return inner(*args, **kwargs)

    monkeypatch.setattr(bench, "run_loop", counting)
    return calls


def _bench_args(tmp_path, *extra: str) -> list[str]:
    cases = tmp_path / "cases"
    cases.mkdir(exist_ok=True)
    for i in range(2):
        (cases / f"case{i}.txt").write_text(f"Create stack {i}")
    return [
        "bench", "--cases", str(cases), "--backend", "synthetic",
        "--trials", "2", "--generations", "1", "--iterations", "2", *extra,
    ]


class TestBenchFailsBeforeItsCells:
    # Every backend setting, not only the defect range, is checked before
    # the traces directory or results file exists or any cell starts.
    @pytest.mark.parametrize("extra, message", [
        *(pytest.param(defects, "initial defects", id=name) for name, defects in INVALID_DEFECT_RANGES.items()),
        pytest.param(("--p-fix", "1.5"), "p_fix must be in [0, 1], got 1.5", id="p-fix"),
        pytest.param(("--backend", "scripted", "--script-dir", "{empty}"), "no *.txt response files", id="empty-script"),
        pytest.param(("--backend", "http", "--api-base", "api.example.com"), "must be an http or https URL",
                     id="api-base-without-scheme"),
        pytest.param(("--model", ""), "model must be non-empty", id="empty-model"),
    ])
    def test_invalid_defect_range(self, tmp_path, capsys, cells_run, extra, message):
        empty = tmp_path / "script"
        empty.mkdir()
        (empty / "notes.md").write_text("not a response")
        traces = tmp_path / "traces"
        results = tmp_path / "results.json"
        code = dispatch(_bench_args(
            tmp_path, *(arg.format(empty=empty) for arg in extra), "--traces-dir", str(traces), "--out", str(results),
        ))
        assert code == 3
        assert message in capsys.readouterr().err
        assert cells_run == []
        assert not traces.exists()
        assert not results.exists()

    @pytest.mark.parametrize("backend, setting", [("scripted", "script_dir"), ("http", "api_base_url")])
    def test_missing_backend_setting_is_a_usage_error(self, tmp_path, capsys, cells_run, backend, setting):
        traces = tmp_path / "traces"
        results = tmp_path / "results.json"
        code = dispatch(_bench_args(
            tmp_path, "--backend", backend, "--traces-dir", str(traces), "--out", str(results),
        ))
        assert code == 1
        assert f"error: {backend} backend requires {setting}" in capsys.readouterr().err
        assert cells_run == []
        assert not traces.exists()
        assert not results.exists()

    def test_blank_case_prompt_is_named(self, tmp_path, capsys, cells_run):
        args = _bench_args(tmp_path)
        blank = tmp_path / "cases" / "blank.txt"
        blank.write_text("\n  \n")
        traces = tmp_path / "traces"
        results = tmp_path / "results.json"
        code = dispatch([*args, "--traces-dir", str(traces), "--out", str(results)])
        assert code == 3
        assert f"{blank}: case prompt must be non-empty" in capsys.readouterr().err
        assert cells_run == []
        assert not traces.exists()
        assert not results.exists()

    def test_keyless_http_bench_fails_before_any_request(self, tmp_path, capsys, cells_run, monkeypatch):
        monkeypatch.delenv("IACLOOP_API_KEY", raising=False)
        monkeypatch.delenv("OPENAI_API_KEY", raising=False)
        traces = tmp_path / "traces"
        results = tmp_path / "results.json"
        code = dispatch(_bench_args(
            tmp_path, "--backend", "http", "--api-base", "http://127.0.0.1:9", "--traces-dir", str(traces),
            "--out", str(results),
        ))
        assert code == 1
        assert capsys.readouterr().err == KEYLESS_ERROR
        assert cells_run == []
        assert not traces.exists()
        assert not results.exists()

    def test_traces_dir_that_is_a_file(self, tmp_path, capsys, cells_run):
        traces = tmp_path / "traces"
        traces.write_text("not a directory")
        results = tmp_path / "results.json"
        code = dispatch(_bench_args(tmp_path, "--traces-dir", str(traces), "--out", str(results)))
        assert code == 3
        assert cells_run == []
        assert not results.exists()

    def test_out_in_a_missing_directory(self, tmp_path, capsys, cells_run):
        code = dispatch(_bench_args(tmp_path, "--out", str(tmp_path / "missing" / "results.json")))
        assert code == 3
        assert "results directory not found" in capsys.readouterr().err
        assert cells_run == []

    def test_out_that_is_a_directory(self, tmp_path, capsys, cells_run):
        results = tmp_path / "results"
        results.mkdir()
        code = dispatch(_bench_args(tmp_path, "--out", str(results)))
        assert code == 3
        assert "--out names a directory" in capsys.readouterr().err
        assert cells_run == []
        assert list(results.iterdir()) == []

    def test_valid_locations_run_every_cell(self, tmp_path, capsys, cells_run):
        traces = tmp_path / "new" / "traces"
        code = dispatch(_bench_args(tmp_path, "--traces-dir", str(traces), "--out", str(tmp_path / "r.json")))
        assert code == 0
        assert sorted(cells_run) == ["case0", "case0", "case1", "case1"]
        assert len(list(traces.iterdir())) == 4


class TestBlockPath:
    def test_loop_and_bench_lint_by_block(self, tmp_path, capsys, monkeypatch):
        # A never-seen file lints faster whole, so lint never takes the
        # block path; a loop's turns resend mostly the same blocks, so loop
        # and bench always do.
        from iacloop import linter

        checked = []
        inner = linter._block_rows
        monkeypatch.setattr(linter, "_block_rows", lambda *key: checked.append(key[2]) or inner(*key))
        script = tmp_path / "script"
        script.mkdir()
        for i, text in enumerate([THREE_ERRORS, ONE_ERROR]):
            (script / f"{i:03d}.txt").write_text(text)
        cases = tmp_path / "cases"
        cases.mkdir()
        (cases / "p.txt").write_text("Create a stack")
        assert dispatch(["lint", str(FIXTURES / "clean.json")]) == 0
        assert checked == []
        trace = tmp_path / "t.json"
        for backend in ("scripted", "synthetic"):
            checked.clear()
            assert dispatch([
                "loop", "--prompt-file", str(cases / "p.txt"), "--backend", backend,
                "--script-dir", str(script), "--iterations", "1", "--out", str(trace),
            ]) == 0
            texts = [record["template_text"] for record in json.loads(trace.read_text())["records"]]
            # Each turn whose reply is new checks each of its blocks.
            linted = [text for i, text in enumerate(texts) if i == 0 or text != texts[i - 1]]
            assert checked == [logical_id for text in linted for logical_id in json.loads(text)["Resources"]]
            assert checked
        checked.clear()
        assert dispatch([
            "bench", "--cases", str(cases), "--backend", "scripted", "--script-dir", str(script),
            "--trials", "1", "--generations", "1", "--iterations", "1", "--out", str(tmp_path / "r.json"),
        ]) == 0
        assert checked == ["I", "I"]


class TestBenchAndReport:
    def test_defaults_are_benchmark_config_defaults(self, tmp_path, capsys):
        cases = tmp_path / "cases"
        cases.mkdir()
        (cases / "vpc.txt").write_text("Create a vpc")
        out = tmp_path / "r.json"
        assert dispatch(["bench", "--cases", str(cases), "--out", str(out)]) == 0
        recorded = json.loads(out.read_text())
        assert recorded["config"] == BenchmarkConfig(cases_dir=str(cases)).to_dict()
        assert len(recorded["trials"]) == 6

    def test_end_to_end(self, tmp_path, capsys):
        cases = tmp_path / "cases"
        cases.mkdir()
        for i in range(2):
            (cases / f"case{i}.txt").write_text(f"Create stack {i}")
        results = tmp_path / "results.json"
        code = dispatch([
            "bench", "--cases", str(cases), "--backend", "synthetic",
            "--trials", "2", "--generations", "1", "--iterations", "3",
            "--seed", "7", "--out", str(results), "--parallel", "2",
        ])
        assert code == 0
        payload = json.loads(results.read_text())
        assert len(payload["trials"]) == 2
        assert payload["stats"] is not None

        csv_out = tmp_path / "out.csv"
        svg_out = tmp_path / "out.svg"
        code = dispatch([
            "report", "--in", str(results), "--csv", str(csv_out), "--svg", str(svg_out),
        ])
        assert code == 0
        assert csv_out.read_text().startswith("iteration,mean_errors")
        root = ET.fromstring(svg_out.read_text())
        bars = [e for e in root.iter() if e.get("class") == "bar"]
        assert len(bars) == 4

    def test_bench_without_usable_schemas_exits_3(self, tmp_path, capsys, cells_run):
        # No schema for the synthetic template's types: no cell could size
        # its template.  Every cell's count is at most --defects-max, which
        # needs the most sites, so the run stops before its first cell.
        cases = tmp_path / "cases"
        cases.mkdir()
        (cases / "case0.txt").write_text("Create a stack")
        schemas = tmp_path / "schemas"
        schemas.mkdir()
        (schemas / "widget.json").write_text(json.dumps({
            "typeName": "AWS::Custom::Widget", "properties": {"Size": {"type": "integer"}},
        }))
        traces = tmp_path / "traces"
        results = tmp_path / "results.json"
        code = dispatch([
            "bench", "--cases", str(cases), "--backend", "synthetic", "--schemas", str(schemas),
            "--trials", "2", "--generations", "1", "--iterations", "2",
            "--defects-min", "6", "--defects-max", "8", "--traces-dir", str(traces), "--out", str(results),
        ])
        assert code == 3
        assert capsys.readouterr() == ("", (
            "runtime failure: schema store leaves 6 defect sites, 12 needed for 8 defects: "
            "it has no property schemas for the template's types\n"
        ))
        assert cells_run == []
        assert not traces.exists()
        assert not results.exists()

    def test_bench_single_iteration_writes_results(self, tmp_path, capsys):
        # Two per-iteration means are too few for plateau detection; the run
        # still writes its results rather than losing every completed cell.
        cases = tmp_path / "cases"
        cases.mkdir()
        (cases / "case0.txt").write_text("Create a stack")
        results = tmp_path / "results.json"
        code = dispatch([
            "bench", "--cases", str(cases), "--backend", "synthetic",
            "--trials", "2", "--generations", "1", "--iterations", "1", "--out", str(results),
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert "2 cells completed, 0 failed" in captured.out
        assert "plateau at" not in captured.out
        payload = json.loads(results.read_text())
        assert payload["plateau_index"] is None
        assert len(payload["stats"]["mean_errors"]) == 2

    def test_bench_prints_schema_load_report(self, tmp_path, capsys):
        cases = tmp_path / "cases"
        cases.mkdir()
        (cases / "case0.txt").write_text("Create a stack")
        schemas = tmp_path / "schemas"
        save_schema_dir(builtin_core_schemas(), schemas)
        (schemas / "broken.json").write_text("{not json")
        (schemas / "widget.json").write_text(json.dumps({
            "typeName": "AWS::Custom::Widget",
            "properties": {"Size": {"type": "integer", "minimum": 1}},
        }))
        code = dispatch([
            "bench", "--cases", str(cases), "--backend", "synthetic", "--schemas", str(schemas),
            "--trials", "2", "--generations", "1", "--iterations", "2",
            "--out", str(tmp_path / "results.json"),
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert "2 cells completed, 0 failed" in captured.out
        assert captured.err.splitlines() == [
            "schema load: broken.json: unreadable schema document: "
            "Expecting property name enclosed in double quotes at 1:2",
            "schema load: widget.json: ignored unsupported keyword 'minimum' on property 'Size'",
        ]

    def test_report_requires_an_output(self, tmp_path, capsys):
        results = tmp_path / "results.json"
        results.write_text(json.dumps({"stats": {"mean_errors": [1], "std_errors": [0],
                                                 "mean_warnings": [0], "std_warnings": [0]}}))
        assert dispatch(["report", "--in", str(results)]) == 1

    def test_report_without_an_output_fails_before_reading_its_input(self, tmp_path, capsys):
        assert dispatch(["report", "--in", str(tmp_path / "missing.json")]) == 1
        report_usage = cli._build_parser().commands["report"].format_usage()
        assert report_usage.startswith("usage: iacloop report ")
        assert capsys.readouterr().err == "error: report requires --csv, --svg or both\n" + report_usage

    @pytest.mark.parametrize("text", [
        "[]",
        "{not json",
        json.dumps({"stats": {"mean_errors": [1]}}),
        json.dumps({"stats": {"mean_errors": 1, "std_errors": 0, "mean_warnings": 0, "std_warnings": 0}}),
        json.dumps({"stats": {"mean_errors": [1], "std_errors": [0, 0], "mean_warnings": [0], "std_warnings": [0]}}),
        json.dumps({"stats": {"mean_errors": ["x"], "std_errors": [0], "mean_warnings": [0], "std_warnings": [0]}}),
        json.dumps({"stats": {"mean_errors": [True], "std_errors": [0], "mean_warnings": [0], "std_warnings": [0]}}),
        json.dumps({"stats": {"mean_errors": [1], "std_errors": [float("nan")], "mean_warnings": [0], "std_warnings": [0]}}),
        json.dumps({"stats": {"mean_errors": [float("inf")], "std_errors": [0], "mean_warnings": [0], "std_warnings": [0]}}),
        json.dumps({"stats": {"mean_errors": [-5], "std_errors": [0], "mean_warnings": [0], "std_warnings": [0]}}),
        json.dumps({"stats": {"mean_errors": [10**400], "std_errors": [0], "mean_warnings": [0], "std_warnings": [0]}}),
        "[" * 100_000 + "]" * 100_000,
        '{"stats": %s, "stats": %s}' % ((json.dumps({"mean_errors": [1], "std_errors": [0], "mean_warnings": [0],
                                                     "std_warnings": [0]}),) * 2),
    ], ids=["list", "not_json", "missing_fields", "scalar_fields", "unequal_lengths", "non_numbers",
            "bool", "nan", "infinity", "negative", "beyond_float", "deep", "duplicate_key"])
    def test_report_on_malformed_results_exits_3(self, tmp_path, capsys, text):
        results = tmp_path / "results.json"
        results.write_text(text)
        code = dispatch(["report", "--in", str(results), "--csv", str(tmp_path / "out.csv")])
        assert code == 3
        assert str(results) in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()


def _parser_state(parser: argparse.ArgumentParser) -> list:
    """Every setting of ``parser`` and its subparsers that a parse could read."""
    state = [parser.prog, sorted(parser._defaults.items())]
    for action in parser._actions:
        state.append((type(action).__name__, action.option_strings, action.dest, action.default,
                      action.required, action.choices if not isinstance(action.choices, dict) else None,
                      action.type, action.nargs, action.help))
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                state.append((name, _parser_state(sub)))
    return state


class TestSharedParser:
    """One parser per process; nothing carries over from one dispatch to the next."""

    def test_second_dispatch_adds_no_argument(self, capsys, monkeypatch):
        clean = str(FIXTURES / "clean.json")
        assert dispatch(["lint", clean]) == 0
        added = []
        inner = argparse.ArgumentParser.add_argument
        monkeypatch.setattr(argparse.ArgumentParser, "add_argument",
                            lambda self, *a, **k: added.append(a) or inner(self, *a, **k))
        assert dispatch(["lint", clean]) == 0
        assert dispatch(["--help"]) == 0
        assert added == []
        assert cli._build_parser() is cli._build_parser()

    def test_calls_leave_the_parser_unchanged(self, tmp_path, capsys):
        before = _parser_state(cli._build_parser())
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"schemas_dir": str(tmp_path)}))
        path = str(FIXTURES / "unknown_type_lenient.json")
        for argv in (["--config", str(config), "lint", path, "--strict-types", "--format", "json"],
                     ["lint", path, "--format", "xml"], ["frobnicate"], ["report", "--help"],
                     ["loop", "--backend", "synthetic"], []):
            dispatch(argv)
        assert _parser_state(cli._build_parser()) == before

    def test_strict_types_does_not_carry_over(self, capsys):
        path = str(FIXTURES / "unknown_type_lenient.json")
        assert dispatch(["lint", path, "--strict-types"]) == 2
        assert "E3002" in capsys.readouterr().out
        assert dispatch(["lint", path]) == 0
        assert "E3002" not in capsys.readouterr().out

    def test_config_does_not_carry_over(self, tmp_path, capsys):
        schema = {"typeName": "AWS::Custom::Widget", "properties": {"Size": {"type": "integer"}},
                  "required": ["Size"]}
        schemas = tmp_path / "schemas"
        schemas.mkdir()
        (schemas / "widget.json").write_text(json.dumps(schema))
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"schemas_dir": str(schemas)}))
        template = tmp_path / "t.json"
        template.write_text(json.dumps(
            {"Resources": {"W": {"Type": "AWS::Custom::Widget", "Properties": {}}}}
        ))
        assert dispatch(["--config", str(config), "lint", str(template)]) == 2
        assert "E3003" in capsys.readouterr().out
        assert dispatch(["lint", str(template)]) == 0
        assert "E3003" not in capsys.readouterr().out

    def test_usage_error_then_valid_call(self, capsys):
        clean = str(FIXTURES / "clean.json")
        assert dispatch(["lint", clean, "--format", "xml"]) == 1
        assert "invalid choice" in capsys.readouterr().err
        assert dispatch(["lint", clean]) == 0
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "")

    @pytest.mark.parametrize("argv", [["--help"], ["bench", "--help"]])
    def test_help_is_byte_equal_on_two_calls(self, capsys, argv):
        outputs = []
        for _ in range(2):
            assert dispatch(argv) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert "usage: iacloop" in outputs[0]

    def test_import_does_not_build_the_parser(self):
        assert _fresh("import iacloop.cli as c\nprint(c._build_parser.cache_info().currsize)") == "0"

    def test_import_loads_no_http_client_or_process_pool(self):
        # Offline commands never pay for these; only a live run imports an
        # HTTP client, and no command imports multiprocessing (a traced
        # bench writes its traces from a thread of its own process). bench
        # imports gateway and loop, which hold the lazy imports, so the probe
        # reaches every module of the package.
        heavy = {"requests", "urllib.request", "http.client", "ssl", "multiprocessing"}
        loaded = _modules_after("import iacloop.cli, iacloop.bench")
        assert {"iacloop.gateway", "iacloop.loop"} <= loaded
        assert heavy & loaded == set()


# Argv shapes for dispatch; "{tmp}" is the test's directory, "{fx}" the lint
# fixtures.  Those that start with a command parse with its parser alone.
ARGV_SHAPES = {
    "lint": ["lint", "{fx}/missing_required.json", "--format", "json", "--strict-types"],
    "loop": ["loop", "--prompt-file", "{tmp}/prompt.txt", "--backend", "synthetic", "--iterations", "2",
             "--out", "{tmp}/trace.json"],
    "bench": ["bench", "--cases", "{tmp}/cases", "--trials", "2", "--generations", "1", "--iterations", "2",
              "--out", "{tmp}/results.json"],
    "report": ["report", "--in", "{tmp}/stats.json", "--csv", "{tmp}/out.csv"],
    **{f"{command}{flag}": [command, flag] for command in ("lint", "loop", "bench", "report")
       for flag in ("--help", "-h")},
    "bad_choice": ["lint", "{fx}/clean.json", "--format", "xml"],
    "missing_positional": ["lint"],
    "abbreviated_flag": ["lint", "--form", "json", "{fx}/missing_required.json"],
    "unknown_flag": ["lint", "{fx}/clean.json", "--bogus"],
    "config_after_the_command": ["lint", "{fx}/clean.json", "--config", "{tmp}/cfg.json"],
    "config_before_the_command": ["--config", "{tmp}/cfg.json", "lint", "{fx}/missing_required.json"],
    "double_dash": ["lint", "--", "{fx}/clean.json"],
    "double_dash_first": ["--", "lint", "{fx}/clean.json"],
    "unknown_command": ["frobnicate"],
    "empty": [],
}
# The shapes whose command receives a namespace.
RUNS_A_COMMAND = {"lint", "loop", "bench", "report", "abbreviated_flag", "config_before_the_command", "double_dash"}
# The shapes that leave arguments no parser knows.  On the one-pass path the
# command's parser rejects them; on the top-level path, the top-level parser.
UNRECOGNIZED = {"unknown_flag", "config_after_the_command"}


class TestOnePassParse:
    """An argv that starts with a command is parsed by that command's parser
    alone, and the call does what the top-level parse does."""

    @pytest.fixture
    def argv_files(self, tmp_path):
        (tmp_path / "prompt.txt").write_text("Create a VPC")
        (tmp_path / "cases").mkdir()
        (tmp_path / "cases" / "vpc.txt").write_text("Create a VPC")
        (tmp_path / "cfg.json").write_text(json.dumps({"script_dir": str(tmp_path)}))
        (tmp_path / "stats.json").write_text(json.dumps({"stats": {
            "mean_errors": [2, 1], "std_errors": [0, 0], "mean_warnings": [0, 0], "std_warnings": [0, 0]}}))
        return tmp_path

    @staticmethod
    def _argv(shape: str, tmp_path: Path) -> list[str]:
        return [arg.format(tmp=tmp_path, fx=FIXTURES) for arg in ARGV_SHAPES[shape]]

    @pytest.mark.parametrize("shape", sorted(ARGV_SHAPES))
    def test_same_call_as_the_top_level_parse(self, argv_files, capsys, monkeypatch, shape):
        argv = self._argv(shape, argv_files)
        parser = cli._build_parser()
        lint_usage = parser.commands["lint"].format_usage()
        received = []
        for name, command in cli._COMMANDS.items():
            monkeypatch.setitem(cli._COMMANDS, name,
                                lambda args, command=command: received.append(dict(vars(args))) or command(args))
        calls = []
        for commands in (parser.commands, {}):  # one pass, then forced through the top-level parser
            monkeypatch.setattr(parser, "commands", commands)
            code = dispatch(argv)
            captured = capsys.readouterr()
            calls.append([code, captured.out, captured.err, received[:]])
            received.clear()
        one_pass, top_level = calls
        assert bool(one_pass[3]) == (shape in RUNS_A_COMMAND)
        if shape in UNRECOGNIZED:
            error = f"error: unrecognized arguments: {' '.join(argv[2:])}\n"
            assert one_pass[2] == error + lint_usage
            assert top_level[2] == error + parser.format_usage()
            one_pass[2] = top_level[2] = error
        assert one_pass == top_level

    @pytest.mark.parametrize("shape, parsers", [
        ("lint", ["iacloop lint"]),
        ("bench--help", ["iacloop bench"]),
        ("bad_choice", ["iacloop lint"]),
        ("config_before_the_command", ["iacloop", "iacloop lint"]),
        ("unknown_command", ["iacloop"]),
    ])
    def test_parsers_that_run(self, argv_files, capsys, monkeypatch, shape, parsers):
        ran = []
        inner = cli._Parser.parse_known_args
        monkeypatch.setattr(cli._Parser, "parse_known_args",
                            lambda self, *a, **k: ran.append(self.prog) or inner(self, *a, **k))
        dispatch(self._argv(shape, argv_files))
        assert ran == parsers


class TestImportStructure:
    """Each command loads the modules it runs and no others."""

    # What lint never runs: the backends, the loop, the harness and the
    # pools that a bench or a traced bench starts.
    NOT_FOR_LINT = {"iacloop.bench", "iacloop.gateway", "iacloop.loop", "concurrent.futures", "multiprocessing"}

    def test_package_import_loads_no_module(self):
        assert {m for m in _modules_after("import iacloop") if m.startswith("iacloop.")} == set()

    @pytest.mark.parametrize("code", [
        pytest.param("from iacloop import cli\n"
                     f"assert cli.dispatch(['lint', {str(FIXTURES / 'missing_required.json')!r}]) == 2",
                     id="dispatch"),
        pytest.param("import runpy\n"
                     f"sys.argv[1:] = ['lint', {str(FIXTURES / 'missing_required.json')!r}]\n"
                     "try:\n"
                     "    runpy.run_module('iacloop', run_name='__main__', alter_sys=True)\n"
                     "except SystemExit as exc:\n"
                     "    assert exc.code == 2",
                     id="python-m"),
    ])
    def test_lint_loads_only_the_linter(self, code):
        loaded = _modules_after(code)
        assert {m for m in loaded if m.startswith("iacloop.")} - {"iacloop.__main__"} == {
            "iacloop.cli", "iacloop.settings", "iacloop.linter", "iacloop.located_json", "iacloop.schema_store",
        }
        assert self.NOT_FOR_LINT & loaded == set()

    def test_bench_import_loads_no_thread_pool(self):
        # A serial bench never starts one; --parallel > 1 imports it.
        loaded = _modules_after("import iacloop.bench")
        assert "iacloop.bench" in loaded
        assert "concurrent.futures" not in loaded

    @pytest.mark.parametrize("parallelism", [1, 4])
    def test_traced_bench_starts_no_process(self, tmp_path, parallelism):
        # A thread of the bench's own process writes each trace: nothing
        # forks, and neither the writer nor the cell pool loads a process
        # module.
        cases = tmp_path / "cases"
        cases.mkdir()
        (cases / "vpc.txt").write_text("Create a VPC")
        argv = ["bench", "--cases", str(cases), "--trials", "2", "--generations", "2", "--iterations", "2",
                "--parallel", str(parallelism), "--traces-dir", str(tmp_path / "traces"),
                "--out", str(tmp_path / "results.json")]
        loaded = _modules_after("import os\n"
                                "forks = []\n"
                                "os.register_at_fork(before=lambda: forks.append(1))\n"
                                "from iacloop import cli\n"
                                f"assert cli.dispatch({argv!r}) == 0\n"
                                "assert forks == []")
        assert {"multiprocessing", "subprocess", "_posixsubprocess"} & loaded == set()
        assert len(list((tmp_path / "traces").iterdir())) == 4


def _fresh(code: str) -> str:
    """The last line that ``code`` prints when a fresh interpreter, with this
    package on its path, runs it (``sys`` is already imported)."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", "import sys\n" + code], capture_output=True,
                          text=True, env=env, timeout=60, check=True)
    return proc.stdout.splitlines()[-1]


def _modules_after(code: str) -> set[str]:
    """The names in ``sys.modules`` once a fresh interpreter has run ``code``."""
    return set(_fresh(code + "\nprint(' '.join(sorted(sys.modules)))").split())
