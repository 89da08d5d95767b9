import json
from pathlib import Path

import pytest

from iacloop.linter import (
    Diagnostic,
    LintReport,
    Severity,
    format_diagnostic,
    lint_template,
)
from iacloop.located_json import SourceSpan, parse_located
from iacloop.schema_store import builtin_core_schemas

from helpers import oracle_spans

FIXTURE_DIR = Path(__file__).parent / "fixtures" / "lint"
GOLDEN = json.loads((Path(__file__).parent / "fixtures" / "lint_golden.json").read_text())

FIXTURE_NAMES = sorted(GOLDEN)


def lint_fixture(name: str) -> tuple[LintReport, str]:
    text = (FIXTURE_DIR / f"{name}.json").read_text()
    options = GOLDEN[name].get("options", {})
    report = lint_template(
        parse_located(text),
        builtin_core_schemas(),
        strict_unknown_types=options.get("strict_unknown_types"),
    )
    return report, text


class TestGoldenSuite:
    def test_covers_at_least_twenty_fixtures(self):
        assert len(FIXTURE_NAMES) >= 20

    def test_every_rule_code_triggered(self):
        seen = {d["code"] for entry in GOLDEN.values() for d in entry["diagnostics"]}
        assert seen == {
            "E0001", "E1001", "E1002", "E1010", "E1015",
            "E3001", "E3002", "E3003", "E3012", "E3030",
            "W1020", "W2001",
        }

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_fixture_matches_golden(self, name):
        report, _ = lint_fixture(name)
        actual = [
            {
                "code": d.code,
                "pointer": d.pointer,
                "line": d.span.line,
                "column": d.span.column,
                "message": d.message,
            }
            for d in report.diagnostics
        ]
        assert actual == GOLDEN[name]["diagnostics"]

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_pointer_resolves_to_span(self, name):
        # The independent tokenizer locates every value of the fixture.
        report, text = lint_fixture(name)
        spans = oracle_spans(text)
        for d in report.diagnostics:
            assert d.pointer in spans, d
            assert SourceSpan(*spans[d.pointer]) == d.span

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_ordering_and_idempotence(self, name):
        report, text = lint_fixture(name)
        keys = [(d.span.byte_offset, d.code) for d in report.diagnostics]
        assert keys == sorted(keys)
        again = lint_template(parse_located(text), builtin_core_schemas(),
                              strict_unknown_types=GOLDEN[name].get("options", {}).get("strict_unknown_types"))
        assert again == report

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_stable_under_reformatting(self, name):
        report, text = lint_fixture(name)
        minified = json.dumps(json.loads(text), separators=(",", ":"))
        reformatted = lint_template(
            parse_located(minified),
            builtin_core_schemas(),
            strict_unknown_types=GOLDEN[name].get("options", {}).get("strict_unknown_types"),
        )
        assert [(d.code, d.pointer, d.message) for d in reformatted.diagnostics] == [
            (d.code, d.pointer, d.message) for d in report.diagnostics
        ]


class TestLintBasics:
    def test_clean_template_reports_nothing(self):
        report, _ = lint_fixture("clean")
        assert report.diagnostics == ()
        assert (report.error_count, report.warning_count) == (0, 0)

    def test_empty_resources_is_exactly_e1002(self):
        report = lint_template(parse_located('{"Resources": {}}'), builtin_core_schemas())
        assert [d.code for d in report.diagnostics] == ["E1002"]

    def test_getazs_message_is_pinned(self):
        report, _ = lint_fixture("getazs_in_string")
        assert report.diagnostics[0].message == "{'Fn::GetAZs': ''} is not of type 'string'"

    def test_lint_never_fails_on_odd_shapes(self):
        store = builtin_core_schemas()
        for text in [
            "5", '"x"', "[1,2]", "null", "true",
            '{"Resources": 5}',
            '{"Resources": {"A": []}}',
            '{"Resources": {"A": {"Type": ["x"]}}}',
            '{"Parameters": "nope", "Resources": {"B": {"Type": "AWS::S3::Bucket"}}}',
            '{"Resources": {"A": {"Type": "AWS::S3::Bucket", "Properties": []}}}',
        ]:
            report = lint_template(parse_located(text), store)
            assert isinstance(report, LintReport)


class TestFormatDiagnostic:
    def _diag(self, code="E1015", message="{'Fn::GetAZs': ''} is not of type 'string'",
              line=1, column=4575):
        return Diagnostic(code, message, SourceSpan(line, column, 0), "/x")

    def test_two_line_layout(self):
        text = format_diagnostic(self._diag(), "path/to/my_iac.json")
        assert text == (
            "E1015 {'Fn::GetAZs': ''} is not of type 'string'\n"
            "Error location - path/to/my_iac.json:1:4575"
        )

    def test_warning_uses_same_layout(self):
        diag = self._diag(code="W2001", message="Parameter 'Env' is never used", line=3, column=5)
        assert format_diagnostic(diag, "a.json") == (
            "W2001 Parameter 'Env' is never used\nError location - a.json:3:5"
        )

    def test_two_lines_no_trailing_whitespace(self):
        text = format_diagnostic(self._diag(), "f.json")
        lines = text.split("\n")
        assert len(lines) == 2
        assert all(line == line.rstrip() for line in lines)


class TestReportCounts:
    def _report(self, codes):
        diags = tuple(
            Diagnostic(code, "m", SourceSpan(1, 1, i), "") for i, code in enumerate(codes)
        )
        return LintReport(diags)

    def test_empty(self):
        report = self._report([])
        assert (report.error_count, report.warning_count) == (0, 0)

    def test_mixed(self):
        report = self._report(["E1002", "W2001", "E3003"])
        assert (report.error_count, report.warning_count) == (2, 1)

    def test_single_error(self):
        report = self._report(["E1015"])
        assert (report.error_count, report.warning_count) == (1, 0)

    def test_counts_partition_diagnostics(self):
        report = self._report(["E1002", "W2001", "E3003", "W1020"])
        assert report.error_count + report.warning_count == len(report.diagnostics)


class TestDiagnosticInvariants:
    def test_code_shape_enforced(self):
        for bad in ["X1015", "E101", "E10155", "e1015", ""]:
            with pytest.raises(ValueError):
                Diagnostic(bad, "m", SourceSpan(1, 1, 0), "")

    def test_message_non_empty(self):
        with pytest.raises(ValueError):
            Diagnostic("E1015", "", SourceSpan(1, 1, 0), "")

    def test_severity_from_prefix(self):
        assert Diagnostic("E1015", "m", SourceSpan(1, 1, 0), "").severity is Severity.ERROR
        assert Diagnostic("W2001", "m", SourceSpan(1, 1, 0), "").severity is Severity.WARNING
