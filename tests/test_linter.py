import json
import random
import sys
import threading
from pathlib import Path

import pytest

from iacloop import linter
from iacloop.gateway import (
    NoTemplateFound,
    SyntheticBackend,
    SyntheticParams,
    extract_template,
)
from iacloop.linter import (
    Diagnostic,
    LintReport,
    RunMemo,
    Severity,
    format_diagnostic,
    lint_template,
)
from iacloop.located_json import SourceSpan, parse_located
from iacloop.schema_store import builtin_core_schemas

from helpers import oracle_spans, random_document, random_reply

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


def _assert_block_lint_matches(memo: RunMemo, text: str, strict: bool = False) -> None:
    """Linting through ``memo`` equals the whole-template lint, cold then warm."""
    document = parse_located(text)
    expected = lint_template(document, memo.store, strict_unknown_types=strict)
    for _ in range(2):
        assert lint_template(document, memo.store, strict_unknown_types=strict, memo=memo) == expected


def _layouts(text: str) -> list[str]:
    value = json.loads(text)
    return [
        text,
        json.dumps(value, separators=(",", ":")),  # every block mid-line
        json.dumps(value, ensure_ascii=False, indent=1),
    ]


# Blocks with findings under awkward logical ids: non-ASCII, "~" and "/"
# (escaped in pointers), a \u escape in the source, and two identical blocks.
_AWKWARD = r"""{
  "Resources": {
    "Caf\u00e9": {"Type": "AWS::EC2::Instance", "Properties": {"ImageId": 7,
      "InstanceType": "t9.huge"}},
    "猫/犬~1": {"Type": "AWS::S3::Bucket", "Properties": {"Tags": ["x", {"Key": 1}]}},
    "a~b/c": {"Properties": {}},
    "Same1": {"Type": "AWS::EC2::Subnet", "Properties": {"VpcId": 5,
      "MapPublicIpOnLaunch": {"Fn::GetAZs": ""}}},
    "Same2": {"Type": "AWS::EC2::Subnet", "Properties": {"VpcId": 5,
      "MapPublicIpOnLaunch": {"Fn::GetAZs": ""}}},
    "\u0042ucket\ud83d\udc0d": {"Type": "AWS::S3::Bucket", "Properties": {"AccessControl": "Nope"}},
    "Odd": [1, 2],
    "Strict": {"Type": "AWS::Nope::Thing"}
  },
  "Parameters": {"Unused~/": {"Type": "String"}},
  "Extras": {}
}"""


class TestBlockMemo:
    def test_equals_whole_lint_on_synthetic_templates(self):
        store = builtin_core_schemas()
        memo = RunMemo(store)
        rng = random.Random(6)
        for blocks in (1, 2, 5, 16, 64):
            defects = 10 * blocks  # sizes the template to about ``blocks`` blocks
            for stubborn in (0.0, 0.25, 0.5, 1.0):  # clean to dense after one step
                backend = SyntheticBackend(
                    SyntheticParams(p_fix=1.0, p_spawn=0.3, stubborn_fraction=stubborn,
                                    seed=rng.getrandbits(32)),
                    initial_defects=defects,
                    store=store,
                )
                texts = [backend.initial_generation(), backend.synthetic_step()]
                for text in texts:
                    for layout in _layouts(text):
                        _assert_block_lint_matches(memo, layout)

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_equals_whole_lint_on_golden_fixtures(self, name):
        memo = RunMemo(builtin_core_schemas())
        text = (FIXTURE_DIR / f"{name}.json").read_text()
        strict = bool(GOLDEN[name].get("options", {}).get("strict_unknown_types"))
        for layout in _layouts(text):
            _assert_block_lint_matches(memo, layout, strict)
            _assert_block_lint_matches(memo, layout, not strict)

    def test_equals_whole_lint_on_random_replies_and_documents(self):
        memo = RunMemo(builtin_core_schemas())
        rng = random.Random(77)
        linted = 0
        for _ in range(1500):
            try:
                text = extract_template(random_reply(rng)).text
            except NoTemplateFound:
                continue
            _assert_block_lint_matches(memo, text)
            linted += 1
        for _ in range(300):
            _assert_block_lint_matches(memo, random_document(rng))
        assert linted > 500

    def test_awkward_ids_and_moved_blocks(self):
        memo = RunMemo(builtin_core_schemas())
        value = json.loads(_AWKWARD)
        for text in _layouts(_AWKWARD):
            _assert_block_lint_matches(memo, text, strict=True)
            _assert_block_lint_matches(memo, text)
        # Warm blocks found at new lines, columns and byte offsets: a longer
        # block first, non-ASCII text before them, and a mid-line start.
        resources = value["Resources"]
        moved = {"Resources": {"Pad\u00e9\u00e9": {"Properties": "long " * 9}, **resources}}
        for text in (
            json.dumps(moved, indent=2),
            json.dumps(moved, ensure_ascii=False),
            '{"Description": "\u732b\u732b", "Resources": {"Odd": [1, 2],\n "Same2": '
            + json.dumps(resources["Same2"], indent=3) + "}}",
        ):
            _assert_block_lint_matches(memo, text)

    def test_each_distinct_block_is_checked_once(self, monkeypatch):
        calls = []
        inner = linter._Linter.check_resource

        def counting(self, logical_id, entry):
            calls.append(logical_id)
            return inner(self, logical_id, entry)

        monkeypatch.setattr(linter._Linter, "check_resource", counting)
        memo = RunMemo(builtin_core_schemas())
        document = parse_located(_AWKWARD)
        lint_template(document, memo.store, memo=memo)
        assert len(calls) == 8  # identical blocks under two ids are two blocks
        lint_template(document, memo.store, memo=memo)
        # The same block texts elsewhere in another template are hits too.
        moved = parse_located('{"Description": "x",\n' + _AWKWARD[1:])
        lint_template(moved, memo.store, memo=memo)
        assert len(calls) == 8
        lint_template(document, memo.store, strict_unknown_types=True, memo=memo)
        assert len(calls) == 16

    def test_memo_of_another_store_is_refused(self):
        memo = RunMemo(builtin_core_schemas())
        with pytest.raises(ValueError):
            lint_template(parse_located(_AWKWARD), builtin_core_schemas(), memo=memo)

    def test_lone_surrogate_before_the_blocks(self):
        # A reply holding "\ud83d" decodes to a text with a lone surrogate;
        # a clean template stays clean and later spans count it as 3 bytes.
        store = builtin_core_schemas()
        clean = '{"Description": "x\ud83d", "Resources": {"B": {"Type": "AWS::S3::Bucket"}}}'
        memo = RunMemo(store)
        for text in (clean, clean.replace("}}}", '}, "C": 5}}')):
            _assert_block_lint_matches(memo, text)
        assert lint_template(parse_located(clean), store, memo=memo).diagnostics == ()
        (finding,) = lint_template(parse_located(text), store, memo=memo).diagnostics
        assert finding.span == SourceSpan(1, text.index("5") + 1, text.index("5") + 2)

    def test_capacity_evicts_oldest_first(self):
        memo = RunMemo(builtin_core_schemas())
        for i in range(RunMemo.CAPACITY + 2):
            memo.keep_block_findings(str(i), "{}", False, (i,))
        assert len(memo) == RunMemo.CAPACITY
        assert [memo.block_findings(str(i), "{}", False) for i in (0, 1, 2, RunMemo.CAPACITY + 1)] == [
            None, None, (2,), (RunMemo.CAPACITY + 1,)
        ]
        memo.keep_block_findings("2", "{}", False, ("again",))  # a stored key is replaced, nothing evicted
        assert (len(memo), memo.block_findings("2", "{}", False), memo.block_findings("3", "{}", False)) == (
            RunMemo.CAPACITY, ("again",), (3,)
        )

    def test_each_key_part_tells_entries_apart(self):
        # An entry is keyed by logical id, source text and strictness: a key
        # that differs in any one part misses, and parts never run together.
        memo = RunMemo(builtin_core_schemas())
        memo.keep_block_findings("A", "1", False, ("rows",))
        for other in [("B", "1", False), ("A", "2", False), ("A", "1", True), ("A1", "", False), ("", "A1", False)]:
            assert memo.block_findings(*other) is None, other
        memo.keep_block_findings("A", "1", True, ("strict",))
        memo.keep_block_findings("A1", "", False, ("joined",))
        assert [memo.block_findings(*key) for key in [("A", "1", False), ("A", "1", True), ("A1", "", False)]] == [
            ("rows",), ("strict",), ("joined",)
        ]
        assert len(memo) == 3

    def test_shared_between_threads(self):
        memo = RunMemo(builtin_core_schemas())
        errors = []

        def work(worker: int) -> None:
            try:
                for i in range(1500):  # 12,000 keys in all: most are evicted
                    logical_id = f"{worker}/{i}"
                    memo.keep_block_findings(logical_id, "{}", False, (i,))
                    assert memo.block_findings(logical_id, "{}", False) in (None, (i,))
                    assert len(memo) <= RunMemo.CAPACITY
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(n,)) for n in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(memo) == RunMemo.CAPACITY
