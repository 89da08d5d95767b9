import json
import random
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
    format_diagnostic,
    lint_template,
)
from iacloop.located_json import SourceSpan, parse_located
from iacloop.schema_store import PropertySpec, ResourceSchema, SchemaStore, builtin_core_schemas

from helpers import oracle_spans, pointer_of, random_document, random_reply

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
        spans = {pointer_of(path): span for path, span in oracle_spans(text).items()}
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

    @pytest.mark.parametrize("bucket_name, unused", [
        ({"Fn::Sub": "artifacts-${Stage}"}, []),
        ({"Fn::Sub": ["artifacts-${Stage}", {}]}, []),
        ({"Fn::Sub": ["${Name}", {"Name": {"Ref": "Stage"}}]}, []),
        ({"Fn::Sub": "artifacts-${!Stage}"}, ["Stage"]),  # a literal "${Stage}"
        ({"Fn::Sub": ["artifacts-${Stage}", {"Stage": "x"}]}, ["Stage"]),  # the map's Stage
    ], ids=["string", "list", "ref-in-map", "literal", "shadowed"])
    def test_fn_sub_variables_use_parameters(self, bucket_name, unused):
        template = {
            "Parameters": {"Stage": {"Type": "String"}},
            "Resources": {"B": {"Type": "AWS::S3::Bucket", "Properties": {"BucketName": bucket_name}}},
        }
        for by_block in (False, True):
            report = lint_template(parse_located(json.dumps(template)), builtin_core_schemas(), by_block=by_block)
            assert [d.message for d in report.diagnostics] == [f"Parameter '{n}' is never used" for n in unused]

    @pytest.mark.parametrize("primitive, value, code", [
        ("integer", 3, None), ("integer", 3.0, None), ("integer", 3.5, "E3012"), ("integer", True, "E3012"),
        ("integer", "3", "E3012"), ("integer", {"Ref": "X"}, "E1010"),
        ("number", 3, None), ("number", 3.5, None), ("number", False, "E3012"),
        ("boolean", True, None), ("boolean", 1, "E3012"),
        ("string", "s", None), ("string", 1, "E3012"), ("string", {"Ref": "X"}, None),
        ("string", {"Fn::GetAZs": ""}, "E1015"),
        ("object", {}, None), ("object", {"a": 1}, None), ("object", {"Ref": "X", "a": 1}, None),
        ("object", {"Ref": "X"}, "E1010"), ("object", [], "E3012"), ("object", "s", "E3012"),
        ("array", [], None), ("array", {"Fn::GetAZs": ""}, None), ("array", {"Ref": "X"}, "E1010"),
        ("array", "s", "E3012"),
    ])
    def test_which_values_satisfy_a_primitive(self, primitive, value, code):
        # As a property and as an array's item: a plain dict is an object, an
        # integral float an integer, a bool never a number.
        properties = {"Value": PropertySpec("Value", primitive),
                      "Items": PropertySpec("Items", "array", item_primitive=primitive)}
        store = SchemaStore({"AWS::Test::Widget": ResourceSchema("AWS::Test::Widget", properties)})
        for name, member, pointers in (("Value", value, ["/Value"]), ("Items", [value, value], ["/Items/0", "/Items/1"])):
            template = {"Resources": {"W": {"Type": "AWS::Test::Widget", "Properties": {name: member}}}}
            report = lint_template(parse_located(json.dumps(template)), store)
            expected = [] if code is None else [(code, "/Resources/W/Properties" + p) for p in pointers]
            assert [(d.code, d.pointer) for d in report.diagnostics] == expected, name


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


class TestControlCharacters:
    """A control character in a quoted name or value is escaped as ``repr``
    escapes it, so each diagnostic keeps its two-line layout, in the report
    and in the feedback the loop sends."""

    BUCKET = {"B": {"Type": "AWS::S3::Bucket"}}

    @pytest.mark.parametrize("code, template, message", [
        ("E3030", {"Resources": {"B": {"Type": "AWS::S3::Bucket", "Properties": {"AccessControl": "Pri\nvate"}}}},
         "'Pri\\nvate' is not one of ['Private', 'PublicRead', 'PublicReadWrite', 'AuthenticatedRead']"),
        ("E1001", {"Ex\ttra": {}, "Resources": BUCKET}, "Unknown top-level section 'Ex\\ttra'"),
        ("W2001", {"Parameters": {"P\nQ": {"Type": "String"}}, "Resources": BUCKET}, "Parameter 'P\\nQ' is never used"),
        ("E3001", {"Resources": {"B\nX": {"Properties": {}}}}, "Resource 'B\\nX' is missing required key 'Type'"),
        ("E3002", {"Resources": {"B": {"Type": "AWS::\r\x1b::\x7f"}}},
         "Resource type 'AWS::\\r\\x1b::\\x7f' is not recognized"),
    ], ids=["E3030", "E1001", "W2001", "E3001", "E3002"])
    def test_message_keeps_two_lines(self, code, template, message):
        for by_block in (False, True):
            report = lint_template(parse_located(json.dumps(template)), builtin_core_schemas(),
                                   strict_unknown_types=True, by_block=by_block)
            (diagnostic,) = report.diagnostics
            assert (diagnostic.code, diagnostic.message) == (code, message)
            assert len(format_diagnostic(diagnostic, "t.json").split("\n")) == 2

    def test_required_name_from_a_schema_keeps_two_lines(self):
        # E3003 quotes a name from the schema store, which a --schemas
        # directory supplies.
        widget = ResourceSchema("AWS::Test::Widget", {"Na\nme": PropertySpec("Na\nme", "string", required=True)})
        store = SchemaStore({"AWS::Test::Widget": widget})
        text = json.dumps({"Resources": {"W": {"Type": "AWS::Test::Widget", "Properties": {}}}})
        for by_block in (False, True):
            (diagnostic,) = lint_template(parse_located(text), store, by_block=by_block).diagnostics
            assert (diagnostic.code, diagnostic.message) == ("E3003", "Required property 'Na\\nme' is missing")


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
        for bad in ["X1015", "E101", "E10155", "e1015", "", "E1234\n", " E1234"]:
            with pytest.raises(ValueError):
                Diagnostic(bad, "m", SourceSpan(1, 1, 0), "")

    def test_message_non_empty(self):
        with pytest.raises(ValueError):
            Diagnostic("E1015", "", SourceSpan(1, 1, 0), "")

    def test_severity_from_prefix(self):
        assert Diagnostic("E1015", "m", SourceSpan(1, 1, 0), "").severity == "error"
        assert Diagnostic("W2001", "m", SourceSpan(1, 1, 0), "").severity == "warning"


class TestValueTypes:
    """What callers may rely on in a span and a diagnostic: immutable
    values that hash, compare and unpack as the tuples of their fields."""

    SPAN = SourceSpan(3, 7, 41)
    DIAG = Diagnostic("E3012", "m", SourceSpan(3, 7, 41), "/a/b")

    def test_assignment_raises(self):
        for value, name in [
            (self.SPAN, "line"), (self.SPAN, "column"), (self.SPAN, "byte_offset"), (self.SPAN, "extra"),
            (self.DIAG, "code"), (self.DIAG, "message"), (self.DIAG, "span"), (self.DIAG, "pointer"),
            (self.DIAG, "severity"), (self.DIAG, "extra"),
        ]:
            with pytest.raises(AttributeError):
                setattr(value, name, 1)
        assert self.SPAN == SourceSpan(3, 7, 41) and self.DIAG.code == "E3012"

    def test_hash_and_compare_by_fields(self):
        for value, same, other in [
            (self.SPAN, SourceSpan(3, 7, 41), SourceSpan(3, 7, 42)),
            (self.DIAG, Diagnostic("E3012", "m", SourceSpan(3, 7, 41), "/a/b"),
             Diagnostic("E3012", "m", SourceSpan(3, 7, 41), "/a/c")),
        ]:
            assert value == same and hash(value) == hash(same)
            assert value != other
            assert len({value, same, other}) == 2
            assert value == tuple(value) and hash(value) == hash(tuple(value))  # equal to a plain tuple

    def test_unpack_in_field_order(self):
        line, column, byte_offset = self.SPAN
        assert (line, column, byte_offset) == (self.SPAN.line, self.SPAN.column, self.SPAN.byte_offset) == (3, 7, 41)
        code, message, span, pointer = self.DIAG
        assert (code, message, span, pointer) == ("E3012", "m", self.SPAN, "/a/b")
        assert SourceSpan._fields == ("line", "column", "byte_offset")
        assert Diagnostic._fields == ("code", "message", "span", "pointer")

    def test_str_of_span_is_line_colon_column(self):
        assert str(self.SPAN) == "3:7"
        assert f"{SourceSpan(12, 1, 0)}" == "12:1"

    def test_keyword_construction_is_validated(self):
        assert Diagnostic(code="W2001", message="m", span=self.SPAN, pointer="") == ("W2001", "m", self.SPAN, "")
        with pytest.raises(ValueError):
            Diagnostic(code="E1234\n", message="m", span=self.SPAN, pointer="")
        with pytest.raises(ValueError):
            Diagnostic(code="E1234", message="", span=self.SPAN, pointer="")

    def test_linter_builds_the_same_types(self):
        text = (FIXTURE_DIR / "bad_enum.json").read_text()
        report = lint_template(parse_located(text), builtin_core_schemas())
        assert report.diagnostics
        for d in report.diagnostics:
            assert type(d) is Diagnostic and type(d.span) is SourceSpan
            assert d == Diagnostic(*d)


def _assert_block_lint_matches(text: str, strict: bool = False, store=None, clear: bool = True) -> None:
    """Linting by block equals the whole-template lint: cold, after the block
    cache is cleared (unless ``clear`` is off), then warm."""
    store = store if store is not None else builtin_core_schemas()
    document = parse_located(text)
    expected = lint_template(document, store, strict_unknown_types=strict)
    if clear:
        linter._block_rows.cache_clear()
    for _ in range(2):
        assert lint_template(document, store, strict_unknown_types=strict, by_block=True) == expected


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
                        _assert_block_lint_matches(layout)

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_equals_whole_lint_on_golden_fixtures(self, name):
        text = (FIXTURE_DIR / f"{name}.json").read_text()
        strict = bool(GOLDEN[name].get("options", {}).get("strict_unknown_types"))
        for layout in _layouts(text):
            _assert_block_lint_matches(layout, strict)
            _assert_block_lint_matches(layout, not strict)

    def test_equals_whole_lint_on_random_replies_and_documents(self):
        rng = random.Random(77)
        linted = 0
        for _ in range(1500):
            try:
                text = extract_template(random_reply(rng)).text
            except NoTemplateFound:
                continue
            _assert_block_lint_matches(text)
            linted += 1
        for _ in range(300):
            _assert_block_lint_matches(random_document(rng))
        assert linted > 500

    def test_awkward_ids_and_moved_blocks(self):
        value = json.loads(_AWKWARD)
        for text in _layouts(_AWKWARD):
            _assert_block_lint_matches(text, strict=True)
            _assert_block_lint_matches(text)
        # Blocks found at new lines, columns and byte offsets: a longer block
        # first, non-ASCII text before them, and a mid-line start.
        resources = value["Resources"]
        moved = {"Resources": {"Pad\u00e9\u00e9": {"Properties": "long " * 9}, **resources}}
        described = {"Description": "\u732b\u732b", **moved}
        for text in (
            json.dumps(moved, indent=2),
            json.dumps(moved, ensure_ascii=False),
            '{"Description": "\u732b\u732b", "Resources": {"Odd": [1, 2],\n "Same2": '
            + json.dumps(resources["Same2"], indent=3) + "}}",
        ):
            _assert_block_lint_matches(text)
        # The same block texts, cached from the unmoved template, are hits.
        for dump in (lambda v: json.dumps(v, separators=(",", ":")),
                     lambda v: json.dumps(v, ensure_ascii=False, indent=1)):
            _assert_block_lint_matches(dump(value))
            misses = linter._block_rows.cache_info().misses
            for other in (moved, described):
                _assert_block_lint_matches(dump(other), clear=False)
            assert linter._block_rows.cache_info().misses == misses + 1  # only the padding block is new

    def test_each_distinct_block_is_checked_once(self, monkeypatch):
        calls = []
        inner = linter._Linter.check_resource

        def counting(self, logical_id, entry):
            calls.append(logical_id)
            return inner(self, logical_id, entry)

        monkeypatch.setattr(linter._Linter, "check_resource", counting)
        linter._block_rows.cache_clear()
        store = builtin_core_schemas()
        document = parse_located(_AWKWARD)
        lint_template(document, store, by_block=True)
        assert len(calls) == 8  # identical blocks under two ids are two blocks
        lint_template(document, store, by_block=True)
        # The same block texts elsewhere in another template are hits too.
        moved = parse_located('{"Description": "x",\n' + _AWKWARD[1:])
        lint_template(moved, store, by_block=True)
        assert len(calls) == 8
        lint_template(document, store, strict_unknown_types=True, by_block=True)
        assert len(calls) == 16
        lint_template(document, store)  # the whole-template path neither reads nor fills the cache
        assert len(calls) == 24
        assert linter._block_rows.cache_info().currsize == 16

    def test_lone_surrogate_before_the_blocks(self):
        # A reply holding "\ud83d" decodes to a text with a lone surrogate;
        # a clean template stays clean and later spans count it as 3 bytes.
        store = builtin_core_schemas()
        clean = '{"Description": "x\ud83d", "Resources": {"B": {"Type": "AWS::S3::Bucket"}}}'
        for text in (clean, clean.replace("}}}", '}, "C": 5}}')):
            _assert_block_lint_matches(text)
        assert lint_template(parse_located(clean), store, by_block=True).diagnostics == ()
        (finding,) = lint_template(parse_located(text), store, by_block=True).diagnostics
        assert finding.span == SourceSpan(1, text.index("5") + 1, text.index("5") + 2)

    def test_each_key_part_tells_entries_apart(self):
        # An entry is keyed by store, strictness, logical id and source text:
        # a key that differs in any one part is checked anew, parts never run
        # together, and a store whose bucket names are integers never reuses
        # the builtin store's rows for the same block.
        builtin = builtin_core_schemas()
        bucket = builtin.lookup("AWS::S3::Bucket")
        integer_names = SchemaStore({
            **builtin.schemas,
            bucket.type_name: ResourceSchema(
                bucket.type_name, {**bucket.properties, "BucketName": PropertySpec("BucketName", "integer")}
            ),
        })
        named = '{"Type": "AWS::S3::Bucket", "Properties": {"BucketName": "b"}}'
        unknown = '{"Type": "AWS::Nope::Thing"}'
        wrong_name = (named.index('"b"'), "E3012", "'b' is not of type 'integer'", "/Resources/A/Properties/BucketName")
        not_recognized = "Resource type 'AWS::Nope::Thing' is not recognized"
        expected = {
            (builtin, False, "A", named): (),
            (integer_names, False, "A", named): (wrong_name,),
            (builtin, False, "A", unknown): (),
            (builtin, True, "A", unknown): ((9, "E3002", not_recognized, "/Resources/A/Type"),),
            (builtin, True, "B", unknown): ((9, "E3002", not_recognized, "/Resources/B/Type"),),
            (builtin, False, "A", "11"): ((0, "E3012", "11 is not of type 'object'", "/Resources/A"),),
            (builtin, False, "A1", "1"): ((0, "E3012", "1 is not of type 'object'", "/Resources/A1"),),
        }
        linter._block_rows.cache_clear()
        for keys in (list(expected), list(expected)[::-1]):  # cold, then warm in the other order
            for key in keys:
                assert linter._block_rows(*key) == expected[key], key
        info = linter._block_rows.cache_info()
        assert (info.misses, info.hits) == (len(expected), len(expected))
        # Through lint_template, interleaving the two stores on one template.
        template = '{"Resources": {"A": ' + named + "}}"
        for store in (builtin, integer_names, builtin, integer_names):
            _assert_block_lint_matches(template, store=store, clear=False)
        assert [d.code for d in lint_template(parse_located(template), integer_names, by_block=True).diagnostics] == [
            "E3012"
        ]
