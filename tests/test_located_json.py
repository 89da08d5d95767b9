import json
import random
import sys
from pathlib import Path

import pytest

from iacloop.located_json import (
    MAX_NESTING_DEPTH,
    DuplicateKeyError,
    JsonSyntaxError,
    MalformedPointerError,
    SourceSpan,
    parse_located,
    escape_pointer_token,
    render_value,
    resolve_offsets,
    resolve_spans,
)

from helpers import iter_pointers, oracle_spans, random_document, random_value, render_random_layout

EXAMPLE_TEMPLATE = """{"AWSTemplateFormatVersion": "2010-09-09",
"Resources": {
  "MyEC2Instance": {
    "Type": "AWS::EC2::Instance",
    "Properties": {
      "InstanceType": "t2.micro",
      "ImageId": "ami-0abcdef1234567890"
    }
  }
}
}"""


def span_of(text: str, pointer: str):
    return resolve_spans(text, [pointer])[pointer]


class TestParseLocated:
    def test_empty_object(self):
        document = parse_located("{}")
        assert document.value == {}
        assert span_of("{}", "") == SourceSpan(1, 1, 0)

    def test_example_template_key_order(self):
        document = parse_located(EXAMPLE_TEMPLATE)
        assert list(document.value) == ["AWSTemplateFormatVersion", "Resources"]
        assert document.value == json.loads(EXAMPLE_TEMPLATE)

    def test_nested_value_span_matches_oracle(self):
        text = '{"a": [1, {"b": true}]}'
        line, column, byte_offset = oracle_spans(text)["/a/1/b"]
        assert span_of(text, "/a/1/b") == SourceSpan(line, column, byte_offset)

    def test_roundtrip_equals_reference_parse(self):
        rng = random.Random(1234)
        for _ in range(100):
            text = random_document(rng)
            assert parse_located(text).value == json.loads(text)

    def test_duplicate_key_rejected_with_second_span(self):
        with pytest.raises(DuplicateKeyError) as exc_info:
            parse_located('{"a": 1, "a": 2}')
        assert exc_info.value.span.column == 10

    def test_first_duplicate_in_text_order_wins(self):
        # The inner object closes (and is checked) after the outer duplicate.
        for text, column in (
            ('{"a": 1, "a": {"b": 1, "b": 2}}', 10),
            ('{"x": {"a": 1, "a": {"b": 1, "b": 2}}}', 16),
        ):
            with pytest.raises(DuplicateKeyError) as exc_info:
                parse_located(text)
            assert (exc_info.value.key, exc_info.value.span.column) == ("a", column)

    def test_duplicate_before_syntax_error_is_reported(self):
        for text in ('{"a": 1, "a": 2, !}', '{"a": 1, "a" 2}', '{"a": 1, "a": [' + "[" * 300):
            with pytest.raises(DuplicateKeyError) as exc_info:
                parse_located(text)
            assert exc_info.value.span == SourceSpan(1, 10, 9)
        with pytest.raises(JsonSyntaxError) as exc_info:
            parse_located('{"a": !, "a": 2}')
        assert not isinstance(exc_info.value, DuplicateKeyError)

    def test_syntax_error_carries_span(self):
        with pytest.raises(JsonSyntaxError) as exc_info:
            parse_located('{"a": 1,\n  !}')
        assert exc_info.value.span.line == 2
        assert exc_info.value.span.column == 3

    def test_syntax_errors_carry_json_reasons(self):
        cases = [
            ('{"a": 1 "b": 2}', "Expecting ',' delimiter", 9),
            ('{"a": "abc', "Unterminated string starting at", 7),  # the opening quote
            ("", "Expecting value", 1),
            ("[1,]", "Expecting value", 4),
        ]
        for text, reason, column in cases:
            with pytest.raises(JsonSyntaxError) as exc_info:
                parse_located(text)
            assert (exc_info.value.reason, exc_info.value.span.column) == (reason, column), text

    def test_trailing_data_rejected(self):
        with pytest.raises(JsonSyntaxError):
            parse_located("{} {}")

    def test_deep_nesting_is_a_syntax_error(self):
        for text in ("[" * 3000, '{"a":' * 600):
            with pytest.raises(JsonSyntaxError) as exc_info:
                parse_located(text)
            assert exc_info.value.reason == "nesting too deep"
        with pytest.raises(JsonSyntaxError) as exc_info:
            parse_located("[" * (MAX_NESTING_DEPTH + 1) + "]" * (MAX_NESTING_DEPTH + 1))
        assert exc_info.value.span.column == MAX_NESTING_DEPTH + 1

    def test_depth_1000_documents_never_raise_recursion_error(self):
        for text, column in (
            ('{"a":' * 1000 + "1" + "}" * 1000, 5 * MAX_NESTING_DEPTH + 1),
            ("[" * 1000 + "]" * 1000, MAX_NESTING_DEPTH + 1),
        ):
            with pytest.raises(JsonSyntaxError) as exc_info:
                parse_located(text)
            assert (exc_info.value.reason, exc_info.value.span.column) == ("nesting too deep", column)

    def test_depth_100000_documents_stop_at_the_257th_container(self):
        # The C decoder gives up on such nesting with a RecursionError; the
        # fault walk still reports the bracket that opens container 257.
        for text, column in (("[" * 100_000, MAX_NESTING_DEPTH + 1), ('{"a":' * 100_000, 5 * MAX_NESTING_DEPTH + 1)):
            with pytest.raises(JsonSyntaxError) as exc_info:
                parse_located(text)
            assert (exc_info.value.reason, exc_info.value.span.column) == ("nesting too deep", column)

    def test_first_fault_in_text_order_wins(self):
        # Each pair of faults in both orders: the earlier one is reported.
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        faults = {  # fragment, reason, offset of the fault within the fragment
            "depth": ("[" * 300 + "]" * 300, "nesting too deep", MAX_NESTING_DEPTH - 1),
            "duplicate": ('{"a": 1, "a": 2}', "duplicate object key 'a'", 9),
            "decoder": ("!", "Expecting value", 0),
        }
        if limit:
            faults["integer"] = ("7" * (limit + 1), f"Integer has {limit + 1} digits, more than {limit}", 0)
        for first, (fragment, reason, offset) in faults.items():
            for second, (other, _, _) in faults.items():
                if second == first:
                    continue
                text = "[" + fragment + ", " + other + "]"
                with pytest.raises(JsonSyntaxError) as exc_info:
                    parse_located(text)
                assert (exc_info.value.reason, exc_info.value.span.column) == (reason, 2 + offset), (first, second)
                assert isinstance(exc_info.value, DuplicateKeyError) == (first == "duplicate")

    def test_key_holding_the_decoder_error(self):
        # The walk ends inside the key, which is never taken as a whole key.
        for text, reason, column in (
            ('{"a": 1, "b\x01": 2}', "Invalid control character at", 12),
            ('{"a": 1, "b\\q": 2}', "Invalid \\escape", 12),
            ('{"a": 1, "a\\u12": 2}', "Invalid \\uXXXX escape", 13),
        ):
            with pytest.raises(JsonSyntaxError) as exc_info:
                parse_located(text)
            assert (exc_info.value.reason, exc_info.value.span.column) == (reason, column), text
            assert not isinstance(exc_info.value, DuplicateKeyError)

    def test_brackets_inside_strings_do_not_count_toward_depth(self):
        text = json.dumps(["[{" * 300, {"k": "\\\"[" * 300}])
        assert parse_located(text).value == json.loads(text)
        for tail, reason, column in (
            ("\\", "Unterminated string starting at", 2),
            ("\x01", "Invalid control character at", 303),  # past the 257th bracket
        ):
            with pytest.raises(JsonSyntaxError) as exc_info:
                parse_located('["' + "[" * 300 + tail)
            assert (exc_info.value.reason, exc_info.value.span.column) == (reason, column)

    def test_lone_surrogate_counts_three_bytes(self):
        # A decoded "\ud83d" escape leaves a lone surrogate, which UTF-8
        # cannot encode; positions after it still resolve.
        text = json.loads(r'"{\"a\": \"x\ud83d\", \"b\": 5}"')
        assert "\ud83d" in text
        offset = text.index("5")
        assert span_of(parse_located(text).text, "/b") == SourceSpan(1, offset + 1, offset + 2)
        with pytest.raises(DuplicateKeyError):
            parse_located(text[:-1] + ", \"b\": 6}")
        deep = "[" * (MAX_NESTING_DEPTH + 1) + '"\ud83d"' + "]" * (MAX_NESTING_DEPTH + 1)
        with pytest.raises(JsonSyntaxError) as exc_info:
            parse_located(deep)
        assert exc_info.value.reason == "nesting too deep"

    def test_nesting_depth_counts_open_containers_only(self):
        deepest = "[" * MAX_NESTING_DEPTH + "]" * MAX_NESTING_DEPTH
        assert parse_located(deepest).value == json.loads(deepest)
        siblings = json.dumps([{"a": [[1]]}] * (4 * MAX_NESTING_DEPTH))
        assert parse_located(siblings).value == json.loads(siblings)

    def test_over_long_integer_is_a_syntax_error_at_its_first_digit(self):
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit:
            pytest.skip("this interpreter converts integers of any length")
        digits = "7" * (limit + 1)
        text = '{"s": "' + digits + '", "f": 1.' + digits + ',\n "n": -' + digits + "}"
        with pytest.raises(JsonSyntaxError) as exc_info:
            parse_located(text)
        assert exc_info.value.reason == f"Integer has {limit + 1} digits, more than {limit}"
        assert exc_info.value.span == SourceSpan(2, 8, text.index("\n") + 8)
        within = "[" + "7" * limit + "]"
        assert parse_located(within).value == [int("7" * limit)]

    def test_root_carries_source_text(self):
        text = '  {"x": 1}  '
        assert parse_located(text).text == text

    def test_number_text_preserved(self):
        text = '{"n": 1.50e1}'
        assert parse_located(text).value["n"] == 15.0
        assert text[span_of(text, "/n").byte_offset :].startswith("1.50e1")

    def test_multibyte_columns_count_characters(self):
        # Two 3-byte characters before the value: byte and char positions split.
        span = span_of('{"猫犬": 1}', "/猫犬")
        assert span.column == 8
        assert span.byte_offset == 11


class TestGrammarEquivalence:
    """Acceptance must match json.loads on a randomized corpus (duplicate
    keys excepted: this parser deliberately rejects them)."""

    def _accepts(self, text: str):
        try:
            parse_located(text)
            return True, False
        except DuplicateKeyError:
            return False, True
        except JsonSyntaxError:
            return False, False

    def _reference_accepts(self, text: str) -> bool:
        try:
            json.loads(text)
            return True
        except ValueError:
            return False

    def test_valid_corpus_accepted(self):
        rng = random.Random(99)
        for _ in range(150):
            text = random_document(rng)
            accepted, dup = self._accepts(text)
            assert accepted and not dup, text

    def test_mutated_corpus_agreement(self):
        rng = random.Random(2024)
        checked = 0
        for _ in range(300):
            text = random_document(rng)
            pos = rng.randrange(len(text))
            mutation = rng.choice(list('{}[],:"0123456789 truefalsenull\\'))
            mutated = text[:pos] + mutation + text[pos + 1 :]
            accepted, dup = self._accepts(mutated)
            if dup:
                continue  # stricter than the reference by design
            assert accepted == self._reference_accepts(mutated), repr(mutated)
            checked += 1
        assert checked > 200

    def test_rejections_match_reference(self):
        bad = ["", "{", "[1,]", '{"a" 1}', "01", "1.", ".5", "'x'", '{"a": 1,}',
               "tru", '["\\q"]', '"\x01"', "+1", "- 1", "[1 2]", '{"a"}', "nul"]
        for text in bad:
            accepted, _ = self._accepts(text)
            assert not accepted, repr(text)
            assert not self._reference_accepts(text), repr(text)

    def test_json_loads_extensions_accepted(self):
        for text in ["NaN", "Infinity", "-Infinity", "[NaN]"]:
            assert self._reference_accepts(text)
            accepted, _ = self._accepts(text)
            assert accepted, text


class TestSpanSoundness:
    def test_random_corpus_spans(self):
        rng = random.Random(7)
        for _ in range(100):
            text = random_document(rng)
            expected = oracle_spans(text)
            spans = resolve_spans(text, expected)
            assert {p: (s.line, s.column, s.byte_offset) for p, s in spans.items()} == expected, text

    def test_byte_offset_slices_begin_literal(self):
        rng = random.Random(8)
        decoder = json.JSONDecoder()
        for _ in range(50):
            text = random_document(rng)
            data = text.encode("utf-8")
            pointers = dict(iter_pointers(parse_located(text).value))
            for pointer, span in resolve_spans(text, pointers).items():
                rest = data[span.byte_offset :].decode("utf-8")
                assert decoder.raw_decode(rest)[0] == pointers[pointer], (pointer, text)

    def test_batch_equals_single_lookups(self):
        rng = random.Random(9)
        for _ in range(40):
            text = random_document(rng)
            pointers = [p for p, _ in iter_pointers(json.loads(text))]
            pointers += [p + "/missing" for p in pointers[::3]]
            batch = resolve_spans(text, rng.sample(pointers, len(pointers)))
            assert batch == {p: span_of(text, p) for p in pointers}


# Resource ids that are non-ASCII, hold "~" and "/" (escaped in pointers) or
# are written with \u escapes, and blocks of every JSON type with odd spacing.
_AWKWARD_BLOCKS = r"""{"Description": "caf\u00e9 猫", "Resources": {
  "Café": {"Type": "AWS::EC2::Instance", "Properties": {"ImageId": 7}},
  "猫/犬~1": {"Type": "AWS::S3::Bucket", "Properties": {"Tags": ["x", {"Key": 1}]}} ,
  "a~b/c" : {} ,
  "\u0042ucket\ud83d\udc0d": [1, [], {}],
  "Odd":"x",  "N" :12.5e3,
  "T": true
 } , "Outputs": {"o": 1}}"""


def _block_templates() -> list[str]:
    fixtures = Path(__file__).parent / "fixtures" / "lint"
    texts = [_AWKWARD_BLOCKS] + [path.read_text() for path in sorted(fixtures.glob("*.json"))]
    layouts = []
    for text in texts:
        value = json.loads(text)
        if isinstance(value, dict) and isinstance(value.get("Resources"), dict) and value["Resources"]:
            layouts += [
                text,
                json.dumps(value, separators=(",", ":")),  # minified
                json.dumps(value, ensure_ascii=False, indent=1),
            ]
    return layouts


class TestValueEnds:
    """``resolve_offsets`` gives each value it finds its start and the
    offset just past it, where the stdlib decoder stops reading it, and the
    same offsets whatever else is asked for in the batch."""

    @staticmethod
    def _assert_offsets_decode(text: str, values: dict, absent: list[str], rng: random.Random) -> None:
        decoder = json.JSONDecoder()
        pointers = list(values)
        found = resolve_offsets(text, pointers + absent)
        assert set(found) == set(pointers)
        for pointer, (start, end) in found.items():
            assert decoder.raw_decode(text, start) == (values[pointer], end), (pointer, text)
        for pointer in pointers + absent:  # each alone
            assert resolve_offsets(text, [pointer]) == {p: found[p] for p in [pointer] if p in found}
        for _ in range(10):
            batch = rng.sample(pointers + absent, rng.randint(1, len(pointers) + len(absent)))
            assert resolve_offsets(text, batch) == {p: found[p] for p in batch if p in found}
        assert resolve_offsets(text, absent) == {}

    def test_resource_block_ends(self):
        templates = _block_templates()
        assert len(templates) > 60
        rng = random.Random(11)
        for text in templates:
            values = dict(iter_pointers(json.loads(text)))
            blocks = {p: v for p, v in values.items() if p.count("/") == 2 and p.startswith("/Resources/")}
            absent = ["/Resources/missing", "/Resources/0", "/Outputs/missing/x"]
            self._assert_offsets_decode(text, blocks, absent, rng)
            self._assert_offsets_decode(text, values, absent, rng)

    def test_random_document_ends(self):
        rng = random.Random(12)
        for _ in range(200):
            document = random_document(rng)
            for text in (document, " \r\n\t" + document.strip(" \t\n\r") + "\n\t\r "):
                values = dict(iter_pointers(json.loads(text)))
                absent = [p + "/missing" for p in list(values)[::3]]
                self._assert_offsets_decode(text, values, absent, rng)


# Layouts the walk must step through: escaped keys first and later in their
# objects, "\r", "\t" and "\n" around ":" and ",", empty containers, arrays of
# objects, and scalars of every type, some holding brackets and quotes.
_WALK_TEXTS = [
    r'{"\u0041": 1, "b": {"\"q\"": [2], "c\\d": {"\/": 3}}, "k\u00e9y": {"x": 4, "\n": 5}}',
    r'[{"\t": {"\"": [0]}}, {"a": 1, "\u0062": [{"\\": 2}]}]',
    '{\r\n\t"a"\r\n\t:\r\n\t1\r\n\t,\r\n\t"b"\t:\n[\r1\t,\n2\r]\n,\t"c":{"d"\r:\r"e"}\r\n}\r\n',
    '\n\t[\r\n1\n,\t{\r"x"\n:\t[\r]\n,"y":{}\t}\r,\n[\t]\r]\t\n',
    '{"e": {}, "f": [], "g": [{}, [], {"h": [{}]}], "i": [ {} , { } ], "j": {"k": { }}}',
    '[{"a": 1}, {"a": [ ]}, {}, [{"b": {"c": [{"d": 0}]}}]]',
    " [ ] ",
    "{ }",
    '{"s": "x}\\"],{:", "n": -1.5e3, "t": true, "f": false, "z": null, "l": [1, "2", [3], {"m": [-0.0]}]}',
]


class TestWalkAgainstOracle:
    """``resolve_offsets`` against the tokenizing oracle on layouts picked
    to reach every path of its member walk."""

    @pytest.mark.parametrize("text", _WALK_TEXTS)
    def test_starts_match_the_oracle(self, text):
        expected = oracle_spans(text)
        pointers = list(expected)
        spans = lambda batch: {p: (s.line, s.column, s.byte_offset) for p, s in resolve_spans(text, batch).items()}
        assert spans(pointers) == expected
        for pointer in pointers:  # each alone
            assert spans([pointer]) == {pointer: expected[pointer]}
        rng = random.Random(text)
        for _ in range(20):
            batch = rng.sample(pointers, rng.randint(1, len(pointers)))
            assert spans(batch) == {p: expected[p] for p in batch}

    @pytest.mark.parametrize("text", _WALK_TEXTS)
    def test_absent_members_and_indexes(self, text):
        value = json.loads(text)
        expected = oracle_spans(text)
        absent = []
        for pointer, child in iter_pointers(value):
            if isinstance(child, dict):
                absent += [pointer + "/missing", pointer + "/0"]
            elif isinstance(child, list):
                absent += [f"{pointer}/{len(child)}", pointer + "/-", pointer + "/00", pointer + "/x"]
            else:
                absent += [pointer + "/0", pointer + "/a"]  # a step into a scalar
        assert not set(absent) & set(expected)
        assert set(resolve_offsets(text, absent + list(expected))) == set(expected)
        assert resolve_offsets(text, absent) == {}

    @pytest.mark.parametrize("text", _WALK_TEXTS)
    def test_ends_of_values(self, text):
        values = dict(iter_pointers(json.loads(text)))
        assert list(values) == list(oracle_spans(text))
        TestValueEnds._assert_offsets_decode(text, values, [p + "/missing" for p in values], random.Random(text))


class TestNodeAt:
    """Single-pointer lookups through resolve_spans."""

    def test_empty_pointer_is_root(self):
        assert span_of("{}", "") == SourceSpan(1, 1, 0)
        assert span_of("\n  []", "") == SourceSpan(2, 3, 3)

    def test_example_template_type_lookup(self):
        span = span_of(EXAMPLE_TEMPLATE, "/Resources/MyEC2Instance/Type")
        assert EXAMPLE_TEMPLATE[span.byte_offset :].startswith('"AWS::EC2::Instance"')
        assert (span.line, span.column) == (4, 13)

    def test_array_index(self):
        assert span_of('{"a":[10,20]}', "/a/1") == SourceSpan(1, 10, 9)

    def test_missing_steps_absent(self):
        text = '{"a":[10,20]}'
        assert resolve_spans(text, ["/b", "/a/2", "/a/-", "/a/01", "/a/0/x"]) == {
            "/b": None, "/a/2": None, "/a/-": None, "/a/01": None, "/a/0/x": None,
        }

    def test_escaped_tokens(self):
        assert span_of('{"a/b": {"c~d": 5}}', "/a~1b/c~0d") == SourceSpan(1, 17, 16)

    def test_malformed_pointers(self):
        for pointer in ["a", "/~2", "/~", "x/y"]:
            with pytest.raises(MalformedPointerError):
                resolve_spans("{}", [pointer])


class TestRenderFragment:
    def test_getazs_object(self):
        assert render_value(parse_located('{"Fn::GetAZs": ""}').value) == "{'Fn::GetAZs': ''}"

    def test_empty_string(self):
        assert render_value(parse_located('""').value) == "''"

    def test_mixed_array(self):
        assert render_value(parse_located('["a", 1, true]').value) == "['a', 1, True]"

    def test_null_false_numbers(self):
        assert render_value(parse_located("[null, false, 1.5, -2]").value) == "[None, False, 1.5, -2]"

    def test_quote_escaping(self):
        assert render_value("it's") == "'it\\'s'"

    def test_deterministic_and_total_on_random_values(self):
        rng = random.Random(31)
        for _ in range(100):
            value = random_value(rng)
            text = render_random_layout(random.Random(5), value)
            assert render_value(parse_located(text).value) == render_value(value)
