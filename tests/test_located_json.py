import json
import random

import pytest

from iacloop.located_json import (
    MAX_NESTING_DEPTH,
    DuplicateKeyError,
    JsonSyntaxError,
    MalformedPointerError,
    iter_nodes,
    node_at,
    parse_located,
    render_fragment,
    render_value,
)

from helpers import oracle_spans, random_document, random_value, render_random_layout

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


class TestParseLocated:
    def test_empty_object(self):
        node = parse_located("{}")
        assert node.value == {}
        assert node.span.line == 1
        assert node.span.column == 1
        assert node.span.byte_offset == 0

    def test_example_template_key_order(self):
        node = parse_located(EXAMPLE_TEMPLATE)
        assert list(node.value) == ["AWSTemplateFormatVersion", "Resources"]
        assert node.to_python() == json.loads(EXAMPLE_TEMPLATE)

    def test_nested_value_span_matches_oracle(self):
        text = '{"a": [1, {"b": true}]}'
        node = node_at(parse_located(text), "/a/1/b")
        line, column, byte_offset = oracle_spans(text)["/a/1/b"]
        assert (node.span.line, node.span.column, node.span.byte_offset) == (line, column, byte_offset)

    def test_roundtrip_equals_reference_parse(self):
        rng = random.Random(1234)
        for _ in range(100):
            text = random_document(rng)
            assert parse_located(text).to_python() == json.loads(text)

    def test_duplicate_key_rejected_with_second_span(self):
        with pytest.raises(DuplicateKeyError) as exc_info:
            parse_located('{"a": 1, "a": 2}')
        assert exc_info.value.span.column == 10

    def test_syntax_error_carries_span(self):
        with pytest.raises(JsonSyntaxError) as exc_info:
            parse_located('{"a": 1,\n  !}')
        assert exc_info.value.span.line == 2
        assert exc_info.value.span.column == 3

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

    def test_nesting_depth_counts_open_containers_only(self):
        deepest = "[" * MAX_NESTING_DEPTH + "]" * MAX_NESTING_DEPTH
        assert parse_located(deepest).to_python() == json.loads(deepest)
        siblings = json.dumps([{"a": [[1]]}] * (4 * MAX_NESTING_DEPTH))
        assert parse_located(siblings).to_python() == json.loads(siblings)

    def test_root_carries_source_text(self):
        text = '  {"x": 1}  '
        assert parse_located(text).source_text == text

    def test_number_text_preserved(self):
        node = parse_located('{"n": 1.50e1}')
        assert node.get("n").number_text == "1.50e1"
        assert node.get("n").value == 15.0

    def test_multibyte_columns_count_characters(self):
        # Two 3-byte characters before the value: byte and char positions split.
        text = '{"猫犬": 1}'
        node = node_at(parse_located(text), "/猫犬")
        assert node.span.column == 8
        assert node.span.byte_offset == 11


class TestGrammarEquivalence:
    """Acceptance must match json.loads on a randomized corpus (duplicate
    keys excepted: this parser deliberately rejects them)."""

    def _accepts(self, text: str):
        try:
            parse_located(text)
            return True, False
        except DuplicateKeyError:
            return False, True
        except ValueError:
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
            root = parse_located(text)
            expected = oracle_spans(text)
            for pointer, node in iter_nodes(root):
                assert (node.span.line, node.span.column, node.span.byte_offset) == expected[pointer], (
                    pointer,
                    text,
                )

    def test_byte_offset_slices_begin_literal(self):
        rng = random.Random(8)
        for _ in range(50):
            text = random_document(rng)
            data = text.encode("utf-8")
            for _, node in iter_nodes(parse_located(text)):
                rest = data[node.span.byte_offset :]
                if node.json_type == "string":
                    assert rest.startswith(b'"')
                elif node.json_type == "object":
                    assert rest.startswith(b"{")
                elif node.json_type == "array":
                    assert rest.startswith(b"[")
                elif node.json_type == "number":
                    assert rest.startswith(node.number_text.encode())
                elif node.json_type == "boolean":
                    assert rest.startswith(b"true" if node.value else b"false")
                else:
                    assert rest.startswith(b"null")


class TestNodeAt:
    def test_empty_pointer_is_root(self):
        root = parse_located("{}")
        assert node_at(root, "") is root

    def test_example_template_type_lookup(self):
        root = parse_located(EXAMPLE_TEMPLATE)
        node = node_at(root, "/Resources/MyEC2Instance/Type")
        assert node.value == "AWS::EC2::Instance"

    def test_array_index(self):
        root = parse_located('{"a":[10,20]}')
        assert node_at(root, "/a/1").value == 20

    def test_missing_steps_absent(self):
        root = parse_located('{"a":[10,20]}')
        assert node_at(root, "/b") is None
        assert node_at(root, "/a/2") is None
        assert node_at(root, "/a/-") is None
        assert node_at(root, "/a/01") is None
        assert node_at(root, "/a/0/x") is None

    def test_escaped_tokens(self):
        root = parse_located('{"a/b": {"c~d": 5}}')
        assert node_at(root, "/a~1b/c~0d").value == 5

    def test_malformed_pointers(self):
        root = parse_located("{}")
        for pointer in ["a", "/~2", "/~", "x/y"]:
            with pytest.raises(MalformedPointerError):
                node_at(root, pointer)


class TestRenderFragment:
    def test_getazs_object(self):
        node = parse_located('{"Fn::GetAZs": ""}')
        assert render_fragment(node) == "{'Fn::GetAZs': ''}"

    def test_empty_string(self):
        assert render_fragment(parse_located('""')) == "''"

    def test_mixed_array(self):
        assert render_fragment(parse_located('["a", 1, true]')) == "['a', 1, True]"

    def test_null_false_numbers(self):
        assert render_fragment(parse_located("[null, false, 1.5, -2]")) == "[None, False, 1.5, -2]"

    def test_quote_escaping(self):
        assert render_value("it's") == "'it\\'s'"

    def test_deterministic_and_total_on_random_values(self):
        rng = random.Random(31)
        for _ in range(100):
            value = random_value(rng)
            text = render_random_layout(random.Random(5), value)
            node = parse_located(text)
            assert render_fragment(node) == render_fragment(parse_located(text))
