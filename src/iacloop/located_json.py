"""JSON parsing with exact source positions.

Every parsed node remembers the line, column, and byte offset of its first
character, so downstream tooling can point at the offending spot in the
original text.  The accepted grammar matches ``json.loads`` (including its
NaN/Infinity extensions) with one deliberate exception: duplicate object
keys are rejected instead of silently keeping the last value, which keeps
lint results deterministic.

Lines and columns are 1-based.  Columns count characters, byte offsets count
UTF-8 bytes, so multi-byte text still yields human-meaningful positions.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Iterator, Optional, Union

__all__ = [
    "SourceSpan",
    "LocatedNode",
    "JsonSyntaxError",
    "DuplicateKeyError",
    "MalformedPointerError",
    "parse_located",
    "node_at",
    "render_fragment",
    "render_value",
    "iter_nodes",
    "escape_pointer_token",
]

_WHITESPACE = " \t\n\r"
_NUMBER_RE = re.compile(r"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?")
_ESCAPES = {
    '"': '"',
    "\\": "\\",
    "/": "/",
    "b": "\b",
    "f": "\f",
    "n": "\n",
    "r": "\r",
    "t": "\t",
}
# Accepted for parity with json.loads, which allows these non-RFC constants.
_CONSTANTS = {"NaN": float("nan"), "Infinity": float("inf"), "-Infinity": float("-inf")}
# Most containers open at once.  The parser recurses twice per level, so a
# cap well below the interpreter's recursion limit turns hostile nesting into
# a JsonSyntaxError instead of a RecursionError.
MAX_NESTING_DEPTH = 256


@dataclass(frozen=True)
class SourceSpan:
    """Position of a node's first character: 1-based line/column, 0-based byte offset."""

    line: int
    column: int
    byte_offset: int

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


class JsonSyntaxError(ValueError):
    """Input is not valid JSON; carries the span of the first offending character."""

    def __init__(self, reason: str, span: SourceSpan):
        super().__init__(f"{reason} at {span.line}:{span.column}")
        self.reason = reason
        self.span = span


class DuplicateKeyError(JsonSyntaxError):
    """An object repeats a key; the span points at the second occurrence."""

    def __init__(self, key: str, span: SourceSpan):
        super().__init__(f"duplicate object key {key!r}", span)
        self.key = key


class MalformedPointerError(ValueError):
    """JSON pointer text does not follow RFC 6901 syntax."""


@dataclass
class LocatedNode:
    """One JSON value plus the source span of its first character.

    ``value`` is the plain Python shape of the node except that containers
    hold child ``LocatedNode`` objects: ``None``, ``bool``, ``int``, ``float``,
    ``str``, ``list[LocatedNode]`` or ``dict[str, LocatedNode]``.  Objects keep
    insertion order and expose the span of each key via ``key_spans``.
    """

    value: Any
    span: SourceSpan
    key_spans: Optional[dict[str, SourceSpan]] = None
    number_text: Optional[str] = None
    source_text: Optional[str] = field(default=None, repr=False)

    @property
    def json_type(self) -> str:
        v = self.value
        if v is None:
            return "null"
        if isinstance(v, bool):
            return "boolean"
        if isinstance(v, (int, float)):
            return "number"
        if isinstance(v, str):
            return "string"
        if isinstance(v, list):
            return "array"
        return "object"

    def to_python(self) -> Any:
        """Strip spans and return the plain Python value (json.loads shape)."""
        v = self.value
        if isinstance(v, dict):
            return {k: child.to_python() for k, child in v.items()}
        if isinstance(v, list):
            return [child.to_python() for child in v]
        return v

    def get(self, key: str) -> Optional["LocatedNode"]:
        """Child lookup for object nodes; None when absent or not an object."""
        if isinstance(self.value, dict):
            return self.value.get(key)
        return None

    def __len__(self) -> int:
        if isinstance(self.value, (dict, list)):
            return len(self.value)
        raise TypeError("len() only applies to container nodes")


def escape_pointer_token(token: str) -> str:
    return token.replace("~", "~0").replace("/", "~1")


def iter_nodes(root: LocatedNode, pointer: str = "") -> Iterator[tuple[str, LocatedNode]]:
    """Yield (json-pointer, node) pairs for the whole tree in document order."""
    yield pointer, root
    if isinstance(root.value, dict):
        for key, child in root.value.items():
            yield from iter_nodes(child, pointer + "/" + escape_pointer_token(key))
    elif isinstance(root.value, list):
        for i, child in enumerate(root.value):
            yield from iter_nodes(child, f"{pointer}/{i}")


_WS_RE = re.compile(r"[ \t\n\r]+")
_SIMPLE_STRING_RE = re.compile(r'"[^"\\\x00-\x1f]*"')


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.i = 0
        self.line = 1
        self.column = 1
        self.byte = 0
        self.depth = 0  # containers open at the cursor

    def span(self) -> SourceSpan:
        return SourceSpan(self.line, self.column, self.byte)

    def peek(self) -> str:
        if self.i < len(self.text):
            return self.text[self.i]
        return ""

    def advance(self, n: int = 1) -> None:
        """Consume n characters, updating line/column/byte counters in bulk."""
        if n == 1:
            ch = self.text[self.i]
            self.i += 1
            if ch == "\n":
                self.line += 1
                self.column = 1
                self.byte += 1
            else:
                self.column += 1
                o = ord(ch)
                self.byte += 1 if o < 0x80 else 2 if o < 0x800 else 3 if o < 0x10000 else 4
            return
        chunk = self.text[self.i : self.i + n]
        self.i += n
        if chunk.isascii():
            self.byte += len(chunk)
        else:
            self.byte += len(chunk.encode("utf-8"))
        newlines = chunk.count("\n")
        if newlines:
            self.line += newlines
            self.column = len(chunk) - chunk.rfind("\n")
        else:
            self.column += len(chunk)

    def skip_whitespace(self) -> None:
        m = _WS_RE.match(self.text, self.i)
        if m is not None:
            self.advance(m.end() - self.i)

    def fail(self, reason: str) -> JsonSyntaxError:
        return JsonSyntaxError(reason, self.span())

    def expect(self, ch: str) -> None:
        if self.peek() != ch:
            raise self.fail(f"expected {ch!r}")
        self.advance()

    def parse_document(self) -> LocatedNode:
        self.skip_whitespace()
        node = self.parse_value()
        self.skip_whitespace()
        if self.i < len(self.text):
            raise self.fail("extra data after document")
        node.source_text = self.text
        return node

    def parse_value(self) -> LocatedNode:
        ch = self.peek()
        if ch == "":
            raise self.fail("unexpected end of input")
        if ch in "{[":
            if self.depth == MAX_NESTING_DEPTH:
                raise self.fail("nesting too deep")
            self.depth += 1
            node = self.parse_object() if ch == "{" else self.parse_array()
            self.depth -= 1
            return node
        if ch == '"':
            return self.parse_string()
        if ch == "-" or ch.isdigit() or ch in "NI":
            return self.parse_number()
        if self.text.startswith("true", self.i):
            return self.parse_keyword("true", True)
        if self.text.startswith("false", self.i):
            return self.parse_keyword("false", False)
        if self.text.startswith("null", self.i):
            return self.parse_keyword("null", None)
        raise self.fail(f"unexpected character {ch!r}")

    def parse_keyword(self, word: str, value: Any) -> LocatedNode:
        span = self.span()
        self.advance(len(word))
        return LocatedNode(value, span)

    def parse_number(self) -> LocatedNode:
        span = self.span()
        for literal, const in _CONSTANTS.items():
            if self.text.startswith(literal, self.i):
                self.advance(len(literal))
                return LocatedNode(const, span, number_text=literal)
        m = _NUMBER_RE.match(self.text, self.i)
        if m is None or m.end() == self.i:
            raise self.fail("invalid number")
        lexeme = m.group(0)
        self.advance(len(lexeme))
        if "." in lexeme or "e" in lexeme or "E" in lexeme:
            value: Union[int, float] = float(lexeme)
        else:
            value = int(lexeme)
        return LocatedNode(value, span, number_text=lexeme)

    def parse_string(self) -> LocatedNode:
        span = self.span()
        m = _SIMPLE_STRING_RE.match(self.text, self.i)
        if m is not None:  # fast path: no escapes or control characters
            self.advance(m.end() - self.i)
            return LocatedNode(m.group(0)[1:-1], span)
        self.advance()  # opening quote
        chars: list[str] = []
        while True:
            if self.i >= len(self.text):
                raise self.fail("unterminated string")
            ch = self.text[self.i]
            if ch == '"':
                self.advance()
                return LocatedNode("".join(chars), span)
            if ch == "\\":
                chars.append(self._parse_escape())
                continue
            if ord(ch) < 0x20:
                raise self.fail("control character inside string")
            chars.append(ch)
            self.advance()

    def _parse_escape(self) -> str:
        escape_span = self.span()
        self.advance()  # backslash
        ch = self.peek()
        if ch == "":
            raise self.fail("unterminated string escape")
        if ch in _ESCAPES:
            self.advance()
            return _ESCAPES[ch]
        if ch == "u":
            self.advance()
            code = self._parse_hex4()
            # Combine surrogate pairs; lone surrogates pass through like json.loads.
            if 0xD800 <= code <= 0xDBFF and self.text.startswith("\\u", self.i):
                mark = (self.i, self.line, self.column, self.byte)
                self.advance(2)
                low = self._parse_hex4()
                if 0xDC00 <= low <= 0xDFFF:
                    return chr(0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00))
                self.i, self.line, self.column, self.byte = mark
            return chr(code)
        raise JsonSyntaxError(f"invalid string escape \\{ch}", escape_span)

    def _parse_hex4(self) -> int:
        digits = self.text[self.i : self.i + 4]
        if len(digits) < 4 or any(c not in "0123456789abcdefABCDEF" for c in digits):
            raise self.fail("invalid \\u escape")
        self.advance(4)
        return int(digits, 16)

    def parse_array(self) -> LocatedNode:
        span = self.span()
        self.advance()  # [
        items: list[LocatedNode] = []
        self.skip_whitespace()
        if self.peek() == "]":
            self.advance()
            return LocatedNode(items, span)
        while True:
            items.append(self.parse_value())
            self.skip_whitespace()
            ch = self.peek()
            if ch == ",":
                self.advance()
                self.skip_whitespace()
                continue
            if ch == "]":
                self.advance()
                return LocatedNode(items, span)
            raise self.fail("expected ',' or ']' in array")

    def parse_object(self) -> LocatedNode:
        span = self.span()
        self.advance()  # {
        entries: dict[str, LocatedNode] = {}
        key_spans: dict[str, SourceSpan] = {}
        self.skip_whitespace()
        if self.peek() == "}":
            self.advance()
            return LocatedNode(entries, span, key_spans=key_spans)
        while True:
            self.skip_whitespace()
            if self.peek() != '"':
                raise self.fail("expected object key string")
            key_node = self.parse_string()
            key = key_node.value
            if key in entries:
                raise DuplicateKeyError(key, key_node.span)
            self.skip_whitespace()
            self.expect(":")
            self.skip_whitespace()
            entries[key] = self.parse_value()
            key_spans[key] = key_node.span
            self.skip_whitespace()
            ch = self.peek()
            if ch == ",":
                self.advance()
                continue
            if ch == "}":
                self.advance()
                return LocatedNode(entries, span, key_spans=key_spans)
            raise self.fail("expected ',' or '}' in object")


def parse_located(text: str) -> LocatedNode:
    """Parse JSON text into a span-annotated tree.

    Raises JsonSyntaxError (or DuplicateKeyError) with the span of the first
    offending character when the text is not acceptable, including the
    bracket that opens container number ``MAX_NESTING_DEPTH + 1``.
    """
    return _Parser(text).parse_document()


def _parse_pointer(pointer: str) -> list[str]:
    if pointer == "":
        return []
    if not pointer.startswith("/"):
        raise MalformedPointerError(f"pointer must start with '/': {pointer!r}")
    tokens = []
    for raw in pointer.split("/")[1:]:
        if re.search(r"~(?![01])", raw):
            raise MalformedPointerError(f"invalid '~' escape in pointer: {pointer!r}")
        tokens.append(raw.replace("~1", "/").replace("~0", "~"))
    return tokens


_ARRAY_INDEX_RE = re.compile(r"0|[1-9][0-9]*$")


def node_at(root: LocatedNode, pointer: str) -> Optional[LocatedNode]:
    """Resolve an RFC 6901 pointer; returns None when any step is missing."""
    node: Optional[LocatedNode] = root
    for token in _parse_pointer(pointer):
        if node is None:
            return None
        container = node.value
        if isinstance(container, dict):
            node = container.get(token)
        elif isinstance(container, list):
            if _ARRAY_INDEX_RE.fullmatch(token) and int(token) < len(container):
                node = container[int(token)]
            else:
                return None
        else:
            return None
    return node


def render_value(value: Any) -> str:
    """Single-quoted rendering of a plain JSON value, lint-message style."""
    if value is True:
        return "True"
    if value is False:
        return "False"
    if value is None:
        return "None"
    if isinstance(value, str):
        return "'" + value.replace("\\", "\\\\").replace("'", "\\'") + "'"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, list):
        return "[" + ", ".join(render_value(v) for v in value) + "]"
    if isinstance(value, dict):
        parts = (f"{render_value(k)}: {render_value(v)}" for k, v in value.items())
        return "{" + ", ".join(parts) + "}"
    raise TypeError(f"not a JSON value: {type(value).__name__}")


def render_fragment(node: LocatedNode) -> str:
    """Render a parsed node the way it should appear inside a diagnostic message."""
    return render_value(node.to_python())
