"""JSON documents whose positions are resolved on demand.

``parse_located`` decodes once with the stdlib's C scanner into plain values
(the ``json.loads`` shape) and keeps the source text beside them; then at most
one fault walk over the text finds what the decoder cannot report.  The
accepted grammar is that of ``json.loads`` (including its NaN/Infinity
extensions) with two deliberate exceptions: duplicate object keys are rejected
instead of silently keeping the last value, which keeps lint results
deterministic, and at most ``MAX_NESTING_DEPTH`` containers may be open at once.

Positions are computed only where they are asked for: ``resolve_offsets`` maps
a batch of JSON pointers to the character offsets at which their values start
and end, in one walk over the text, and ``_spans_at`` turns ascending offsets
into spans in one pass; ``resolve_spans`` does both.  Lines and columns are
1-based.  Columns count characters, byte offsets count UTF-8 bytes, so
multi-byte text still yields human-meaningful positions.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass
from itertools import accumulate
from json.decoder import scanstring
from json.scanner import make_scanner
from typing import Any, Iterable, NamedTuple, Optional

__all__ = [
    "SourceSpan",
    "JsonDocument",
    "JsonSyntaxError",
    "DuplicateKeyError",
    "MalformedPointerError",
    "MAX_NESTING_DEPTH",
    "parse_located",
    "render_value",
    "escape_pointer_token",
]
# ``resolve_offsets`` runs inside ``linter.lint_template`` and is left out of
# ``__all__`` so that per-layer traces count its time there; so is
# ``escape_controls``, whose time counts in the messages that quote a name.
# ``resolve_spans``, which the tests use as their span oracle, is left out as
# before.

# Most containers open at once.  Hostile nesting is a JsonSyntaxError at the
# offending bracket, never a RecursionError from the decoder.
MAX_NESTING_DEPTH = 256


class SourceSpan(NamedTuple):
    """Position of a value's first character: 1-based line/column, 0-based byte offset.

    An immutable tuple of its fields, so it equals and hashes like one."""

    line: int
    column: int
    byte_offset: int

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


@dataclass(frozen=True)
class JsonDocument:
    """A decoded JSON text: the exact source and its plain Python value."""

    text: str
    value: Any


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


def escape_pointer_token(token: str) -> str:
    return token.replace("~", "~0").replace("/", "~1")


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------


class _DuplicateKey(Exception):
    """Raised by the pairs hook; the fault walk then finds the first duplicate."""


def _unique_pairs(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    obj = dict(pairs)
    if len(obj) != len(pairs):
        raise _DuplicateKey
    return obj


_DECODER = json.JSONDecoder(object_pairs_hook=_unique_pairs)
# Scans one value at an offset without duplicate checks, for texts already
# decoded once: (value, end) or StopIteration.
_scan_once = make_scanner(json.JSONDecoder())

_BRACKET_DEPTH = {ord("{"): 1, ord("["): 1, ord("}"): -1, ord("]"): -1}
_NOT_BRACKET_OR_QUOTE = bytes(b for b in range(256) if b not in b'{}[]"')
_WS_RE = re.compile(r"[ \t\n\r]*")
# What the fault walk needs to see: a string (group 1 is its closing quote,
# unset when the string is still open where the walk ends), a bracket or a
# comma, or a number (group 2 or 3 is set when it is a float).
_TOKEN_RE = re.compile(r'"[^"\\]*(?:\\.?[^"\\]*)*(")?|[{}\[\],]|-?\d+(\.\d+)?([eE][-+]?\d+)?', re.DOTALL)


def _may_nest_too_deep(text: str) -> bool:
    """Cheap conservative test: False guarantees that no bracket opens a
    container past MAX_NESTING_DEPTH before the text's first syntax error."""
    if text.count("{") + text.count("[") <= MAX_NESTING_DEPTH:
        return False
    data = text.encode("utf-8", "surrogatepass")
    if b"\\" in data:
        # Escapes live inside strings; dropping escaped backslashes, then
        # escaped quotes, leaves only the quotes that delimit strings.
        data = data.replace(b"\\\\", b"").replace(b'\\"', b"")
    skeleton = data.translate(None, _NOT_BRACKET_OR_QUOTE).replace(b'""', b"")
    if b'"' in skeleton:
        skeleton = b"".join(skeleton.split(b'"')[::2])
    return max(accumulate(map(_BRACKET_DEPTH.__getitem__, skeleton)), default=0) > MAX_NESTING_DEPTH


def _first_fault(text: str, end: int) -> Optional[JsonSyntaxError]:
    """The first fault in ``text[:end]`` that the decoder does not report.

    That is the bracket that opens container MAX_NESTING_DEPTH + 1, a key
    that repeats a key of its object, or the first digit of an integer with
    more digits than the interpreter converts (``sys.get_int_max_str_digits``,
    absent from builds older than the limit and 0 when unlimited), whichever
    comes first.  ``text[:end]`` must be valid JSON up to the fault; a string
    still open at ``end`` runs to it.
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    frames: list[Optional[set[str]]] = []  # key set per open object, None per array
    expect_key = False
    for match in _TOKEN_RE.finditer(text, 0, end):
        token, at = match.group(), match.start()
        if token == "{" or token == "[":
            frames.append(set() if token == "{" else None)
            if len(frames) > MAX_NESTING_DEPTH:
                return JsonSyntaxError("nesting too deep", _spans_at(text, [at])[0])
            expect_key = token == "{"
        elif token == "}" or token == "]":
            if frames:  # past a RecursionError raised at shallow nesting, closers may be stray
                frames.pop()
            expect_key = False
        elif token == ",":
            expect_key = bool(frames) and frames[-1] is not None
        elif token[0] == '"':
            if expect_key and match.group(1):
                key = scanstring(text, at + 1)[0]
                if key in frames[-1]:
                    return DuplicateKeyError(key, _spans_at(text, [at])[0])
                frames[-1].add(key)
            expect_key = False
        elif limit and not (match.group(2) or match.group(3)):
            digits = len(token) - (token[0] == "-")
            if digits > limit:
                reason = f"Integer has {digits} digits, more than {limit}"
                return JsonSyntaxError(reason, _spans_at(text, [at + len(token) - digits])[0])
    return None


def parse_located(text: str) -> JsonDocument:
    """Decode JSON text into a document holding the text and its plain value.

    Raises JsonSyntaxError (or DuplicateKeyError) with the span of the first
    offending character when the text is not acceptable, including the
    bracket that opens container number ``MAX_NESTING_DEPTH + 1`` and the
    first digit of an integer too long for the interpreter to convert.
    Other reasons are the ``json`` module's messages.

    The text is decoded once.  A fault the decoder cannot report is then
    found by one walk: up to the decoder's error position, over the whole
    text when the decoder stopped on a duplicate key, an over-long integer or
    hostile nesting, and on success only when the text may nest too deep.
    """
    try:
        value = _DECODER.decode(text)
    except json.JSONDecodeError as exc:
        fault = _first_fault(text, exc.pos) or JsonSyntaxError(exc.msg, _spans_at(text, [exc.pos])[0])
    except (_DuplicateKey, ValueError, RecursionError):
        fault = _first_fault(text, len(text))
        if fault is None:
            raise
    else:
        fault = _first_fault(text, len(text)) if _may_nest_too_deep(text) else None
        if fault is None:
            return JsonDocument(text, value)
    raise fault


# ---------------------------------------------------------------------------
# Positions
# ---------------------------------------------------------------------------


def _spans_at(text: str, offsets: list[int]) -> list[SourceSpan]:
    """Spans of ascending character offsets, counted in one forward pass.

    A lone surrogate, which a decoded ``\\ud83d`` escape can leave in the
    text, counts as the three bytes of its ``surrogatepass`` encoding.
    """
    ascii_only = text.isascii()
    spans = []
    line, line_start, previous, byte_offset = 1, 0, 0, 0
    for offset in offsets:
        newlines = text.count("\n", previous, offset)
        if newlines:
            line += newlines
            line_start = text.rfind("\n", previous, offset) + 1
        if ascii_only:
            byte_offset = offset
        else:
            byte_offset += len(text[previous:offset].encode("utf-8", "surrogatepass"))
        previous = offset
        spans.append(SourceSpan(line, offset - line_start + 1, byte_offset))
    return spans


def _parse_pointer(pointer: str) -> list[str]:
    if pointer == "":
        return []
    if not pointer.startswith("/"):
        raise MalformedPointerError(f"pointer must start with '/': {pointer!r}")
    tokens = pointer.split("/")[1:]
    if "~" not in pointer:
        return tokens
    if re.search(r"~(?![01])", pointer):
        raise MalformedPointerError(f"invalid '~' escape in pointer: {pointer!r}")
    return [raw.replace("~1", "/").replace("~0", "~") for raw in tokens]


def _skip_ws(text: str, pos: int) -> int:
    return _WS_RE.match(text, pos).end()


# What follows an opener or a value: the container's closer (group 1), or
# an optional comma and the whitespace up to the next value, past its key in
# an object.  Group 2 holds a key without escapes; a key with escapes is left
# unread, the match ending at its opening quote.  Commas are optional because
# the text is valid JSON: none follows an opener and one follows each value
# that is not the last.
_NEXT_RE = re.compile(r'[ \t\n\r]*(?:([}\]])|,?[ \t\n\r]*(?:"([^"\\]*)"[ \t\n\r]*:[ \t\n\r]*)?)')
# The key under which a trie node records the pointer whose value is there;
# pointer tokens are strings, so it never collides with one.
_HERE = None


def _locate(text: str, pos: int, wanted: dict, found: dict) -> int:
    """Record ``(start, end)`` of each wanted member of the value at ``pos``
    in ``found``, and return the offset just past the value.

    ``wanted`` is a trie node with at least one pointer token below it.  The
    walk descends only into a member with wanted members of its own; every
    other value is skipped with the C scanner, and that skip gives a wanted
    leaf's end.
    """
    if text[pos] not in "{[":
        return _scan_once(text, pos)[1]
    in_object = text[pos] == "{"
    index = -1
    pos += 1
    while True:
        step = _NEXT_RE.match(text, pos)
        if step.group(1):
            return step.end()
        pos = step.end()
        if not in_object:
            index += 1
            token = str(index)
        else:
            token = step.group(2)
            if token is None:
                token, pos = scanstring(text, pos + 1)
                pos = _skip_ws(text, _skip_ws(text, pos) + 1)  # past the colon
        child = wanted.get(token)
        if child is None:
            pos = _scan_once(text, pos)[1]
            continue
        here = child.get(_HERE)
        end = _locate(text, pos, child, found) if len(child) > (here is not None) else _scan_once(text, pos)[1]
        if here is not None:
            found[here] = (pos, end)
        pos = end


def resolve_offsets(text: str, pointers: Iterable[str]) -> dict[str, tuple[int, int]]:
    """Map each RFC 6901 pointer in ``pointers`` that names a value in valid
    JSON ``text`` to the character offsets ``(start, end)`` of that value,
    found in one walk.  A pointer that names no value is absent."""
    trie: dict = {}
    for pointer in pointers:
        node = trie
        for token in _parse_pointer(pointer):
            node = node.setdefault(token, {})
        node[_HERE] = pointer
    found = {}
    pos = _skip_ws(text, 0)
    root = trie.pop(_HERE, None)
    if root is not None:  # valid JSON text is its value and whitespace
        found[root] = (pos, len(text.rstrip(" \t\n\r")))
    if trie:
        _locate(text, pos, trie, found)
    return found


def resolve_spans(text: str, pointers: Iterable[str]) -> dict[str, Optional[SourceSpan]]:
    """Spans of the values that RFC 6901 ``pointers`` name in valid JSON ``text``.

    One walk over the text serves the whole batch.  A pointer that names no
    value (missing key, index out of range or not canonical, step into a
    scalar) maps to None.
    """
    pointers = list(pointers)
    located = sorted(resolve_offsets(text, pointers).items(), key=lambda item: item[1])
    spans = dict(zip((p for p, _ in located), _spans_at(text, [start for _, (start, _) in located])))
    return {pointer: spans.get(pointer) for pointer in pointers}


_CONTROL = re.compile("[\x00-\x1f\x7f\ud800-\udfff]")


def escape_controls(text: str) -> str:
    """``text`` with each control character (U+0000-U+001F, U+007F) and
    each lone surrogate (U+D800-U+DFFF) escaped the way ``repr`` does
    (``\\n``, ``\\t``, ``\\x1b``, ``\\ud83d``), so a message that quotes it
    stays on one line and can be encoded as UTF-8."""
    if text.isprintable():  # the common case, tested in C
        return text
    return _CONTROL.sub(lambda match: repr(match.group())[1:-1], text)


def render_value(value: Any) -> str:
    """Single-quoted rendering of a plain JSON value, lint-message style;
    control characters and lone surrogates are escaped."""
    if value is True:
        return "True"
    if value is False:
        return "False"
    if value is None:
        return "None"
    if isinstance(value, str):
        return "'" + escape_controls(value.replace("\\", "\\\\").replace("'", "\\'")) + "'"
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
