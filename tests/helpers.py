"""Shared test support: a random JSON corpus generator, an independent
position-tracking tokenizer used as the span oracle, a quadratic
reference object search with a corpus of noisy model replies for it, a
writer of schema directories, and the synthetic backend's template as a dict.

The span oracle is deliberately written with a different technique from the
package (a regex token scan over character indices instead of the C decoder
plus a pointer-guided walk) so the two implementations can check each other.
"""

from __future__ import annotations

import json
import random
import re
from pathlib import Path
from typing import Iterator, Optional

from iacloop.gateway import SyntheticBackend
from iacloop.schema_store import ResourceSchema, SchemaStore


# ---------------------------------------------------------------------------
# Random document generation
# ---------------------------------------------------------------------------

_KEY_ALPHABET = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_:$"
_STRING_POOL = [
    "",
    "plain",
    "with space",
    "tab\tand\nnewline",
    'quote " inside',
    "back\\slash",
    "café",
    "猫と犬",
    "emoji \U0001f40d ok",
    "a/b~c",
]


def random_value(rng: random.Random, depth: int = 0):
    choices = ["string", "int", "float", "bool", "null"]
    if depth < 3:
        choices += ["object", "array", "object", "array"]
    kind = rng.choice(choices)
    if kind == "string":
        return rng.choice(_STRING_POOL)
    if kind == "int":
        return rng.randint(-10_000, 10_000)
    if kind == "float":
        return rng.choice([0.5, -3.25, 1e3, 2.5e-4, 123.456, -0.001])
    if kind == "bool":
        return rng.random() < 0.5
    if kind == "null":
        return None
    if kind == "array":
        return [random_value(rng, depth + 1) for _ in range(rng.randint(0, 4))]
    keys = rng.sample(range(100), rng.randint(0, 4))
    return {
        "".join(rng.choice(_KEY_ALPHABET) for _ in range(rng.randint(1, 6))) + str(k): random_value(rng, depth + 1)
        for k in keys
    }


def _random_ws(rng: random.Random) -> str:
    return "".join(rng.choice([" ", " ", "", "\n", "\t", "\r\n"]) for _ in range(rng.randint(0, 2)))


def _encode_string(rng: random.Random, s: str) -> str:
    # Sometimes force \u escapes so the corpus exercises both paths.
    if rng.random() < 0.3:
        return '"' + "".join(
            ch if (0x20 <= ord(ch) < 0x7F and ch not in '"\\') else "\\u%04x" % ord(ch)
            if ord(ch) < 0x10000
            else "".join("\\u%04x" % c for c in _surrogates(ch))
            for ch in s
        ) + '"'
    return json.dumps(s, ensure_ascii=rng.random() < 0.5)


def _surrogates(ch: str) -> tuple[int, int]:
    code = ord(ch) - 0x10000
    return 0xD800 + (code >> 10), 0xDC00 + (code & 0x3FF)


def render_random_layout(rng: random.Random, value) -> str:
    """Serialize with randomized (valid) whitespace between tokens."""
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, str):
        return _encode_string(rng, value)
    if isinstance(value, (int, float)):
        return json.dumps(value)
    if isinstance(value, list):
        if not value:
            return "[" + _random_ws(rng) + "]"
        inner = ("," + _random_ws(rng)).join(
            _random_ws(rng) + render_random_layout(rng, v) + _random_ws(rng) for v in value
        )
        return "[" + inner + "]"
    if not value:
        return "{" + _random_ws(rng) + "}"
    inner = ("," + _random_ws(rng)).join(
        _random_ws(rng)
        + _encode_string(rng, k)
        + _random_ws(rng)
        + ":"
        + _random_ws(rng)
        + render_random_layout(rng, v)
        + _random_ws(rng)
        for k, v in value.items()
    )
    return "{" + inner + "}"


def random_document(rng: random.Random) -> str:
    value = random_value(rng)
    return _random_ws(rng) + render_random_layout(rng, value) + _random_ws(rng)


# ---------------------------------------------------------------------------
# Independent span oracle
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<string>"(?:\\.|[^"\\])*")
  | (?P<number>-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?)
  | (?P<keyword>true|false|null)
  | (?P<punct>[{}\[\],:])
  | (?P<ws>[\x20\t\n\r]+)
    """,
    re.VERBOSE,
)


JsonPath = tuple[str, ...]  # a value's unescaped JSON-pointer tokens from the root; an index as str(i)


def pointer_of(path: JsonPath) -> str:
    """The RFC 6901 text of ``path``, each token escaped on its own."""
    return "".join("/" + token.replace("~", "~0").replace("/", "~1") for token in path)


def oracle_spans(text: str) -> dict[JsonPath, tuple[int, int, int]]:
    """Map path -> (line, column, byte_offset) of each value start.

    Assumes the text is valid JSON (validate with json.loads first).
    """
    tokens: list[tuple[str, int, str]] = []
    i = 0
    while i < len(text):
        m = _TOKEN_RE.match(text, i)
        if m is None:
            raise ValueError(f"oracle cannot tokenize at {i}")
        kind = m.lastgroup
        if kind != "ws":
            tokens.append((kind, m.start(), m.group(0)))
        i = m.end()

    def position(char_index: int) -> tuple[int, int, int]:
        prefix = text[:char_index]
        line = prefix.count("\n") + 1
        column = char_index - (prefix.rfind("\n") + 1) + 1
        byte_offset = len(prefix.encode("utf-8"))
        return line, column, byte_offset

    spans: dict[JsonPath, tuple[int, int, int]] = {}
    cursor = 0

    def parse_value(path: JsonPath) -> None:
        nonlocal cursor
        kind, start, lexeme = tokens[cursor]
        spans[path] = position(start)
        if kind in ("string", "number", "keyword"):
            cursor += 1
            return
        if lexeme == "{":
            cursor += 1
            if tokens[cursor][2] == "}":
                cursor += 1
                return
            while True:
                key_token = tokens[cursor]
                key = json.loads(key_token[2])
                cursor += 2  # key, colon
                parse_value((*path, key))
                if tokens[cursor][2] == ",":
                    cursor += 1
                    continue
                cursor += 1  # closing brace
                return
        if lexeme == "[":
            cursor += 1
            if tokens[cursor][2] == "]":
                cursor += 1
                return
            index = 0
            while True:
                parse_value((*path, str(index)))
                index += 1
                if tokens[cursor][2] == ",":
                    cursor += 1
                    continue
                cursor += 1  # closing bracket
                return
        raise ValueError(f"oracle parse error at token {tokens[cursor]}")

    parse_value(())
    return spans


def iter_pointers(value, path: JsonPath = ()) -> Iterator[tuple[JsonPath, object]]:
    """Yield (path, value) for every value in document order."""
    yield path, value
    if isinstance(value, dict):
        for key, child in value.items():
            yield from iter_pointers(child, (*path, key))
    elif isinstance(value, list):
        for i, child in enumerate(value):
            yield from iter_pointers(child, (*path, str(i)))


# ---------------------------------------------------------------------------
# Reference object search and a corpus of noisy replies
# ---------------------------------------------------------------------------


def reference_largest_object(text: str) -> Optional[str]:
    """The straightforward search, quadratic on failing openings: try
    ``raw_decode`` at every "{" left to right, with no failure budget and no
    opening filter, skip the inside of each object read, and keep the
    strictly longest.  The package's budgeted search must pick the same
    substring wherever its budget is not spent."""
    decoder = json.JSONDecoder()
    best: Optional[str] = None
    resume = 0
    for start, ch in enumerate(text):
        if ch != "{" or start < resume:
            continue
        try:
            end = decoder.raw_decode(text, start)[1]
        except (ValueError, RecursionError):
            continue
        if best is None or end - start > len(best):
            best = text[start:end]
        resume = end
    return best


_REPLY_PIECES = (
    "{", "}", '"', "\\", "\\\\", '\\"', "```", "```json\n", "\n", " ", "x", "Here is the template. ",
    "{}", '"{"', '"}"', "{Placeholder}", '{"a": 1}', '{"k": "v\\"}"}', "[", "]", ":", ",",
)


def random_reply(rng: random.Random) -> str:
    """Prose with stray braces, quotes, backslashes and fences, sometimes
    around a whole, truncated or fenced template or an unclosed "{" run."""
    parts = [rng.choice(_REPLY_PIECES) for _ in range(rng.randint(0, 30))]
    template = render_random_layout(rng, {"Resources": random_value(rng)})
    roll = rng.random()
    if roll < 0.25:
        insert = template
    elif roll < 0.5:
        insert = template[: rng.randrange(len(template))]
    elif roll < 0.6:
        insert = "```json\n" + template + "\n```"
    elif roll < 0.75:
        insert = "{" * rng.randint(2, 40)
    else:
        insert = ""
    parts.insert(rng.randint(0, len(parts)), insert)
    return "".join(parts)


# ---------------------------------------------------------------------------
# Schema directories
# ---------------------------------------------------------------------------


def schema_document(schema: ResourceSchema) -> dict:
    """Canonical schema-document shape; loading what it writes round-trips."""
    props: dict[str, dict] = {}
    for spec in schema.properties.values():
        entry: dict = {"type": spec.primitive}
        if spec.enum_values is not None:
            entry["enum"] = list(spec.enum_values)
        if spec.item_primitive is not None:
            entry["items"] = {"type": spec.item_primitive}
        props[spec.name] = entry
    return {
        "typeName": schema.type_name,
        "properties": props,
        "required": [p.name for p in schema.properties.values() if p.required],
    }


def save_schema_dir(store: SchemaStore, path: str | Path) -> None:
    """Write one schema document per resource type (inverse of load_schema_dir)."""
    directory = Path(path)
    directory.mkdir(parents=True, exist_ok=True)
    for schema in store.schemas.values():
        target = directory / (schema.type_name.lower().replace("::", "-") + ".json")
        target.write_text(json.dumps(schema_document(schema), indent=2) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# The synthetic backend's template as a dict
# ---------------------------------------------------------------------------


def render(backend: SyntheticBackend) -> dict:
    """The backend's base with every live defect applied in ledger order;
    the backend's text is ``json.dumps(render(backend), indent=2)``.
    Untouched blocks are the base's own objects: do not mutate the result."""
    return backend._render(backend.live)
