"""Generation backends behind one interface: live HTTP, scripted replay, and
a synthetic degrading fixer.

The synthetic backend exists so the repair loop can be exercised offline with
controllable dynamics: it injects known defects into a real template, then on
each feedback turn repairs each live defect with probability ``p_fix``,
while each executed repair spawns one fresh defect with probability
``p_spawn``.  A configurable fraction of the initial defects is "stubborn"
(never repaired).  Defects are real template mutations detected by the real
linter, so the synthetic path runs the identical loop code as the live path.
The backend repairs from its own ledger of live defects rather than from the
feedback text: that the linter flags every live defect, and nothing else, is
an invariant the test suite checks.
"""

from __future__ import annotations

import functools
import json
import math
import os
import random
import re
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Optional, Protocol, Sequence

import requests

from .linter import LintReport
from .located_json import JsonDocument, escape_pointer_token, parse_located, render_value
from .schema_store import SchemaStore, builtin_core_schemas

__all__ = [
    "ChatMessage",
    "GenerationConfig",
    "TransportError",
    "AuthError",
    "ScriptExhausted",
    "NoTemplateFound",
    "MissingSetting",
    "Backend",
    "generate",
    "make_backend",
    "HttpBackend",
    "ScriptedBackend",
    "SyntheticBackend",
    "SyntheticParams",
    "DefectSpec",
    "DEFECT_KINDS",
    "extract_template",
    "mix64",
    "resolve_api_key",
    "synthetic_base_template",
]

_ROLES = ("system", "user", "assistant")


@dataclass(frozen=True)
class ChatMessage:
    role: str
    content: str

    def __post_init__(self) -> None:
        if self.role not in _ROLES:
            raise ValueError(f"unknown chat role {self.role!r}")
        if not self.content:
            raise ValueError("chat message content must be non-empty")


@dataclass(frozen=True)
class GenerationConfig:
    model: str = "gpt-4o"
    temperature: float = 0.0
    max_retries: int = 3
    timeout_seconds: float = 60.0

    def __post_init__(self) -> None:
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if self.timeout_seconds <= 0:
            raise ValueError("timeout_seconds must be positive")


class TransportError(RuntimeError):
    """HTTP transport or response-shape failure."""

    def __init__(self, message: str, status: Optional[int] = None, body_excerpt: str = ""):
        super().__init__(message)
        self.status = status
        self.body_excerpt = body_excerpt


class AuthError(TransportError):
    """Missing or rejected API credentials."""


class ScriptExhausted(RuntimeError):
    """Replay backend was asked for more responses than its script holds."""


class NoTemplateFound(ValueError):
    """No parseable JSON template could be extracted from a model response."""


class MissingSetting(ValueError):
    """The chosen backend kind lacks a setting it cannot run without."""


class Backend(Protocol):
    def complete(self, conversation: Sequence[ChatMessage], cfg: GenerationConfig) -> str: ...


def generate(conversation: Sequence[ChatMessage], cfg: GenerationConfig, backend: Backend) -> str:
    """Run one completion through the given backend."""
    if not conversation:
        raise ValueError("conversation must be non-empty")
    if conversation[0].role != "system":
        raise ValueError("first message must have the system role")
    return backend.complete(conversation, cfg)


_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def mix64(*components: int) -> int:
    """Mix integers into one 64-bit seed via a splitmix64 finalizer chain.

    Benchmark cells derive their seed as
    ``mix64(master_seed, trial_index, case_index, generation_index)`` so a
    cell's randomness is independent of execution schedule.
    """
    acc = 0x9E3779B97F4A7C15
    for c in components:
        acc = _splitmix64(acc ^ (c & _MASK64))
    return acc


def resolve_api_key() -> Optional[str]:
    """Bearer token from IACLOOP_API_KEY, falling back to OPENAI_API_KEY."""
    return os.environ.get("IACLOOP_API_KEY") or os.environ.get("OPENAI_API_KEY")


class HttpBackend:
    """OpenAI-compatible chat-completions client with retry/backoff.

    Retries 5xx responses, rate limits (429) and transport timeouts up to
    ``cfg.max_retries`` times with exponential backoff (1s, 2s, 4s, ...); a
    429 whose ``Retry-After`` header gives delta-seconds waits that long
    instead, and one that asks for more than ``MAX_RETRY_AFTER_SECONDS`` is
    a TransportError at once.  Never mutates the conversation it is given.
    """

    def __init__(
        self,
        base_url: str,
        api_key: Optional[str] = None,
        session: Optional[Any] = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.base_url = base_url.rstrip("/")
        self.api_key = api_key
        self._session = session if session is not None else requests.Session()
        self._sleep = sleep
        self.last_retry_count = 0

    def close(self) -> None:
        """Close the session and its pooled connections."""
        self._session.close()

    def complete(self, conversation: Sequence[ChatMessage], cfg: GenerationConfig) -> str:
        key = self.api_key or resolve_api_key()
        if not key:
            raise AuthError("no API key configured (set IACLOOP_API_KEY or OPENAI_API_KEY)")
        payload = {
            "model": cfg.model,
            "messages": [{"role": m.role, "content": m.content} for m in conversation],
            "temperature": cfg.temperature,
        }
        headers = {"Authorization": f"Bearer {key}", "Content-Type": "application/json"}
        url = f"{self.base_url}/v1/chat/completions"
        self.last_retry_count = 0
        attempt = 0
        while True:
            try:
                response = self._session.post(
                    url, json=payload, headers=headers, timeout=cfg.timeout_seconds
                )
            except (requests.Timeout, requests.ConnectionError) as exc:
                if attempt >= cfg.max_retries:
                    raise TransportError(f"transport failure after retries: {exc}") from exc
                self._backoff(attempt)
                attempt += 1
                continue
            if response.status_code == 401:
                raise AuthError("authentication rejected", status=401, body_excerpt=response.text[:200])
            if response.status_code == 429 or 500 <= response.status_code < 600:
                if attempt >= cfg.max_retries:
                    kind = "rate limited" if response.status_code == 429 else "server error"
                    raise TransportError(
                        f"{kind} {response.status_code} after retries",
                        status=response.status_code,
                        body_excerpt=response.text[:200],
                    )
                delay = _retry_after(response)
                if delay is not None and delay > MAX_RETRY_AFTER_SECONDS:
                    raise TransportError(
                        f"rate limited {response.status_code}: Retry-After exceeds "
                        f"{MAX_RETRY_AFTER_SECONDS:g} s",
                        status=response.status_code,
                        body_excerpt=response.text[:200],
                    )
                self._backoff(attempt, delay)
                attempt += 1
                continue
            if response.status_code != 200:
                raise TransportError(
                    f"unexpected status {response.status_code}",
                    status=response.status_code,
                    body_excerpt=response.text[:200],
                )
            return self._extract_content(response)

    def _backoff(self, attempt: int, delay: Optional[float] = None) -> None:
        self._sleep(float(2**attempt) if delay is None else delay)
        self.last_retry_count += 1

    @staticmethod
    def _extract_content(response: Any) -> str:
        try:
            body = response.json()
        except ValueError as exc:
            raise TransportError("response body is not JSON", status=200) from exc
        try:
            choices = body["choices"]
            content = choices[0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise TransportError(f"response missing field: {exc}", status=200) from exc
        if not isinstance(content, str):
            raise TransportError("response content is not a string", status=200)
        return content


# Longest server-requested wait a 429 retry honours.
MAX_RETRY_AFTER_SECONDS = 120.0


def _retry_after(response: Any) -> Optional[float]:
    """A 429's ``Retry-After`` delay when given in delta-seconds, else None
    (an HTTP-date or a malformed value falls back to the backoff)."""
    if response.status_code != 429:
        return None
    value = (response.headers.get("Retry-After") or "").strip()
    return float(value) if value.isascii() and value.isdigit() else None


def make_backend(
    kind: str,
    store: SchemaStore,
    *,
    p_fix: float,
    p_spawn: float,
    stubborn_fraction: float,
    initial_defects: int | tuple[int, int],
    script_dir: Optional[str],
    api_base_url: Optional[str],
) -> Callable[[int], Backend]:
    """A ``seed -> Backend`` constructor for the ``kind`` backend
    ("synthetic", "scripted" or "http"), whose settings are checked here.

    Only the settings of the chosen kind are read.  Raises ValueError for
    any other kind or an invalid synthetic setting, MissingSetting when a
    scripted backend has no ``script_dir`` or an http backend no
    ``api_base_url``, and FileNotFoundError when the script directory holds
    no ``*.txt`` file.  A script is read once: each scripted backend replays
    it from the first response.  Only a synthetic backend reads the seed.
    """
    if kind == "synthetic":
        params = SyntheticParams(p_fix=p_fix, p_spawn=p_spawn, stubborn_fraction=stubborn_fraction)
        SyntheticBackend(params, initial_defects=initial_defects, store=store)  # checks the range
        return lambda seed: SyntheticBackend(replace(params, seed=seed), initial_defects=initial_defects, store=store)
    if kind == "scripted":
        if not script_dir:
            raise MissingSetting("scripted backend requires script_dir")
        script = ScriptedBackend.from_dir(script_dir)
        return lambda seed: ScriptedBackend(script.responses)
    if kind == "http":
        if not api_base_url:
            raise MissingSetting("http backend requires api_base_url")
        return lambda seed: HttpBackend(api_base_url)
    raise ValueError(f"unknown backend kind {kind!r}")


class ScriptedBackend:
    """Deterministic replay of a fixed response sequence; backends built
    over one ``responses`` tuple share it and keep their own cursors."""

    def __init__(self, responses: Sequence[str]):
        self.responses = tuple(responses)
        self._cursor = 0

    @classmethod
    def from_dir(cls, path: str | Path) -> "ScriptedBackend":
        """Read numbered response files (000.txt, 001.txt, ...) in name order."""
        directory = Path(path)
        files = sorted(directory.glob("*.txt"))
        if not files:
            raise FileNotFoundError(f"no *.txt response files under {directory}")
        return cls([f.read_text(encoding="utf-8") for f in files])

    def complete(self, conversation: Sequence[ChatMessage], cfg: GenerationConfig) -> str:
        if self._cursor >= len(self.responses):
            raise ScriptExhausted(f"script exhausted after {len(self.responses)} responses")
        text = self.responses[self._cursor]
        self._cursor += 1
        return text


_FENCE_RE = re.compile(r"```[^\n]*\n(.*?)```", re.DOTALL)
_RAW_DECODER = json.JSONDecoder()
_OBJECT_OPENING_RE = re.compile(r'\{[ \t\n\r]*["}]')
# A failed decode costs time linear in its offset (the error message counts
# lines), so a brace scan gives up decoding after this many failures.
_MAX_FAILED_DECODES = 8

_BRACE_TOKEN_RE = re.compile(r'[{}"\\]')
# A brace scan's lexer state: outside strings, inside one, or just after a
# backslash inside one.
_OUT, _IN, _ESCAPED = 0, 1, 2


def _merge_lanes(a: Optional[list], b: Optional[list]) -> Optional[list]:
    """Join two stacks of open scans that are in the same lexer state from
    here on: groups at equal depth below the top close together."""
    if a is None or b is None:
        return b if a is None else a
    if len(a) < len(b):
        a, b = b, a
    for k in range(1, len(b) + 1):
        if len(a[-k]) < len(b[-k]):
            a[-k], b[-k] = b[-k], a[-k]
        a[-k].extend(b[-k])
    return a


def _object_end(text: str, start: int) -> int:
    """Offset just past the JSON object that starts at ``start``, or -1.

    Hostile nesting makes the C decoder raise RecursionError; that only
    means the brace scan takes its slow path.
    """
    try:
        return _RAW_DECODER.raw_decode(text, start)[1]
    except (ValueError, RecursionError):
        return -1


def _largest_balanced_braces(text: str) -> Optional[str]:
    """The substring a per-"{" scan would pick, found in linear time.

    The reference semantics: scan from each "{" in turn, skipping those
    inside the best span so far, with a fresh lexer that ignores braces
    inside double-quoted strings; the first "}" that brings the depth back
    to zero closes the scan, and a strictly longer span replaces the best.

    A scan's lexer state after any prefix is one of three, so all scans
    move in at most three lanes, each a stack of groups of scans that open
    and close together; lanes that reach the same state merge.  A "{" met
    while no scan is open and past the best span is first tried as a whole
    JSON object with the C decoder, which jumps over it in one call.
    """
    best_start, best_end = -1, -1
    closes: dict[int, int] = {}
    pending: list[int] = []  # starts not yet weighed against the best span
    lanes: list[Optional[list]] = [None, None, None]  # stacks by lexer state
    pos, n = 0, len(text)
    decodes_left = _MAX_FAILED_DECODES

    def settle() -> None:
        nonlocal best_start, best_end
        for start in pending:
            end = closes.get(start)
            if start > best_end and end is not None and end - start > best_end - best_start:
                best_start, best_end = start, end
        pending.clear()

    while pos < n:
        if lanes == [None, None, None]:
            settle()
            start = text.find("{", max(pos, best_end + 1))
            if start < 0:
                break
            if decodes_left and _OBJECT_OPENING_RE.match(text, start):
                end = _object_end(text, start)
                if end < 0:
                    decodes_left -= 1
                elif best_start < 0 or end - 1 - start > best_end - best_start:
                    best_start, best_end, pos = start, end - 1, end
                    continue
            pos = start
        match = _BRACE_TOKEN_RE.search(text, pos)
        if match is None:
            break
        at = match.start()
        if at > pos and lanes[_ESCAPED] is not None:  # an ordinary character ends the escape
            lanes[_IN] = _merge_lanes(lanes[_IN], lanes[_ESCAPED])
            lanes[_ESCAPED] = None
        out, inside, escaped = lanes
        char = text[at]
        pos = at + 1
        if char == "{":
            pending.append(at)
            if out is None:
                out = []
            out.append([at])
            lanes = [out, _merge_lanes(inside, escaped), None]
        elif char == "}":
            if out:
                for start in out.pop():
                    closes[start] = at
            lanes = [out or None, _merge_lanes(inside, escaped), None]
        elif char == '"':
            lanes = [inside, _merge_lanes(out, escaped), None]
        else:  # backslash
            lanes = [out, escaped, inside]
    settle()
    if best_start < 0:
        return None
    return text[best_start : best_end + 1]


def extract_template(response_text: str) -> JsonDocument:
    """Pull a JSON template out of free-form model output.

    Tries fenced code blocks first, then the largest balanced-brace
    substring, then the whole text.  Raises NoTemplateFound when nothing
    parses; the returned document's ``text`` is the exact substring that
    parsed.
    """
    for match in _FENCE_RE.finditer(response_text):
        try:
            return parse_located(match.group(1))
        except ValueError:
            continue
    stripped = response_text.strip(" \t\n\r")
    if stripped[:1] == "{" and stripped[-1:] == "}":
        # A reply that is one JSON object is its own largest balanced span.
        try:
            return parse_located(stripped)
        except ValueError:
            pass
    candidate = _largest_balanced_braces(response_text)
    if candidate is not None:
        try:
            return parse_located(candidate)
        except ValueError:
            pass
    try:
        return parse_located(response_text)
    except ValueError:
        raise NoTemplateFound("no parseable JSON template in response") from None


# ---------------------------------------------------------------------------
# Synthetic degrading fixer
# ---------------------------------------------------------------------------

DEFECT_KINDS = (
    "drop_required",
    "wrong_type",
    "bad_intrinsic_getazs",
    "unknown_top_key",
    "unused_parameter",
    "bad_enum",
)

_TOP_KEY_POOL = ("Extras", "Notes", "Widgets", "Custom", "Legacy", "Annotations")
_PARAM_POOL = ("Stage", "Owner", "CostCenter", "Retention", "Zone", "Quota")

_WRONG_VALUES = {
    "string": 12345,
    "integer": "twelve",
    "number": "twelve",
    "boolean": "yes",
    "object": "plain",
    "array": "not-an-array",
}

_BAD_ENUM_VALUE = "__invalid_enum__"


def _eligible_pairs(template: dict, store: SchemaStore) -> list[tuple[str, str]]:
    """(kind, site-pointer) pairs of ``template`` in document order."""
    pairs: list[tuple[str, str]] = []
    for name in _TOP_KEY_POOL:
        if name not in template:
            pairs.append(("unknown_top_key", "/" + name))
    for name in _PARAM_POOL:
        if name not in template.get("Parameters", {}):
            pairs.append(("unused_parameter", "/Parameters/" + name))
    for logical_id, entry in template.get("Resources", {}).items():
        schema = store.lookup(entry.get("Type", ""))
        if schema is None:
            continue
        properties = entry.get("Properties", {})
        for prop_name, value in properties.items():
            spec = schema.properties.get(prop_name)
            if spec is None:
                continue
            pointer = (
                "/Resources/"
                + escape_pointer_token(logical_id)
                + "/Properties/"
                + escape_pointer_token(prop_name)
            )
            if spec.required:
                pairs.append(("drop_required", pointer))
            pairs.append(("wrong_type", pointer))
            if spec.primitive == "string" and isinstance(value, str):
                pairs.append(("bad_intrinsic_getazs", pointer))
                if spec.enum_values is not None and value in spec.enum_values:
                    pairs.append(("bad_enum", pointer))
    return pairs


def _error_site_count(pairs: list[tuple[str, str]]) -> int:
    """Distinct sites among ``pairs`` that an error-kind defect can occupy."""
    return len({site for kind, site in pairs if kind != "unused_parameter"})


def _site_count(blocks: int, store: SchemaStore) -> int:
    """Distinct error-kind sites of the clean base template."""
    return _error_site_count(_eligible_pairs(synthetic_base_template(blocks), store))


def _sized_base(defect_count: int, store: SchemaStore) -> tuple[dict, list[tuple[str, str]]]:
    """The clean base template with the fewest blocks (at least 1) that
    leaves free error-kind-site headroom for ``defect_count`` defects, and
    its (kind, site) pairs of every kind in document order.

    Every block adds the same resources, so the site count is linear in the
    block count: ``s0 + blocks * k`` (s0 = 9, k = 13 for the builtin store).
    The 0-block template, which gives s0, is enumerated only when one block
    is too small.  Raises ValueError when the store makes no block site
    eligible (k = 0) and the fixed sites are too few.
    """
    needed = math.ceil(defect_count * 1.25) + 2
    template = synthetic_base_template(1)
    pairs = _eligible_pairs(template, store)
    sites = _error_site_count(pairs)
    if sites >= needed:
        return template, pairs
    s0 = _site_count(0, store)
    if sites == s0:
        raise ValueError(
            f"schema store leaves {s0} defect sites, {needed} needed for "
            f"{defect_count} defects: it has no property schemas for the template's types"
        )
    template = synthetic_base_template(math.ceil((needed - s0) / (sites - s0)))
    return template, _eligible_pairs(template, store)


@dataclass(frozen=True)
class SyntheticParams:
    """Dynamics of the degrading fixer.

    ``p_fix`` is the per-iteration repair probability for a flagged defect,
    ``p_spawn`` the probability an executed repair injects one new defect,
    ``stubborn_fraction`` the share of initial defects whose repair
    probability is forced to zero.
    """

    p_fix: float
    p_spawn: float
    stubborn_fraction: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("p_fix", "p_spawn", "stubborn_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")


@dataclass(eq=False)  # identity: ``live.remove`` drops that very defect
class DefectSpec:
    """One live injected defect: what it is, where, and the diagnostic it draws."""

    kind: str
    target_pointer: str
    stubborn: bool = False
    expected_code: str = ""
    expected_message: str = ""
    # Where the linter anchors this defect's diagnostic (E3003 points at the
    # Properties object, not the missing key); defaults to the site itself.
    expected_pointer: str = ""

    def diagnostic_key(self) -> tuple[str, str, str]:
        pointer = self.expected_pointer or self.target_pointer
        return (self.expected_code, pointer, self.expected_message)


_BLOCK_TYPES = {"Vpc": "AWS::EC2::VPC", "Subnet": "AWS::EC2::Subnet", "Bucket": "AWS::S3::Bucket",
                "Instance": "AWS::EC2::Instance"}
_BASE_MEMBERS = {"AWSTemplateFormatVersion": "2010-09-09", "Description": "Synthetic fixture stack"}
_Edits = tuple[tuple[str, str, str], ...]  # a block's (property, kind, wrong_type primitive or "") edits


def _base_block(logical_id: str) -> dict:
    """The clean block ``logical_id`` of the base template: the ``Vpc``, or
    block i's ``Subnet<i>``, ``Bucket<i>`` or ``Instance<i>``."""
    name = logical_id.rstrip("0123456789")
    i = int(logical_id[len(name):] or 0)
    if name == "Vpc":
        properties = {"CidrBlock": "10.0.0.0/16", "EnableDnsSupport": True, "InstanceTenancy": "default"}
    elif name == "Subnet":
        properties = {"VpcId": {"Ref": "Vpc"}, "CidrBlock": f"10.0.{i}.0/24", "AvailabilityZone": "us-east-1a",
                      "MapPublicIpOnLaunch": False}
    elif name == "Bucket":
        properties = {"BucketName": f"artifact-store-{i}", "AccessControl": "Private", "ObjectLockEnabled": False,
                      "Tags": [{"Key": "env", "Value": "dev"}]}
    else:
        properties = {"ImageId": f"ami-{i:017d}", "InstanceType": "t2.micro", "AvailabilityZone": "us-east-1a",
                      "Monitoring": False, "Tenancy": "default"}
    return {"Type": _BLOCK_TYPES[name], "Properties": properties}


def synthetic_base_template(blocks: int) -> dict:
    """Clean template (lints empty against the builtin store) with repeatable
    resource blocks providing defect-injection sites.  Each block is built from
    its logical id alone, so a template's blocks are a prefix of a larger one's."""
    ids = ["Vpc"] + [f"{name}{i}" for i in range(blocks) for name in ("Subnet", "Bucket", "Instance")]
    return {**_BASE_MEMBERS, "Resources": {logical_id: _base_block(logical_id) for logical_id in ids}}


def _encode_member(indent: str, key: str, value: Any) -> str:
    """One member of an ``indent=2`` dump, as it reads ``indent`` deep.  Re-indenting
    by replacing newlines is exact: JSON output never holds a raw newline in a string."""
    return indent + json.dumps(key) + ": " + json.dumps(value, indent=2).replace("\n", "\n" + indent)


def _edit_block(block: dict, edits: _Edits) -> dict:
    """``block`` with ``edits`` applied, or ``block`` itself when there are
    none: the one place a defect changes a block."""
    if not edits:
        return block
    properties = dict(block["Properties"])
    for prop_name, kind, primitive in edits:
        if kind == "drop_required":
            del properties[prop_name]
        elif kind == "wrong_type":
            properties[prop_name] = _WRONG_VALUES[primitive]
        elif kind == "bad_intrinsic_getazs":
            properties[prop_name] = {"Fn::GetAZs": ""}
        else:
            properties[prop_name] = _BAD_ENUM_VALUE
    return {**block, "Properties": properties}


def _member_value(key: str, parameters: tuple[str, ...]) -> Any:
    """A top-level member other than ``Resources``: a base scalar, an
    injected empty section, or ``Parameters`` declaring ``parameters``."""
    return {name: {"Type": "String"} for name in parameters} if key == "Parameters" else _BASE_MEMBERS.get(key, {})


def _object_text(indent: str, members: list[str]) -> str:
    """An ``indent=2`` JSON object, as it reads ``indent`` deep, from its members' texts."""
    return "{\n" + ",\n".join(members) + "\n" + indent + "}" if members else "{}"


# Texts are keyed by content alone, so every backend of the process shares
# them.  A block that misses is joined from property texts keyed by the
# value's compact JSON, which the C encoder writes, so it encodes only values
# no block has shown.  Distinct texts at paper scale (seeds 0-3): 357-371
# blocks (a cap of 256 re-encodes 181 at seed 3 and halves what 512 holds),
# 40 properties, 18-19 top-level members; perfbench's lint corpus: 229 properties.
@functools.lru_cache(maxsize=256)
def _block_text(logical_id: str, edits: _Edits) -> str:
    """The block's member of the ``indent=2`` dump, joined from its properties' texts."""
    block = _edit_block(_base_block(logical_id), edits)
    properties = [_property_text(name, json.dumps(value)) for name, value in block["Properties"].items()]
    members = ['      "Type": ' + json.dumps(block["Type"]), '      "Properties": ' + _object_text("      ", properties)]
    return "    " + json.dumps(logical_id) + ": " + _object_text("    ", members)


@functools.lru_cache(maxsize=512)
def _property_text(name: str, compact: str) -> str:
    """The member ``name`` whose value has the compact JSON text ``compact``."""
    return _encode_member("        ", name, json.loads(compact))


@functools.lru_cache(maxsize=64)
def _member_text(key: str, parameters: tuple[str, ...]) -> str:
    return _encode_member("  ", key, _member_value(key, parameters))


@functools.lru_cache(maxsize=4096)  # a run's templates share their few hundred sites
def _property_site(pointer: str) -> tuple[str, str]:
    """(logical id, property name) of a ``/Resources/<id>/Properties/<name>`` site."""
    _, _, logical_id, _, prop_name = pointer.split("/")
    return (
        logical_id.replace("~1", "/").replace("~0", "~"),
        prop_name.replace("~1", "/").replace("~0", "~"),
    )


class SyntheticBackend:
    """Offline backend that probabilistically repairs its live defects.

    The first completion sizes a clean base template and injects
    ``initial_defects`` defects (an int n, which is the range (n, n), or an
    inclusive (lo, hi) range sampled per generation; lo == hi spends no
    draw); every later feedback turn runs one repair/spawn step.  The
    template is never edited: each serialization renders the base with the
    live defects of the ledger applied, so a repair only drops its defect
    from the ledger and a fully repaired template is the base byte for byte.
    Identical construction (params, seed, sizing) and call sequence yield
    identical strings.  The text is joined from texts that a process-wide
    cache keys by content, so a step that changed one block encodes only it.
    Raises ValueError unless ``initial_defects`` is a count of at least 0
    or a range with 0 <= lo <= hi.
    """

    def __init__(
        self,
        params: SyntheticParams,
        initial_defects: int | tuple[int, int] = 8,
        store: Optional[SchemaStore] = None,
    ):
        lo, hi = initial_defects if isinstance(initial_defects, tuple) else (initial_defects, initial_defects)
        if not 0 <= lo <= hi:
            raise ValueError(f"initial defects must be a count >= 0 or a range 0 <= lo <= hi, got {initial_defects}")
        self.params = params
        self.defect_range = (lo, hi)
        self.store = store if store is not None else builtin_core_schemas()
        self.rng = random.Random(params.seed)
        self.base: dict = {}  # the clean sized template; never mutated
        self.pairs: list[tuple[str, str]] = []  # the base's (kind, site) pairs, every kind
        self.live: list[DefectSpec] = []  # the ledger, in injection order
        self.text = "{}"  # the rendered template as last serialized (indent=2)

    # -- backend interface ---------------------------------------------------

    def complete(self, conversation: Sequence[ChatMessage], cfg: GenerationConfig) -> str:
        """Initial generation for a fresh prompt, one repair step for feedback.

        A feedback turn neither parses nor lints: the linter flags every live
        defect (a tested invariant), so the backend repairs from its own
        ledger of live defects, exactly as if it had read the feedback.
        """
        from .loop import FEEDBACK_HEADER  # local import to avoid a cycle

        last_user = next((m for m in reversed(conversation) if m.role == "user"), None)
        if last_user is not None and last_user.content.startswith(FEEDBACK_HEADER):
            return self.synthetic_step()
        return self.initial_generation()

    # -- generation and stepping ----------------------------------------------

    def initial_generation(self) -> str:
        """Build a fresh defective template; resets any previous state.

        Raises ValueError when the store has no property schemas for the
        template's resource types and too few other defect sites remain.
        """
        lo, hi = self.defect_range
        count = lo if lo == hi else self.rng.randint(lo, hi)
        self.base, self.pairs = _sized_base(count, self.store)
        self.live = []
        free = [p for p in self.pairs if p[0] != "unused_parameter"]
        for _ in range(count):
            # A site's pairs are adjacent in base order: drop the drawn one's run.
            lo = hi = self.rng.randrange(len(free))
            site = self._inject(*free[lo]).target_pointer
            while lo and free[lo - 1][1] == site:
                lo -= 1
            while hi < len(free) and free[hi][1] == site:
                hi += 1
            del free[lo:hi]
        stubborn_count = round(self.params.stubborn_fraction * count)
        for idx in sorted(self.rng.sample(range(count), stubborn_count)):
            self.live[idx].stubborn = True
        self.text = self._serialize()
        return self.text

    def synthetic_step(self, report: Optional[LintReport] = None) -> str:
        """One repair round over the tracked template.

        A live defect counts as flagged when the report contains its
        diagnostic; with ``report=None`` every live defect is flagged.  Each
        flagged non-stubborn defect is repaired with probability ``p_fix``,
        and each executed repair spawns one fresh defect with probability
        ``p_spawn`` at a uniformly chosen free site of the base.  Spawns only
        follow repairs, so a step that repairs nothing returns the previous
        text.
        """
        if report is not None:
            flagged = {d.diagnostic_key() for d in self.live} & {
                (diag.code, diag.pointer, diag.message) for diag in report.diagnostics
            }
        else:
            flagged = {d.diagnostic_key() for d in self.live}
        to_repair = []
        for defect in self.live:
            if defect.stubborn or defect.diagnostic_key() not in flagged:
                continue
            if self.rng.random() < self.params.p_fix:
                to_repair.append(defect)
        for defect in to_repair:
            self.live.remove(defect)
            if self.rng.random() < self.params.p_spawn:
                pairs = self._free_pairs()
                if pairs:
                    self._inject(*pairs[self.rng.randrange(len(pairs))])
        if to_repair:
            self.text = self._serialize()
        return self.text

    def render(self) -> dict:
        """The base with every live defect applied in ledger order.

        Injected sections and ``Parameters`` follow the base's members in
        ledger order.  Blocks that no defect touches are the base's own
        objects, so the result must not be mutated.  The backend's text is
        ``json.dumps(render(), indent=2)``.
        """
        sections, edits = self._ledger_edits()
        resources = {lid: _edit_block(block, edits.get(lid, ())) for lid, block in self.base["Resources"].items()}
        injected = {key: _member_value(key, names) for key, names in sections.items()}
        return {**self.base, "Resources": resources, **injected}

    def _serialize(self) -> str:
        """``json.dumps(self.render(), indent=2)``, joined from cached texts."""
        sections, edits = self._ledger_edits()
        # Edits of distinct properties commute, so sorted edits key one text.
        blocks = [_block_text(lid, tuple(sorted(edits.get(lid, ())))) for lid in self.base["Resources"]]
        resources = '  "Resources": ' + _object_text("  ", blocks)
        members = [resources if key == "Resources" else _member_text(key, ()) for key in self.base]
        return _object_text("", members + [_member_text(key, names) for key, names in sections.items()])

    def _ledger_edits(self) -> tuple[dict[str, tuple[str, ...]], dict[str, _Edits]]:
        """What the ledger changes in the base, in ledger order: each injected
        top-level key with the parameter names it declares (``Parameters``
        sits at its first parameter), and the edits of each edited block."""
        sections: dict[str, tuple[str, ...]] = {}
        edits: dict[str, _Edits] = {}
        for defect in self.live:
            kind, pointer = defect.kind, defect.target_pointer
            if kind == "unknown_top_key":
                sections[pointer[1:]] = ()
            elif kind == "unused_parameter":
                sections["Parameters"] = sections.get("Parameters", ()) + (pointer.rsplit("/", 1)[1],)
            else:
                logical_id, prop_name = _property_site(pointer)
                primitive = self._site_spec(logical_id, prop_name).primitive if kind == "wrong_type" else ""
                edits[logical_id] = edits.get(logical_id, ()) + ((prop_name, kind, primitive),)
        return sections, edits

    # -- defect plumbing -------------------------------------------------------

    def _free_pairs(self) -> list[tuple[str, str]]:
        """The base's (kind, site) pairs whose site no live defect occupies;
        at most one live defect may occupy a site."""
        occupied = {d.target_pointer for d in self.live}
        return [p for p in self.pairs if p[1] not in occupied]

    def _site_spec(self, logical_id: str, prop_name: str) -> Any:
        """The property schema of a site of the base."""
        return self.store.lookup(self.base["Resources"][logical_id]["Type"]).properties[prop_name]

    def _inject(self, kind: str, pointer: str) -> DefectSpec:
        """Add a defect at a free site of the base to the ledger."""
        anchor = ""  # where the linter anchors the diagnostic, when not at the site
        if kind == "unknown_top_key":
            code, message = "E1001", f"Unknown top-level section '{pointer[1:]}'"
        elif kind == "unused_parameter":
            code, message = "W2001", f"Parameter '{pointer.rsplit('/', 1)[1]}' is never used"
        else:
            logical_id, prop_name = _property_site(pointer)
            spec = self._site_spec(logical_id, prop_name)
            if kind == "drop_required":
                code, message = "E3003", f"Required property '{prop_name}' is missing"
                anchor = pointer.rsplit("/", 1)[0]
            elif kind == "wrong_type":
                bad = render_value(_WRONG_VALUES[spec.primitive])
                code, message = "E3012", f"{bad} is not of type '{spec.primitive}'"
            elif kind == "bad_intrinsic_getazs":
                code, message = "E1015", "{'Fn::GetAZs': ''} is not of type 'string'"
            elif kind == "bad_enum":
                enum_rendered = render_value(list(spec.enum_values))
                code, message = "E3030", f"{render_value(_BAD_ENUM_VALUE)} is not one of {enum_rendered}"
            else:
                raise ValueError(f"unknown defect kind {kind!r}")
        defect = DefectSpec(kind, pointer, expected_code=code, expected_message=message, expected_pointer=anchor)
        self.live.append(defect)
        return defect
