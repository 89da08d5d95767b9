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
import urllib.parse
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Optional, Protocol, Sequence

from .linter import LintReport, lint_template
from .located_json import JsonDocument, parse_located
from .schema_store import SchemaStore, builtin_core_schemas
from .settings import BenchmarkConfig, MissingSetting

__all__ = [
    "ChatMessage",
    "TransportError",
    "AuthError",
    "ScriptExhausted",
    "NoTemplateFound",
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


class TransportError(RuntimeError):
    """HTTP transport or response-shape failure; ``body``, when given, is the
    response's, and its first 200 characters end the message."""

    def __init__(self, message: str, status: Optional[int] = None, body: str = ""):
        super().__init__(f"{message}: {body[:200]}" if body else message)
        self.status = status


class AuthError(TransportError):
    """The endpoint rejected the API credentials."""


class ScriptExhausted(RuntimeError):
    """Replay backend was asked for more responses than its script holds."""


class NoTemplateFound(ValueError):
    """No parseable JSON template could be extracted from a model response."""


class Backend(Protocol):
    def complete(self, conversation: Sequence[ChatMessage]) -> str: ...


def generate(conversation: Sequence[ChatMessage], backend: Backend) -> str:
    """Run one completion through the given backend."""
    if not conversation:
        raise ValueError("conversation must be non-empty")
    if conversation[0].role != "system":
        raise ValueError("first message must have the system role")
    return backend.complete(conversation)


_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def mix64(*components: int) -> int:
    """Mix integers into one 64-bit seed via a splitmix64 finalizer chain.

    ``bench.Cell.seed``, the one owner of the cell seed rule, derives each
    benchmark cell's seed as ``mix64(master_seed, trial, case, generation)``,
    so a cell's randomness is independent of execution schedule.
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

    Retries 5xx responses, rate limits (429), timeouts and failed
    connections, from one budget of ``MAX_RETRIES`` retries, with
    exponential backoff (1s, 2s, 4s, ...); a 429 whose ``Retry-After``
    header gives delta-seconds waits that long instead, and one that asks
    for more than ``MAX_RETRY_AFTER_SECONDS`` is a TransportError at once.
    Once the budget is spent, the last failure is raised "after retries".
    Each request sends ``model`` and ``temperature`` with the key that
    ``resolve_api_key`` gave at construction (MissingSetting when none is
    set), waits ``TIMEOUT_SECONDS`` for its response, and opens and closes its
    own connection; it mutates no conversation and keeps no per-cell state,
    so one client serves every cell of a run.
    """

    def __init__(self, base_url: str, model: str, temperature: float, sleep: Callable[[float], None] = time.sleep):
        self._key = resolve_api_key()
        if not self._key:
            raise MissingSetting("http backend requires an API key (set IACLOOP_API_KEY or OPENAI_API_KEY)")
        self.base_url = base_url.rstrip("/").removesuffix("/v1")  # SDKs spell the base URL with its /v1
        self.model = model
        self.temperature = temperature
        self._sleep = sleep

    def complete(self, conversation: Sequence[ChatMessage]) -> str:
        import http.client  # only a live run pays for the HTTP client
        import urllib.error
        import urllib.request

        payload = {
            "model": self.model,
            "messages": [{"role": m.role, "content": m.content} for m in conversation],
            "temperature": self.temperature,
        }
        data = json.dumps(payload, allow_nan=False).encode()
        headers = {"Authorization": f"Bearer {self._key}", "Content-Type": "application/json"}
        request = urllib.request.Request(f"{self.base_url}/v1/chat/completions", data, headers)
        for attempt in range(MAX_RETRIES + 1):
            delay = None
            try:  # the body is read in here, so a read that times out is retried
                try:
                    response = urllib.request.urlopen(request, timeout=TIMEOUT_SECONDS)
                except urllib.error.HTTPError as error:  # a status outside 2xx; the error is the response
                    response = error
                with response:
                    status, retry_after = response.status, response.headers.get("Retry-After")
                    text = response.read().decode("utf-8", "replace")
            except (OSError, http.client.HTTPException) as exc:  # timeouts, refused or dropped connections
                failure = TransportError(f"transport failure after retries: {exc}")
                failure.__cause__ = exc
            else:
                if status == 200:
                    return self._extract_content(text)
                if status == 401:
                    raise AuthError("authentication rejected", status=401, body=text)
                if status != 429 and not 500 <= status < 600:
                    raise TransportError(f"unexpected status {status}", status=status, body=text)
                kind = "rate limited" if status == 429 else "server error"
                failure = TransportError(f"{kind} {status} after retries", status=status, body=text)
                delay = _retry_after(retry_after) if status == 429 else None
            if attempt == MAX_RETRIES:  # so the last attempt returns or raises
                raise failure
            if delay is not None and delay > MAX_RETRY_AFTER_SECONDS:
                raise TransportError(
                    f"rate limited {status}: Retry-After exceeds {MAX_RETRY_AFTER_SECONDS:g} s",
                    status=status,
                    body=text,
                )
            self._sleep(float(2**attempt) if delay is None else delay)

    @staticmethod
    def _extract_content(text: str) -> str:
        try:
            body = parse_located(text).value
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


MAX_RETRIES = 3  # retries per request, after its first attempt
TIMEOUT_SECONDS = 60.0  # wait for each attempt's response
# Longest server-requested wait a 429 retry honours.
MAX_RETRY_AFTER_SECONDS = 120.0


def _retry_after(value: Optional[str]) -> Optional[float]:
    """A 429's ``Retry-After`` delay when given in delta-seconds, else None
    (an HTTP-date or a malformed value falls back to the backoff)."""
    value = (value or "").strip()
    return float(value) if value.isascii() and value.isdigit() else None


def make_backend(cfg: BenchmarkConfig, store: SchemaStore) -> Callable[[int], Backend]:
    """A ``seed -> Backend`` constructor for ``cfg.backend`` ("synthetic",
    "scripted" or "http"), whose settings are checked here.

    Only the settings of the chosen kind are read.  Raises ValueError for
    any other kind, an invalid synthetic setting, a schema store that leaves
    too few defect sites for ``initial_defects_max``, or an
    ``api_base_url`` that is not http(s) with a host; MissingSetting when a
    scripted backend has no ``script_dir`` or an http backend no
    ``api_base_url`` or no API key; and FileNotFoundError when the script
    directory holds no ``*.txt`` file.  A script is read once: each scripted
    backend replays it from the first response.  Every http cell shares the
    one client built here.  Only a synthetic backend reads the seed.  Each
    constructor is a ``partial`` of a module-level function, so it pickles.
    """
    if cfg.backend == "synthetic":
        params = SyntheticParams(p_fix=cfg.p_fix, p_spawn=cfg.p_spawn, stubborn_fraction=cfg.stubborn_fraction)
        defects = (cfg.initial_defects_min, cfg.initial_defects_max)
        SyntheticBackend(params, initial_defects=defects, store=store)  # checks the range
        _sized_base(cfg.initial_defects_max, store)  # the sites needed grow with the count: the largest checks all
        return functools.partial(_synthetic_backend, params, defects, store)
    if cfg.backend == "scripted":
        if not cfg.script_dir:
            raise MissingSetting("scripted backend requires script_dir")
        script = ScriptedBackend.from_dir(cfg.script_dir)
        return functools.partial(_scripted_backend, script.responses)
    if cfg.backend == "http":
        if not cfg.api_base_url:
            raise MissingSetting("http backend requires api_base_url")
        url = urllib.parse.urlsplit(cfg.api_base_url)
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ValueError(f"api_base_url must be an http or https URL with a host, got {cfg.api_base_url!r}")
        return functools.partial(_shared_backend, HttpBackend(cfg.api_base_url, cfg.model, cfg.temperature))
    raise ValueError(f"unknown backend kind {cfg.backend!r}")


def _synthetic_backend(params: SyntheticParams, defects: tuple[int, int], store: SchemaStore, seed: int) -> Backend:
    return SyntheticBackend(replace(params, seed=seed), initial_defects=defects, store=store)


def _scripted_backend(responses: tuple[str, ...], seed: int) -> Backend:
    return ScriptedBackend(responses)


def _shared_backend(client: Backend, seed: int) -> Backend:
    return client


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
        responses = []
        for file in files:
            try:
                responses.append(file.read_text(encoding="utf-8"))
            except ValueError as exc:
                raise ValueError(f"{file}: {exc}") from None
        return cls(responses)

    def complete(self, conversation: Sequence[ChatMessage]) -> str:
        if self._cursor >= len(self.responses):
            raise ScriptExhausted(f"script exhausted after {len(self.responses)} responses")
        text = self.responses[self._cursor]
        self._cursor += 1
        return text


_FENCE_RE = re.compile(r"```[^\n`]*\n(.*?)```", re.DOTALL)
_RAW_DECODER = json.JSONDecoder()
_OBJECT_OPENING_RE = re.compile(r'\{[ \t\n\r]*["}]')
# A failed decode costs time linear in the rest of the text (its error
# message counts lines), so the object search gives up after this many.
_MAX_FAILED_DECODES = 8


def _largest_object(text: str) -> Optional[str]:
    """The longest substring that the C decoder reads as one JSON object.

    Openings are tried left to right, each past the end of the last object
    read, so every character is read by at most one successful decode; a
    strictly longer object replaces the best.  Hostile nesting makes the
    decoder raise RecursionError, which counts as a failed decode.
    """
    best, pos, failures = "", 0, 0
    while failures < _MAX_FAILED_DECODES:
        opening = _OBJECT_OPENING_RE.search(text, pos)
        if opening is None:
            break
        start = opening.start()
        try:
            end = _RAW_DECODER.raw_decode(text, start)[1]
        except (ValueError, RecursionError):
            failures += 1
            pos = start + 1
            continue
        if end - start > len(best):
            best = text[start:end]
        pos = end
    return best or None


def extract_template(response_text: str) -> JsonDocument:
    """Pull a JSON template out of free-form model output.

    Tries fenced code blocks first, then the stripped reply when it starts
    with "{" and ends with "}", then the longest object the C decoder reads
    in it (at most ``_MAX_FAILED_DECODES`` failed decodes), then the whole
    text.  Raises NoTemplateFound when nothing parses; the returned
    document's ``text`` is the exact substring that parsed.
    """
    for match in _FENCE_RE.finditer(response_text):
        try:
            return parse_located(match.group(1))
        except ValueError:
            continue
    stripped = response_text.strip(" \t\n\r")
    if stripped[:1] == "{" and stripped[-1:] == "}":
        # A reply that is one JSON object is its own longest object.
        try:
            return parse_located(stripped)
        except ValueError:
            pass
    candidate = _largest_object(response_text)
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
_Site = tuple[str, ...]  # a defect site as a path that resolve_offsets takes, e.g. ("Parameters", "Stage")


def _eligible_pairs(template: dict, store: SchemaStore) -> list[tuple[str, _Site]]:
    """(kind, site) pairs of ``template`` in document order."""
    pairs: list[tuple[str, _Site]] = []
    for name in _TOP_KEY_POOL:
        if name not in template:
            pairs.append(("unknown_top_key", (name,)))
    for name in _PARAM_POOL:
        if name not in template.get("Parameters", {}):
            pairs.append(("unused_parameter", ("Parameters", name)))
    for logical_id, entry in template.get("Resources", {}).items():
        schema = store.lookup(entry.get("Type", ""))
        if schema is None:
            continue
        properties = entry.get("Properties", {})
        for prop_name, value in properties.items():
            spec = schema.properties.get(prop_name)
            if spec is None:
                continue
            site = ("Resources", logical_id, "Properties", prop_name)
            if spec.required:
                pairs.append(("drop_required", site))
            pairs.append(("wrong_type", site))
            if spec.primitive == "string" and isinstance(value, str):
                pairs.append(("bad_intrinsic_getazs", site))
                if spec.enum_values is not None and value in spec.enum_values:
                    pairs.append(("bad_enum", site))
    return pairs


def _error_site_count(pairs: list[tuple[str, _Site]]) -> int:
    """Distinct sites among ``pairs`` that an error-kind defect can occupy."""
    return len({site for kind, site in pairs if kind != "unused_parameter"})


def _site_count(blocks: int, store: SchemaStore) -> int:
    """Distinct error-kind sites of the clean base template."""
    return _error_site_count(_eligible_pairs(synthetic_base_template(blocks), store))


def _sized_base(defect_count: int, store: SchemaStore) -> tuple[dict, list[tuple[str, _Site]]]:
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
    """One live injected defect: what it is and where."""

    kind: str
    site: _Site
    stubborn: bool = False


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
        initial_defects: int | tuple[int, int],
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
        self.pairs: list[tuple[str, _Site]] = []  # the base's (kind, site) pairs, every kind
        self.live: list[DefectSpec] = []  # the ledger, in injection order
        self.text = "{}"  # the rendered template as last serialized (indent=2)

    # -- backend interface ---------------------------------------------------

    def complete(self, conversation: Sequence[ChatMessage]) -> str:
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
            site = self._inject(*free[lo]).site
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
        diagnostic (``diagnostic_key``); with ``report=None`` every live
        defect is flagged.  Each flagged non-stubborn defect is repaired with
        probability ``p_fix``, and each executed repair spawns one fresh
        defect with probability ``p_spawn`` at a uniformly chosen free site of
        the base.  Spawns only follow repairs, so a step that repairs nothing
        returns the previous text.
        """
        flagged = None if report is None else _keys(report)
        to_repair = []
        for defect in self.live:
            if defect.stubborn or (flagged is not None and self.diagnostic_key(defect) not in flagged):
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

    def _serialize(self) -> str:
        """The ``indent=2`` dump of the base with every live defect applied
        in ledger order, injected sections and ``Parameters`` after the
        base's members, joined from cached texts."""
        sections, edits = self._ledger_edits(self.live)
        # Edits of distinct properties commute, so sorted edits key one text.
        blocks = [_block_text(lid, tuple(sorted(edits.get(lid, ())))) for lid in self.base["Resources"]]
        resources = '  "Resources": ' + _object_text("  ", blocks)
        members = [resources if key == "Resources" else _member_text(key, ()) for key in self.base]
        return _object_text("", members + [_member_text(key, names) for key, names in sections.items()])

    def _ledger_edits(self, ledger: Sequence[DefectSpec]) -> tuple[dict[str, tuple[str, ...]], dict[str, _Edits]]:
        """What ``ledger`` changes in the base, in ledger order: each injected
        top-level key with the parameter names it declares (``Parameters``
        sits at its first parameter), and the edits of each edited block."""
        sections: dict[str, tuple[str, ...]] = {}
        edits: dict[str, _Edits] = {}
        for defect in ledger:
            kind, site = defect.kind, defect.site
            if kind == "unknown_top_key":
                sections[site[0]] = ()
            elif kind == "unused_parameter":
                sections["Parameters"] = sections.get("Parameters", ()) + (site[1],)
            else:
                primitive = self._site_spec(site).primitive if kind == "wrong_type" else ""
                edits[site[1]] = edits.get(site[1], ()) + ((site[3], kind, primitive),)
        return sections, edits

    def _render(self, ledger: Sequence[DefectSpec]) -> dict:
        """The base with ``ledger`` applied; blocks it leaves alone are the base's own objects."""
        sections, edits = self._ledger_edits(ledger)
        resources = {lid: _edit_block(block, edits.get(lid, ())) for lid, block in self.base["Resources"].items()}
        injected = {key: _member_value(key, names) for key, names in sections.items()}
        return {**self.base, "Resources": resources, **injected}

    # -- defect plumbing -------------------------------------------------------

    def _free_pairs(self) -> list[tuple[str, _Site]]:
        """The base's (kind, site) pairs whose site no live defect occupies;
        at most one live defect may occupy a site."""
        occupied = {d.site for d in self.live}
        return [p for p in self.pairs if p[1] not in occupied]

    def _site_spec(self, site: _Site) -> Any:
        """The property schema of a ``("Resources", id, "Properties", name)`` site of the base."""
        return self.store.lookup(self.base["Resources"][site[1]]["Type"]).properties[site[3]]

    def _inject(self, kind: str, site: _Site) -> DefectSpec:
        """Add a defect at a free site of the base to the ledger."""
        defect = DefectSpec(kind, site)
        self.live.append(defect)
        return defect

    def diagnostic_key(self, defect: DefectSpec) -> tuple[str, str, str]:
        """The (code, pointer, message) of the one diagnostic that
        ``lint_template``, with the backend's store, reports for the base
        with only ``defect`` applied and not for the base alone."""
        with_defect, alone = (
            _keys(lint_template(parse_located(json.dumps(self._render(ledger))), self.store)) for ledger in ([defect], [])
        )
        (key,) = with_defect - alone
        return key


def _keys(report: LintReport) -> set[tuple[str, str, str]]:
    """The (code, pointer, message) of each of ``report``'s diagnostics."""
    return {(code, pointer, message) for code, message, _, pointer in report.diagnostics}
