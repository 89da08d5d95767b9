"""Template validation: a fixed rule registry producing positioned diagnostics.

Rules (E-codes are errors, W-codes warnings):

    E0001  template root is not a JSON object
    E1001  unknown top-level section key
    E1002  missing or empty Resources section
    E1010  intrinsic object used where a non-string primitive it cannot yield is required
    E1015  {"Fn::GetAZs": ...} used where a plain string is required
    E3001  resource entry missing the sibling key "Type"
    E3002  resource Type not found in the schema store (strict mode only)
    E3003  required property absent from Properties
    E3012  property value's JSON type does not match the schema primitive
    E3030  string property value not in the allowed enum
    W2001  Parameters entry never referenced by a {"Ref": name} or a ${name} in Fn::Sub
    W1020  AWSTemplateFormatVersion present but not "2010-09-09"

Linting never fails: malformed regions yield diagnostics.  Message templates
are fixed strings with fragment interpolation so output is bit-reproducible.
Every diagnostic's pointer names the value whose span it carries.
"""

from __future__ import annotations

import functools
import json
import re
from dataclasses import dataclass
from typing import Any, NamedTuple, Optional

from .located_json import (
    JsonDocument,
    SourceSpan,
    _spans_at,
    escape_controls,
    pointer_text,
    render_value,
    resolve_offsets,
)
from .schema_store import PropertySpec, SchemaStore

__all__ = [
    "Diagnostic",
    "LintReport",
    "lint_template",
    "format_diagnostic",
    "TOP_LEVEL_SECTIONS",
    "INTRINSIC_FUNCTIONS",
    "EXPECTED_FORMAT_VERSION",
]

TOP_LEVEL_SECTIONS = (
    "AWSTemplateFormatVersion",
    "Description",
    "Metadata",
    "Parameters",
    "Mappings",
    "Conditions",
    "Transform",
    "Resources",
    "Outputs",
)

# Recognized intrinsic function keys and the JSON type each one yields at
# deploy time.  Unrecognized "Fn::*" keys are treated as plain objects.
INTRINSIC_FUNCTIONS = {
    "Ref": "string",
    "Fn::GetAtt": "string",
    "Fn::GetAZs": "array",
    "Fn::Join": "string",
    "Fn::Sub": "string",
    "Fn::Select": "string",
}

EXPECTED_FORMAT_VERSION = "2010-09-09"

_CODE_RE = re.compile(r"[EW][0-9]{4}")
# A variable in an Fn::Sub string; "${!Name}" is the literal "${Name}".
_SUB_VARIABLE_RE = re.compile(r"\$\{([^!}][^}]*)\}")


class _DiagnosticFields(NamedTuple):
    code: str
    message: str
    span: SourceSpan
    pointer: str


class Diagnostic(_DiagnosticFields):
    """One coded lint finding with message and source location.

    An immutable tuple of its fields, so it equals and hashes like one.
    Building one checks the code and the message; ``Diagnostic._make``,
    which the linter uses for its own findings, and ``_replace`` do not.
    """

    __slots__ = ()

    def __new__(cls, code: str, message: str, span: SourceSpan, pointer: str) -> "Diagnostic":
        if not _CODE_RE.fullmatch(code):
            raise ValueError(f"diagnostic code must match [EW]dddd: {code!r}")
        if not message:
            raise ValueError("diagnostic message must be non-empty")
        return super().__new__(cls, code, message, span, pointer)

    @property
    def severity(self) -> str:
        """``"error"`` for an E-code, ``"warning"`` for a W-code."""
        return "error" if self.code[0] == "E" else "warning"


@dataclass(frozen=True)
class LintReport:
    """Ordered diagnostics for one template; empty means schematically valid."""

    diagnostics: tuple[Diagnostic, ...]

    @property
    def error_count(self) -> int:
        return sum(1 for d in self.diagnostics if d.severity == "error")

    @property
    def warning_count(self) -> int:
        return len(self.diagnostics) - self.error_count


def format_diagnostic(diagnostic: Diagnostic, file_path: str) -> str:
    """Two-line rendering: code + message, then the file:line:column location."""
    code, message, (line, column, _), _ = diagnostic
    return f"{code} {message}\nError location - {file_path}:{line}:{column}"


def intrinsic_name(value: Any) -> Optional[str]:
    """Name of the recognized intrinsic function this object value is, if any."""
    if isinstance(value, dict) and len(value) == 1:
        key = next(iter(value))
        if key in INTRINSIC_FUNCTIONS:
            return key
    return None


# The Python types of plain values that always satisfy a primitive.  A dict
# may be an intrinsic, and a float is an integer only when it is integral,
# so ``_type_finding`` settles those two cases after the table.
_SATISFYING_TYPES = {
    "string": (str,),
    "boolean": (bool,),
    "integer": (int,),
    "number": (int, float),
    "object": (),
    "array": (list,),
}


def _type_finding(primitive: str, value: Any) -> Optional[tuple[str, str]]:
    """The (code, message) of a value that cannot be of type ``primitive``:
    an intrinsic that cannot yield it, or a plain value of another JSON
    type; None when it can."""
    if type(value) in _SATISFYING_TYPES[primitive]:
        return None
    name = intrinsic_name(value)
    if name is not None:
        if primitive == "string":
            if name == "Fn::GetAZs":
                return "E1015", f"{render_value(value)} is not of type 'string'"
        elif INTRINSIC_FUNCTIONS[name] != primitive:
            return "E1010", f"{render_value(value)} is not of type '{primitive}'"
        return None
    if primitive == "object" and type(value) is dict:  # not an intrinsic
        return None
    if primitive == "integer" and type(value) is float and value.is_integer():
        return None
    return "E3012", f"{render_value(value)} is not of type '{primitive}'"


def _referenced_names(root: Any) -> set[str]:
    """Targets of every {"Ref": name} object anywhere in the value, and the
    variables of every Fn::Sub string, in its string form or as the first
    element of its [string, variable map] form, except those the map defines."""
    names: set[str] = set()
    stack = [root]
    while stack:
        value = stack.pop()
        if isinstance(value, dict):
            name = intrinsic_name(value)
            if name == "Ref" and isinstance(value["Ref"], str):
                names.add(value["Ref"])
            elif name == "Fn::Sub":
                template, variables = value[name], {}
                if isinstance(template, list) and len(template) == 2 and isinstance(template[1], dict):
                    template, variables = template
                if isinstance(template, str):
                    names.update(set(_SUB_VARIABLE_RE.findall(template)).difference(variables))
            stack.extend(value.values())
        elif isinstance(value, list):
            stack.extend(value)
    return names


class _Linter:
    def __init__(self, root: Any, store: SchemaStore, strict_unknown_types: bool):
        self.root = root
        self.store = store
        self.strict = strict_unknown_types
        self.findings: list[tuple[str, str, tuple[str, ...]]] = []  # (code, message, path)

    def emit(self, code: str, message: str, path: tuple[str, ...]) -> None:
        self.findings.append((code, message, path))

    def run(self) -> dict:
        """Apply the whole-template rules; returns the resource blocks, {}
        when there are none to check.  The caller checks each block."""
        if not isinstance(self.root, dict):
            self.emit("E0001", "Template root is not of type 'object'", ())
            return {}
        self.check_sections()
        self.check_format_version()
        resources = self.check_resources()
        self.check_unused_parameters()
        return resources

    def check_sections(self) -> None:
        for key in self.root:
            if key not in TOP_LEVEL_SECTIONS:
                self.emit("E1001", f"Unknown top-level section '{escape_controls(key)}'", (key,))

    def check_format_version(self) -> None:
        version = self.root.get("AWSTemplateFormatVersion", EXPECTED_FORMAT_VERSION)
        if version != EXPECTED_FORMAT_VERSION:
            self.emit(
                "W1020",
                f"{render_value(version)} is not a valid AWSTemplateFormatVersion",
                ("AWSTemplateFormatVersion",),
            )

    def check_resources(self) -> dict:
        if "Resources" not in self.root:
            self.emit("E1002", "Template is missing a 'Resources' section", ())
            return {}
        resources = self.root["Resources"]
        if not isinstance(resources, dict) or not resources:
            self.emit("E1002", "'Resources' section must be a non-empty object", ("Resources",))
            return {}
        return resources

    def check_resource(self, logical_id: str, entry: Any) -> None:
        path = ("Resources", logical_id)
        if not isinstance(entry, dict):
            self.emit("E3012", f"{render_value(entry)} is not of type 'object'", path)
            return
        if "Type" not in entry:
            self.emit("E3001", f"Resource '{escape_controls(logical_id)}' is missing required key 'Type'", path)
            return
        type_name = entry["Type"]
        if not isinstance(type_name, str):
            self.emit("E3012", f"{render_value(type_name)} is not of type 'string'", (*path, "Type"))
            return
        schema = self.store.lookup(type_name)
        if schema is None:
            if self.strict:
                self.emit(
                    "E3002",
                    f"Resource type '{escape_controls(type_name)}' is not recognized",
                    (*path, "Type"),
                )
            return
        self.check_resource_properties(schema, entry, path)

    def check_resource_properties(self, schema, entry: dict, path: tuple[str, ...]) -> None:
        present = entry.get("Properties", {})
        anchor = (*path, "Properties") if "Properties" in entry else path
        if not isinstance(present, dict):
            self.emit("E3012", f"{render_value(present)} is not of type 'object'", anchor)
            present, anchor = {}, path
        for name in schema.required_names:
            if name not in present:
                self.emit("E3003", f"Required property '{escape_controls(name)}' is missing", anchor)
        for name, value in present.items():
            spec = schema.properties.get(name)
            if spec is not None:
                self.check_value(spec, value, anchor, name)

    def check_value(self, spec: PropertySpec, value: Any, parent: tuple[str, ...], name: str) -> None:
        """Check property ``name``'s value; its path, ``parent`` and the
        name, is built only for a finding."""
        if type(value) not in _SATISFYING_TYPES[spec.primitive]:
            finding = _type_finding(spec.primitive, value)
            if finding is not None:
                self.emit(*finding, (*parent, name))
                return
        if spec.enum_values is not None and isinstance(value, str):  # not an intrinsic
            if value not in spec.enum_values:
                self.emit(
                    "E3030",
                    f"{render_value(value)} is not one of {render_value(list(spec.enum_values))}",
                    (*parent, name),
                )
        elif spec.item_primitive is not None and isinstance(value, list):
            for i, item in enumerate(value):
                finding = _type_finding(spec.item_primitive, item)
                if finding is not None:
                    self.emit(*finding, (*parent, name, str(i)))

    def check_unused_parameters(self) -> None:
        parameters = self.root.get("Parameters")
        if not isinstance(parameters, dict):
            return
        referenced = _referenced_names(self.root)
        for name in parameters:
            if name not in referenced:
                self.emit("W2001", f"Parameter '{escape_controls(name)}' is never used", ("Parameters", name))


# A paper-scale bench holds 357-371 distinct blocks (seeds 0-3): 512 evicts none.
@functools.lru_cache(maxsize=512)
def _block_rows(store: SchemaStore, strict: bool, logical_id: str, source: str) -> tuple:
    """A resource block's findings as rows (offset in ``source``, code,
    message, pointer), checked once per distinct (store, strictness,
    logical id, source text) in the process.  The block is decoded from its
    own source, and each finding is located in it by its path without the
    block's ``("Resources", logical_id)``."""
    block = _Linter(None, store, strict)
    block.check_resource(logical_id, json.loads(source))
    found = resolve_offsets(source, {path[2:] for _, _, path in block.findings})
    return tuple((found[path[2:]][0], code, message, pointer_text(path)) for code, message, path in block.findings)


def lint_template(
    document: JsonDocument,
    store: SchemaStore,
    *,
    strict_unknown_types: bool = False,
    by_block: bool = False,
) -> LintReport:
    """Apply the full rule registry to a parsed template.

    The rules read the plain value; each finding is then located by the
    character offset at which its path's value starts, found in one walk
    over the text, and all offsets become spans in one pass; a finding's
    pointer text is written from its path once.  With
    ``strict_unknown_types`` a resource type the store does not hold is an
    error (E3002).  With ``by_block``, the same walk gives each resource
    block's start and end, and each block is checked through a process-wide
    cache keyed by the store's identity, the strictness, its logical id and
    its source text, so a block that recurs in any template is not checked
    again; its cached offsets are relative to the block's start.  The report
    is the same; a never-seen template lints faster whole.  Deterministic
    for fixed inputs; diagnostics are ordered by (offset, code), ties in
    emission order.
    """
    linter = _Linter(document.value, store, strict_unknown_types)
    resources = linter.run()
    if not by_block:
        for logical_id, entry in resources.items():
            linter.check_resource(logical_id, entry)
    blocks = [("Resources", logical_id) for logical_id in resources] if by_block else []  # checked through the cache
    text = document.text
    found = resolve_offsets(text, {path for _, _, path in linter.findings}.union(blocks))
    findings = [(found[path][0], code, message, pointer_text(path)) for code, message, path in linter.findings]
    for path in blocks:
        start, end = found[path]
        rows = _block_rows(store, strict_unknown_types, path[1], text[start:end])
        findings.extend((start + offset, code, message, pointer) for offset, code, message, pointer in rows)
    findings.sort(key=lambda finding: finding[:2])  # stable: emission order breaks ties
    spans = _spans_at(text, [offset for offset, _, _, _ in findings])
    return LintReport(tuple([
        Diagnostic._make((code, message, span, pointer)) for (_, code, message, pointer), span in zip(findings, spans)
    ]))
