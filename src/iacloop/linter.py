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
    W2001  Parameters entry never referenced by any {"Ref": name}
    W1020  AWSTemplateFormatVersion present but not "2010-09-09"

Linting never fails: malformed regions yield diagnostics.  Message templates
are fixed strings with fragment interpolation so output is bit-reproducible.
Every diagnostic's pointer resolves to the node whose span it carries.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .located_json import (
    LocatedNode,
    SourceSpan,
    escape_pointer_token,
    iter_nodes,
    render_fragment,
    render_value,
)
from .schema_store import PropertySpec, SchemaStore

__all__ = [
    "Severity",
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

_CODE_RE = re.compile(r"^[EW][0-9]{4}$")


class Severity(Enum):
    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True)
class Diagnostic:
    """One coded lint finding with message and source location."""

    code: str
    message: str
    span: SourceSpan
    pointer: str

    def __post_init__(self) -> None:
        if not _CODE_RE.match(self.code):
            raise ValueError(f"diagnostic code must match [EW]dddd: {self.code!r}")
        if not self.message:
            raise ValueError("diagnostic message must be non-empty")

    @property
    def severity(self) -> Severity:
        return Severity.ERROR if self.code.startswith("E") else Severity.WARNING


@dataclass(frozen=True)
class LintReport:
    """Ordered diagnostics for one template; empty means schematically valid."""

    diagnostics: tuple[Diagnostic, ...]

    @property
    def error_count(self) -> int:
        return sum(1 for d in self.diagnostics if d.severity is Severity.ERROR)

    @property
    def warning_count(self) -> int:
        return sum(1 for d in self.diagnostics if d.severity is Severity.WARNING)

    def __len__(self) -> int:
        return len(self.diagnostics)


def format_diagnostic(diagnostic: Diagnostic, file_path: str) -> str:
    """Two-line rendering: code + message, then the file:line:column location."""
    return (
        f"{diagnostic.code} {diagnostic.message}\n"
        f"Error location - {file_path}:{diagnostic.span.line}:{diagnostic.span.column}"
    )


def intrinsic_name(node: LocatedNode) -> Optional[str]:
    """Name of the recognized intrinsic function this object node is, if any."""
    if isinstance(node.value, dict) and len(node.value) == 1:
        key = next(iter(node.value))
        if key in INTRINSIC_FUNCTIONS:
            return key
    return None


def _matches_primitive(node: LocatedNode, primitive: str) -> bool:
    v = node.value
    if primitive == "string":
        return isinstance(v, str)
    if primitive == "boolean":
        return isinstance(v, bool)
    if primitive == "integer":
        if isinstance(v, bool):
            return False
        return isinstance(v, int) or (isinstance(v, float) and v.is_integer())
    if primitive == "number":
        return isinstance(v, (int, float)) and not isinstance(v, bool)
    if primitive == "object":
        return isinstance(v, dict)
    if primitive == "array":
        return isinstance(v, list)
    raise ValueError(f"unknown primitive {primitive!r}")


class _Linter:
    def __init__(self, root: LocatedNode, store: SchemaStore, strict_unknown_types: bool):
        self.root = root
        self.store = store
        self.strict = strict_unknown_types
        self.diagnostics: list[Diagnostic] = []

    def emit(self, code: str, message: str, node: LocatedNode, pointer: str) -> None:
        self.diagnostics.append(Diagnostic(code, message, node.span, pointer))

    def run(self) -> LintReport:
        if self.root.json_type != "object":
            self.emit("E0001", "Template root is not of type 'object'", self.root, "")
        else:
            self.check_sections()
            self.check_format_version()
            self.check_resources()
            self.check_unused_parameters()
        ordered = sorted(self.diagnostics, key=lambda d: (d.span.byte_offset, d.code))
        return LintReport(tuple(ordered))

    def check_sections(self) -> None:
        for key, child in self.root.value.items():
            if key not in TOP_LEVEL_SECTIONS:
                self.emit(
                    "E1001",
                    f"Unknown top-level section '{key}'",
                    child,
                    "/" + escape_pointer_token(key),
                )

    def check_format_version(self) -> None:
        node = self.root.get("AWSTemplateFormatVersion")
        if node is not None and node.value != EXPECTED_FORMAT_VERSION:
            self.emit(
                "W1020",
                f"{render_fragment(node)} is not a valid AWSTemplateFormatVersion",
                node,
                "/AWSTemplateFormatVersion",
            )

    def check_resources(self) -> None:
        resources = self.root.get("Resources")
        if resources is None:
            self.emit("E1002", "Template is missing a 'Resources' section", self.root, "")
            return
        if not isinstance(resources.value, dict) or not resources.value:
            self.emit(
                "E1002",
                "'Resources' section must be a non-empty object",
                resources,
                "/Resources",
            )
            return
        for logical_id, entry in resources.value.items():
            self.check_resource(logical_id, entry)

    def check_resource(self, logical_id: str, entry: LocatedNode) -> None:
        pointer = "/Resources/" + escape_pointer_token(logical_id)
        if not isinstance(entry.value, dict):
            self.emit("E3012", f"{render_fragment(entry)} is not of type 'object'", entry, pointer)
            return
        type_node = entry.get("Type")
        if type_node is None:
            self.emit(
                "E3001",
                f"Resource '{logical_id}' is missing required key 'Type'",
                entry,
                pointer,
            )
            return
        if not isinstance(type_node.value, str):
            self.emit(
                "E3012",
                f"{render_fragment(type_node)} is not of type 'string'",
                type_node,
                pointer + "/Type",
            )
            return
        schema = self.store.lookup(type_node.value)
        if schema is None:
            if self.strict:
                self.emit(
                    "E3002",
                    f"Resource type '{type_node.value}' is not recognized",
                    type_node,
                    pointer + "/Type",
                )
            return
        self.check_resource_properties(schema, entry, pointer)

    def check_resource_properties(self, schema, entry: LocatedNode, pointer: str) -> None:
        properties = entry.get("Properties")
        if properties is not None and not isinstance(properties.value, dict):
            self.emit(
                "E3012",
                f"{render_fragment(properties)} is not of type 'object'",
                properties,
                pointer + "/Properties",
            )
            properties = None
        present = properties.value if properties is not None else {}
        anchor = properties if properties is not None else entry
        anchor_pointer = pointer + "/Properties" if properties is not None else pointer
        for name in schema.required_names:
            if name not in present:
                self.emit(
                    "E3003",
                    f"Required property '{name}' is missing",
                    anchor,
                    anchor_pointer,
                )
        for name, value_node in present.items():
            spec = schema.properties.get(name)
            if spec is not None:
                prop_pointer = anchor_pointer + "/" + escape_pointer_token(name)
                self.check_value(spec, value_node, prop_pointer)

    def check_value(self, spec: PropertySpec, node: LocatedNode, pointer: str) -> None:
        name = intrinsic_name(node)
        if name is not None:
            self.check_intrinsic(name, spec.primitive, node, pointer)
            return
        if not _matches_primitive(node, spec.primitive):
            self.emit(
                "E3012",
                f"{render_fragment(node)} is not of type '{spec.primitive}'",
                node,
                pointer,
            )
            return
        if spec.primitive == "string" and spec.enum_values is not None:
            if node.value not in spec.enum_values:
                self.emit(
                    "E3030",
                    f"{render_fragment(node)} is not one of {render_value(list(spec.enum_values))}",
                    node,
                    pointer,
                )
        elif spec.primitive == "array" and spec.item_primitive is not None:
            item_spec = PropertySpec(name=spec.name, primitive=spec.item_primitive)
            for i, item in enumerate(node.value):
                self.check_value(item_spec, item, f"{pointer}/{i}")

    def check_intrinsic(self, name: str, primitive: str, node: LocatedNode, pointer: str) -> None:
        yields = INTRINSIC_FUNCTIONS[name]
        if primitive == "string":
            if name == "Fn::GetAZs":
                self.emit(
                    "E1015",
                    f"{render_fragment(node)} is not of type 'string'",
                    node,
                    pointer,
                )
        elif yields != primitive:
            self.emit(
                "E1010",
                f"{render_fragment(node)} is not of type '{primitive}'",
                node,
                pointer,
            )

    def check_unused_parameters(self) -> None:
        parameters = self.root.get("Parameters")
        if parameters is None or not isinstance(parameters.value, dict):
            return
        referenced: set[str] = set()
        for _, node in iter_nodes(self.root):
            if intrinsic_name(node) == "Ref":
                target = node.value["Ref"]
                if isinstance(target.value, str):
                    referenced.add(target.value)
        for name, entry in parameters.value.items():
            if name not in referenced:
                self.emit(
                    "W2001",
                    f"Parameter '{name}' is never used",
                    entry,
                    "/Parameters/" + escape_pointer_token(name),
                )


def lint_template(
    root: LocatedNode,
    store: SchemaStore,
    *,
    strict_unknown_types: Optional[bool] = None,
) -> LintReport:
    """Apply the full rule registry to a parsed template.

    ``strict_unknown_types`` overrides the store's flag when given.
    Deterministic for fixed inputs; diagnostics are ordered by
    (byte_offset, code).
    """
    strict = store.strict_unknown_types if strict_unknown_types is None else strict_unknown_types
    return _Linter(root, store, strict).run()
