"""Resource property schemas driving the linter's type and required checks.

The on-disk format is a deliberately small subset of the AWS resource
provider schemas: one JSON document per file with ``typeName``,
``properties`` (name -> {``type``, optional ``enum``, optional
``items.type``}) and a ``required`` name list.  Unsupported keywords are
ignored with a warning; files that fail validation are skipped and reported,
never fatal.  Type checking stays non-recursive: values are checked one
level deep, without looking up the types of sub-values.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .located_json import parse_located

__all__ = [
    "PRIMITIVES",
    "PropertySpec",
    "ResourceSchema",
    "SchemaStore",
    "SchemaFormatError",
    "SchemaLoadReport",
    "parse_schema_document",
    "load_schema_dir",
    "load_store",
    "builtin_core_schemas",
]

PRIMITIVES = ("string", "integer", "number", "boolean", "object", "array")

_TYPE_NAME_PATTERN = 3  # segments in "AWS::Service::Resource"


class SchemaFormatError(ValueError):
    """One schema document failed validation; names the file and detail."""

    def __init__(self, source: str, detail: str):
        super().__init__(f"{source}: {detail}")
        self.source = source
        self.detail = detail


@dataclass(frozen=True)
class PropertySpec:
    """Type contract for a single resource property."""

    name: str
    primitive: str
    required: bool = False
    enum_values: Optional[tuple[str, ...]] = None
    item_primitive: Optional[str] = None

    def __post_init__(self) -> None:
        if self.primitive not in PRIMITIVES:
            raise ValueError(f"unknown primitive {self.primitive!r} for property {self.name!r}")
        if self.enum_values is not None and self.primitive != "string":
            raise ValueError(f"enum only applies to string properties ({self.name!r})")
        if self.item_primitive is not None:
            if self.primitive != "array":
                raise ValueError(f"items only apply to array properties ({self.name!r})")
            if self.item_primitive not in PRIMITIVES:
                raise ValueError(f"unknown item primitive {self.item_primitive!r} for property {self.name!r}")


@dataclass(frozen=True)
class ResourceSchema:
    """Property specifications for one resource type."""

    type_name: str
    properties: dict[str, PropertySpec]
    # The names of the required properties, in property order.
    required_names: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        segments = self.type_name.split("::")
        if len(segments) != _TYPE_NAME_PATTERN or not all(segments):
            raise ValueError(f"type name must look like AWS::Service::Resource: {self.type_name!r}")
        required = tuple(p.name for p in self.properties.values() if p.required)
        object.__setattr__(self, "required_names", required)


@dataclass(frozen=True, eq=False)
class SchemaStore:
    """Index of resource schemas, never mutated once built; safe to share
    across lint calls and threads.  Two stores are equal only when they are
    the same object, so caches keyed by a store never mix two stores'
    findings."""

    schemas: dict[str, ResourceSchema]

    def lookup(self, type_name: str) -> Optional[ResourceSchema]:
        """Case-sensitive exact-match retrieval; None when absent."""
        return self.schemas.get(type_name)

    def __len__(self) -> int:
        return len(self.schemas)


@dataclass
class SchemaLoadReport:
    """What a directory load produced: per-file errors and keyword warnings."""

    errors: list[SchemaFormatError] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)


_KNOWN_DOC_KEYS = {"typeName", "properties", "required"}
_KNOWN_PROP_KEYS = {"type", "enum", "items"}


def parse_schema_document(doc: object, source: str = "<memory>") -> tuple[ResourceSchema, list[str]]:
    """Validate one schema document; returns the schema and keyword warnings.

    Checks the document's JSON shape here; ``PropertySpec`` and
    ``ResourceSchema`` check the values.  Raises SchemaFormatError, naming
    ``source``, when the document cannot be accepted at all.
    """
    warnings: list[str] = []
    if not isinstance(doc, dict):
        raise SchemaFormatError(source, "schema document must be a JSON object")
    type_name = doc.get("typeName")
    if not isinstance(type_name, str):
        raise SchemaFormatError(source, "missing or non-string 'typeName'")
    raw_props = doc.get("properties")
    if not isinstance(raw_props, dict):
        raise SchemaFormatError(source, "missing or non-object 'properties'")
    raw_required = doc.get("required", [])
    if not isinstance(raw_required, list) or not all(isinstance(n, str) for n in raw_required):
        raise SchemaFormatError(source, "'required' must be an array of property names")
    for key in doc:
        if key not in _KNOWN_DOC_KEYS:
            warnings.append(f"{source}: ignored unsupported keyword {key!r}")

    required = set(raw_required)
    missing = required - set(raw_props)
    if missing:
        raise SchemaFormatError(source, f"'required' names unknown properties: {sorted(missing)}")

    for name, entry in raw_props.items():
        if not isinstance(entry, dict):
            raise SchemaFormatError(source, f"property {name!r} must be an object")
        enum = entry.get("enum")
        if "enum" in entry and not (isinstance(enum, list) and all(isinstance(v, str) for v in enum)):
            raise SchemaFormatError(source, f"property {name!r} enum must be an array of strings")
        items = entry.get("items")
        if "items" in entry and not (isinstance(items, dict) and isinstance(items.get("type"), str)):
            raise SchemaFormatError(source, f"property {name!r} items must be an object with a string 'type'")
        for key in entry:
            if key not in _KNOWN_PROP_KEYS:
                warnings.append(f"{source}: ignored unsupported keyword {key!r} on property {name!r}")

    try:
        specs = {name: PropertySpec(
            name=name, primitive=entry.get("type"), required=name in required,
            enum_values=tuple(entry["enum"]) if "enum" in entry else None,
            item_primitive=entry["items"]["type"] if "items" in entry else None,
        ) for name, entry in raw_props.items()}
        schema = ResourceSchema(type_name=type_name, properties=specs)
    except ValueError as exc:
        raise SchemaFormatError(source, str(exc)) from exc
    return schema, warnings


def load_schema_dir(path: str | Path) -> tuple[SchemaStore, SchemaLoadReport]:
    """Load every ``*.json`` schema document under ``path``.

    Unreadable directories raise OSError; individual bad files are recorded
    in the report and skipped.
    """
    directory = Path(path)
    if not directory.is_dir():
        raise FileNotFoundError(f"schema directory not found: {directory}")
    report = SchemaLoadReport()
    schemas: dict[str, ResourceSchema] = {}
    for file in sorted(directory.glob("*.json")):
        try:
            doc = parse_located(file.read_text(encoding="utf-8")).value
        except (OSError, ValueError) as exc:
            report.errors.append(SchemaFormatError(file.name, f"unreadable schema document: {exc}"))
            continue
        try:
            schema, warnings = parse_schema_document(doc, source=file.name)
        except SchemaFormatError as exc:
            report.errors.append(exc)
            continue
        report.warnings.extend(warnings)
        if schema.type_name in schemas:
            report.errors.append(SchemaFormatError(file.name, f"duplicate schema for {schema.type_name}"))
            continue
        schemas[schema.type_name] = schema
    return SchemaStore(schemas=schemas), report


def load_store(schemas_dir: Optional[str | Path]) -> SchemaStore:
    """The store under ``schemas_dir``, printing every load error and warning
    to stderr; the process's one builtin store when no directory is given."""
    if not schemas_dir:
        return builtin_core_schemas()
    store, report = load_schema_dir(schemas_dir)
    for message in [*report.errors, *report.warnings]:
        print(f"schema load: {message}", file=sys.stderr)
    return store


# Pinned property subset used by fixtures and the synthetic backend.  This is
# intentionally tiny compared to the real provider schemas; unknown resource
# types only become errors when lint_template is called with
# strict_unknown_types=True.
_BUILTIN_DOCUMENTS = [
    {
        "typeName": "AWS::EC2::Instance",
        "properties": {
            "ImageId": {"type": "string"},
            "InstanceType": {"type": "string"},
            "AvailabilityZone": {"type": "string"},
            "KeyName": {"type": "string"},
            "SubnetId": {"type": "string"},
            "SecurityGroupIds": {"type": "array", "items": {"type": "string"}},
            "Monitoring": {"type": "boolean"},
            "Tenancy": {"type": "string", "enum": ["default", "dedicated", "host"]},
        },
        "required": ["ImageId"],
    },
    {
        "typeName": "AWS::EC2::VPC",
        "properties": {
            "CidrBlock": {"type": "string"},
            "EnableDnsSupport": {"type": "boolean"},
            "EnableDnsHostnames": {"type": "boolean"},
            "InstanceTenancy": {"type": "string", "enum": ["default", "dedicated"]},
        },
        "required": ["CidrBlock"],
    },
    {
        "typeName": "AWS::EC2::Subnet",
        "properties": {
            "VpcId": {"type": "string"},
            "CidrBlock": {"type": "string"},
            "AvailabilityZone": {"type": "string"},
            "MapPublicIpOnLaunch": {"type": "boolean"},
        },
        "required": ["VpcId", "CidrBlock"],
    },
    {
        "typeName": "AWS::S3::Bucket",
        "properties": {
            "BucketName": {"type": "string"},
            "AccessControl": {
                "type": "string",
                "enum": ["Private", "PublicRead", "PublicReadWrite", "AuthenticatedRead"],
            },
            "ObjectLockEnabled": {"type": "boolean"},
            "Tags": {"type": "array"},
        },
        "required": [],
    },
]


@functools.cache
def builtin_core_schemas() -> SchemaStore:
    """Embedded store covering the core EC2/S3 resource types used in fixtures;
    built once per process, so every caller shares one store."""
    schemas: dict[str, ResourceSchema] = {}
    for doc in _BUILTIN_DOCUMENTS:
        schema, warnings = parse_schema_document(doc, source="<builtin>")
        assert not warnings, "builtin schemas must be clean"
        schemas[schema.type_name] = schema
    return SchemaStore(schemas=schemas)
