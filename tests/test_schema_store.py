import json

import pytest

from iacloop.schema_store import (
    PropertySpec,
    SchemaFormatError,
    SchemaStore,
    builtin_core_schemas,
    load_schema_dir,
    load_store,
    parse_schema_document,
)

from helpers import save_schema_dir

EC2_DOC = {
    "typeName": "AWS::EC2::Instance",
    "properties": {
        "InstanceType": {"type": "string"},
        "ImageId": {"type": "string"},
    },
    "required": ["ImageId"],
}


class TestLoadSchemaDir:
    def test_empty_directory(self, tmp_path):
        store, report = load_schema_dir(tmp_path)
        assert len(store) == 0
        assert not report.errors

    def test_single_file(self, tmp_path):
        (tmp_path / "aws-ec2-instance.json").write_text(json.dumps(EC2_DOC))
        store, report = load_schema_dir(tmp_path)
        schema = store.lookup("AWS::EC2::Instance")
        assert schema is not None
        assert schema.properties["InstanceType"].primitive == "string"
        assert schema.properties["ImageId"].required
        assert not schema.properties["InstanceType"].required
        assert list(store.schemas) == ["AWS::EC2::Instance"]

    def test_invalid_primitive_reported_and_skipped(self, tmp_path):
        doc = {"typeName": "AWS::X::Y", "properties": {"P": {"type": "strng"}}, "required": []}
        (tmp_path / "bad.json").write_text(json.dumps(doc))
        (tmp_path / "good.json").write_text(json.dumps(EC2_DOC))
        store, report = load_schema_dir(tmp_path)
        assert store.lookup("AWS::X::Y") is None
        assert store.lookup("AWS::EC2::Instance") is not None
        assert len(report.errors) == 1
        err = report.errors[0]
        assert err.source == "bad.json"
        assert "'P'" in err.detail

    def test_unparseable_file_reported(self, tmp_path):
        (tmp_path / "broken.json").write_text("{not json")
        store, report = load_schema_dir(tmp_path)
        assert len(report.errors) == 1
        assert len(store) == 0

    @pytest.mark.parametrize("text", ["[" * 100_000 + "]" * 100_000, '{"typeName": "AWS::X::Y", "typeName": "AWS::X::Z"}'],
                             ids=["deep", "duplicate_key"])
    def test_undecodable_file_reported_and_skipped(self, tmp_path, text):
        (tmp_path / "bad.json").write_text(text)
        (tmp_path / "good.json").write_text(json.dumps(EC2_DOC))
        store, report = load_schema_dir(tmp_path)
        assert [err.source for err in report.errors] == ["bad.json"]
        assert "unreadable schema document" in report.errors[0].detail
        assert list(store.schemas) == ["AWS::EC2::Instance"]

    def test_unsupported_keywords_warn(self, tmp_path):
        doc = dict(EC2_DOC)
        doc["description"] = "extra"
        doc = {**doc, "properties": {"P": {"type": "string", "pattern": "x"}}, "required": []}
        (tmp_path / "s.json").write_text(json.dumps(doc))
        store, report = load_schema_dir(tmp_path)
        assert store.lookup("AWS::EC2::Instance") is not None
        assert any("description" in w for w in report.warnings)
        assert any("pattern" in w for w in report.warnings)

    def test_missing_dir_raises(self, tmp_path):
        with pytest.raises(OSError):
            load_schema_dir(tmp_path / "nope")

    def test_ingestion_idempotence(self, tmp_path):
        src = tmp_path / "src"
        src.mkdir()
        (src / "aws-ec2-instance.json").write_text(json.dumps(EC2_DOC))
        first, _ = load_schema_dir(src)
        out = tmp_path / "resaved"
        save_schema_dir(first, out)
        second, report = load_schema_dir(out)
        # Stores compare by identity; the round trip keeps their contents.
        assert second.schemas == first.schemas
        assert not report.errors and not report.warnings


class TestParseSchemaDocument:
    def test_required_must_exist(self):
        doc = {"typeName": "AWS::A::B", "properties": {}, "required": ["Ghost"]}
        with pytest.raises(SchemaFormatError):
            parse_schema_document(doc)

    def test_enum_only_on_strings(self):
        doc = {
            "typeName": "AWS::A::B",
            "properties": {"P": {"type": "boolean", "enum": ["x"]}},
            "required": [],
        }
        with pytest.raises(SchemaFormatError):
            parse_schema_document(doc)

    def test_items_only_on_arrays(self):
        doc = {
            "typeName": "AWS::A::B",
            "properties": {"P": {"type": "string", "items": {"type": "string"}}},
            "required": [],
        }
        with pytest.raises(SchemaFormatError):
            parse_schema_document(doc)

    @pytest.mark.parametrize("entry", [
        pytest.param("string", id="property-not-an-object"),
        pytest.param(None, id="null-property"),
        pytest.param({}, id="no-type"),
        pytest.param({"type": None}, id="null-type"),
        pytest.param({"type": "strng"}, id="bad-type"),
        pytest.param({"type": 5}, id="non-string-type"),
        pytest.param({"type": "string", "enum": None}, id="null-enum"),
        pytest.param({"type": "string", "enum": "a"}, id="string-enum"),
        pytest.param({"type": "string", "enum": ["a", 1]}, id="non-string-enum-value"),
        pytest.param({"type": "boolean", "enum": ["x"]}, id="enum-on-boolean"),
        pytest.param({"type": "integer", "enum": None}, id="null-enum-on-integer"),
        pytest.param({"type": "array", "items": None}, id="null-items"),
        pytest.param({"type": "array", "items": "string"}, id="string-items"),
        pytest.param({"type": "array", "items": {}}, id="items-without-type"),
        pytest.param({"type": "array", "items": {"type": None}}, id="null-item-type"),
        pytest.param({"type": "array", "items": {"type": "strng"}}, id="bad-item-type"),
        pytest.param({"type": "array", "items": {"type": 5}}, id="non-string-item-type"),
        pytest.param({"type": "string", "items": {"type": "string"}}, id="items-on-string"),
        pytest.param({"type": "string", "items": None}, id="null-items-on-string"),
    ])
    def test_rejected_property_names_file_and_property(self, tmp_path, entry):
        doc = {"typeName": "AWS::A::B", "properties": {"Ok": {"type": "string"}, "Bad": entry}, "required": []}
        (tmp_path / "bad.json").write_text(json.dumps(doc))
        store, report = load_schema_dir(tmp_path)
        assert len(store) == 0
        [error] = report.errors
        assert isinstance(error, SchemaFormatError)
        assert error.source == "bad.json"
        assert "'Bad'" in error.detail
        assert str(error).startswith("bad.json: ")

    @pytest.mark.parametrize("entry", [
        {"type": "string", "enum": []},
        {"type": "string", "enum": ["a", "b"]},
        {"type": "array"},
        {"type": "array", "items": {"type": "object", "pattern": "x"}},
        {"type": "object", "description": "extra"},
    ])
    def test_accepted_property(self, entry):
        doc = {"typeName": "AWS::A::B", "properties": {"P": entry}, "required": ["P"]}
        schema, _ = parse_schema_document(doc, source="ok.json")
        assert schema.properties["P"].primitive == entry["type"]
        assert schema.required_names == ("P",)

    def test_bad_type_name(self):
        doc = {"typeName": "NotAType", "properties": {}, "required": []}
        with pytest.raises(SchemaFormatError):
            parse_schema_document(doc)


class TestLookup:
    def test_exact_match(self):
        store = builtin_core_schemas()
        assert store.lookup("AWS::EC2::Instance").type_name == "AWS::EC2::Instance"

    def test_case_sensitive(self):
        store = builtin_core_schemas()
        assert store.lookup("aws::ec2::instance") is None

    def test_empty_store(self):
        from iacloop.schema_store import SchemaStore

        assert SchemaStore(schemas={}).lookup("AWS::EC2::Instance") is None


class TestBuiltinStore:
    def test_core_types_present(self):
        store = builtin_core_schemas()
        instance = store.lookup("AWS::EC2::Instance")
        assert instance.properties["InstanceType"].primitive == "string"
        assert store.lookup("AWS::EC2::VPC") is not None
        assert store.lookup("AWS::EC2::Subnet") is not None
        assert store.lookup("AWS::S3::Bucket") is not None

    def test_one_store_per_process(self):
        # Caches keyed by a store recur across dispatches only if each
        # dispatch gets the same builtin store; equal contents are not enough.
        assert load_store(None) is load_store(None) is builtin_core_schemas()
        assert SchemaStore(builtin_core_schemas().schemas) != builtin_core_schemas()

    def test_uncovered_type_absent(self):
        assert builtin_core_schemas().lookup("AWS::Lambda::Function") is None

    def test_builtin_passes_directory_validation(self, tmp_path):
        store = builtin_core_schemas()
        save_schema_dir(store, tmp_path)
        reloaded, report = load_schema_dir(tmp_path)
        assert reloaded.schemas == store.schemas
        assert not report.errors and not report.warnings


class TestPropertySpec:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            PropertySpec(name="P", primitive="str")
        with pytest.raises(ValueError):
            PropertySpec(name="P", primitive="integer", enum_values=("a",))
        with pytest.raises(ValueError):
            PropertySpec(name="P", primitive="string", item_primitive="string")
