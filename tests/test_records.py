"""One contract over every record class of the package: its fields and
defaults, a fresh list per record wherever a default is a list, immutable
named tuples, hashes that follow equality, and equality only between records
of one class."""

import importlib
import pkgutil
from collections import namedtuple

import pytest

import lcpbridge
from lcpbridge.loss import LossReport
from lcpbridge.model import Multiplicity, Record, SlotRecord

# module.class -> its fields in order, and the default of each optional field
RECORDS = {
    "capabilities.CapabilityRecord": (
        "platform_id direction data gui behavior third_party formats", {}),
    "capabilities.CapabilityMatrix": ("records displays", {}),
    "llm.PromptContext": ("display_name syntax_description", {}),
    "llm.ImagePayload": ("data media_type", {"media_type": "image/png"}),
    "llm.VisionRequest": ("prompt_text images", {}),
    "llm.MergeConflict": ("element partial_value inferred_value resolution",
                          {"resolution": "PARTIAL_WINS"}),
    "llm.MergeReport": ("added_classes added_properties added_associations added_enumerations "
                        "added_generalizations conflicts",
                        {"added_classes": [], "added_properties": [], "added_associations": [],
                         "added_enumerations": [], "added_generalizations": [],
                         "conflicts": []}),
    "loss.LossItem": ("element_kind element_name reason severity detail",
                      {"severity": "warning", "detail": ""}),
    "loss.LossReport": ("items", {"items": []}),
    "mendix.MendixAttribute": ("name type enum_ref", {"enum_ref": None}),
    "mendix.MendixEntity": ("name attributes generalization",
                            {"attributes": (), "generalization": None}),
    "mendix.MendixAssociation": ("name parent child type owner",
                                 {"type": "Reference", "owner": "Default"}),
    "mendix.MendixEnumeration": ("name values", {"values": ()}),
    "mendix.MendixExport": ("name entities associations enumerations warnings",
                            {"entities": (), "associations": (), "enumerations": (),
                             "warnings": ()}),
    "model.TypeRef": ("kind primitive enum_name", {"primitive": None, "enum_name": None}),
    "model.Property": ("name type is_id", {"is_id": False}),
    "model.Class": ("name properties", {"properties": ()}),
    "model.Multiplicity": ("lower upper", {}),
    "model.AssociationEnd": ("role class_name multiplicity navigable",
                             {"multiplicity": Multiplicity(0, None), "navigable": True}),
    "model.Association": ("name end1 end2", {}),
    "model.Generalization": ("general specific", {}),
    "model.Enumeration": ("name literals", {"literals": ()}),
    "model.DomainModel": ("name classes associations generalizations enumerations",
                          {"classes": (), "associations": (), "generalizations": (),
                           "enumerations": ()}),
    "model.Violation": ("rule element message", {}),
    "model.ValidationResult": ("violations", {"violations": []}),
    "pipeline.MigrationInputs": ("files images llm_client",
                                 {"files": [], "images": [], "llm_client": None}),
    "pipeline.ExecutionOptions": ("dialect include_sample_row review_hook",
                                  {"dialect": "oracle", "include_sample_row": True,
                                   "review_hook": None}),
    "pipeline.ExecutionResult": ("model pivot_path outputs loss merge_report",
                                 {"merge_report": None}),
    "pipeline.Adapter": ("id formats run", {}),
    "planner.MigrationPlan": (
        "source target export_method import_method chain expected_losses matrix", {}),
    "plantuml.SkippedLine": ("line_no text", {}),
    "plantuml.PlantUmlImport": ("model skipped loss warnings",
                                {"skipped": [], "loss": LossReport(), "warnings": []}),
    "relational.ColumnPlan": ("name sql_type nullable unique check",
                              {"nullable": True, "unique": False, "check": None}),
    "relational.ForeignKeyPlan": ("column ref_table", {}),
    "relational.TablePlan": ("name columns primary_key foreign_keys identity_pk",
                             {"columns": [], "primary_key": ["ID"], "foreign_keys": [],
                              "identity_pk": True}),
    "relational.RelationalSchemaPlan": ("tables", {"tables": []}),
    "tabular.TableColumn": ("header values", {}),
    "tabular.Table": ("name columns", {}),
    "tabular.TabularSource": ("tables", {}),
    "workbook.SheetDropdown": ("source_sheet", {}),
    "workbook.ListDropdown": ("options", {}),
    "workbook.ManifestColumn": ("header cell_format validation",
                                {"cell_format": "General", "validation": None}),
    "workbook.ManifestSheet": ("name kind columns sample_row",
                               {"columns": [], "sample_row": None}),
    "workbook.WorkbookManifest": ("workbook_name sheets", {"sheets": []}),
    "xlsx.SheetContent": ("name rows", {}),
}

# The named tuple that planning defines, without ``Record``'s equality so
# that start-up loads no ``model``: it equals a plain tuple of its values. The
# other records that importing and planning define are plain slotted classes.
BARE_TUPLES = {"loss.LossItem"}

# classes with slots that hold no record: name scopes, a memo, compiled patterns
NOT_RECORDS = {"model.Namespace", "model.Folds", "xlsx._Patterns"}


def _class(key: str) -> type:
    module, name = key.split(".")
    return getattr(importlib.import_module(f"lcpbridge.{module}"), name)


def _fields(cls: type) -> tuple[str, ...]:
    return cls._fields if issubclass(cls, tuple) else cls.__slots__


def _required(key: str) -> list[str]:
    fields, defaults = RECORDS[key]
    return [f for f in fields.split() if f not in defaults]


def _sample(key: str, tag: str = ""):
    """A record of ``key`` built from its required fields, each a string that
    names the field."""
    return _class(key)(*(f"<{field}{tag}>" for field in _required(key)))


def _named_tuple_records() -> list[str]:
    return [key for key in RECORDS if issubclass(_class(key), tuple)]


def test_the_table_lists_every_record_class():
    found = set()
    for info in pkgutil.iter_modules(lcpbridge.__path__):
        module = importlib.import_module(f"lcpbridge.{info.name}")
        for name, obj in vars(module).items():
            if not isinstance(obj, type) or obj.__module__ != module.__name__:
                continue
            assert not hasattr(obj, "__dataclass_fields__"), name
            if hasattr(obj, "_fields") or obj.__dict__.get("__slots__"):
                found.add(f"{info.name}.{name}")
    assert found - NOT_RECORDS == set(RECORDS)


@pytest.mark.parametrize("key", RECORDS)
def test_construction_keeps_the_fields_and_defaults(key):
    cls, (fields, defaults) = _class(key), RECORDS[key]
    assert _fields(cls) == tuple(fields.split())
    required = _required(key)
    by_position = _sample(key)
    by_keyword = cls(**{field: f"<{field}>" for field in required})
    for record in (by_position, by_keyword):
        for field in fields.split():
            assert getattr(record, field) == defaults.get(field, f"<{field}>"), field
    every = cls(*(f"<{field}>" for field in fields.split()))
    assert [getattr(every, field) for field in fields.split()] == \
        [f"<{field}>" for field in fields.split()]


@pytest.mark.parametrize("key", [key for key, (_, defaults) in RECORDS.items()
                                 if any(isinstance(d, (list, LossReport))
                                        for d in defaults.values())])
def test_each_default_list_is_fresh(key):
    first, second = _sample(key), _sample(key)
    for field, default in RECORDS[key][1].items():
        if isinstance(default, (list, LossReport)):
            assert getattr(first, field) is not getattr(second, field), field


@pytest.mark.parametrize("key", _named_tuple_records())
def test_named_tuples_are_immutable(key):
    record = _sample(key)
    with pytest.raises(AttributeError):
        setattr(record, _fields(type(record))[0], "changed")
    with pytest.raises(AttributeError):
        record.extra = "added"


@pytest.mark.parametrize("key", _named_tuple_records())
def test_equal_records_hash_equally(key):
    first, second = _sample(key), _sample(key)
    assert first == second and not first != second
    assert hash(first) == hash(second)
    assert first != _sample(key, "'")


@pytest.mark.parametrize("key", [key for key in RECORDS if key not in BARE_TUPLES])
def test_a_record_equals_no_tuple_and_no_record_of_another_class(key):
    record = _sample(key)
    values = tuple(getattr(record, field) for field in _fields(type(record)))
    assert record != values and values != record
    assert not record == values and not values == record
    if isinstance(record, Record):
        base = namedtuple("Other", _fields(type(record)))
        other = type("Other", (Record, base), {"__slots__": ()})(*values)
        assert record != other and other != record and not record == other


def test_bare_tuples_are_the_start_up_records():
    assert {key for key in _named_tuple_records()
            if not issubclass(_class(key), Record)} == BARE_TUPLES


def test_an_adapter_equals_no_association_of_the_same_values():
    from lcpbridge.model import Association
    from lcpbridge.pipeline import Adapter

    adapter, association = Adapter("a", "b", "c"), Association("a", "b", "c")
    assert adapter != association and association != adapter
    assert not adapter == association and not association == adapter


@pytest.mark.parametrize("key", [key for key in RECORDS
                                 if issubclass(_class(key), SlotRecord)
                                 or _class(key) is LossReport])
def test_compared_plain_records_have_value_equality(key):
    first, second, changed = _sample(key), _sample(key), _sample(key)
    setattr(changed, _fields(type(changed))[0], "<changed>")
    assert first == second and not first != second
    assert first != changed
    with pytest.raises(TypeError):
        hash(first)


def test_vision_request_needs_an_image():
    from lcpbridge.llm import VisionRequest

    with pytest.raises(ValueError, match="at least one image"):
        VisionRequest("prompt", ())
    with pytest.raises(ValueError, match="at least one image"):
        VisionRequest(prompt_text="prompt", images=())


def test_migration_plan_repr_leaves_out_the_matrix():
    from lcpbridge.planner import plan_migration

    text = repr(plan_migration("mendix", "apex"))
    assert text.startswith("MigrationPlan(source='mendix', target='apex', export_method=")
    assert "expected_losses=LossReport(items=[" in text
    assert "matrix" not in text and "CapabilityRecord" not in text
