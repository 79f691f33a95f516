"""Mendix export parsing and the concept mapping to the pivot."""

import copy
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcpbridge.cli import main
from lcpbridge.errors import MendixImportError
from lcpbridge.mendix import (
    CARDINALITY_TABLE,
    load_mendix_export,
    mendix_to_pivot,
    parse_mendix_export,
)
from lcpbridge.model import validate_model
from lcpbridge.pipeline import MigrationInputs, execute_migration
from lcpbridge.planner import plan_migration

from expected import property_names, reference_parse_mendix_export, with_reason
from generators import random_mendix_export


def test_minimal_document():
    export = parse_mendix_export({"domainModel": {"name": "Empty", "entities": []}})
    assert export.entities == ()
    assert export.associations == ()


def test_library_fixture_counts(mendix_library_path):
    export = load_mendix_export(mendix_library_path)
    # counts hand-read from tests/data/mendix_library.json
    assert len(export.entities) == 3
    assert len(export.associations) == 2
    assert len(export.enumerations) == 1
    book = next(e for e in export.entities if e.name == "Book")
    assert len(book.attributes) == 4


def test_dangling_association_parent():
    doc = {"domainModel": {"name": "M", "entities": [{"name": "Book"}],
                           "associations": [{"name": "X", "parent": "Ghost",
                                             "child": "Book"}]}}
    with pytest.raises(MendixImportError) as err:
        parse_mendix_export(doc)
    assert "Ghost" in str(err.value)


def test_entity_without_name():
    doc = {"domainModel": {"name": "M", "entities": [{"attributes": []}]}}
    with pytest.raises(MendixImportError):
        parse_mendix_export(doc)


def test_malformed_json():
    with pytest.raises(MendixImportError):
        parse_mendix_export("{not json")


# valid JSON of the wrong shape
MALFORMED_SHAPES = [
    {"domainModel": []},
    {"domainModel": {"name": "M", "entities": [{"name": "A", "attributes": [5]}]}},
    {"domainModel": {"name": "M", "enumerations": [{"name": "E", "values": 5}]}},
]


@pytest.mark.parametrize("doc", MALFORMED_SHAPES)
def test_malformed_shape_is_import_error(doc, tmp_path, capsys):
    with pytest.raises(MendixImportError):
        parse_mendix_export(json.dumps(doc))
    source = tmp_path / "export.json"
    source.write_text(json.dumps(doc), encoding="utf-8")
    code = main(["import", "mendix-json", "--input", str(source),
                 "--out", str(tmp_path / "out")])
    assert code == 1
    assert "MENDIX_IMPORT_ERROR" in capsys.readouterr().err


def test_unknown_fields_warn_but_parse(mendix_library_path):
    payload = json.loads(mendix_library_path.read_text())
    payload["domainModel"]["entities"][0]["documentation"] = "extra"
    export = parse_mendix_export(payload)
    assert any("documentation" in w for w in export.warnings)


def test_ignored_fields_reported_as_dropped(tmp_path, mendix_library_path):
    payload = json.loads(mendix_library_path.read_text(encoding="utf-8"))
    payload["domainModel"]["entities"][0]["documentation"] = "extra"
    payload["domainModel"]["associations"][0]["colour"] = "red"
    source = tmp_path / "export.json"
    source.write_text(json.dumps(payload), encoding="utf-8")
    result = execute_migration(plan_migration("mendix", "apex"),
                               MigrationInputs(files=[source]), tmp_path / "out")
    entity, assoc = payload["domainModel"]["entities"][0], payload["domainModel"]["associations"][0]
    expected = [{"element_kind": "model", "element_name": payload["domainModel"]["name"],
                 "reason": "DROPPED", "severity": "info", "detail": detail} for detail in (
        f"ignored unknown field 'documentation' in entity {entity['name']}",
        f"ignored unknown field 'colour' in association {assoc['name']}")]
    written = json.loads((tmp_path / "out" / "loss-report.json").read_text(encoding="utf-8"))
    assert [i for i in written["items"] if i["reason"] == "DROPPED"] == expected
    assert [i.as_dict() for i in with_reason(result.loss, "DROPPED")] == expected


# ---------------------------------------------------------------------------
# The inline field checks against the parser that checks one field at a time

_VALID_EXPORT = {"domainModel": {
    "name": "Shop",
    "entities": [
        {"name": "Item", "attributes": [
            {"name": "title", "type": "String"},
            {"name": "state", "type": "Enumeration", "enum_ref": "State"}]},
        {"name": "Book", "attributes": [{"name": "isbn", "type": "Long"}],
         "generalization": "Item"}],
    "associations": [{"name": "Book_Item", "parent": "Item", "child": "Book",
                      "type": "ReferenceSet", "owner": "Both"}],
    "enumerations": [{"name": "State", "values": ["OPEN", "CLOSED"]}],
}}

_MISSING = object()
# missing, null, empty, non-string, wrong container (and wrong items), unknown fields
_DEFECTS = (_MISSING, None, "", 5, True, "x", [], {}, [5], [{}], ["s"], {"zeta": 1, "alpha": 2})


def _paths(node, path=()):
    """The path of every value below ``node``: dict keys and list indices."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield path + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, path + (key,))


_FIELD_PATHS = list(_paths(_VALID_EXPORT))


def _with_defect(document: dict, path: tuple, defect) -> dict:
    document = copy.deepcopy(document)
    parent = document
    for key in path[:-1]:
        parent = parent[key]
    if defect is _MISSING:
        del parent[path[-1]]
    elif isinstance(defect, dict) and isinstance(parent[path[-1]], dict):
        parent[path[-1]].update(defect)  # unknown fields next to the known ones
    else:
        parent[path[-1]] = copy.deepcopy(defect)
    return document


def _outcome(parse, document):
    try:
        return "ok", parse(document)
    except MendixImportError as exc:
        return "error", str(exc)


def test_inline_checks_keep_every_single_field_error():
    assert _outcome(parse_mendix_export, _VALID_EXPORT)[0] == "ok"
    for path in _FIELD_PATHS:
        for defect in _DEFECTS:
            document = _with_defect(_VALID_EXPORT, path, defect)
            assert _outcome(parse_mendix_export, document) == \
                _outcome(reference_parse_mendix_export, document), (path, defect)
            text = json.dumps(document)
            assert _outcome(parse_mendix_export, text) == \
                _outcome(reference_parse_mendix_export, text), (path, defect)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_FIELD_PATHS), st.sampled_from(_DEFECTS)),
                min_size=1, max_size=4))
def test_inline_checks_keep_the_first_error(defects):
    """Several defects at once: the same error is reported first."""
    document = _VALID_EXPORT
    for path, defect in defects:
        try:
            document = _with_defect(document, path, defect)
        except (KeyError, IndexError, TypeError):
            pass  # an earlier defect removed or replaced the path
    assert _outcome(parse_mendix_export, document) == \
        _outcome(reference_parse_mendix_export, document)


_UNKNOWN_KEYS = ("zeta", "alpha", "documentation")


@st.composite
def _record(draw, mandatory: dict, optional: dict) -> dict:
    """``mandatory`` with each optional field present, absent or null and
    up to two unknown fields, in any key order."""
    items = list(mandatory.items())
    for key, value in optional.items():
        state = draw(st.sampled_from(("present", "absent", "null")))
        if state != "absent":
            items.append((key, value if state == "present" else None))
    items += [(key, 1) for key in draw(st.lists(st.sampled_from(_UNKNOWN_KEYS),
                                                unique=True, max_size=2))]
    return dict(draw(st.permutations(items)))


@st.composite
def _exports_with_unknown_fields(draw) -> dict:
    def attributes():
        return draw(st.lists(_record({"name": "title", "type": "String"}, {"enum_ref": "State"}),
                             max_size=2))

    entities = [draw(_record({"name": name}, {"attributes": attributes(), "generalization": parent}))
                for name, parent in (("Item", "Book"), ("Book", "Item"))]
    associations = draw(st.lists(_record(
        {"name": "Book_Item", "parent": "Item", "child": "Book"},
        {"type": "ReferenceSet", "owner": "Both"}), max_size=2))
    enumerations = [draw(_record({"name": "State"}, {"values": ["OPEN"]}))]
    return {"domainModel": {"name": "Shop", "entities": entities, "associations": associations,
                            "enumerations": enumerations}}


@settings(max_examples=500, deadline=None)
@given(_exports_with_unknown_fields())
def test_unknown_fields_found_by_key_count(document):
    """An entity, attribute, association or enumeration is walked for unknown
    fields only when it has more keys than its known ones: the same warnings,
    in the same order, with each optional field present, absent or null."""
    assert _outcome(parse_mendix_export, document) == \
        _outcome(reference_parse_mendix_export, document)
    text = json.dumps(document)
    assert _outcome(parse_mendix_export, text) == _outcome(reference_parse_mendix_export, text)


def test_string_and_list_subclasses_still_accepted():
    class Name(str):
        pass

    class Items(list):
        pass

    document = copy.deepcopy(_VALID_EXPORT)
    entity = document["domainModel"]["entities"][0]
    entity["name"] = Name("Item")
    entity["attributes"] = Items(entity["attributes"])
    entity["attributes"][0]["type"] = Name("String")
    document["domainModel"]["associations"][0]["owner"] = Name("Both")
    assert _outcome(parse_mendix_export, document) == \
        _outcome(reference_parse_mendix_export, document)
    assert _outcome(parse_mendix_export, document)[0] == "ok"


def test_duplicate_entity_rejected():
    doc = {"domainModel": {"name": "M", "entities": [{"name": "A"}, {"name": "A"}]}}
    with pytest.raises(MendixImportError):
        parse_mendix_export(doc)


def test_duplicate_enumeration_rejected(mendix_library_path):
    doc = json.loads(mendix_library_path.read_text(encoding="utf-8"))
    enumerations = doc["domainModel"]["enumerations"]
    enumerations.append(dict(enumerations[0]))  # a second BookStatus
    with pytest.raises(MendixImportError, match="duplicate enumeration name 'BookStatus'"):
        parse_mendix_export(doc)


def test_enum_ref_must_exist():
    doc = {"domainModel": {"name": "M", "entities": [
        {"name": "A", "attributes": [{"name": "s", "type": "Enumeration",
                                      "enum_ref": "Nope"}]}]}}
    with pytest.raises(MendixImportError):
        parse_mendix_export(doc)


class TestMapping:
    def test_single_entity_direct_mapping(self):
        export = parse_mendix_export({"domainModel": {"name": "M", "entities": [
            {"name": "Book", "attributes": [{"name": "title", "type": "String"}]}]}})
        model, loss = mendix_to_pivot(export)
        assert [c.name for c in model.classes] == ["Book"]
        assert model.classes[0].properties[0].type.primitive == "str"
        assert len(loss) == 0

    def test_reference_default_cardinalities(self):
        doc = {"domainModel": {"name": "M", "entities": [
            {"name": "Library"}, {"name": "Book"}],
            "associations": [{"name": "Book_Library", "parent": "Library",
                              "child": "Book", "type": "Reference",
                              "owner": "Default"}]}}
        model, _ = mendix_to_pivot(parse_mendix_export(doc))
        assoc = model.associations[0]
        by_class = {e.class_name: e for e in assoc.ends}
        assert (by_class["Book"].multiplicity.lower, by_class["Book"].multiplicity.upper) \
            == (0, None)
        assert (by_class["Library"].multiplicity.lower,
                by_class["Library"].multiplicity.upper) == (0, 1)
        # Default ownership: navigable child-to-parent only
        assert by_class["Library"].navigable
        assert not by_class["Book"].navigable
        assert validate_model(model).ok

    @pytest.mark.parametrize("assoc_type,owner", list(CARDINALITY_TABLE))
    def test_cardinality_table(self, assoc_type, owner):
        doc = {"domainModel": {"name": "M", "entities": [
            {"name": "Parent"}, {"name": "Child"}],
            "associations": [{"name": "X", "parent": "Parent", "child": "Child",
                              "type": assoc_type, "owner": owner}]}}
        model, _ = mendix_to_pivot(parse_mendix_export(doc))
        child_mult, parent_mult = CARDINALITY_TABLE[(assoc_type, owner)]
        by_class = {e.class_name: e for e in model.associations[0].ends}
        assert by_class["Child"].multiplicity == child_mult
        assert by_class["Parent"].multiplicity == parent_mult

    def test_hashed_string_coerced_with_loss(self):
        doc = {"domainModel": {"name": "M", "entities": [
            {"name": "User", "attributes": [{"name": "pw", "type": "HashedString"}]}]}}
        model, loss = mendix_to_pivot(parse_mendix_export(doc))
        assert model.classes[0].properties[0].type.primitive == "str"
        entries = with_reason(loss, "TYPE_COERCED")
        assert entries and entries[0].element_name == "User.pw"

    def test_autonumber_coerced_with_loss(self):
        doc = {"domainModel": {"name": "M", "entities": [
            {"name": "Order_", "attributes": [{"name": "nr", "type": "AutoNumber"}]}]}}
        model, loss = mendix_to_pivot(parse_mendix_export(doc))
        assert model.classes[0].properties[0].type.primitive == "int"
        assert with_reason(loss, "TYPE_COERCED")

    def test_generalization_mapped(self):
        doc = {"domainModel": {"name": "M", "entities": [
            {"name": "Media"}, {"name": "Book", "generalization": "Media"}]}}
        model, _ = mendix_to_pivot(parse_mendix_export(doc))
        gen = model.generalizations[0]
        assert (gen.general, gen.specific) == ("Media", "Book")

    def test_names_sanitized_and_recorded(self):
        doc = {"domainModel": {"name": "My Shop", "entities": [
            {"name": "Sales Order", "attributes": [{"name": "total amount",
                                                    "type": "Decimal"}]}]}}
        model, loss = mendix_to_pivot(parse_mendix_export(doc))
        assert model.classes[0].name == "Sales_Order"
        assert model.classes[0].properties[0].name == "total_amount"
        renames = with_reason(loss, "RENAMED")
        assert {r.element_name for r in renames} >= {"Sales Order", "Sales Order.total amount"}

    @pytest.mark.parametrize("entities, classes, renamed", [
        ([{"name": "Order"}, {"name": "order"}], ["Order", "order_2"], ["order"]),
        ([{"name": "Order Line"}, {"name": "Order_Line"}], ["Order_Line", "Order_Line_2"],
         ["Order Line", "Order_Line"]),
        ([{"name": "Status"}], ["Status_2"], ["Status"]),  # enumerations claim first
    ], ids=["case-twins", "sanitized-twins", "class-and-enumeration"])
    def test_colliding_entity_names_renamed(self, entities, classes, renamed):
        doc = {"domainModel": {"name": "M", "entities": entities,
                               "enumerations": [{"name": "Status", "values": ["OPEN"]}],
                               "associations": [{"name": "Link", "parent": entities[0]["name"],
                                                 "child": entities[-1]["name"]}]}}
        model, loss = mendix_to_pivot(parse_mendix_export(doc))
        assert [c.name for c in model.classes] == classes
        assert [e.name for e in model.enumerations] == ["Status"]
        assert {e.class_name for e in model.associations[0].ends} == \
            {classes[0], classes[-1]}
        assert [r.element_name for r in with_reason(loss, "RENAMED")] == renamed

    def test_colliding_attribute_names_renamed(self):
        doc = {"domainModel": {"name": "M", "entities": [{"name": "Book", "attributes": [
            {"name": "Name", "type": "String"}, {"name": "name", "type": "String"}]}]}}
        model, loss = mendix_to_pivot(parse_mendix_export(doc))
        assert property_names(model.classes[0]) == ("Name", "name_2")
        assert [(r.element_name, r.detail) for r in with_reason(loss, "RENAMED")] == \
            [("Book.name", "sanitized to name_2")]

    def test_self_association_roles_distinct(self):
        doc = {"domainModel": {"name": "M", "entities": [{"name": "Person"}],
                               "associations": [{"name": "Manages", "parent": "Person",
                                                 "child": "Person"}]}}
        model, _ = mendix_to_pivot(parse_mendix_export(doc))
        assoc = model.associations[0]
        assert assoc.end1.role != assoc.end2.role
        assert validate_model(model).ok

    def test_element_count_conservation_on_random_exports(self):
        from lcpbridge.model import sanitize_identifier

        rng = random.Random(23)
        for _ in range(40):
            doc = random_mendix_export(rng)
            export = parse_mendix_export(doc)
            model, _ = mendix_to_pivot(export)
            assert len(model.classes) == len(export.entities)
            assert len(model.associations) == len(export.associations)
            assert len(model.enumerations) == len(export.enumerations)
            assert len(model.generalizations) == sum(
                1 for e in export.entities if e.generalization is not None)
            # provenance: every pivot class traces to exactly one entity name
            assert {c.name for c in model.classes} == \
                {sanitize_identifier(e.name) for e in export.entities}
            assert validate_model(model).ok
