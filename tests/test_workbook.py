"""Workbook planning rules, container emission, and the tabular round trip."""

import json
import random
import zipfile
from datetime import datetime
from xml.etree import ElementTree as ET

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcpbridge.model import (
    Association,
    AssociationEnd,
    Class,
    DomainModel,
    Enumeration,
    Generalization,
    Multiplicity,
    Property,
    empty_model,
    enum_type,
    primitive_type,
)
from lcpbridge.tabular import infer_model, load_tabular
from lcpbridge.workbook import (
    ListDropdown,
    ManifestSheet,
    SheetDropdown,
    WorkbookManifest,
    emit_workbook,
    plan_workbook,
)

from expected import class_named, expected_dropdown_count, property_names, sheet_named, with_reason
from generators import adversarial_name, fresh_name, random_manifest, random_model

NS = "{http://schemas.openxmlformats.org/spreadsheetml/2006/main}"


def sheet_dropdowns(manifest):
    return [(s.name, c) for s in manifest.sheets for c in s.columns
            if isinstance(c.validation, SheetDropdown)]


class TestPlanRules:
    def test_empty_model_zero_sheets(self):
        manifest, _ = plan_workbook(empty_model("M"))
        assert manifest.sheets == []

    def test_sheet_per_class_named_after_it(self, library_model):
        manifest, _ = plan_workbook(library_model)
        class_sheets = [s for s in manifest.sheets if s.kind == "class"]
        assert [s.name for s in class_sheets] == ["Library", "Book", "Author"]

    def test_column_per_property_with_date_format(self):
        model = DomainModel("M", classes=(Class("Book", (
            Property("title", primitive_type("str")),
            Property("published", primitive_type("date")),
        )),))
        manifest, _ = plan_workbook(model)
        sheet = manifest.sheets[0]
        assert [c.header for c in sheet.columns] == ["title", "published"]
        assert sheet.columns[0].cell_format == "General"
        assert sheet.columns[1].cell_format == "DD/MM/YYYY"
        assert sheet.sample_row == ["Sample", "01/01/2024"]

    def test_many_to_one_dropdown_on_many_side(self, library_model):
        manifest, _ = plan_workbook(library_model)
        book = sheet_named(manifest, "Book")
        dropdown = next(c for c in book.columns
                        if isinstance(c.validation, SheetDropdown))
        assert dropdown.validation.source_sheet == "Library"
        assert dropdown.header == "library"

    def test_many_to_many_bridge_sheet(self, library_model):
        manifest, _ = plan_workbook(library_model)
        bridge = sheet_named(manifest, "BOOK_AUTHOR")
        assert bridge is not None
        assert bridge.kind == "bridge"
        assert len(bridge.columns) == 2
        targets = {c.validation.source_sheet for c in bridge.columns}
        assert targets == {"Book", "Author"}

    def test_sample_row_everywhere(self, library_model):
        manifest, _ = plan_workbook(library_model)
        for sheet in manifest.sheets:
            assert sheet.sample_row is not None
            assert len(sheet.sample_row) == len(sheet.columns)

    def test_sample_row_suppression(self, library_model):
        manifest, _ = plan_workbook(library_model, include_sample_row=False)
        assert all(s.sample_row is None for s in manifest.sheets)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**31), st.sampled_from((fresh_name, adversarial_name)))
    def test_sample_row_suppression_only_drops_the_rows(self, seed, names):
        model = random_model(random.Random(seed), max_generalizations=6, names=names)
        manifest, loss = plan_workbook(model)
        bare, bare_loss = plan_workbook(model, include_sample_row=False)
        for sheet in manifest.sheets:
            sheet.sample_row = None
        assert bare == manifest
        assert bare_loss == loss

    def test_bool_and_enum_become_list_dropdowns(self, library_model):
        model = DomainModel(
            "M",
            classes=(Class("Flagged", (Property("active", primitive_type("bool")),)),),
        )
        manifest, _ = plan_workbook(model)
        column = manifest.sheets[0].columns[0]
        assert isinstance(column.validation, ListDropdown)
        assert column.validation.options == ("TRUE", "FALSE")
        assert manifest.sheets[0].sample_row == ["TRUE"]

        lib_manifest, _ = plan_workbook(library_model)
        status = next(c for c in sheet_named(lib_manifest, "Book").columns
                      if c.header == "status")
        assert isinstance(status.validation, ListDropdown)
        assert status.validation.options == ("AVAILABLE", "LOANED", "RESERVED")

    @pytest.mark.parametrize("length", [255, 256])
    def test_list_past_255_characters_has_no_dropdown(self, length):
        """A spreadsheet holds a list typed as literals up to 255 characters,
        commas included. One past it, the column has no dropdown, the report
        names the column and the length, and the column A it leaves without a
        list can be linked to."""
        literals = ("A" * (length - 2), "B")
        model = DomainModel("M", classes=(
            Class("Shelf", (Property("grade", enum_type("Grade")),)),
            Class("Book", (Property("title", primitive_type("str")),))),
            associations=(Association(
                "Holds", AssociationEnd("book", "Book", Multiplicity(0, None)),
                AssociationEnd("shelf", "Shelf", Multiplicity(0, 1))),),
            enumerations=(Enumeration("Grade", literals),))
        manifest, loss = plan_workbook(model)
        grade = sheet_named(manifest, "Shelf").columns[0]
        reasons = [(i.element_name, i.reason) for i in loss]
        if length == 255:
            assert grade.validation == ListDropdown(literals)
            assert reasons == [("Holds", "DROPPED")]
        else:
            assert grade.validation is None
            assert reasons == [("Shelf.grade", "DROPPED"), ("Holds", "ASSOCIATIONS_UNKNOWN")]
            assert loss.items[0].detail == ("dropdown of column 'grade' on sheet Shelf: its list "
                                            "is 256 characters, past the 255 a spreadsheet holds")
        assert sheet_named(manifest, "Shelf").sample_row == ["A" * (length - 2)]

    def test_generalization_flattened_with_loss(self):
        model = DomainModel("M", classes=(
            Class("Media", (Property("title", primitive_type("str")),)),
            Class("Book", (Property("pages", primitive_type("int")),)),
        ), generalizations=(Generalization("Media", "Book"),))
        manifest, loss = plan_workbook(model)
        book = sheet_named(manifest, "Book")
        assert [c.header for c in book.columns] == ["title", "pages"]
        assert with_reason(loss, "GENERALIZATION_FLATTENED")

    def test_one_to_one_encoded_with_loss(self):
        model = DomainModel("M", classes=(Class("Person"), Class("Passport")),
                            associations=(Association(
                                "Holds",
                                AssociationEnd("person", "Person", Multiplicity(0, 1)),
                                AssociationEnd("passport", "Passport", Multiplicity(1, 1))),))
        manifest, loss = plan_workbook(model)
        assert with_reason(loss, "ONE_TO_ONE_FLATTENED")
        drops = sheet_dropdowns(manifest)
        assert len(drops) == 1
        assert drops[0][0] == "Passport"  # alphabetically-first class hosts

    def test_association_risk_always_reported(self, library_model):
        _, loss = plan_workbook(library_model)
        warnings = with_reason(loss, "ASSOCIATIONS_UNKNOWN")
        assert len(warnings) == len(library_model.associations)

    def test_link_to_a_sheet_without_columns_is_dropped(self):
        """``Tag`` has no property, so a dropdown on its sheet's column A
        lists nothing: the report says the link is lost, in a host sheet and
        in a bridge sheet alike, and the dropdowns stay as they were."""
        many, optional = Multiplicity(0, None), Multiplicity(0, 1)
        model = DomainModel("M", classes=(
            Class("Post", (Property("title", primitive_type("str")),)), Class("Tag")),
            associations=(
                Association("Labels", AssociationEnd("post", "Post", many),
                            AssociationEnd("tag", "Tag", optional)),
                Association("Tagged", AssociationEnd("posts", "Post", many),
                            AssociationEnd("tags", "Tag", many))))
        manifest, loss = plan_workbook(model)
        assert [(i.element_name, i.reason, i.detail) for i in loss] == [
            ("Labels", "DROPPED", "dropdown column 'tag' on sheet Post lists sheet Tag, "
                                  "which has no property column, so no row can be linked"),
            ("Tagged", "DROPPED", "bridge sheet POST_TAG lists sheet Tag, "
                                  "which has no property column, so no row can be linked")]
        assert [c.validation.source_sheet for _, c in sheet_dropdowns(manifest)] \
            == ["Tag", "Post", "Tag"]

    def test_link_to_a_sheet_whose_column_a_is_a_list_is_dropped(self):
        """``Tag``'s first property is ``active: bool``, so a dropdown on its
        sheet's column A lists only TRUE and FALSE: the report says the link
        is lost, in a host sheet and in a bridge sheet alike."""
        many, optional = Multiplicity(0, None), Multiplicity(0, 1)
        model = DomainModel("M", classes=(
            Class("Post", (Property("title", primitive_type("str")),)),
            Class("Tag", (Property("active", primitive_type("bool")),
                          Property("label", primitive_type("str"))))),
            associations=(
                Association("Labels", AssociationEnd("post", "Post", many),
                            AssociationEnd("tag", "Tag", optional)),
                Association("Tagged", AssociationEnd("posts", "Post", many),
                            AssociationEnd("tags", "Tag", many))))
        manifest, loss = plan_workbook(model)
        assert sheet_named(manifest, "Tag").columns[0].validation == ListDropdown(("TRUE", "FALSE"))
        lost = "whose column A 'active' holds only the values of a list, so no row can be linked"
        assert [(i.element_name, i.reason, i.detail) for i in loss] == [
            ("Labels", "DROPPED", f"dropdown column 'tag' on sheet Post lists sheet Tag, {lost}"),
            ("Tagged", "DROPPED", f"bridge sheet POST_TAG lists sheet Tag, {lost}")]

    def test_every_link_is_reported_once(self):
        """Each association gets one entry: DROPPED where a sheet it lists
        has no property column (its own or an inherited one) or a bool or
        enumeration one in column A, else ASSOCIATIONS_UNKNOWN."""
        rng = random.Random(29)
        for _ in range(60):
            model = random_model(rng, names=adversarial_name)
            parents = {g.specific: g.general for g in model.generalizations}
            props = {c.name: c.properties for c in model.classes}

            def linkable(name):
                """Column A of the class's sheet holds a property without a
                list: the first of the root-first chain, as its nearest
                class declares it."""
                chain = []
                while name is not None:
                    chain.append(name)
                    name = parents.get(name)
                columns = [p for ancestor in reversed(chain) for p in props[ancestor]]
                if not columns:
                    return False
                first = next(p for p in reversed(columns)
                             if p.name.lower() == columns[0].name.lower())
                return first.type.kind != "enumeration" and first.type.primitive != "bool"

            _, loss = plan_workbook(model)
            entries = [(i.element_name, i.reason) for i in loss
                       if i.reason in ("DROPPED", "ASSOCIATIONS_UNKNOWN")]
            reported = dict(entries)
            assert len(entries) == len(reported) == len(model.associations)
            for assoc in model.associations:
                listed = (assoc.end1, assoc.end2) if assoc.kind == "many-to-many" \
                    else assoc.link[1:]
                lost = not all(linkable(end.class_name) for end in listed)
                assert reported[assoc.name] == ("DROPPED" if lost else "ASSOCIATIONS_UNKNOWN")

    def test_rules_hold_on_random_models(self):
        rng = random.Random(17)
        for _ in range(40):
            model = random_model(rng)
            manifest, _ = plan_workbook(model)
            class_sheets = [s for s in manifest.sheets if s.kind == "class"]
            bridge_sheets = [s for s in manifest.sheets if s.kind == "bridge"]
            m2m = sum(1 for a in model.associations
                      if a.end1.multiplicity.is_many and a.end2.multiplicity.is_many)
            assert len(class_sheets) == len(model.classes)
            assert len(bridge_sheets) == m2m
            assert len(sheet_dropdowns(manifest)) == expected_dropdown_count(model)
            for sheet in manifest.sheets:
                assert sheet.sample_row is not None
                assert len(sheet.sample_row) == len(sheet.columns)

    def test_sample_values_satisfy_formats(self):
        rng = random.Random(47)
        for _ in range(20):
            manifest, _ = plan_workbook(random_model(rng))
            for sheet in manifest.sheets:
                for column, value in zip(sheet.columns, sheet.sample_row):
                    if column.cell_format == "DD/MM/YYYY":
                        datetime.strptime(value, "%d/%m/%Y")
                    elif column.cell_format == "DD/MM/YYYY HH:MM":
                        datetime.strptime(value, "%d/%m/%Y %H:%M")
                    elif column.cell_format == "0":
                        int(value)
                    elif column.cell_format == "0.00":
                        float(value)
                    if isinstance(column.validation, ListDropdown) \
                            and column.validation.options:
                        assert value in column.validation.options


def standard_json(manifest: WorkbookManifest) -> str:
    return json.dumps(manifest.as_dict(), indent=2, sort_keys=True) + "\n"


class TestManifestJson:
    """``to_json`` against the standard library's encoder."""

    @pytest.mark.parametrize("manifest", [
        WorkbookManifest("M"),
        WorkbookManifest("M", [ManifestSheet("Empty", "class")]),
        WorkbookManifest("M", [ManifestSheet("Empty", "class", sample_row=[])]),
    ], ids=["zero sheets", "zero columns", "zero columns, empty sample row"])
    def test_empty_parts(self, manifest):
        assert manifest.to_json() == standard_json(manifest)

    @settings(max_examples=150, deadline=None)
    @given(st.randoms(use_true_random=False), st.booleans())
    def test_planned_manifest(self, rng, include_sample_row):
        manifest, _ = plan_workbook(random_model(rng, names=adversarial_name),
                                    include_sample_row=include_sample_row)
        assert manifest.to_json() == standard_json(manifest)

    @settings(max_examples=300, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_any_manifest(self, rng):
        manifest = random_manifest(rng)
        assert manifest.to_json() == standard_json(manifest)

    def test_emitted_manifest_file(self, tmp_path, library_model):
        manifest, _ = plan_workbook(library_model)
        _, manifest_path = emit_workbook(manifest, tmp_path / "m.xlsx")
        assert manifest_path.read_text(encoding="utf-8") == standard_json(manifest)


class TestEmit:
    def test_zero_sheet_manifest_gets_placeholder(self, tmp_path):
        manifest, _ = plan_workbook(empty_model("M"))
        book_path, manifest_path = emit_workbook(manifest, tmp_path / "m.xlsx")
        with zipfile.ZipFile(book_path) as zf:
            workbook = ET.fromstring(zf.read("xl/workbook.xml"))
        assert len(list(workbook.iter(f"{NS}sheet"))) == 1
        assert json.loads(manifest_path.read_text())["sheets"] == []

    def test_manifest_json_is_stable(self, tmp_path, library_model):
        manifest, _ = plan_workbook(library_model)
        _, p1 = emit_workbook(manifest, tmp_path / "a.xlsx")
        _, p2 = emit_workbook(manifest, tmp_path / "b.xlsx")
        assert p1.read_text() == p2.read_text()

    def test_workbook_bytes_are_deterministic(self, tmp_path, library_model):
        manifest, _ = plan_workbook(library_model)
        path1, _ = emit_workbook(manifest, tmp_path / "a.xlsx")
        path2, _ = emit_workbook(manifest, tmp_path / "b.xlsx")
        assert path1.read_bytes() == path2.read_bytes()

    def test_validation_records_in_container(self, tmp_path, library_model):
        # independent check: read the sheet XML straight out of the zip
        manifest, _ = plan_workbook(library_model)
        book_path, _ = emit_workbook(manifest, tmp_path / "m.xlsx")
        sheet_names = [s.name for s in manifest.sheets]
        book_index = sheet_names.index("Book") + 1
        with zipfile.ZipFile(book_path) as zf:
            xml = ET.fromstring(zf.read(f"xl/worksheets/sheet{book_index}.xml"))
        validations = list(xml.iter(f"{NS}dataValidation"))
        formulas = [v.findtext(f"{NS}formula1") for v in validations]
        assert any("'Library'!" in f for f in formulas)
        assert all(v.get("type") == "list" for v in validations)

    def test_round_trip_through_tabular_loader(self, tmp_path, library_model):
        manifest, _ = plan_workbook(library_model)
        book_path, _ = emit_workbook(manifest, tmp_path / "m.xlsx")
        source = load_tabular([book_path])
        assert {t.name for t in source.tables} == \
            {"Library", "Book", "Author", "BOOK_AUTHOR"}
        book = next(t for t in source.tables if t.name == "Book")
        manifest_headers = [c.header for c in sheet_named(manifest, "Book").columns]
        assert [c.header for c in book.columns] == manifest_headers

    def test_self_many_to_many_with_case_twin_roles_reloads(self, tmp_path):
        model = DomainModel("M", classes=(
            Class("Person", (Property("name", primitive_type("str")),)),), associations=(
            Association("Knows", AssociationEnd("a", "Person", Multiplicity(0, None)),
                        AssociationEnd("A", "Person", Multiplicity(0, None))),))
        manifest, loss = plan_workbook(model)
        assert [c.header for c in sheet_named(manifest, "PERSON_PERSON").columns] == \
            ["a", "person"]
        assert [e.element_name for e in with_reason(loss, "RENAMED")] == ["Knows"]
        book_path, _ = emit_workbook(manifest, tmp_path / "m.xlsx")
        inferred, _ = infer_model(load_tabular([book_path]))
        bridge = class_named(inferred, "PERSON_PERSON")
        assert [p.name for p in bridge.properties] == ["a", "person"]

    def test_self_many_to_many_with_roles_named_like_the_class_reloads(self, tmp_path):
        model = DomainModel("M", classes=(
            Class("Person", (Property("name", primitive_type("str")),)),), associations=(
            Association("Knows", AssociationEnd("person", "Person", Multiplicity(0, None)),
                        AssociationEnd("Person", "Person", Multiplicity(0, None))),))
        manifest, loss = plan_workbook(model)
        assert [c.header for c in sheet_named(manifest, "PERSON_PERSON").columns] == \
            ["person", "person_2"]
        assert [e.element_name for e in with_reason(loss, "RENAMED")] == ["Knows"]
        book_path, _ = emit_workbook(manifest, tmp_path / "m.xlsx")
        inferred, _ = infer_model(load_tabular([book_path]))
        bridge = class_named(inferred, "PERSON_PERSON")
        assert [p.name for p in bridge.properties] == ["person", "person_2"]

    def test_class_named_like_a_bridge_sheet_reloads(self, tmp_path):
        model = DomainModel("M", classes=(Class("a_b"), Class("A"), Class("B")), associations=(
            Association("Links", AssociationEnd("as_", "A", Multiplicity(0, None)),
                        AssociationEnd("bs", "B", Multiplicity(0, None))),))
        manifest, _ = plan_workbook(model)
        assert [s.name for s in manifest.sheets] == ["a_b", "A", "B", "A_B_LINKS"]
        book_path, _ = emit_workbook(manifest, tmp_path / "m.xlsx")
        inferred, _ = infer_model(load_tabular([book_path]))
        assert [c.name for c in inferred.classes] == ["a_b", "A", "B", "A_B_LINKS"]

    def test_class_without_properties_reloads(self, tmp_path):
        model = DomainModel("M", classes=(Class("Person"),))
        manifest, _ = plan_workbook(model)
        book_path, _ = emit_workbook(manifest, tmp_path / "m.xlsx")
        inferred, _ = infer_model(load_tabular([book_path]))
        assert inferred.classes == (Class("Person"),)

    def test_round_trip_recovers_names_and_types_widen(self, tmp_path, library_model):
        manifest, _ = plan_workbook(library_model)
        book_path, _ = emit_workbook(manifest, tmp_path / "m.xlsx")
        model, _ = infer_model(load_tabular([book_path]))
        inferred_classes = {c.name for c in model.classes}
        for cls in library_model.classes:
            assert cls.name in inferred_classes
            inferred = class_named(model, cls.name)
            assert set(property_names(cls)) <= set(property_names(inferred))
        assert model.associations == ()  # structure only; never recovered

        book = class_named(model, "Book")
        types = {p.name: p.type.primitive for p in book.properties}
        assert types["pages"] == "int"
        assert types["published"] == "date"
