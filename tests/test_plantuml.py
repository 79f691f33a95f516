"""PlantUML subset parser/emitter and its round-trip guarantee."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lcpbridge.errors import PlantUmlError
from lcpbridge.model import (
    RESERVED_WORDS,
    Association,
    AssociationEnd,
    Class,
    DomainModel,
    Enumeration,
    Generalization,
    Multiplicity,
    Property,
    enum_type,
    model_equal,
    primitive_type,
)
from lcpbridge.pipeline import ExecutionOptions, run_exporter
from lcpbridge.plantuml import _patterns, emit_plantuml, parse_multiplicity, parse_plantuml

from expected import class_named, enum_named, property_names, with_reason
from generators import adversarial_name, random_model, with_fold_twins


def unreserved_name(rng, taken, capitalize=False):
    """``adversarial_name`` without the reserved words, which the PlantUML
    leg gives a ``_`` suffix as it does any foreign name."""
    while True:
        name = adversarial_name(rng, taken, capitalize)
        if name.lower() not in RESERVED_WORDS:
            return name


# valid names that sanitizing would fold: a ``__`` run next to its ``_``
# twin, and a trailing ``_``, on every kind of emitted name
UNDERSCORE_MODELS = [
    DomainModel("M", classes=(Class("Item__x"), Class("Item_X"))),
    DomainModel("M", classes=(Class("Name_"),)),
    DomainModel("M", classes=(
        Class("Item__x", properties=(Property("code__a", primitive_type("str")),
                                     Property("code_", enum_type("Kind__")))),
        Class("Item_X"), Class("Name_")),
        enumerations=(Enumeration("Kind__", ("A__B", "C_")),),
        associations=(Association("Has__x_",
                                  AssociationEnd("a", "Item__x", Multiplicity(0, 1)),
                                  AssociationEnd("b", "Item_X", Multiplicity(0, None))),),
        generalizations=(Generalization("Name_", "Item_X"),)),
]


class TestParse:
    def test_empty_block(self):
        result = parse_plantuml("@startuml\n@enduml")
        assert result.model.classes == ()
        assert result.skipped == []

    def test_single_class_with_attribute(self):
        result = parse_plantuml("@startuml\nclass Book { title : str }\n@enduml")
        book = class_named(result.model, "Book")
        assert book is not None
        assert book.properties[0].name == "title"
        assert book.properties[0].type.primitive == "str"

    def test_abstract_class_is_read(self):
        result = parse_plantuml('@startuml\nabstract class "Shape" as Shape { sides : int }\n'
                                "abstract   class Solid\nShape <|-- Solid\n@enduml")
        assert result.skipped == []
        assert [(c.name, property_names(c)) for c in result.model.classes] == \
            [("Shape", ("sides",)), ("Solid", ())]

    def test_relationship_auto_declares_classes(self):
        result = parse_plantuml('@startuml\nBook "0..*" -- "1" Library\n@enduml')
        model = result.model
        assert {c.name for c in model.classes} == {"Book", "Library"}
        assert all(not c.properties for c in model.classes)
        ends = {e.class_name: e.multiplicity for e in model.associations[0].ends}
        assert (ends["Book"].lower, ends["Book"].upper) == (0, None)
        assert (ends["Library"].lower, ends["Library"].upper) == (1, 1)

    def test_missing_markers(self):
        with pytest.raises(PlantUmlError):
            parse_plantuml("class Book {}")

    def test_multiline_class_and_enum(self):
        text = """@startuml
enum Status {
  OPEN
  CLOSED
}
class Ticket {
  subject : string
  status : Status
}
@enduml"""
        model = parse_plantuml(text).model
        assert enum_named(model, "Status").literals == ("OPEN", "CLOSED")
        status_prop = class_named(model, "Ticket").properties[1]
        assert status_prop.type.kind == "enumeration"
        assert status_prop.type.enum_name == "Status"

    def test_generalization_both_directions(self):
        left = parse_plantuml("@startuml\nPerson <|-- Author\n@enduml").model
        right = parse_plantuml("@startuml\nAuthor --|> Person\n@enduml").model
        for model in (left, right):
            gen = model.generalizations[0]
            assert (gen.general, gen.specific) == ("Person", "Author")

    def test_unknown_type_becomes_str_with_loss(self):
        result = parse_plantuml("@startuml\nclass A { x : Money }\n@enduml")
        prop = class_named(result.model, "A").properties[0]
        assert prop.type.primitive == "str"
        assert with_reason(result.loss, "TYPE_COERCED")

    def test_type_table(self):
        text = ("@startuml\nclass A {\n  a : string\n  b : Integer\n  c : double\n"
                "  d : boolean\n  e : timestamp\n  f : text\n}\n@enduml")
        props = class_named(parse_plantuml(text).model, "A").properties
        assert [p.type.primitive for p in props] == \
            ["str", "int", "float", "bool", "datetime", "str"]

    def test_methods_and_notes_are_skipped_and_counted(self):
        text = """@startuml
skinparam monochrome true
class Book {
  title : str
  +getTitle() : str
}
note left: remember this
@enduml"""
        result = parse_plantuml(text)
        skipped_texts = [s.text for s in result.skipped]
        assert len(skipped_texts) == 3
        assert any("skinparam" in t for t in skipped_texts)
        assert any("getTitle" in t for t in skipped_texts)
        assert property_names(class_named(result.model, "Book")) == ("title",)

    def test_skiplist_counts_nonempty_unsupported_lines(self):
        text = ("@startuml\n\ntitle My Model\n'just a comment\nclass A\n"
                "hide circle\n\n@enduml")
        result = parse_plantuml(text)
        assert len(result.skipped) == 3  # title, comment, hide

    @pytest.mark.parametrize("name", ["skinparams", "titles", "notebook", "legendary",
                                      "hideout", "showroom", "scales"])
    def test_skip_words_match_whole_words_only(self, name):
        text = (f'@startuml\nclass Car\n{name} "0..*" -- "0..1" Car : cars\n'
                f"{name} <|-- Journal\nCar -- Journal\n@enduml")
        result = parse_plantuml(text)
        assert result.skipped == []
        assert [c.name for c in result.model.classes] == ["Car", name, "Journal"]
        assert [a.name for a in result.model.associations] == ["cars", "Car_Journal"]
        assert [(g.general, g.specific) for g in result.model.generalizations] == \
            [(name, "Journal")]

    def test_class_named_like_a_note_does_not_open_a_note_block(self):
        text = """@startuml
class Car
class Journal
showroom "0..*" -- "0..1" Car : cars
notebook <|-- Journal
Car -- Journal
Car -- showroom
Journal -- showroom
note left of Car
  a real note
end note
!include style.puml
@enduml"""
        result = parse_plantuml(text)
        assert [s.text for s in result.skipped] == \
            ["note left of Car", "a real note", "end note", "!include style.puml"]
        assert len(result.model.associations) == 4
        assert result.model.generalizations[0].general == "notebook"

    def test_second_parent_dropped_not_fatal(self):
        text = "@startuml\nA <|-- C\nB <|-- C\n@enduml"
        result = parse_plantuml(text)
        assert len(result.model.generalizations) == 1
        assert with_reason(result.loss, "DROPPED")

    def test_aggregation_markers_treated_as_association(self):
        result = parse_plantuml('@startuml\nLibrary o-- Book\n@enduml')
        assert len(result.model.associations) == 1

    def test_label_becomes_association_name(self):
        result = parse_plantuml('@startuml\nA "1" -- "0..*" B : owns\n@enduml')
        assert result.model.associations[0].name == "owns"

    def test_duplicate_relationship_names_uniquified(self):
        text = '@startuml\nA -- B : rel\nA -- B : rel\n@enduml'
        names = [a.name for a in parse_plantuml(text).model.associations]
        assert names == ["rel", "rel_2"]

    def test_more_than_one_block_rejected(self):
        with pytest.raises(PlantUmlError):
            parse_plantuml("@startuml\n@enduml\n@startuml\n@enduml")

    def test_parse_never_fabricates_properties(self):
        text = """@startuml
class A {
  x : int
  y : str
}
class B
A -- B
@enduml"""
        model = parse_plantuml(text).model
        assert sum(len(c.properties) for c in model.classes) == 2


# The tests the parser makes before it tries a pattern: each must pass on
# every line that the pattern matches, or gating would change the first match.
GATES = {
    "enum": lambda line: line.startswith("enum"),
    "class": lambda line: line.startswith(("class", "abstract")),
    "generalization": lambda line: "|" in line,
}
# Pieces of the lines in this file's models and texts, and of the ones the
# emitter writes, with the spacing, quotes and markers the patterns read.
LINE_PIECES = ("enum", "class", "abstract", "as", "Status", "Book", "notebook", "a.b", "_x",
               " ", "  ", "\t", '"', '"0..*"', '"1"', "{", "}", ":", ",", ";", "<|--", "--|>",
               "<|-", "-|>", "|", "--", "<--", "-->", "o--", "*--", "<", ">", "<<id>>",
               "<< pk >>", "<<", ">>", "title", "note")


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(LINE_PIECES), max_size=9).map("".join))
@example("enum Status { OPEN, CLOSED }")
@example('abstract class "Long name" as Long {')
@example("class Book { title : str }")
@example("Person <|-- Author")
@example('Author --|> "note"')
def test_each_gate_passes_where_its_pattern_matches(text):
    line = text.strip()
    for key, gate in GATES.items():
        assert not _patterns()[key].match(line) or gate(line), key
    assert not _patterns()["stereotype"].search(text) or "<<" in text


class TestMultiplicityTokens:
    @pytest.mark.parametrize("token,expected", [
        ("1", (1, 1)),
        ("0..1", (0, 1)),
        ("*", (0, None)),
        ("0..*", (0, None)),
        ("1..*", (1, None)),
        ("2..5", (2, 5)),
        ("", (0, None)),
    ])
    def test_tokens(self, token, expected):
        m = parse_multiplicity(token)
        assert (m.lower, m.upper) == expected

    def test_malformed_token(self):
        with pytest.raises(PlantUmlError):
            parse_multiplicity("x..y")


class TestEmit:
    def test_empty_model(self):
        from lcpbridge.model import empty_model

        assert emit_plantuml(empty_model("M")) == "@startuml\n@enduml\n"

    def test_generalization_line(self):
        model = parse_plantuml("@startuml\nPerson <|-- Author\n@enduml").model
        assert "Person <|-- Author" in emit_plantuml(model)

    @pytest.mark.parametrize("word", ["note", "show", "title", "hide", "scale", "legend",
                                      "skinparam"])
    def test_class_named_like_a_skip_word_round_trips(self, word):
        model = DomainModel("M", classes=(Class(word), Class("Car")), associations=(
            Association("parks", AssociationEnd("spot", word, Multiplicity(0, 1)),
                        AssociationEnd("cars", "Car", Multiplicity(0, None))),),
            generalizations=(Generalization(word, "Car"),))
        result = parse_plantuml(emit_plantuml(model))
        assert result.skipped == []
        assert model_equal(result.model, model)

    def test_emit_is_deterministic(self, library_model):
        assert emit_plantuml(library_model) == emit_plantuml(library_model)

    def test_library_round_trip(self, library_model):
        text = emit_plantuml(library_model)
        assert model_equal(parse_plantuml(text).model, library_model)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31))
    def test_round_trip_on_random_models(self, seed):
        model = random_model(random.Random(seed))
        assert model_equal(parse_plantuml(emit_plantuml(model)).model, model)

    @pytest.mark.parametrize("model", UNDERSCORE_MODELS)
    def test_valid_names_keep_their_spelling(self, model):
        result = parse_plantuml(emit_plantuml(model))
        assert model_equal(result.model, model)
        assert result.loss.items == []

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31))
    def test_round_trip_on_adversarial_models(self, seed):
        model = random_model(random.Random(seed), names=unreserved_name)
        assert model_equal(parse_plantuml(emit_plantuml(model)).model, model)


class TestExportLoss:
    """The generator's loss report names what the text cannot carry: the
    model's name and each role the parser would not derive."""

    def test_model_name_and_roles_reported(self, tmp_path):
        model = DomainModel("Library", classes=(Class("Person"), Class("Book")), associations=(
            Association("Borrows", AssociationEnd("borrower", "Person", Multiplicity(0, 1)),
                        AssociationEnd("loans", "Book", Multiplicity(0, None))),))
        (path,), loss = run_exporter("plantuml", model, tmp_path, ExecutionOptions())
        back = parse_plantuml(path.read_text(encoding="utf-8")).model
        assert back.name == "Model"
        assert [(e.role, e.class_name) for e in (back.associations[0].end1,
                                                 back.associations[0].end2)] \
            == [("person", "Person"), ("book", "Book")]
        assert [(i.element_kind, i.element_name, i.reason, i.detail) for i in loss] == [
            ("model", "Library", "DROPPED", "the text names no model; it parses back as Model"),
            ("association", "Borrows", "DROPPED",
             "role borrower of Person: the text names no role; it parses back as person"),
            ("association", "Borrows", "DROPPED",
             "role loans of Book: the text names no role; it parses back as book")]

    def test_nothing_reported_where_the_text_carries_all(self, tmp_path):
        model = DomainModel("Model", classes=(Class("Node"),), associations=(
            Association("Links", AssociationEnd("node", "Node", Multiplicity(0, 1)),
                        AssociationEnd("node_2", "Node", Multiplicity(0, None))),))
        (path,), loss = run_exporter("plantuml", model, tmp_path, ExecutionOptions())
        assert loss.items == []
        assert parse_plantuml(path.read_text(encoding="utf-8")).model == model

    @pytest.mark.parametrize("seed", range(12))
    def test_each_role_the_parser_changes_is_reported(self, tmp_path, seed):
        model = random_model(random.Random(seed), names=unreserved_name)
        (path,), loss = run_exporter("plantuml", model, tmp_path, ExecutionOptions())
        back = parse_plantuml(path.read_text(encoding="utf-8")).model
        changed = [(assoc.name, end.role, parsed.role)
                   for assoc, parsed_assoc in zip(model.associations, back.associations)
                   for end, parsed in zip((assoc.end1, assoc.end2),
                                          (parsed_assoc.end1, parsed_assoc.end2))
                   if end.role != parsed.role]
        reported = [(i.element_name, i.detail.split()[1], i.detail.rsplit(" ", 1)[1])
                    for i in loss if i.element_kind == "association"]
        assert reported == changed

    @pytest.mark.parametrize("seed", range(300))
    def test_each_name_the_parser_changes_is_reported(self, tmp_path, seed):
        """Adversarial names hold reserved words in any case, which the parser
        folds: each name it reads back otherwise has a RENAMED entry that
        gives its new spelling, and no other name has one."""
        model = random_model(random.Random(seed), names=adversarial_name)
        (path,), loss = run_exporter("plantuml", model, tmp_path, ExecutionOptions())
        back = parse_plantuml(path.read_text(encoding="utf-8")).model
        pairs = [("enumeration", e.name, e.name, p.name)
                 for e, p in zip(model.enumerations, back.enumerations, strict=True)]
        pairs += [("literal", f"{e.name}.{lit}", lit, parsed)
                  for e, p in zip(model.enumerations, back.enumerations)
                  for lit, parsed in zip(e.literals, p.literals, strict=True)]
        pairs += [("class", c.name, c.name, p.name)
                  for c, p in zip(model.classes, back.classes, strict=True)]
        pairs += [("property", f"{c.name}.{prop.name}", prop.name, parsed.name)
                  for c, p in zip(model.classes, back.classes)
                  for prop, parsed in zip(c.properties, p.properties, strict=True)]
        pairs += [("association", a.name, a.name, p.name)
                  for a, p in zip(model.associations, back.associations, strict=True)]
        changed = {(kind, element): f"parses back as {parsed}"
                   for kind, element, name, parsed in pairs if parsed != name}
        reported = {(i.element_kind, i.element_name): i.detail
                    for i in loss if i.reason == "RENAMED"}
        assert reported == changed
        assert len(reported) == len(with_reason(loss, "RENAMED"))

    def test_enumeration_read_as_a_primitive_reported(self, tmp_path):
        model = DomainModel("Model", classes=(Class("Shop", (
            Property("level", enum_type("Int")), Property("kind", enum_type("Kind")))),),
            enumerations=(Enumeration("Int", ("LOW",)), Enumeration("Kind", ("A",))))
        (path,), loss = run_exporter("plantuml", model, tmp_path, ExecutionOptions())
        back = parse_plantuml(path.read_text(encoding="utf-8")).model
        assert [p.type for p in back.classes[0].properties] == \
            [primitive_type("int"), enum_type("Kind")]
        assert [(i.element_name, i.severity, i.detail) for i in with_reason(loss, "TYPE_COERCED")] \
            == [("Shop.level", "warning", "typed by enumeration Int; parses back typed int")]

    def test_property_twins_reported(self, tmp_path):
        """``Int`` folds to ``Int_``, so the parser keeps one of the two."""
        model = DomainModel("Model", classes=(Class("Shop", (
            Property("Int", primitive_type("str")), Property("Int_", primitive_type("int")))),))
        (path,), loss = run_exporter("plantuml", model, tmp_path, ExecutionOptions())
        back = parse_plantuml(path.read_text(encoding="utf-8")).model
        assert back.classes[0].properties == (Property("Int_", primitive_type("str")),)
        assert [(i.element_kind, i.element_name, i.reason, i.detail) for i in loss] == [
            ("property", "Shop.Int", "RENAMED", "parses back as Int_"),
            ("property", "Shop.Int_", "DROPPED",
             "parses back as Int_, a repeat of Shop.Int; the first one kept")]

    def test_class_twins_reported(self, tmp_path):
        model = DomainModel("Model", classes=(Class("Int", (Property("a", primitive_type("str")),)),
                                              Class("Int_", (Property("b", primitive_type("int")),))))
        (path,), loss = run_exporter("plantuml", model, tmp_path, ExecutionOptions())
        back = parse_plantuml(path.read_text(encoding="utf-8")).model
        assert [(c.name, property_names(c)) for c in back.classes] == [("Int_", ("a", "b"))]
        assert [(i.element_kind, i.element_name, i.reason, i.detail) for i in loss] == [
            ("class", "Int", "RENAMED", "parses back as Int_"),
            ("class", "Int_", "DROPPED", "parses back merged into class Int_ with class Int")]

    @pytest.mark.parametrize("seed", range(100))
    def test_each_fold_twin_the_parser_merges_is_reported(self, tmp_path, seed):
        """The classes and properties the report predicts, from the model,
        its RENAMED entries and its DROPPED ones, are those the text parses
        back as, in order."""
        rng = random.Random(seed)
        model = with_fold_twins(random_model(rng, max_generalizations=0), rng)
        (path,), loss = run_exporter("plantuml", model, tmp_path, ExecutionOptions())
        back = parse_plantuml(path.read_text(encoding="utf-8")).model
        dropped = {(i.element_kind, i.element_name) for i in with_reason(loss, "DROPPED")}
        renamed = {(i.element_kind, i.element_name): i.detail.removeprefix("parses back as ")
                   for i in with_reason(loss, "RENAMED")}
        predicted: dict[str, list[str]] = {}
        for cls in model.classes:
            name = renamed.get(("class", cls.name), cls.name)
            assert (("class", cls.name) in dropped) == (name in predicted), cls.name
            elements = [(f"{cls.name}.{p.name}", p.name) for p in cls.properties]
            predicted.setdefault(name, []).extend(
                renamed.get(("property", element), prop) for element, prop in elements
                if ("property", element) not in dropped)
        assert [(name, tuple(props)) for name, props in predicted.items()] == \
            [(c.name, property_names(c)) for c in back.classes]
        assert {kind for kind, _ in dropped} >= {"class", "property"}

    @pytest.mark.parametrize("seed", range(300))
    def test_each_type_the_parser_changes_is_reported(self, tmp_path, seed):
        """An enumeration whose name the parser folds leaves its name in the
        properties' type tokens, which the parser may read as a primitive or
        an unknown type: each property typed otherwise than by the folded
        enumeration has one TYPE_COERCED entry, and no other property has one."""
        model = random_model(random.Random(seed), names=adversarial_name)
        (path,), loss = run_exporter("plantuml", model, tmp_path, ExecutionOptions())
        back = parse_plantuml(path.read_text(encoding="utf-8")).model
        folded = {e.name: p.name for e, p in zip(model.enumerations, back.enumerations, strict=True)}
        changed = [(f"{c.name}.{prop.name}", f"typed by enumeration {prop.type.enum_name}; "
                    f"parses back typed {parsed.type.display()}")
                   for c, p in zip(model.classes, back.classes, strict=True)
                   for prop, parsed in zip(c.properties, p.properties, strict=True)
                   if prop.type.kind == "enumeration"
                   and parsed.type != enum_type(folded[prop.type.enum_name])]
        reported = [(i.element_name, i.detail) for i in with_reason(loss, "TYPE_COERCED")]
        assert reported == changed
