"""Metamodel validation and structural equality."""

import random
import re
import string
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lcpbridge.model
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
    empty_model,
    enum_type,
    is_identifier,
    model_equal,
    primitive_type,
    sanitize_identifier,
    validate_model,
)

from generators import random_model


def _assoc(name, c1, c2, m1=Multiplicity(0, None), m2=Multiplicity(0, 1),
           r1="left", r2="right"):
    return Association(name,
                       AssociationEnd(r1, c1, m1),
                       AssociationEnd(r2, c2, m2))


class TestValidation:
    def test_empty_model_is_ok(self):
        assert validate_model(empty_model("M")).ok

    def test_duplicate_class_name(self):
        model = DomainModel("M", classes=(Class("Book"), Class("Book")))
        assert "DUPLICATE_CLASS_NAME" in validate_model(model).rules()

    def test_duplicate_class_name_is_case_insensitive(self):
        model = DomainModel("M", classes=(Class("Book"), Class("BOOK")))
        assert "DUPLICATE_CLASS_NAME" in validate_model(model).rules()

    def test_dangling_association_end(self):
        model = DomainModel("M", classes=(Class("Book"),),
                            associations=(_assoc("A", "Book", "Ghost"),))
        result = validate_model(model)
        assert "DANGLING_END" in result.rules()
        assert any("Ghost" in v.message for v in result.violations)

    def test_violations_carry_element_and_rule(self):
        model = DomainModel("M", classes=(Class("Book"), Class("Book")))
        violation = validate_model(model).violations[0]
        assert violation.rule == "DUPLICATE_CLASS_NAME"
        assert violation.element == "Book"

    def test_enum_name_clashing_with_class(self):
        model = DomainModel("M", classes=(Class("Status"),),
                            enumerations=(Enumeration("Status", ("A",)),))
        assert "DUPLICATE_ENUM_NAME" in validate_model(model).rules()

    def test_enum_shadowing_primitive_rejected(self):
        model = DomainModel("M", enumerations=(Enumeration("str", ("A",)),))
        assert "RESERVED_ENUM_NAME" in validate_model(model).rules()

    def test_unknown_enum_reference(self):
        model = DomainModel("M", classes=(
            Class("Book", (Property("status", enum_type("Ghost")),)),))
        assert "UNKNOWN_ENUM" in validate_model(model).rules()

    def test_two_id_properties(self):
        model = DomainModel("M", classes=(Class("Book", (
            Property("isbn", primitive_type("str"), is_id=True),
            Property("code", primitive_type("str"), is_id=True),
        )),))
        assert "MULTIPLE_ID_PROPERTIES" in validate_model(model).rules()

    def test_self_association_needs_distinct_roles(self):
        model = DomainModel("M", classes=(Class("Person"),),
                            associations=(_assoc("Knows", "Person", "Person",
                                                 r1="peer", r2="peer"),))
        assert "DUPLICATE_ROLE" in validate_model(model).rules()

    def test_bad_multiplicity_bounds(self):
        model = DomainModel("M", classes=(Class("A"), Class("B")),
                            associations=(_assoc("X", "A", "B",
                                                 m1=Multiplicity(3, 2)),))
        assert "BAD_MULTIPLICITY" in validate_model(model).rules()

    def test_generalization_cycle(self):
        model = DomainModel("M", classes=(Class("A"), Class("B")),
                            generalizations=(Generalization("A", "B"),
                                             Generalization("B", "A")))
        assert "GENERALIZATION_CYCLE" in validate_model(model).rules()

    def test_self_generalization(self):
        model = DomainModel("M", classes=(Class("A"),),
                            generalizations=(Generalization("A", "A"),))
        assert "SELF_GENERALIZATION" in validate_model(model).rules()

    def test_second_parent_rejected(self):
        model = DomainModel("M", classes=(Class("A"), Class("B"), Class("C")),
                            generalizations=(Generalization("A", "C"),
                                             Generalization("B", "C")))
        assert "MULTIPLE_PARENTS" in validate_model(model).rules()

    def test_empty_enum(self):
        model = DomainModel("M", enumerations=(Enumeration("E", ()),))
        assert "EMPTY_ENUM" in validate_model(model).rules()

    def test_references_to_case_twins_resolve_exactly(self):
        # a reference is declared only under its exact name: the second twin
        # ITEM and the repeated enumeration color are declared, item and
        # COLOR are not
        model = DomainModel(
            "M",
            classes=(Class("Item", (Property("shade", enum_type("color")),
                                    Property("tone", enum_type("COLOR")),
                                    Property("kind", enum_type("item")))),
                     Class("ITEM"), Class("Shelf")),
            associations=(_assoc("Shelf_ITEM", "Shelf", "ITEM"),
                          _assoc("Shelf_item", "Shelf", "item")),
            generalizations=(Generalization("ITEM", "Shelf"), Generalization("Item", "shelf")),
            enumerations=(Enumeration("Color", ("RED",)), Enumeration("color", ("RED",)),
                          Enumeration("item", ("A",))))
        assert [(v.rule, v.element, v.message) for v in validate_model(model).violations] == [
            ("DUPLICATE_CLASS_NAME", "ITEM",
             "clashes with class 'Item' (names compare case-insensitively)"),
            ("DUPLICATE_ENUM_NAME", "color", "enumeration name repeated"),
            ("DUPLICATE_ENUM_NAME", "item", "clashes with class 'Item'"),
            ("UNKNOWN_ENUM", "Item.tone", "references absent enumeration 'COLOR'"),
            ("DANGLING_END", "Shelf_item.right", "references absent class 'item'"),
            ("DANGLING_GENERALIZATION", "shelf->Item", "references absent class 'shelf'"),
        ]

    def test_generated_models_validate(self):
        rng = random.Random(7)
        for _ in range(50):
            assert validate_model(random_model(rng)).ok


class TestLink:
    """``Association.link``: (host end, referenced end)."""

    ONE = Multiplicity(0, 1)

    def test_many_end_hosts_a_many_to_one(self):
        # in both, the class that sorts first is the one end
        many_first = _assoc("L", "Order", "Customer", Multiplicity(0, None), self.ONE)
        assert many_first.link == (many_first.end1, many_first.end2)
        many_second = _assoc("L", "Customer", "Order", self.ONE, Multiplicity(1, 3))
        assert many_second.link == (many_second.end2, many_second.end1)

    @pytest.mark.parametrize("c1, r1, c2, r2, host", [
        ("Passport", "passport", "Citizen", "holder", 2),  # the class decides
        ("Citizen", "holder", "Passport", "passport", 1),
        ("Person", "zeta", "Personal", "alpha", 1),  # before the role
        ("Person", "spouse", "Person", "partner", 2),  # same class: the role decides
        ("Person", "partner", "Person", "spouse", 1),
    ])
    def test_one_to_one_hosted_by_the_first_end_by_class_then_role(self, c1, r1, c2, r2, host):
        assoc = _assoc("L", c1, c2, self.ONE, Multiplicity(1, 1), r1, r2)
        ends = (assoc.end1, assoc.end2) if host == 1 else (assoc.end2, assoc.end1)
        assert assoc.link == ends


class TestModelEqual:
    def test_reflexive(self, library_model):
        assert model_equal(library_model, library_model)

    def test_class_order_is_irrelevant(self, library_model):
        reordered = DomainModel(
            name=library_model.name,
            classes=tuple(reversed(library_model.classes)),
            associations=library_model.associations,
            generalizations=library_model.generalizations,
            enumerations=library_model.enumerations,
        )
        assert model_equal(library_model, reordered)

    def test_association_end_order_is_irrelevant(self, library_model):
        flipped = []
        for assoc in library_model.associations:
            flipped.append(Association(assoc.name, assoc.end2, assoc.end1))
        model = DomainModel(name=library_model.name, classes=library_model.classes,
                            associations=tuple(flipped),
                            enumerations=library_model.enumerations)
        assert model_equal(library_model, model)

    def test_multiplicity_difference_detected(self, library_model):
        changed = []
        for assoc in library_model.associations:
            changed.append(Association(
                assoc.name,
                AssociationEnd(assoc.end1.role, assoc.end1.class_name, Multiplicity(1, 1)),
                assoc.end2))
        model = DomainModel(name=library_model.name, classes=library_model.classes,
                            associations=tuple(changed),
                            enumerations=library_model.enumerations)
        assert not model_equal(library_model, model)

    def test_property_difference_detected(self, library_model):
        stripped = DomainModel(
            name=library_model.name,
            classes=library_model.classes[:-1] + (Class("Author"),),
            associations=library_model.associations,
            enumerations=library_model.enumerations,
        )
        assert not model_equal(library_model, stripped)

    def test_equivalence_on_random_triples(self):
        rng = random.Random(11)
        for _ in range(25):
            a = random_model(rng)
            assert model_equal(a, a)  # reflexive
            b = DomainModel(name="Other", classes=tuple(reversed(a.classes)),
                            associations=tuple(reversed(a.associations)),
                            generalizations=tuple(reversed(a.generalizations)),
                            enumerations=tuple(reversed(a.enumerations)))
            # symmetric on a shuffled twin
            assert model_equal(a, b) and model_equal(b, a)
            c = DomainModel(name="Third", classes=a.classes,
                            associations=a.associations,
                            generalizations=a.generalizations,
                            enumerations=a.enumerations)
            # transitive through the twin
            if model_equal(a, b) and model_equal(b, c):
                assert model_equal(a, c)


# model name; classes A, B; properties A.p, A.q (of the enumeration), B.p;
# enumeration, its two literals; association, its two roles
_NAME_SLOTS = 12


def _model_named(names) -> DomainModel:
    (model, cls_a, cls_b, prop_ap, prop_aq, prop_bp, enum, lit1, lit2,
     assoc, role1, role2) = names
    return DomainModel(
        model,
        classes=(Class(cls_a, (Property(prop_ap, primitive_type("str")),
                               Property(prop_aq, enum_type(enum)))),
                 Class(cls_b, (Property(prop_bp, primitive_type("int")),))),
        associations=(_assoc(assoc, cls_a, cls_b, r1=role1, r2=role2),),
        enumerations=(Enumeration(enum, (lit1, lit2)),))


def _per_name_violations(model):
    """``validate_model`` with each name checked on its own."""
    with mock.patch.object(lcpbridge.model, "_all_identifiers", lambda _: False):
        return validate_model(model).violations


_VALID_NAMES = ("Shop", "Item", "Book", "title", "state", "isbn", "State", "OPEN",
                "CLOSED", "Link", "item", "book")
# NUL inside a name, a trailing newline, non-ASCII letters, empty, a leading digit
_ADVERSARIAL_NAMES = ("a\0b", "Book\n", "\0", "Caf\u00e9", "\u0660x", "\u00c5ngstr\u00f6m",
                     "", "1abc", "_x", "a b", "a\0")


class TestOneMatchNameCheck:
    """The joined fullmatch must accept exactly the models whose every name
    is an identifier, so the per-name check is only skipped when it would
    report nothing."""

    @pytest.mark.parametrize("bad", _ADVERSARIAL_NAMES)
    def test_each_slot(self, bad):
        for slot in range(_NAME_SLOTS):
            names = list(_VALID_NAMES)
            names[slot] = bad
            model = _model_named(names)
            violations = validate_model(model).violations
            assert violations == _per_name_violations(model)
            assert any(v.rule == "BAD_IDENTIFIER" for v in violations), (slot, bad)

    def test_valid_names_take_the_one_match(self):
        model = _model_named(_VALID_NAMES)
        assert lcpbridge.model._all_identifiers(model)
        assert validate_model(model).ok

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.builds(str.__add__, st.sampled_from(string.ascii_letters),
                              st.text(string.ascii_letters + string.digits + "_", max_size=5)),
                    min_size=_NAME_SLOTS, max_size=_NAME_SLOTS),
           st.dictionaries(st.integers(0, _NAME_SLOTS - 1), st.one_of(
               st.sampled_from(_ADVERSARIAL_NAMES),
               st.text(st.sampled_from("aZ9_\0\n\u00e9\u0660 "), max_size=4)), max_size=3))
    def test_same_violations_in_the_same_order(self, names, replaced):
        for slot, name in replaced.items():
            names[slot] = name
        model = _model_named(names)
        assert lcpbridge.model._all_identifiers(model) == all(map(is_identifier, names))
        assert validate_model(model).violations == _per_name_violations(model)


class TestSanitizer:
    @pytest.mark.parametrize("raw,expected", [
        ("Book Title", "Book_Title"),
        ("  spaced  out  ", "spaced_out"),
        ("123abc", "X123abc"),
        ("class", "class_"),
        ("str", "str_"),
        ("", "Unnamed"),
        ("Ok_Name", "Ok_Name"),
    ])
    def test_sanitize(self, raw, expected):
        assert sanitize_identifier(raw) == expected

    @settings(max_examples=500, deadline=None)
    @given(st.text(alphabet=st.sampled_from("aZ09_ -.\t\n\u00e9\u0660\u2003\u00a0x"),
                   max_size=10))
    def test_sanitize_matches_two_pass_reference(self, raw):
        """One regex pass does what replacing each character outside
        [A-Za-z0-9_] and then collapsing runs of ``_`` did."""
        cleaned = re.sub(r"[^A-Za-z0-9_]", "_", raw.strip())
        cleaned = re.sub(r"_+", "_", cleaned).strip("_") or "Unnamed"
        if not cleaned[0].isalpha():
            cleaned = "X" + cleaned
        if cleaned.lower() in RESERVED_WORDS:
            cleaned += "_"
        assert sanitize_identifier(raw) == cleaned
