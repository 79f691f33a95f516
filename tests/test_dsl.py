"""Pivot DSL parser and printer, including the round-trip law."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcpbridge.dsl import parse_pivot_text, print_pivot_text
from lcpbridge.errors import DslSyntaxError, InvalidModelError
from lcpbridge.model import model_equal

from generators import random_model

LIBRARY_DSL = """\
# hand-written library fixture
model Library

enum BookStatus { AVAILABLE, LOANED, RESERVED }

class Library {
  name: str id
}

class Book {
  title: str
  pages: int
  status: BookStatus
  published: date
}

class Author {
  name: str
}

association Book_Author {
  books: Book [0..*]
  authors: Author [0..*] nav
}

association Book_Library {
  books: Book [0..*]
  library: Library [0..1] nav
}
"""


class TestParse:
    def test_minimal_program(self):
        model = parse_pivot_text("model M")
        assert model.name == "M"
        assert model.classes == ()
        assert model.associations == ()
        assert model.enumerations == ()

    def test_library_fixture_counts(self):
        # oracle: counts read off the fixture text above
        model = parse_pivot_text(LIBRARY_DSL)
        assert len(model.classes) == 3
        assert len(model.associations) == 2
        assert len(model.enumerations) == 1
        assert {c.name for c in model.classes} == {"Library", "Book", "Author"}
        book = model.class_named("Book")
        assert book.property_names() == ("title", "pages", "status", "published")
        assert model.class_named("Library").properties[0].is_id

    def test_unterminated_block_errors_at_end_of_input(self):
        with pytest.raises(DslSyntaxError) as err:
            parse_pivot_text("model M\nclass Book {")
        assert "end of input" in str(err.value)

    def test_error_carries_line_column_and_expected(self):
        with pytest.raises(DslSyntaxError) as err:
            parse_pivot_text("model M\nclass {")
        assert err.value.line == 2
        assert err.value.column == 7
        assert err.value.expected

    def test_missing_model_keyword(self):
        with pytest.raises(DslSyntaxError) as err:
            parse_pivot_text("class Book {}")
        assert "'model'" in str(err.value)

    def test_comments_and_blank_lines_ignored(self):
        model = parse_pivot_text("# top\nmodel M\n\n# middle\nclass A {}\n")
        assert [c.name for c in model.classes] == ["A"]

    def test_extends_desugars_to_generalization(self):
        model = parse_pivot_text("model M\nclass P {}\nclass C extends P {}")
        assert len(model.generalizations) == 1
        gen = model.generalizations[0]
        assert (gen.general, gen.specific) == ("P", "C")

    def test_property_named_id(self):
        model = parse_pivot_text("model M\nclass A {\n  id: int\n  code: str id\n}")
        cls = model.class_named("A")
        assert cls.properties[0].name == "id"
        assert not cls.properties[0].is_id
        assert cls.properties[1].is_id

    def test_validation_violations_surface_as_errors(self):
        with pytest.raises(InvalidModelError) as err:
            parse_pivot_text("model M\nclass A {}\nclass A {}")
        assert any(v.rule == "DUPLICATE_CLASS_NAME" for v in err.value.violations)

    def test_unbounded_and_bounded_multiplicities(self):
        model = parse_pivot_text(
            "model M\nclass A {}\nassociation X { a: A [2..5]\n b: A [1..*] nav }")
        end1, end2 = model.associations[0].ends
        assert (end1.multiplicity.lower, end1.multiplicity.upper) == (2, 5)
        assert (end2.multiplicity.lower, end2.multiplicity.upper) == (1, None)
        assert not end1.navigable and end2.navigable


# (id, source, line, column, message, expected) of the DslSyntaxError each
# malformed input raises; the CLI prints these positions, so they must not move
ERROR_POSITIONS = [
    ('missing-class-name', 'model M\nclass {',
     2, 7, "unexpected '{'", ('class name',)),
    ('tabs', 'model M\n\tclass\tA\t{\n\t\tx\t:\t}\n',
     3, 7, "unexpected '}'", ('type name',)),
    ('carriage-returns', 'model M\r\nclass A {\r\n  x: str\r\n  y str\r\n}\r\n',
     4, 5, "unexpected 'str'", ("':'",)),
    ('lone-carriage-return', 'model M\rclass {',
     1, 15, "unexpected '{'", ('class name',)),
    ('comment-before-error', '# header\nmodel M # trailing\nclass A { # open\n  x: # no type\n}\n',
     5, 1, "unexpected '}'", ('type name',)),
    ('eof-trailing-newline', 'model M\nclass A {\n',
     3, 1, 'unexpected end of input', ('property name',)),
    ('eof-no-trailing-newline', 'model M\nclass A {',
     2, 10, 'unexpected end of input', ('property name',)),
    ('eof-after-comment', 'model M\nclass A { # open',
     2, 11, 'unexpected end of input', ('property name',)),
    ('empty-input', '',
     1, 1, 'unexpected end of input', ("'model'",)),
    ('bad-character', 'model M\nclass A {\n  x: str;\n}\n',
     3, 9, "unexpected character ';'", ()),
    ('single-dot', 'model M\nclass A {}\nassociation R {\n a: A [0.1]\n b: A [0..1]\n}\n',
     4, 9, "unexpected character '.'", ()),
    ('bad-token-after-range', 'model M\nclass A {}\nassociation R {\n a: A [0..x]\n b: A [0..1]\n}\n',
     4, 11, "unexpected 'x'", ('integer',)),
    ('bad-character-after-grammar-error', 'model M\nclass {\n}\n@',
     4, 1, "unexpected character '@'", ()),
    ('no-break-space', 'model M\nclass A\xa0{}\n',
     2, 8, "unexpected character '\\xa0'", ()),
    ('trailing-comma-in-enum', 'model M\nenum E { A, }\n',
     2, 13, "unexpected '}'", ('literal',)),
    ('missing-model-keyword', 'class Book {}',
     1, 1, "unexpected 'class'", ("'model'",)),
]


@pytest.mark.parametrize("source, line, column, message, expected",
                         [case[1:] for case in ERROR_POSITIONS],
                         ids=[case[0] for case in ERROR_POSITIONS])
def test_error_position_is_stable(source, line, column, message, expected):
    with pytest.raises(DslSyntaxError) as err:
        parse_pivot_text(source)
    assert (err.value.line, err.value.column, err.value.args[0], err.value.expected) == \
        (line, column, message, expected)


def test_non_ascii_digit_is_not_an_integer():
    # "²" passes str.isdigit() but int() rejects it; it scans as a name
    with pytest.raises(DslSyntaxError) as err:
        parse_pivot_text("model M\nclass A {}\nassociation R {\n a: A [²..1]\n"
                         " b: A [0..1]\n}\n")
    assert (err.value.code, err.value.line, err.value.column) == ("SYNTAX_ERROR", 4, 8)
    assert err.value.expected == ("integer",)


def test_non_ascii_name_is_invalid_model():
    with pytest.raises(InvalidModelError) as err:
        parse_pivot_text("model M\nclass Bé {}\n")
    assert err.value.code == "INVALID_MODEL"
    assert any(v.rule == "BAD_IDENTIFIER" for v in err.value.violations)


class TestPrint:
    def test_empty_model(self):
        model = parse_pivot_text("model M")
        assert print_pivot_text(model) == "model M\n"

    def test_enum_block_lists_literals_in_order(self, library_model):
        text = print_pivot_text(library_model)
        assert "enum BookStatus { AVAILABLE, LOANED, RESERVED }" in text

    def test_print_is_deterministic(self, library_model):
        assert print_pivot_text(library_model) == print_pivot_text(library_model)

    def test_invalid_model_rejected(self):
        from lcpbridge.model import Class, DomainModel

        broken = DomainModel("M", classes=(Class("A"), Class("A")))
        with pytest.raises(InvalidModelError):
            print_pivot_text(broken)

    def test_navigability_preserved_exactly(self, library_model):
        # model_equal ignores nav, so check the parsed flags directly
        reparsed = parse_pivot_text(print_pivot_text(library_model))
        for original, parsed in zip(library_model.associations, reparsed.associations):
            assert original.end1.navigable == parsed.end1.navigable
            assert original.end2.navigable == parsed.end2.navigable


class TestRoundTrip:
    def test_library_round_trip(self, library_model):
        assert model_equal(parse_pivot_text(print_pivot_text(library_model)),
                           library_model)

    def test_print_parse_print_is_stable(self, library_model):
        once = print_pivot_text(library_model)
        assert print_pivot_text(parse_pivot_text(once)) == once

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31))
    def test_round_trip_on_random_models(self, seed):
        model = random_model(random.Random(seed))
        assert model_equal(parse_pivot_text(print_pivot_text(model)), model)
