"""Pivot DSL parser and printer, including the round-trip law."""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lcpbridge.dsl import _scan, load_pivot_file, parse_pivot_text, print_pivot_text
from lcpbridge.errors import DslSyntaxError, InvalidModelError, LcpBridgeError
from lcpbridge.llm import merge_models
from lcpbridge.mendix import mendix_to_pivot, parse_mendix_export
from lcpbridge.model import (
    Association,
    AssociationEnd,
    Class,
    DomainModel,
    Enumeration,
    Generalization,
    Property,
    enum_type,
    model_equal,
    require_valid,
)
from lcpbridge.plantuml import emit_plantuml, parse_plantuml

from expected import _Parser, _tokenize, class_named, property_names
from generators import (
    adversarial_name,
    fresh_name,
    random_mendix_export,
    random_merge_pair,
    random_model,
)

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
        book = class_named(model, "Book")
        assert property_names(book) == ("title", "pages", "status", "published")
        assert class_named(model, "Library").properties[0].is_id

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
        cls = class_named(model, "A")
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
        text = print_pivot_text(model)
        parsed = parse_pivot_text(text)
        assert model_equal(parsed, model)
        assert print_pivot_text(parsed) == text


class TestImportedModelsRoundTripExactly:
    """An importer's model is the model its ``model.bml`` parses back to, by
    dataclass ``==`` and so in declaration order too: a review that leaves the
    file as written can keep the model instead of parsing the file again."""

    @staticmethod
    def assert_exact(model: DomainModel) -> None:
        assert parse_pivot_text(print_pivot_text(model)) == model

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**31))
    def test_mendix_import(self, seed):
        export = parse_mendix_export(random_mendix_export(random.Random(seed)))
        self.assert_exact(mendix_to_pivot(export)[0])

    @pytest.mark.parametrize("names", [fresh_name, adversarial_name], ids=["plain", "adversarial"])
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**31))
    def test_plantuml_import(self, names, seed):
        text = emit_plantuml(random_model(random.Random(seed), names=names))
        try:
            model = parse_plantuml(text).model
        except LcpBridgeError:
            assume(False)  # only what parses is imported
        self.assert_exact(model)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**31))
    def test_merge(self, seed):
        self.assert_exact(merge_models(*random_merge_pair(random.Random(seed)))[0])


# ---------------------------------------------------------------------------
# The declaration scanner and the error reporter against the token parser

KEYWORDS = ("id", "nav", "class", "extends", "model", "enum", "association")


def keyword_named(model: DomainModel, rng: random.Random) -> DomainModel:
    """``model`` with some of its elements renamed to words of the syntax;
    the result is still valid."""
    words = iter(rng.sample(KEYWORDS, len(KEYWORDS)))
    global_names = [c.name for c in model.classes] + [e.name for e in model.enumerations]
    renamed = {name: next(words, name) for name in global_names if rng.random() < 0.3}

    def rename(name: str) -> str:
        return renamed.get(name, name)

    def word_or(name: str) -> str:
        return rng.choice(KEYWORDS) if rng.random() < 0.3 else name

    def props(cls: Class) -> tuple[Property, ...]:
        free = set(KEYWORDS)  # each word names at most one property of a class
        out = []
        for prop in cls.properties:
            name = prop.name
            if free and rng.random() < 0.3:
                name = rng.choice(sorted(free))
                free.discard(name)
            type_ref = prop.type if prop.type.kind == "primitive" \
                else enum_type(rename(prop.type.enum_name))
            out.append(Property(name, type_ref, prop.is_id))
        return tuple(out)

    def ends(assoc: Association) -> tuple[AssociationEnd, AssociationEnd]:
        role1, role2 = word_or(assoc.end1.role), word_or(assoc.end2.role)
        if role1 == role2:
            role2 = assoc.end2.role
        return tuple(AssociationEnd(role, rename(end.class_name), end.multiplicity, end.navigable)
                     for role, end in ((role1, assoc.end1), (role2, assoc.end2)))

    def literals(enum: Enumeration) -> tuple[str, ...]:
        first, *rest = enum.literals
        return (word_or(first), *rest)

    return require_valid(DomainModel(
        word_or(model.name),
        tuple(Class(rename(c.name), props(c)) for c in model.classes),
        tuple(Association(word_or(a.name), *ends(a)) for a in model.associations),
        tuple(Generalization(rename(g.general), rename(g.specific))
              for g in model.generalizations),
        tuple(Enumeration(rename(e.name), literals(e)) for e in model.enumerations)))


# What _tokenize skips; every comment ends in a newline, since a lone \r
# does not end one. The comments hold declarations the scanner must not read.
SEPARATORS = (" ", "  ", "\t", "\n", "\r", "\r\n", "\n\n", "# note\n", "#\n",
              "# x: str id\n", "#} class Z { y: int }\n", "# nav: A [0..1]\n",
              "# a\r b: int\n")
# tokens a mutation inserts or substitutes
TOKEN_MENU = KEYWORDS + ("str", "Name", "x2", "0", "1", "12",
                         "{", "}", "[", "]", ":", ",", "*", "..", "@", ".", "\xa0")


def token_texts(text: str) -> list[str]:
    return [tok.text for tok in _tokenize(text) if tok.kind != "EOF"]


def is_word(token: str) -> bool:
    return token[:1].isalnum() or token[:1] == "_"


def respaced(tokens: list[str], rng: random.Random) -> str:
    """The tokens joined by random runs of blanks and comments; two words or
    numbers in a row get at least one separator, so they stay two tokens."""
    out = [rng.choice(SEPARATORS) for _ in range(rng.randint(0, 2))]
    previous = ""
    for token in tokens:
        runs = rng.choice((0, 0, 1, 1, 2, 3))
        if is_word(previous[-1:]) and is_word(token):
            runs = max(runs, 1)
        out.extend(rng.choice(SEPARATORS) for _ in range(runs))
        out.append(token)
        previous = token
    out.extend(rng.choice(SEPARATORS) for _ in range(rng.randint(0, 2)))
    return "".join(out)


def outcome(parse, text: str):
    """What ``parse`` makes of ``text``: a model, or the error's kind and
    every detail it reports."""
    try:
        return parse(text)
    except LcpBridgeError as exc:
        return (type(exc), exc.args, exc.details, getattr(exc, "violations", None))


def reference_parse(text: str) -> DomainModel:
    return require_valid(_Parser(text).model(), "parsed pivot text")


def mutants(tokens: list[str], rng: random.Random) -> list[list[str]]:
    """One single-token deletion, insertion and substitution of ``tokens``,
    and two neighbouring words run together into one (``Aextends``)."""
    at = rng.randrange(len(tokens))
    out = [tokens[:at] + tokens[at + 1:],
           tokens[:at] + [rng.choice(TOKEN_MENU)] + tokens[at:],
           tokens[:at] + [rng.choice(TOKEN_MENU)] + tokens[at + 1:]]
    pairs = [k for k in range(len(tokens) - 1) if is_word(tokens[k]) and is_word(tokens[k + 1])]
    if pairs:
        k = rng.choice(pairs)
        out.append(tokens[:k] + [tokens[k] + tokens[k + 1]] + tokens[k + 2:])
    return out


@settings(max_examples=500, deadline=None)
@given(st.integers(0, 2**31))
def test_scanner_reads_what_the_token_parser_reads(seed):
    rng = random.Random(seed)
    model = keyword_named(random_model(rng), rng)
    printed = print_pivot_text(model)
    tokens = token_texts(printed)
    text = respaced(tokens, rng)
    scanned = _scan(text)
    assert scanned is not None, "the fast path was not taken"
    assert scanned == _Parser(text).model()
    assert print_pivot_text(scanned) == printed
    for mutant in mutants(tokens, rng):
        text = respaced(mutant, rng)
        assert outcome(parse_pivot_text, text) == outcome(reference_parse, text)


@pytest.mark.parametrize("source", [
    "model M\nclass A {\n  x: str\n  id: int\n}\n",
    "model M\nclass A {\n  x: str id\n  id: int id\n}\n",
    "model M\nclass A {}\nassociation R {\n  a: A [0..1]\n  nav: A [0..*] nav\n}\n",
    "model M\nclass A {}\nassociation R {\n  a: A [0..1] nav\n  nav: A [0..*]\n}\n",
    "model model\nclass class extends extends {\n  model: int\n}\nclass extends {}\n",
    "model M\nclass A { # x: int\n}\nenum E { A, # B,\n C }\n",
])
def test_scanner_takes_flags_where_the_parser_does(source):
    assert _scan(source) is not None
    assert _scan(source) == _Parser(source).model()


def test_role_named_nav_round_trips():
    # the first end is not navigable, so `nav` begins the second end's line
    model = parse_pivot_text("model M\nclass A {}\nassociation R {\n"
                             "  a: A [0..1]\n  nav: A [0..*]\n}\n")
    end1, end2 = model.associations[0].ends
    assert (end1.navigable, end2.role, end2.navigable) == (False, "nav", False)
    assert parse_pivot_text(print_pivot_text(model)) == model


# ---------------------------------------------------------------------------
# Fuzzing: any text, any bytes

# words, punctuation and blanks of the grammar, and characters it rejects;
# "²" is a digit to str.isdigit() but not to int()
SOUP_PIECES = KEYWORDS + ("str", "A", "x", "0", "12", "{", "}", "[", "]", ":", ",", "*", "..",
                          ".", " ", "\n", "\t", "\r", "#", "@", "\xa0", "²")
token_soup = st.lists(st.sampled_from(SOUP_PIECES), max_size=40).map("".join)


@settings(max_examples=400, deadline=None)
@given(st.one_of(
    st.tuples(st.sampled_from(("", "model M\nclass A {")), token_soup).map("".join),
    st.text()))
def test_any_text_parses_as_the_token_parser_reads_it(text):
    assert outcome(parse_pivot_text, text) == outcome(reference_parse, text)


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.binary(), token_soup.map(str.encode)))
def test_any_bytes_load_or_fail_with_a_coded_error(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz.bml"
    path.write_bytes(data)
    try:
        load_pivot_file(path)
    except LcpBridgeError:
        pass
