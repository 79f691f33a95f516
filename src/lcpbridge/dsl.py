"""Textual concrete syntax for the pivot model (`.bml` files).

The syntax exists so intermediate models can be inspected and hand-edited
between the import and generation legs of a migration::

    model Library

    enum Status { AVAILABLE, LOANED }

    class Book {
      title: str
      status: Status
    }

    class Ebook extends Book {}

    association BookLibrary {
      books: Book [0..*] nav
      library: Library [0..1] nav
    }

`#` starts a line comment. Parsing and printing are pure and inverse of each
other up to declaration ordering.

Well-formed text is read one declaration at a time, each with one regex
match; text the scanner cannot read goes to the token parser, whose model or
error (with line, column and expected tokens) is final.
"""

from __future__ import annotations

import functools
import re
from pathlib import Path
from typing import NamedTuple

from .errors import DslSyntaxError, MissingInputError
from .model import (
    PRIMITIVES,
    Association,
    AssociationEnd,
    Class,
    DomainModel,
    Enumeration,
    Generalization,
    Multiplicity,
    Property,
    enum_type,
    primitive_type,
    require_valid,
)

class _Token(NamedTuple):
    kind: str  # IDENT | INT | PUNCT | EOF, or BAD before the tokenizer rejects it
    text: str
    offset: int  # into the source; line and column are worked out on error


# Blanks and comments match no named group and are dropped. \d is exactly
# the digits int() accepts, and \w is str.isalnum() or "_".
_TOKEN_RE = re.compile(r"""
    (?P<PUNCT>\.\.|[{}\[\]:,*])
  | (?P<IDENT>[^\W\d]\w*)
  | (?P<INT>\d+)
  | [ \t\r\n]+ | \#[^\n]*
  | (?P<BAD>.)
""", re.VERBOSE | re.DOTALL)


def _syntax_error(source: str, message: str, offset: int,
                  expected: tuple[str, ...] = ()) -> DslSyntaxError:
    line = source.count("\n", 0, offset) + 1
    column = offset - source.rfind("\n", 0, offset)
    return DslSyntaxError(message, line, column, expected)


def _tokenize(source: str) -> list[_Token]:
    tokens = [_Token(kind, m.group(), m.start())
              for m in _TOKEN_RE.finditer(source) if (kind := m.lastgroup)]
    for tok in tokens:
        if tok.kind == "BAD":
            raise _syntax_error(source, f"unexpected character {tok.text!r}", tok.offset)
    # a comment on the last line is skipped without moving the end of input,
    # so a truncated file is reported where its code stops
    last_line = source.rfind("\n") + 1
    comment = source.find("#", last_line)
    eof = _Token("EOF", "", len(source) if comment < 0 else comment)
    tokens += [eof, eof]  # so that peek(1) never indexes past the end
    return tokens


class _Parser:
    """Recursive descent over the token stream; keywords are contextual."""

    def __init__(self, source: str):
        self.source = source
        self.tokens = _tokenize(source)
        self.pos = 0

    def peek(self, ahead: int = 0) -> _Token:
        return self.tokens[self.pos + ahead]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def fail(self, expected: tuple[str, ...]):
        tok = self.peek()
        got = "end of input" if tok.kind == "EOF" else repr(tok.text)
        raise _syntax_error(self.source, f"unexpected {got}", tok.offset, expected)

    def expect_word(self, word: str) -> _Token:
        tok = self.peek()
        if tok.kind == "IDENT" and tok.text == word:
            return self.advance()
        self.fail((repr(word),))

    def expect_punct(self, text: str) -> _Token:
        tok = self.peek()
        if tok.kind == "PUNCT" and tok.text == text:
            return self.advance()
        self.fail((repr(text),))

    def expect_ident(self, what: str) -> str:
        tok = self.peek()
        if tok.kind == "IDENT":
            return self.advance().text
        self.fail((what,))

    def expect_int(self) -> int:
        tok = self.peek()
        if tok.kind == "INT":
            return int(self.advance().text)
        self.fail(("integer",))

    # grammar -------------------------------------------------------------

    def model(self) -> DomainModel:
        self.expect_word("model")
        name = self.expect_ident("model name")
        classes: list[Class] = []
        associations: list[Association] = []
        generalizations: list[Generalization] = []
        enumerations: list[Enumeration] = []
        while self.peek().kind != "EOF":
            tok = self.peek()
            if tok.kind != "IDENT":
                self.fail(("'enum'", "'class'", "'association'"))
            if tok.text == "enum":
                enumerations.append(self.enum_decl())
            elif tok.text == "class":
                cls, gen = self.class_decl()
                classes.append(cls)
                if gen is not None:
                    generalizations.append(gen)
            elif tok.text == "association":
                associations.append(self.assoc_decl())
            else:
                self.fail(("'enum'", "'class'", "'association'"))
        return DomainModel(
            name=name,
            classes=tuple(classes),
            associations=tuple(associations),
            generalizations=tuple(generalizations),
            enumerations=tuple(enumerations),
        )

    def enum_decl(self) -> Enumeration:
        self.expect_word("enum")
        name = self.expect_ident("enumeration name")
        self.expect_punct("{")
        literals = [self.expect_ident("literal")]
        while self.peek().text == ",":
            self.advance()
            literals.append(self.expect_ident("literal"))
        self.expect_punct("}")
        return Enumeration(name=name, literals=tuple(literals))

    def class_decl(self) -> tuple[Class, Generalization | None]:
        self.expect_word("class")
        name = self.expect_ident("class name")
        gen = None
        if self.peek().kind == "IDENT" and self.peek().text == "extends":
            self.advance()
            parent = self.expect_ident("parent class name")
            gen = Generalization(general=parent, specific=name)
        self.expect_punct("{")
        props: list[Property] = []
        while not (self.peek().kind == "PUNCT" and self.peek().text == "}"):
            props.append(self.prop())
        self.expect_punct("}")
        return Class(name=name, properties=tuple(props)), gen

    def prop(self) -> Property:
        name = self.expect_ident("property name")
        self.expect_punct(":")
        type_name = self.expect_ident("type name")
        if type_name in PRIMITIVES:
            type_ref = primitive_type(type_name)
        else:
            type_ref = enum_type(type_name)
        is_id = False
        # `id` is a flag only when it does not begin the next property
        if (self.peek().kind == "IDENT" and self.peek().text == "id"
                and self.peek(1).text != ":"):
            self.advance()
            is_id = True
        return Property(name=name, type=type_ref, is_id=is_id)

    def assoc_decl(self) -> Association:
        self.expect_word("association")
        name = self.expect_ident("association name")
        self.expect_punct("{")
        end1 = self.end()
        end2 = self.end()
        self.expect_punct("}")
        return Association(name=name, end1=end1, end2=end2)

    def end(self) -> AssociationEnd:
        role = self.expect_ident("role name")
        self.expect_punct(":")
        class_name = self.expect_ident("class name")
        self.expect_punct("[")
        lower = self.expect_int()
        self.expect_punct("..")
        if self.peek().text == "*":
            self.advance()
            upper = None
        else:
            upper = self.expect_int()
        self.expect_punct("]")
        navigable = False
        # like `id`, `nav` is a flag only when it does not begin the next end
        if (self.peek().kind == "IDENT" and self.peek().text == "nav"
                and self.peek(1).text != ":"):
            self.advance()
            navigable = True
        return AssociationEnd(role=role, class_name=class_name,
                              multiplicity=Multiplicity(lower, upper), navigable=navigable)


_KEYWORDS = {"c": "class", "a": "association", "e": "enum"}  # by first character


@functools.cache
def _declaration_patterns() -> dict[str, re.Pattern]:
    """The scanner's regexes, compiled on first parse rather than at import.

    Between tokens they skip exactly what ``_tokenize`` skips (``s``). Every
    quantifier is possessive, so nothing is read twice: a name (``n``) or an
    integer ends where ``_tokenize`` ends it, and a keyword may not run on
    into a name. ``id`` and ``nav`` are flags where ``_Parser`` takes them as
    flags, that is when no ``:`` follows.
    """
    parts = {"s": r"(?:[ \t\r\n]++|\#[^\n]*+)*+", "n": r"[^\W\d]\w*+"}
    parts["end"] = r"""(%(n)s) %(s)s : %(s)s (%(n)s) %(s)s
        \[ %(s)s (\d++) %(s)s \.\. %(s)s (\d++|\*) %(s)s \] (?: %(s)s (nav)(?!\w)(?! %(s)s :) )?+""" % parts
    patterns = {
        "model": r"%(s)s model(?!\w) %(s)s (%(n)s) %(s)s",
        # group 2 holds the literals, read by "literal"
        "enum": r"""enum(?!\w) %(s)s (%(n)s) %(s)s
            \{ %(s)s (%(n)s %(s)s (?: , %(s)s %(n)s %(s)s )*+) \} %(s)s""",
        "literal": r"(%(n)s) %(s)s (?: , %(s)s )?+",
        # group 3 holds the properties, read by "property"
        "class": r"""class(?!\w) %(s)s (%(n)s) (?: %(s)s extends(?!\w) %(s)s (%(n)s) )?+ %(s)s
            \{ %(s)s ( (?: %(n)s %(s)s : %(s)s %(n)s (?: %(s)s id(?!\w)(?! %(s)s :) )?+ %(s)s )*+ )
            \} %(s)s""",
        "property": r"(%(n)s) %(s)s : %(s)s (%(n)s) (?: %(s)s (id)(?!\w)(?! %(s)s :) )?+ %(s)s",
        "association": r"""association(?!\w) %(s)s (%(n)s) %(s)s
            \{ %(s)s %(end)s %(s)s %(end)s %(s)s \} %(s)s""",
    }
    return {key: re.compile(pattern % parts, re.VERBOSE) for key, pattern in patterns.items()}


def _scan(source: str) -> DomainModel | None:
    """The model of well-formed ``source``, or None where ``_Parser`` must
    read it. Each declaration is one ``match`` at its first character."""
    patterns = _declaration_patterns()
    found = patterns["model"].match(source)
    if found is None:
        return None
    name, pos = found.group(1), found.end()
    classes: list[Class] = []
    associations: list[Association] = []
    generalizations: list[Generalization] = []
    enumerations: list[Enumeration] = []
    types = {primitive: primitive_type(primitive) for primitive in PRIMITIVES}
    multiplicities: dict[tuple[str, str], Multiplicity] = {}

    def multiplicity(lower: str, upper: str) -> Multiplicity:
        shared = multiplicities.get((lower, upper))
        if shared is None:
            shared = multiplicities[lower, upper] = \
                Multiplicity(int(lower), None if upper == "*" else int(upper))
        return shared

    while pos < len(source):
        keyword = _KEYWORDS.get(source[pos])
        found = keyword and patterns[keyword].match(source, pos)
        if not found:
            return None
        pos = found.end()
        if keyword == "class":
            props = []
            for prop_name, type_name, flag in patterns["property"].findall(
                    source, found.start(3), found.end(3)):
                type_ref = types.get(type_name) or types.setdefault(type_name, enum_type(type_name))
                props.append(Property(prop_name, type_ref, flag == "id"))
            classes.append(Class(found.group(1), tuple(props)))
            if found.group(2) is not None:
                generalizations.append(Generalization(found.group(2), found.group(1)))
        elif keyword == "association":
            role1, class1, low1, up1, nav1, role2, class2, low2, up2, nav2 = found.groups()[1:]
            associations.append(Association(
                found.group(1),
                AssociationEnd(role1, class1, multiplicity(low1, up1), nav1 is not None),
                AssociationEnd(role2, class2, multiplicity(low2, up2), nav2 is not None)))
        else:
            literals = patterns["literal"].findall(source, found.start(2), found.end(2))
            enumerations.append(Enumeration(found.group(1), tuple(literals)))
    return DomainModel(name, tuple(classes), tuple(associations),
                       tuple(generalizations), tuple(enumerations))


def parse_pivot_text(source: str) -> DomainModel:
    """Parse pivot DSL text into a validated model.

    Raises DslSyntaxError with line/column on grammar problems and
    InvalidModelError when the parsed model breaks a metamodel invariant.
    """
    model = _scan(source)
    if model is None:
        model = _Parser(source).model()
    return require_valid(model, "parsed pivot text")


def print_pivot_text(model: DomainModel) -> str:
    """Render a valid model back to DSL text; inverse of parse_pivot_text."""
    require_valid(model, "model to print")
    out = [f"model {model.name}"]

    if model.enumerations:
        out.append("")
        for enum in model.enumerations:
            out.append(f"enum {enum.name} {{ {', '.join(enum.literals)} }}")

    parents = {g.specific: g.general for g in model.generalizations}
    for cls in model.classes:
        out.append("")
        head = f"class {cls.name}"
        if cls.name in parents:
            head += f" extends {parents[cls.name]}"
        if not cls.properties:
            out.append(head + " {}")
            continue
        out.append(head + " {")
        for prop in cls.properties:
            line = f"  {prop.name}: {prop.type.display()}"
            if prop.is_id:
                line += " id"
            out.append(line)
        out.append("}")

    for assoc in model.associations:
        out.append("")
        out.append(f"association {assoc.name} {{")
        for end in assoc.ends:
            line = f"  {end.role}: {end.class_name} [{end.multiplicity.display()}]"
            if end.navigable:
                line += " nav"
            out.append(line)
        out.append("}")

    return "\n".join(out) + "\n"


def load_pivot_file(path) -> DomainModel:
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise MissingInputError(f"cannot read {path}: {exc.strerror or exc}") from exc
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        column = exc.start - data.rfind(b"\n", 0, exc.start)
        raise DslSyntaxError(f"{path} is not UTF-8 text", line, column) from exc
    # newlines as text mode reads them: \r\n and a lone \r become \n
    return parse_pivot_text(text.replace("\r\n", "\n").replace("\r", "\n"))


def save_pivot_file(model: DomainModel, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(print_pivot_text(model))
