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
other. A class head names the class's parent, so a parse lists generalizations
in the order of their specific classes; every importer builds its model in
that order too, and so the printed text of an imported model parses back to
an equal model (record ``==``). Any other model comes back equal up to the
order of its generalizations.

Well-formed text is read one declaration at a time, each with one regex
match. Text the scanner cannot read is malformed: it is walked once more,
token by token against the grammar, to report its first error with line,
column and expected tokens; no second model is built.
"""

from __future__ import annotations

import functools
import re
from typing import NoReturn

from .errors import DslSyntaxError, input_file
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


_KEYWORDS = {"c": "class", "a": "association", "e": "enum"}  # by first character


@functools.cache
def _declaration_patterns() -> dict[str, re.Pattern]:
    """The scanner's regexes, compiled on first parse rather than at import.

    Between tokens they skip exactly what ``_TOKEN_RE`` skips (``s``). Every
    quantifier is possessive, so nothing is read twice: a name (``n``) or an
    integer ends where ``_TOKEN_RE`` ends it, and a keyword may not run on
    into a name. ``id`` and ``nav`` are flags only when no ``:`` follows, as
    in ``_raise_syntax_error``.
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
    """The model of well-formed ``source``, or None if it is malformed.
    Each declaration is one ``match`` at its first character."""
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


def _raise_syntax_error(source: str) -> NoReturn:
    """Raise the first error in ``source``, which ``_scan`` rejected: its
    first bad character, else the first token the grammar does not allow.
    Keywords are contextual, so any of them is also a name."""
    tokens = [(kind, m.group(), m.start())
              for m in _TOKEN_RE.finditer(source) if (kind := m.lastgroup)]
    for kind, text, offset in tokens:
        if kind == "BAD":
            raise _syntax_error(source, f"unexpected character {text!r}", offset)
    # a comment on the last line is skipped without moving the end of input,
    # so a truncated file is reported where its code stops
    comment = source.find("#", source.rfind("\n") + 1)
    tokens += [("EOF", "", len(source) if comment < 0 else comment)] * 2
    pos = 0

    def take(kind: str, *words: str, what: str = "") -> str:
        """Consume a ``kind`` token (one of ``words``, if any) or raise."""
        nonlocal pos
        found, text, offset = tokens[pos]
        if found != kind or words and text not in words:
            got = "end of input" if found == "EOF" else repr(text)
            expected = (what,) if what else tuple(map(repr, words))
            raise _syntax_error(source, f"unexpected {got}", offset, expected)
        pos += 1
        return text

    def flag(word: str) -> None:
        """Skip ``word`` where it is a flag: it does not begin the next item."""
        nonlocal pos
        if tokens[pos][:2] == ("IDENT", word) and tokens[pos + 1][1] != ":":
            pos += 1

    take("IDENT", "model")
    take("IDENT", what="model name")
    while tokens[pos][0] != "EOF":
        keyword = take("IDENT", "enum", "class", "association")
        if keyword == "enum":
            take("IDENT", what="enumeration name")
            take("PUNCT", "{")
            take("IDENT", what="literal")
            while tokens[pos][1] == ",":
                pos += 1
                take("IDENT", what="literal")
            take("PUNCT", "}")
        elif keyword == "class":
            take("IDENT", what="class name")
            if tokens[pos][:2] == ("IDENT", "extends"):
                pos += 1
                take("IDENT", what="parent class name")
            take("PUNCT", "{")
            while tokens[pos][:2] != ("PUNCT", "}"):
                take("IDENT", what="property name")
                take("PUNCT", ":")
                take("IDENT", what="type name")
                flag("id")
            pos += 1
        else:
            take("IDENT", what="association name")
            take("PUNCT", "{")
            for _ in range(2):
                take("IDENT", what="role name")
                take("PUNCT", ":")
                take("IDENT", what="class name")
                take("PUNCT", "[")
                take("INT", what="integer")
                take("PUNCT", "..")
                if tokens[pos][1] == "*":
                    pos += 1
                else:
                    take("INT", what="integer")
                take("PUNCT", "]")
                flag("nav")
            take("PUNCT", "}")
    raise AssertionError("the scanner rejected text that the grammar accepts")


def parse_pivot_text(source: str) -> DomainModel:
    """Parse pivot DSL text into a validated model.

    Raises DslSyntaxError with line/column on grammar problems and
    InvalidModelError when the parsed model breaks a metamodel invariant.
    """
    model = _scan(source)
    if model is None:
        _raise_syntax_error(source)
    return require_valid(model, "parsed pivot text")


def print_pivot_text(model: DomainModel) -> str:
    """Render a valid model, trusted as built, to DSL text; inverse of parse_pivot_text."""
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


def read_pivot_text(path) -> str:
    """The text of a pivot file, with newlines as text mode reads them: \\r\\n
    and a lone \\r become \\n. Raises MissingInputError if the file cannot be
    read and DslSyntaxError at the first byte that is not UTF-8."""
    with input_file(path) as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        column = exc.start - data.rfind(b"\n", 0, exc.start)
        raise DslSyntaxError(f"{path} is not UTF-8 text", line, column) from exc
    return text.replace("\r\n", "\n").replace("\r", "\n")


def load_pivot_file(path) -> DomainModel:
    return parse_pivot_text(read_pivot_text(path))


def save_pivot_file(model: DomainModel, path) -> str:
    """Write ``model`` to ``path`` and return the text written."""
    text = print_pivot_text(model)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return text
