"""Fuzzing of the parsers the DSL and XLSX fuzz tests do not reach: PlantUML
text, Mendix JSON, ``lcpbridge.toml`` and the capability registry. Only an
``LcpBridgeError`` may escape a parser, and the CLI answers whatever it is
given with exit 0 or with a coded error and exit 1, never a traceback."""

from __future__ import annotations

import contextlib
import io
import json
import re
import tomllib
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from lcpbridge.capabilities import FORMAT_TOKENS, LEVELS, _plain_toml, load_capabilities
from lcpbridge.cli import main
from lcpbridge.errors import LcpBridgeError
from lcpbridge.mendix import (
    ASSOCIATION_FIELDS,
    ATTRIBUTE_FIELDS,
    DOMAIN_MODEL_FIELDS,
    ENTITY_FIELDS,
    ENUMERATION_FIELDS,
    mendix_to_pivot,
    parse_mendix_export,
)
from lcpbridge.plantuml import parse_plantuml

LIBRARY_EXPORT = Path(__file__).parent / "data" / "mendix_library.json"
DEEP = 5000  # past the interpreter's recursion limit


def cli(*argv) -> tuple[int, str]:
    """Run the CLI; returns the exit code and stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([str(arg) for arg in argv])
    return code, err.getvalue()


def assert_exit_0_or_coded(code: int, err: str) -> None:
    assert code in (0, 1), err
    if code == 1:
        assert err.startswith("error ["), err


def scratch(tmp_path_factory, name: str) -> Path:
    return tmp_path_factory.getbasetemp() / name


# ---------------------------------------------------------------------------
# PlantUML

PLANTUML_TOKENS = (
    "@startuml", "@enduml", "class", "abstract class", "enum", "{", "}", "as",
    "Book", "Author", "Person", '"Sales Order"', "x.y", "__", "9lives", "Class", "note",
    "title", "end note", "<|--", "--|>", "--", "-->", "<--", "o--", "*--", "..>",
    '"0..*"', '"1"', '"*"', '"1..1"', '"2..1"', '"x..y"', '"-1"', '""', ":",
    "title : str", "name : String", "pages : Integer", "when : timestamp",
    "kind : Color", "<<id>>", "<<PK>>", "+", "#", "'", "!", "RED", "GREEN,", "()",
)
plantuml_soup = st.lists(
    st.tuples(st.sampled_from(PLANTUML_TOKENS), st.sampled_from((" ", "\n", "", "\t"))),
    max_size=40,
).map(lambda parts: "@startuml\n" + "".join(t + sep for t, sep in parts) + "\n@enduml\n")


@settings(max_examples=200, deadline=None)
@given(st.one_of(plantuml_soup, plantuml_soup, st.text(max_size=60),
                 st.binary(max_size=60).map(lambda b: b.decode("latin-1"))))
@example("@startuml\nclass Book {\n title : str\n title : int\n}\n@enduml\n")
@example('@startuml\nA "2..1" -- "1" B\n@enduml\n')
@example("@startuml\nA <|-- B\nB <|-- A\n@enduml\n")
def test_plantuml_text(tmp_path_factory, text):
    try:
        parse_plantuml(text)
    except LcpBridgeError:
        pass
    source = scratch(tmp_path_factory, "fuzz.puml")
    source.write_text(text, encoding="utf-8")
    assert_exit_0_or_coded(*cli("import", "plantuml", "--input", source,
                                "--out", scratch(tmp_path_factory, "puml-out")))


# ---------------------------------------------------------------------------
# Mendix JSON

MENDIX_KEYS = sorted(DOMAIN_MODEL_FIELDS | ENTITY_FIELDS | ATTRIBUTE_FIELDS
                     | ASSOCIATION_FIELDS | ENUMERATION_FIELDS | {"domainModel"})
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=6)
    | st.sampled_from(("String", "Integer", "Enumeration", "Reference", "ReferenceSet",
                       "Both", "Library", "Book", "BookStatus", "")),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(MENDIX_KEYS) | st.text(max_size=4), inner, max_size=4),
    max_leaves=12)


def edit_somewhere(draw, document, values):
    """``document`` with one key or item at a random depth deleted or given a
    value drawn from ``values``."""
    node = document
    while True:
        key = draw(st.sampled_from(sorted(node)) if isinstance(node, dict)
                   else st.integers(0, len(node) - 1))
        child = node[key]
        if not child or not isinstance(child, (dict, list)) or draw(st.booleans()):
            if draw(st.integers(0, 2)) == 0:
                del node[key]
            else:
                node[key] = draw(values)
            return document
        node = child


@st.composite
def edited_library_export(draw):
    document = json.loads(LIBRARY_EXPORT.read_text(encoding="utf-8"))
    return edit_somewhere(draw, document, json_values)


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    edited_library_export().map(json.dumps), edited_library_export().map(json.dumps),
    json_values.map(lambda v: json.dumps({"domainModel": v})),
    json_values.map(json.dumps),
    st.text(max_size=40)))
@example("[" * DEEP + "]" * DEEP)
@example('{"domainModel": ' + '{"a": ' * DEEP + "1" + "}" * DEEP + "}")
def test_mendix_json(tmp_path_factory, text):
    try:
        mendix_to_pivot(parse_mendix_export(text))
    except LcpBridgeError:
        pass
    source = scratch(tmp_path_factory, "fuzz.json")
    source.write_text(text, encoding="utf-8")
    assert_exit_0_or_coded(*cli("import", "mendix-json", "--input", source,
                                "--out", scratch(tmp_path_factory, "mendix-out")))


@given(st.binary(max_size=40))
@example(b"\x80")
@example(b'{"domainModel": "\xff"}')
def test_mendix_bytes(data):
    try:
        parse_mendix_export(data)
    except LcpBridgeError:
        pass


# ---------------------------------------------------------------------------
# TOML: lcpbridge.toml and the capability registry


def toml_string(text: str) -> str:
    return '"' + "".join(f"\\u{ord(c):04x}" if c in '"\\' or c < " " or c == "\x7f" else c
                         for c in text) + '"'


def toml_value(value) -> str:
    """``value`` as a TOML value; tables and arrays are written inline."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return repr(value)
    if isinstance(value, str):
        return toml_string(value)
    if isinstance(value, list):
        return "[" + ", ".join(map(toml_value, value)) + "]"
    return "{" + ", ".join(f"{toml_string(k)} = {toml_value(v)}" for k, v in value.items()) + "}"


def toml_document(tables: dict) -> str:
    return "".join(f"{toml_string(key)} = {toml_value(value)}\n"
                   for key, value in tables.items())


def toml_key(key: str) -> str:
    return key if re.fullmatch(r"[A-Za-z0-9_-]+", key) else toml_string(key)


def toml_tables(tables: dict, path: str = "") -> str:
    """``tables`` with a header line, under a blank line and a comment, for
    each table below the top; every other value is written as
    ``toml_value`` writes it, before the table's subtables."""
    lines = [f"{toml_key(key)} = {toml_value(value)}  # a value\n"
             for key, value in tables.items() if not isinstance(value, dict)]
    for key, value in tables.items():
        if isinstance(value, dict):
            header = f"{path}.{toml_key(key)}" if path else toml_key(key)
            lines.append(f"\n# a table\n[{header}]\n{toml_tables(value, header)}")
    return "".join(lines)


toml_values = st.recursive(
    st.text(max_size=6) | st.booleans() | st.integers(-2**63, 2**63 - 1) | st.floats(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                  max_size=3),
    max_leaves=8)
NESTED_TOO_DEEP = b"a = " + b"[" * DEEP + b"]" * DEEP + b"\n"
# past the interpreter's limit on the digits of an int read from text
TOO_MANY_DIGITS = b"a = " + b"1" * 5000 + b"\n"

llm_sections = st.fixed_dictionaries({}, optional={
    "mode": st.sampled_from(("replay", "live", "other")) | toml_values,
    "replay_dir": st.sampled_from(("", ".", "no-such-dir")) | toml_values,
    "endpoint": st.just("http://localhost:9/v1") | toml_values,
    "model": st.just("m") | toml_values,
    "api_key": st.just("k") | toml_values,
    "extra": toml_values,
})
configs = st.fixed_dictionaries({}, optional={"llm": llm_sections | toml_values,
                                              "other": toml_values})


@settings(max_examples=200, deadline=None)
@given(st.one_of(configs.map(toml_document).map(str.encode), st.binary(max_size=40)))
@example(b'llm = "x"\n')
@example(b"[llm]\nreplay_dir = 3\n")
@example(NESTED_TOO_DEEP)
def test_config_file(tmp_path_factory, data):
    # with no screenshot, the image import stops before any request is sent
    config = scratch(tmp_path_factory, "lcpbridge.toml")
    config.write_bytes(data)
    code, err = cli("import", "image-llm", "--config", config,
                    "--out", scratch(tmp_path_factory, "image-out"))
    assert code == 1
    assert err.startswith(("error [CONFIG_ERROR]", "error [MISSING_INPUT]")), err


PLATFORMS = ("mendix", "apex", "p")
registry_sections = st.fixed_dictionaries({}, optional={
    "data": st.sampled_from(LEVELS), "gui": st.sampled_from(LEVELS),
    "behavior": st.sampled_from(LEVELS), "third_party": st.booleans(),
    "formats": st.lists(st.sampled_from(FORMAT_TOKENS), max_size=3, unique=True),
})


def registries_named(display_names) -> st.SearchStrategy:
    return st.dictionaries(
        st.sampled_from(PLATFORMS),
        st.fixed_dictionaries({"export": registry_sections, "import": registry_sections},
                              optional={"display": display_names}),
        max_size=3)


valid_registries = registries_named(st.text(max_size=6))


@st.composite
def registries(draw):
    """A registry that loads, or one with a single key deleted or mistyped."""
    registry = draw(valid_registries)
    if registry and draw(st.booleans()):
        edit_somewhere(draw, registry, toml_values)
    return registry


@settings(max_examples=200, deadline=None)
@given(st.one_of(registries().map(toml_document).map(str.encode), st.binary(max_size=40)),
       st.sampled_from(PLATFORMS), st.sampled_from(PLATFORMS))
@example(b'[p]\nexport = "x"\n[p.import]\n', "p", "p")
@example(b'[p.export]\ndata = "full"\nformats = "SQL"\n[p.import]\n', "p", "p")
@example(b'[p.export]\nthird_party = "no"\n[p.import]\n', "p", "p")
@example(NESTED_TOO_DEEP, "p", "p")
@example(TOO_MANY_DIGITS, "p", "p")
def test_capability_registry(tmp_path_factory, data, source, target):
    registry = scratch(tmp_path_factory, "caps.toml")
    registry.write_bytes(data)
    try:
        load_capabilities(registry)
    except LcpBridgeError:
        pass
    for argv in (("capabilities",), ("plan", "--from", source, "--to", target)):
        assert_exit_0_or_coded(*cli(*argv, "--capabilities", registry))


# Files that are plain TOML but for one thing each, so tomllib reads them
NOT_PLAIN = {
    "repeated table": '[a]\nb = "x"\n[a]\n',
    "repeated key": 'a = "x"\na = "y"\n',
    "key and table": 'a = "x"\n[a]\n',
    "table after its subtable": '[a.b]\nc = true\n[a]\n',
    "escaped string": 'a = "\\u0041"\n',
    "multi-line array": 'a = [\n  "x",\n]\n',
}
# Lines of plain TOML, drawn three times as often as near misses, for
# documents that define keys and tables again and in every order
PLAIN_LINES = ("", "# c", "[a]", "[a.b]", "[b]", "[a.b.c]", " [a] # c", 'a = "x"', 'b = "y z"',
               "c = true", "a = false", 'b = ["x", "y",]', "c = [ ]", 'b = "x" # c',
               "\tc\t=\t[\t]\t")
NEAR_MISSES = ("[ a ]", "[[a]]", "a = [,]", 'c = "\\"', "a = 1", "b = truex", '"a" = "x"',
               "a.b = true", 'a = "\t"', 'a = "\u00e9"', "c = 'x'", "[a]\r")
toml_soup = st.lists(st.sampled_from(PLAIN_LINES) | st.sampled_from(PLAIN_LINES)
                     | st.sampled_from(PLAIN_LINES) | st.sampled_from(NEAR_MISSES),
                     max_size=12).map("\n".join)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.tuples(configs | registries(), st.sampled_from((toml_document, toml_tables)))
                 .map(lambda drawn: drawn[1](drawn[0])), toml_soup))
@example(NOT_PLAIN["repeated table"])
@example(NOT_PLAIN["repeated key"])
@example(NOT_PLAIN["key and table"])
@example(NOT_PLAIN["table after its subtable"])
@example(NOT_PLAIN["escaped string"])
@example(NOT_PLAIN["multi-line array"])
def test_plain_reader_agrees_with_tomllib(text):
    """The plain-TOML reader reads a file as tomllib does, or leaves it to
    tomllib; it reads no file that tomllib refuses."""
    plain = _plain_toml(text)
    try:
        parsed = tomllib.loads(text)
    except tomllib.TOMLDecodeError:
        assert plain is None
    else:
        assert plain is None or repr(plain) == repr(parsed)
    if text in NOT_PLAIN.values():
        assert plain is None


# display names that a TOML basic string holds without an escape
PLAIN_TEXT = st.text(st.characters(min_codepoint=32, max_codepoint=126,
                                   blacklist_characters='"\\'), max_size=6)


@settings(max_examples=100, deadline=None)
@given(registries_named(PLAIN_TEXT))
def test_plain_reader_reads_every_registry_in_tables(registry):
    text = toml_tables(registry)
    assert _plain_toml(text) == registry == tomllib.loads(text)
