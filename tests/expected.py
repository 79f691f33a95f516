"""What the generators must produce for a pivot model, counted from the model
alone, the checks their plans pass by construction, the DDL table order the
emitter once derived, lookups by name into the models, reports and plans
they build, the tabular type ladder a value at a time and the table builder a cell at a
time, the `.bml` token
parser that the declaration scanner and the error reporter are held to, and
the Mendix export parser that checks one field at a time, which the inline
checks of ``parse_mendix_export`` are held to, the name folds as one regex
substitution each, the loss entry as the frozen dataclass it was, and the
PlantUML generator's loss report as it was found without a parse."""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from itertools import islice, zip_longest
from typing import NamedTuple

from lcpbridge.dsl import _TOKEN_RE, _syntax_error
from lcpbridge.llm import MergeReport
from lcpbridge.errors import MendixImportError, TabularError
from lcpbridge.loss import LossItem, LossReport
from lcpbridge.mendix import (
    MendixAssociation,
    MendixAttribute,
    MendixEntity,
    MendixEnumeration,
    MendixExport,
    _check_references,
)
from lcpbridge.model import (
    PRIMITIVES,
    RESERVED_WORDS,
    Association,
    AssociationEnd,
    Class,
    DomainModel,
    Enumeration,
    Folds,
    Generalization,
    Multiplicity,
    Namespace,
    Property,
    TypeRef,
    enum_type,
    fit_name,
    primitive_type,
)
from lcpbridge.plantuml import _TYPE_TABLE, UNNAMED_MODEL, _clean
from lcpbridge.relational import MAX_NAME, RelationalSchemaPlan, TablePlan
from lcpbridge.tabular import Table, TableColumn, _temporal_kind
from lcpbridge.workbook import (
    SHEET_NAME_MAX,
    ListDropdown,
    ManifestSheet,
    SheetDropdown,
    WorkbookManifest,
)


def expected_fk_count(model: DomainModel) -> int:
    """many-to-one + one-to-one + 2 x many-to-many + generalizations."""
    return len(model.generalizations) + sum(
        2 if a.kind == "many-to-many" else 1 for a in model.associations)


def expected_table_count(model: DomainModel) -> int:
    return len(model.classes) + sum(
        1 for a in model.associations if a.kind == "many-to-many")


def expected_dropdown_count(model: DomainModel) -> int:
    """Sheet-sourced dropdowns: one per single-column association, two per bridge."""
    return sum(2 if a.kind == "many-to-many" else 1 for a in model.associations)


def plan_problems(plan: RelationalSchemaPlan) -> list[str]:
    """What ``plan_relational`` guarantees by claiming every name from a
    ``Namespace``: table names unique, column names unique per table, names
    within MAX_NAME, and each foreign key a column of its table that
    references the ``ID`` column of a planned table."""
    problems = []
    columns_of: dict[str, set[str]] = {}  # the first table of a name wins
    for table in plan.tables:
        if table.name in columns_of:
            problems.append(f"duplicate table name: {table.name}")
        columns = set()
        for column in table.columns:
            if column.name in columns:
                problems.append(f"duplicate column name: {table.name}.{column.name}")
            columns.add(column.name)
        columns_of.setdefault(table.name, columns)
        problems += [f"name past {MAX_NAME} characters: {name}"
                     for name in (table.name, *columns) if len(name) > MAX_NAME]
    for table in plan.tables:
        for fk in table.foreign_keys:
            target_columns = columns_of.get(fk.ref_table)
            if fk.column not in columns_of[table.name]:
                problems.append(f"FK {table.name}.{fk.column} is no column of its table")
            if target_columns is None:
                problems.append(f"FK {table.name}.{fk.column} references absent "
                                f"table {fk.ref_table}")
            elif "ID" not in target_columns:
                problems.append(f"FK {table.name}.{fk.column} references absent "
                                f"column {fk.ref_table}.ID")
    return problems


def reference_table_order(plan: RelationalSchemaPlan) -> list[TablePlan]:
    """The order ``emit_sql`` once worked out from a plan listed in model
    order: parents before children, junctions (no identity, composite PK)
    last. ``plan_relational`` now returns its tables in this order."""
    class_tables = [t for t in plan.tables if t.primary_key == ["ID"]]
    junction_tables = [t for t in plan.tables if t.primary_key != ["ID"]]

    parent_of = {}
    for table in class_tables:
        for fk in table.foreign_keys:
            if fk.column == "ID":
                parent_of[table.name] = fk.ref_table

    def depth(table: TablePlan) -> int:
        d = 0
        node = table.name
        while node in parent_of:
            node = parent_of[node]
            d += 1
        return d

    # sorted() is stable, so tables of equal depth keep their plan order
    return sorted(class_tables, key=depth) + junction_tables


def manifest_problems(manifest: WorkbookManifest) -> list[str]:
    """What ``plan_workbook`` guarantees by claiming every sheet name and
    header from a ``Namespace``: sheet names unique and within SHEET_NAME_MAX,
    headers unique per sheet (both compared as a spreadsheet does, ignoring
    case), one sample value per column, and every dropdown sourced from a
    class sheet or from a list of at least one option."""
    problems = []
    kind_of, names = {}, set()
    for sheet in manifest.sheets:
        if sheet.name.lower() in names:
            problems.append(f"duplicate sheet name {sheet.name!r}")
        names.add(sheet.name.lower())
        if len(sheet.name) > SHEET_NAME_MAX:
            problems.append(f"sheet name past {SHEET_NAME_MAX} characters: {sheet.name!r}")
        kind_of.setdefault(sheet.name, sheet.kind)
    for sheet in manifest.sheets:
        if sheet.sample_row is not None and len(sheet.sample_row) != len(sheet.columns):
            problems.append(f"sheet {sheet.name!r}: sample row length "
                            f"{len(sheet.sample_row)} != column count {len(sheet.columns)}")
        headers = set()
        for column in sheet.columns:
            where = f"sheet {sheet.name!r}, column {column.header!r}"
            if column.header.lower() in headers:
                problems.append(f"sheet {sheet.name!r}: duplicate header {column.header!r}")
            headers.add(column.header.lower())
            validation = column.validation
            if isinstance(validation, SheetDropdown) \
                    and kind_of.get(validation.source_sheet) != "class":
                problems.append(f"{where}: dropdown source {validation.source_sheet!r} "
                                "is no class sheet")
            elif isinstance(validation, ListDropdown) and not validation.options:
                problems.append(f"{where}: dropdown lists no option")
    return problems


def class_named(model: DomainModel, name: str) -> Class | None:
    return next((c for c in model.classes if c.name == name), None)


def enum_named(model: DomainModel, name: str) -> Enumeration | None:
    return next((e for e in model.enumerations if e.name == name), None)


def property_names(cls: Class) -> tuple[str, ...]:
    return tuple(p.name for p in cls.properties)


def with_reason(report: LossReport, reason: str) -> list[LossItem]:
    return [i for i in report.items if i.reason == reason]


def is_empty(report: MergeReport) -> bool:
    return not any(report.as_dict().values())


def table_named(plan: RelationalSchemaPlan, name: str) -> TablePlan | None:
    return next((t for t in plan.tables if t.name == name), None)


def sheet_named(manifest: WorkbookManifest, name: str) -> ManifestSheet | None:
    return next((s for s in manifest.sheets if s.name == name), None)


# ---------------------------------------------------------------------------
# The name folds with no test before their regex, and the loss entry as a
# frozen dataclass


def reference_sanitize_identifier(name: str) -> str:
    """``model.sanitize_identifier`` with every name through its regex."""
    cleaned = re.sub(r"[^A-Za-z0-9]+", "_", name).strip("_") or "Unnamed"
    if not cleaned[0].isalpha():
        cleaned = "X" + cleaned
    if cleaned.lower() in RESERVED_WORDS:
        cleaned += "_"
    return cleaned


def reference_sql_name(name: str) -> str:
    """``relational.sql_name`` with every name through the camelCase
    substitution: ``_`` before each capital after a lowercase letter or digit."""
    camel = re.sub(r"(?<=[a-z0-9])(?=[A-Z])", "_", name)
    return fit_name(camel.upper().replace("__", "_"), MAX_NAME)


@dataclass(frozen=True)
class ReferenceLossItem:
    """``loss.LossItem`` as a frozen dataclass."""

    element_kind: str
    element_name: str
    reason: str
    severity: str = "warning"
    detail: str = ""

    def as_dict(self) -> dict:
        return {
            "element_kind": self.element_kind,
            "element_name": self.element_name,
            "reason": self.reason,
            "severity": self.severity,
            "detail": self.detail,
        }


_INT_RE = re.compile(r"[+-]?\d+\Z")
_FLOAT_RE = re.compile(r"[+-]?(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?\Z")


def reference_column_type(values) -> tuple[str, bool]:
    """``tabular.infer_column_type`` one value at a time: the reference for
    the version that tests each rung against the whole column at once."""
    usable = [v for v in map(str.strip, values) if v]
    if not usable:
        return "str", True
    if all(v.lower() in ("true", "false") for v in usable):
        return "bool", False
    if all(map(_INT_RE.match, usable)):
        return "int", False
    if all(map(_FLOAT_RE.match, usable)):
        return "float", False
    if all(_temporal_kind(v) == "date" for v in usable):
        return "date", False
    if all(_temporal_kind(v) == "datetime" for v in usable):
        return "datetime", False
    return "str", False


def reference_check_headers(headers: list[str], where: str) -> None:
    """``tabular._check_headers`` as one loop over the headers: the reference
    for the version that tries one set first."""
    seen: dict[str, str] = {}
    for header in headers:
        low = header.strip().lower()
        if low in seen:
            raise TabularError(
                f"DUPLICATE_HEADER: {where} repeats column {header!r} "
                f"(clashes with {seen[low]!r})")
        seen[low] = header


def reference_table_from_rows(name: str, rows: list[list[str]], where: str) -> Table:
    """``tabular._table_from_rows`` with a test per cell and records built by
    keyword: the reference for the version that joins the header row and
    builds its columns positionally."""
    if not rows or not any(cell.strip() for cell in rows[0]):
        if rows and not any(cell.strip() for row in rows for cell in row):
            return Table(name=name, columns=())
        raise TabularError(f"{where} has no header row")
    headers = [h.strip() for h in rows[0]]
    reference_check_headers(headers, where)
    data = rows[1:]
    values = list(islice(zip_longest(*data, fillvalue=""), len(headers)))
    values += [("",) * len(data)] * (len(headers) - len(values))
    return Table(name=name, columns=tuple(
        TableColumn(header=header, values=column) for header, column in zip(headers, values)))


# ---------------------------------------------------------------------------
# The `.bml` grammar as a token parser that builds the model


class _Token(NamedTuple):
    kind: str  # IDENT | INT | PUNCT | EOF, or BAD before the tokenizer rejects it
    text: str
    offset: int  # into the source; line and column are worked out on error


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


# ---------------------------------------------------------------------------
# The Mendix export parser, one helper call per field


def _require(mapping: dict, key: str, where: str) -> str:
    if mapping.get(key) in (None, ""):
        raise MendixImportError(f"missing mandatory field {key!r} in {where}")
    return _optional(mapping, key, where)


def _optional(mapping: dict, key: str, where: str, default: str | None = None) -> str | None:
    value = mapping.get(key)
    if value is None:
        return default
    if not isinstance(value, str):
        raise MendixImportError(f"field {key!r} in {where} must be a string")
    return value


def _list_of(mapping: dict, key: str, item_type: type, where: str) -> list:
    items = mapping.get(key)
    if items is None:
        return []
    if not isinstance(items, list) or not all(isinstance(i, item_type) for i in items):
        noun = "objects" if item_type is dict else "strings"
        raise MendixImportError(f"field {key!r} in {where} must be a list of {noun}")
    return items


def reference_parse_mendix_export(document: str | bytes | dict) -> MendixExport:
    """``mendix.parse_mendix_export`` with each field read and checked
    through ``_require``/``_optional``/``_list_of``, in document order."""
    if isinstance(document, (str, bytes)):
        try:
            payload = json.loads(document)
        except json.JSONDecodeError as exc:
            raise MendixImportError(f"malformed JSON: {exc}") from exc
    else:
        payload = document
    if not isinstance(payload, dict) or not isinstance(payload.get("domainModel"), dict):
        raise MendixImportError("document has no top-level 'domainModel' object")
    dm = payload["domainModel"]

    warnings: list[str] = []

    def note_unknown(mapping: dict, known: set[str], where: str):
        for key in mapping:
            if key not in known:
                warnings.append(f"ignored unknown field {key!r} in {where}")

    note_unknown(dm, {"name", "entities", "associations", "enumerations"}, "domainModel")

    entities = []
    for raw in _list_of(dm, "entities", dict, "domainModel"):
        name = _require(raw, "name", "entity")
        note_unknown(raw, {"name", "attributes", "generalization"}, f"entity {name}")
        attributes = []
        for attr in _list_of(raw, "attributes", dict, f"entity {name}"):
            attr_name = _require(attr, "name", f"attribute of {name}")
            where = f"attribute {name}.{attr_name}"
            attr_type = _require(attr, "type", where)
            note_unknown(attr, {"name", "type", "enum_ref"}, where)
            attributes.append(MendixAttribute(attr_name, attr_type,
                                              _optional(attr, "enum_ref", where)))
        entities.append(MendixEntity(name, tuple(attributes),
                                     _optional(raw, "generalization", f"entity {name}")))

    associations = []
    for raw in _list_of(dm, "associations", dict, "domainModel"):
        name = _require(raw, "name", "association")
        note_unknown(raw, {"name", "parent", "child", "type", "owner"}, f"association {name}")
        associations.append(MendixAssociation(
            name=name,
            parent=_require(raw, "parent", f"association {name}"),
            child=_require(raw, "child", f"association {name}"),
            type=_optional(raw, "type", f"association {name}", "Reference"),
            owner=_optional(raw, "owner", f"association {name}", "Default"),
        ))

    enumerations = []
    for raw in _list_of(dm, "enumerations", dict, "domainModel"):
        name = _require(raw, "name", "enumeration")
        note_unknown(raw, {"name", "values"}, f"enumeration {name}")
        values = _list_of(raw, "values", str, f"enumeration {name}")
        enumerations.append(MendixEnumeration(name, tuple(values)))

    export = MendixExport(
        name=_optional(dm, "name", "domainModel", "DomainModel"),
        entities=tuple(entities),
        associations=tuple(associations),
        enumerations=tuple(enumerations),
        warnings=tuple(warnings),
    )
    _check_references(export)
    return export


# ---------------------------------------------------------------------------
# The PlantUML generator's loss report found with no parse, by re-deriving
# the parser's folds, role claims and type lookup


def _reference_roles(clean: Folds, left: str, right: str) -> tuple[str, str]:
    """The roles the parser gives the ends of an association between classes
    ``left`` and ``right``: PlantUML text carries none of its own."""
    roles = Namespace()
    return roles.claim(clean[left.lower()]), roles.claim(clean[right.lower()])


def _reference_resolve_type(token: str, enum_names) -> TypeRef | None:
    """The type an attribute typed ``token`` gets, given the (folded) names
    of the enumerations declared so far, in order; None for an unknown type.
    A declared name wins over a type-table token, and a token differing only
    in case from a declared name comes last."""
    if token in enum_names:
        return enum_type(token)
    mapped = _TYPE_TABLE.get(token.lower())
    if mapped:
        return primitive_type(mapped)
    for name in enum_names:
        if name.lower() == token.lower():
            return enum_type(name)
    return None


def reference_export_loss(model: DomainModel) -> LossReport:
    """``plantuml.export_loss`` as it was before it read a parse: what
    ``parse_plantuml(emit_plantuml(model))`` reads back otherwise, found with
    the parser's own folds. It holds no answer for a text the parser refuses."""
    loss = LossReport()
    if model.name != UNNAMED_MODEL:
        loss.add("model", model.name, "DROPPED", "warning",
                 f"the text names no model; it parses back as {UNNAMED_MODEL}")
    clean = Folds(_clean)

    def spelled(kind: str, element: str, name: str) -> None:
        if clean[name] != name:
            loss.add(kind, element, "RENAMED", "info", f"parses back as {clean[name]}")

    def members(kind: str, name: str, folded: dict) -> dict:
        spelled(kind, name, name)
        first, held = folded.setdefault(clean[name], (name, {}))
        if first != name:
            loss.add(kind, name, "DROPPED", "warning",
                     f"parses back merged into {kind} {clean[name]} with {kind} {first}")
        return held

    def kept(kind: str, element: str, name: str, key: str, held: dict) -> bool:
        spelled(kind, element, name)
        first = held.setdefault(key, element)
        if first != element:
            loss.add(kind, element, "DROPPED", "warning",
                     f"parses back as {clean[name]}, a repeat of {first}; the first one kept")
        return first == element

    folded_enums: dict[str, tuple[str, dict[str, str]]] = {}
    for enum in model.enumerations:
        literals = members("enumeration", enum.name, folded_enums)
        for literal in enum.literals:
            kept("literal", f"{enum.name}.{literal}", literal, clean[literal], literals)
    folded_classes: dict[str, tuple[str, dict[str, str]]] = {}
    for cls in model.classes:
        props = members("class", cls.name, folded_classes)
        for prop in cls.properties:
            element = f"{cls.name}.{prop.name}"
            if not kept("property", element, prop.name, clean[prop.name].lower(), props):
                continue
            enum_name = prop.type.enum_name
            if prop.type.kind == "enumeration" and clean[enum_name] != enum_name:
                parsed = _reference_resolve_type(enum_name, folded_enums) \
                    or primitive_type("str")
                if parsed.enum_name != clean[enum_name]:
                    loss.add("property", element, "TYPE_COERCED", "warning",
                             f"typed by enumeration {enum_name}; "
                             f"parses back typed {parsed.display()}")
    names = Namespace()
    for assoc in model.associations:
        name = names.claim(clean[assoc.name])
        if name != assoc.name:
            loss.add("association", assoc.name, "RENAMED", "info", f"parses back as {name}")
        ends = (assoc.end1, assoc.end2)
        for end, role in zip(ends, _reference_roles(clean, *(clean[e.class_name] for e in ends))):
            if end.role != role:
                loss.add("association", assoc.name, "DROPPED", "warning",
                         f"role {end.role} of {end.class_name}: the text names no role; "
                         f"it parses back as {role}")
    return loss
