"""PlantUML class-diagram subset: parser into the pivot model and emitter.

PlantUML is the interchange format for the vision-model export path, so the
parser is deliberately forgiving: unsupported lines are skipped and reported
rather than rejected, classes mentioned only in relationship lines are
auto-declared, and unknown attribute types degrade to ``str`` with a loss
entry. The emitter produces a deterministic subset that the parser maps back
to an equal model, up to the names it folds; the generator's loss report is
the diff of the model against the parse of that text.
"""

from __future__ import annotations

import functools
import re

from .errors import PlantUmlError
from .loss import LossReport
from .model import (
    MANY,
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
    is_identifier,
    primitive_type,
    require_valid,
    sanitize_identifier,
)

START_MARKER = "@startuml"
END_MARKER = "@enduml"
UNNAMED_MODEL = "Model"  # the name of a model whose @startuml line names none

# Frozen token table; anything not listed (and not a declared enum) becomes
# str with a TYPE_COERCED entry. Pivot primitive names map to themselves so
# emitted models parse back unchanged.
_TYPE_TABLE = {
    "string": "str",
    "text": "str",
    "integer": "int",
    "double": "float",
    "decimal": "float",
    "boolean": "bool",
    "timestamp": "datetime",
}
_TYPE_TABLE.update({p: p for p in PRIMITIVES})

@functools.cache
def _patterns() -> dict[str, re.Pattern]:
    """The parser's line patterns, compiled on first use rather than at import.

    ``skip`` matches the lines the subset skips: a comment, a preprocessor
    line, or one of its keywords as a whole word, so a class named
    ``notebook`` is still read.
    """
    patterns = {
        "class": r'^(?:abstract\s+)?class\s+(?:"([^"]+)"\s+as\s+(\w+)|"([^"]+)"|([\w.]+))'
                 r'\s*(\{)?\s*(.*)$',
        "enum": r'^enum\s+(?:"([^"]+)"|([\w.]+))\s*(\{)?\s*(.*)$',
        "generalization": r'^([\w."]+)\s+(<\|-+|-+\|>)\s+([\w."]+)\s*$',
        "association": r'^([\w."]+)\s+(?:"([^"]*)"\s+)?([o*]?(?:<-+|-+>|-+)[o*]?)\s+'
                       r'(?:"([^"]*)"\s+)?([\w."]+)\s*(?::\s*(.+))?$',
        "attribute": r"^[+\-#~]?\s*([\w ]+?)\s*:\s*(.+?)\s*$",
        "stereotype": r"<<\s*(\w+)\s*>>",
        "skip": r"'|!|(?:skinparam|title|note|legend|hide|show|scale"
                r"|left to right|top to bottom)\b",
    }
    return {key: re.compile(pattern) for key, pattern in patterns.items()}


class SkippedLine:
    """A line the parser set aside, with its 1-based line number in the block."""

    __slots__ = ("line_no", "text")

    def __init__(self, line_no: int, text: str):
        self.line_no = line_no
        self.text = text


class PlantUmlImport:
    """Parse outcome: the model plus everything the parser set aside."""

    __slots__ = ("model", "skipped", "loss", "warnings")

    def __init__(self, model: DomainModel, skipped: list[SkippedLine] | None = None,
                 loss: LossReport | None = None, warnings: list[str] | None = None):
        self.model = model
        self.skipped = [] if skipped is None else skipped
        self.loss = LossReport() if loss is None else loss
        self.warnings = [] if warnings is None else warnings


def parse_multiplicity(token: str) -> Multiplicity:
    """Map a quoted PlantUML multiplicity to explicit bounds."""
    token = token.strip()
    if token in ("", "*"):
        return MANY
    if ".." in token:
        low_text, _, high_text = token.partition("..")
        try:
            lower = int(low_text)
            upper = None if high_text.strip() == "*" else int(high_text)
        except ValueError:
            raise PlantUmlError(f"malformed multiplicity {token!r}")
        return Multiplicity(lower, upper)
    try:
        exact = int(token)
    except ValueError:
        raise PlantUmlError(f"malformed multiplicity {token!r}")
    return Multiplicity(exact, exact if exact > 0 else None)


def _clean(name: str) -> str:
    """``name`` itself where it is a valid, unreserved pivot identifier, so an
    emitted ``Item__x`` or ``Name_`` parses back unchanged; else sanitized."""
    if is_identifier(name) and name.lower() not in RESERVED_WORDS:
        return name
    return sanitize_identifier(name)


class _Builder:
    def __init__(self):
        # class -> its properties, and enum -> its literals (as keys), in
        # declaration order; properties keyed by lowercase name
        self.class_props: dict[str, dict[str, Property]] = {}
        self.enum_literals: dict[str, dict[str, None]] = {}
        self.associations: list[Association] = []
        self.parents: dict[str, str] = {}  # specific -> general
        self.assoc_names = Namespace()
        self.clean = Folds(_clean)  # each raw name is folded once per parse
        self.renamed: set[tuple[str, str]] = set()  # (kind, raw name) reported RENAMED
        self.skipped: list[SkippedLine] = []
        self.loss = LossReport()
        self.warnings: list[str] = []

    def declare(self, kind: str, name: str) -> str:
        """Declare a ``class`` or an ``enumeration`` under its sanitized name."""
        clean = self.clean[name]
        if clean != name and (kind, name) not in self.renamed:  # once, not per mention
            self.renamed.add((kind, name))
            self.loss.add(kind, name, "RENAMED", "info", f"sanitized to {clean}")
        table = self.class_props if kind == "class" else self.enum_literals
        table.setdefault(clean, {})
        return clean

    def add_literal(self, enum: str, text: str):
        literal = self.clean[text.strip(",")]
        literals = self.enum_literals[enum]
        if literal in literals:
            self.loss.add("literal", f"{enum}.{literal}", "DROPPED", "warning",
                          "literal repeated in the enumeration; the first one kept")
            return
        literals[literal] = None

    def resolve_type(self, token: str, owner: str, prop: str) -> TypeRef:
        """The type an attribute typed ``token`` gets. A declared enumeration's
        name wins over a type-table token, and a token differing only in case
        from a declared name comes last; an unknown type becomes str."""
        token = token.strip()
        if token in self.enum_literals:
            return enum_type(token)
        mapped = _TYPE_TABLE.get(token.lower())
        if mapped:
            return primitive_type(mapped)
        for name in self.enum_literals:
            if name.lower() == token.lower():
                return enum_type(name)
        self.loss.add("property", f"{owner}.{prop}", "TYPE_COERCED", "warning",
                      f"unknown type {token!r} stored as str")
        return primitive_type("str")

    def add_property(self, class_name: str, raw_name: str, type_token: str):
        name = self.clean[raw_name]
        if name != raw_name:
            self.loss.add("property", f"{class_name}.{raw_name}", "RENAMED", "info",
                          f"sanitized to {name}")
        props = self.class_props[class_name]
        if name.lower() in props:
            self.warnings.append(f"duplicate attribute {class_name}.{name} ignored")
            self.loss.add("property", f"{class_name}.{name}", "DROPPED", "warning",
                          "attribute repeated in the class; the first one kept")
            return
        is_id = False
        if "<<" in type_token:  # as every stereotype does
            stereotype_re = _patterns()["stereotype"]
            stereotype = stereotype_re.search(type_token)
            if stereotype:
                is_id = stereotype.group(1).lower() in ("id", "pk", "key", "unique")
                type_token = stereotype_re.sub("", type_token).strip()
        props[name.lower()] = Property(
            name, self.resolve_type(type_token, class_name, name), is_id)

    def add_generalization(self, general: str, specific: str):
        general = self.declare("class", general)
        specific = self.declare("class", specific)
        if specific in self.parents:
            if self.parents[specific] != general:
                self.warnings.append(
                    f"extra parent {general} for {specific} dropped (single inheritance)")
                self.loss.add("generalization", f"{specific}->{general}", "DROPPED",
                              "warning", "second parent not representable")
            return
        self.parents[specific] = general

    def add_association(self, left: str, m_left: str, arrow: str, m_right: str,
                        right: str, label: str | None):
        left = self.declare("class", left)
        right = self.declare("class", right)
        base = self.clean[label.strip().strip("<>").strip()] if label else f"{left}_{right}"
        name = self.assoc_names.claim(base)
        roles = Namespace()  # PlantUML text carries no role of its own
        role1 = roles.claim(self.clean[left.lower()])
        role2 = roles.claim(self.clean[right.lower()])
        core = arrow.strip("o*")
        nav1 = core.startswith("<")
        nav2 = core.endswith(">")
        if not nav1 and not nav2:
            nav1 = nav2 = True
        self.associations.append(Association(
            name,
            AssociationEnd(role1, left, parse_multiplicity(m_left or ""), nav1),
            AssociationEnd(role2, right, parse_multiplicity(m_right or ""), nav2)))

    def build(self, name: str) -> DomainModel:
        return DomainModel(
            name=name,
            classes=tuple(Class(c, tuple(props.values()))
                          for c, props in self.class_props.items()),
            associations=tuple(self.associations),
            # in class order, as the DSL lists them in its class heads
            generalizations=tuple(Generalization(self.parents[c], c)
                                  for c in self.class_props if c in self.parents),
            enumerations=tuple(Enumeration(e, tuple(literals))
                               for e, literals in self.enum_literals.items()))


def parse_plantuml(text: str) -> PlantUmlImport:
    """Parse one @startuml block into a validated pivot model."""
    if text.count(START_MARKER) == 0 or END_MARKER not in text:
        raise PlantUmlError("missing @startuml/@enduml markers")
    if text.count(START_MARKER) > 1:
        raise PlantUmlError("more than one @startuml block")

    start = text.index(START_MARKER)
    end = text.index(END_MARKER, start)
    header = text[start + len(START_MARKER):].split("\n", 1)[0].strip()
    model_name = sanitize_identifier(header) if header else UNNAMED_MODEL
    body = text[start:end].split("\n")[1:]

    patterns = _patterns()
    builder = _Builder()
    current_class: str | None = None
    current_enum: str | None = None
    skip_until: str | None = None  # closing token of an unsupported block

    def skip(line_no, line):
        builder.skipped.append(SkippedLine(line_no, line))

    for offset, raw in enumerate(body, start=2):
        line = raw.strip()
        if not line:
            continue
        if skip_until is not None:
            skip(offset, line)
            if line == skip_until or (skip_until == "}" and line.endswith("}")):
                skip_until = None
            continue
        if current_enum is not None:
            if line == "}":
                current_enum = None
                continue
            builder.add_literal(current_enum, line)
            continue
        if current_class is not None:
            if line == "}":
                current_class = None
                continue
            if "(" in line or ")" in line:
                skip(offset, line)  # method, not a structural attribute
                continue
            attr = patterns["attribute"].match(line)
            if attr:
                builder.add_property(current_class, attr.group(1), attr.group(2))
            else:
                skip(offset, line)
            continue

        keyword = patterns["skip"].match(line)
        if keyword:
            skip(offset, line)
            if keyword.group() == "note" and ":" not in line:
                skip_until = "end note"  # multi-line note body
            continue

        # a pattern is tried only where a test it implies passes: the same first match
        match = line.startswith("enum") and patterns["enum"].match(line)
        if match:
            name = builder.declare("enumeration", match.group(1) or match.group(2))
            rest = match.group(4).strip()
            for literal in re.split(r"[,;]", rest.rstrip("}")):
                if literal.strip():
                    builder.add_literal(name, literal.strip())
            if match.group(3) and not rest.endswith("}"):
                current_enum = name
            continue

        match = line.startswith(("class", "abstract")) and patterns["class"].match(line)
        if match:
            name = match.group(2) or match.group(1) or match.group(3) or match.group(4)
            name = builder.declare("class", name)
            rest = match.group(6).strip()
            for chunk in re.split(r"[;,]", rest.rstrip("}")):
                attr = patterns["attribute"].match(chunk.strip())
                if attr:
                    builder.add_property(name, attr.group(1), attr.group(2))
            if match.group(5) and not rest.endswith("}"):
                current_class = name
            continue

        match = "|" in line and patterns["generalization"].match(line)
        if match:
            left, arrow, right = match.groups()
            left, right = left.strip('"'), right.strip('"')
            if arrow.startswith("<|"):
                builder.add_generalization(general=left, specific=right)
            else:
                builder.add_generalization(general=right, specific=left)
            continue

        match = patterns["association"].match(line)
        if match:
            left, m_left, arrow, m_right, right, label = match.groups()
            left, right = left.strip('"'), right.strip('"')
            if not left or not right:
                raise PlantUmlError(f"relationship with empty class name: {line!r}")
            builder.add_association(left, m_left, arrow, m_right, right, label)
            continue

        skip(offset, line)
        if line.endswith("{"):
            skip_until = "}"  # unsupported block (interface, struct...)

    model = builder.build(model_name)
    require_valid(model, "parsed PlantUML")
    return PlantUmlImport(model=model, skipped=builder.skipped,
                          loss=builder.loss, warnings=builder.warnings)


def _leading(name: str) -> str:
    """``name`` as the first word of a line: quoted where it is a skip word."""
    return f'"{name}"' if _patterns()["skip"].match(name) else name


def export_loss(model: DomainModel, text: str) -> LossReport:
    """What ``text``, the ``emit_plantuml(model)`` the generator writes,
    parses back as otherwise: a diff of ``model`` against the parse, its
    elements paired through the parser's own fold and its associations in
    order. It names the model's name, each name spelled otherwise, each
    class or enumeration merged into an earlier one whose name folds alike
    (``Int`` and ``Int_``), each property or literal dropped as a repeat in
    such a merge or within one element, each kept property typed otherwise
    than by its enumeration's folded name, and each role the parser derives.
    A text that the parser refuses raises its coded error."""
    back = parse_plantuml(text).model
    loss = LossReport()
    if back.name != model.name:
        loss.add("model", model.name, "DROPPED", "warning",
                 f"the text names no model; it parses back as {back.name}")
    clean = Folds(_clean)

    def spelled(kind: str, element: str, name: str) -> None:
        if clean[name] != name:
            loss.add(kind, element, "RENAMED", "info", f"parses back as {clean[name]}")

    types = {(c.name, p.name.lower()): p.type for c in back.classes for p in c.properties}
    # each kind's elements, and each element's members as (name, the key the
    # parser holds it under, its type): literals by name, properties by lowercase name
    for kind, member_kind, elements, members in (
            ("enumeration", "literal", model.enumerations,
             lambda enum: [(literal, clean[literal], None) for literal in enum.literals]),
            ("class", "property", model.classes,
             lambda cls: [(p.name, clean[p.name].lower(), p.type) for p in cls.properties])):
        # folded name -> (the first element of that fold, the keys of its parsed members)
        folded: dict[str, tuple[str, dict[str, str]]] = {}
        for element in elements:
            spelled(kind, element.name, element.name)
            first, held = folded.setdefault(clean[element.name], (element.name, {}))
            if first != element.name:
                loss.add(kind, element.name, "DROPPED", "warning",
                         f"parses back merged into {kind} {clean[element.name]} "
                         f"with {kind} {first}")
            for name, key, typed in members(element):
                path = f"{element.name}.{name}"
                spelled(member_kind, path, name)
                first = held.setdefault(key, path)
                if first != path:
                    loss.add(member_kind, path, "DROPPED", "warning",
                             f"parses back as {clean[name]}, a repeat of {first}; "
                             "the first one kept")
                elif typed is not None and typed.kind == "enumeration":
                    parsed = types[clean[element.name], key]
                    if parsed != enum_type(clean[typed.enum_name]):
                        loss.add("property", path, "TYPE_COERCED", "warning",
                                 f"typed by enumeration {typed.enum_name}; "
                                 f"parses back typed {parsed.display()}")
    for assoc, parsed in zip(model.associations, back.associations, strict=True):
        if parsed.name != assoc.name:
            loss.add("association", assoc.name, "RENAMED", "info",
                     f"parses back as {parsed.name}")
        for end, parsed_end in zip((assoc.end1, assoc.end2), (parsed.end1, parsed.end2)):
            if end.role != parsed_end.role:
                loss.add("association", assoc.name, "DROPPED", "warning",
                         f"role {end.role} of {end.class_name}: the text names no role; "
                         f"it parses back as {parsed_end.role}")
    return loss


def emit_plantuml(model: DomainModel) -> str:
    """Render a valid model as PlantUML; parse_plantuml maps it back."""
    lines = [START_MARKER]
    for enum in model.enumerations:
        lines.append(f"enum {enum.name} {{")
        lines.extend(f"  {literal}" for literal in enum.literals)
        lines.append("}")
    for cls in model.classes:
        if not cls.properties:
            lines.append(f"class {cls.name}")
            continue
        lines.append(f"class {cls.name} {{")
        for prop in cls.properties:
            marker = " <<id>>" if prop.is_id else ""
            lines.append(f"  {prop.name} : {prop.type.display()}{marker}")
        lines.append("}")
    for gen in model.generalizations:
        lines.append(f"{_leading(gen.general)} <|-- {gen.specific}")
    for assoc in model.associations:
        e1, e2 = assoc.end1, assoc.end2
        if e1.navigable and not e2.navigable:
            arrow = "<--"
        elif e2.navigable and not e1.navigable:
            arrow = "-->"
        else:
            arrow = "--"
        lines.append(
            f'{_leading(e1.class_name)} "{e1.multiplicity.display()}" {arrow} '
            f'"{e2.multiplicity.display()}" {e2.class_name} : {assoc.name}'
        )
    lines.append(END_MARKER)
    return "\n".join(lines) + "\n"
