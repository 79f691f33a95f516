"""Mendix project-export (JSON) to pivot model transformation.

The accepted document is the simplified stand-in schema documented in
``docs/mendix-export.schema.json``: top-level ``domainModel`` with entities,
associations (``parent``/``child``/``type``/``owner``) and enumerations.
Entities map to classes, attributes to properties, and association
multiplicities follow the (type, owner) decision table below.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .errors import MendixImportError, MissingInputError
from .loss import LossReport
from .model import (
    Association,
    AssociationEnd,
    Class,
    DomainModel,
    Enumeration,
    Generalization,
    Multiplicity,
    Namespace,
    Property,
    enum_type,
    primitive_type,
    require_valid,
    sanitize_identifier,
)

# Mendix attribute type -> (pivot primitive, loss detail or None)
ATTRIBUTE_TYPES = {
    "String": ("str", None),
    "HashedString": ("str", "hashing semantics lost"),
    "Integer": ("int", None),
    "Long": ("int", None),
    "AutoNumber": ("int", "auto-increment semantics lost"),
    "Decimal": ("float", None),
    "Boolean": ("bool", None),
    "DateTime": ("datetime", None),
    "Binary": ("binary", None),
}

# (association type, owner) -> (child-end multiplicity, parent-end multiplicity)
CARDINALITY_TABLE = {
    ("Reference", "Default"): (Multiplicity(0, None), Multiplicity(0, 1)),
    ("Reference", "Both"): (Multiplicity(0, 1), Multiplicity(0, 1)),
    ("ReferenceSet", "Default"): (Multiplicity(0, None), Multiplicity(0, None)),
    ("ReferenceSet", "Both"): (Multiplicity(0, None), Multiplicity(0, None)),
}


@dataclass(frozen=True)
class MendixAttribute:
    name: str
    type: str
    enum_ref: str | None = None


@dataclass(frozen=True)
class MendixEntity:
    name: str
    attributes: tuple[MendixAttribute, ...] = ()
    generalization: str | None = None


@dataclass(frozen=True)
class MendixAssociation:
    name: str
    parent: str
    child: str
    type: str = "Reference"
    owner: str = "Default"


@dataclass(frozen=True)
class MendixEnumeration:
    name: str
    values: tuple[str, ...] = ()


@dataclass(frozen=True)
class MendixExport:
    name: str
    entities: tuple[MendixEntity, ...] = ()
    associations: tuple[MendixAssociation, ...] = ()
    enumerations: tuple[MendixEnumeration, ...] = ()
    warnings: tuple[str, ...] = ()


def _require(mapping: dict, key: str, where: str) -> str:
    if mapping.get(key) in (None, ""):
        raise MendixImportError(f"missing mandatory field {key!r} in {where}")
    return _optional(mapping, key, where)


def _optional(mapping: dict, key: str, where: str, default: str | None = None) -> str | None:
    """The string at ``key``; ``default`` when the key is absent or null."""
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


def parse_mendix_export(document: str | bytes | dict) -> MendixExport:
    """Read an export document into memory, checking referential integrity.

    Unknown fields are ignored but listed in the result's warnings.
    """
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


def load_mendix_export(path: str | Path) -> MendixExport:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise MissingInputError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise MendixImportError(f"{path} is not UTF-8 text: {exc}") from exc
    return parse_mendix_export(text)


def _check_references(export: MendixExport) -> None:
    entity_names = {e.name for e in export.entities}
    enum_names = set()
    for enum in export.enumerations:
        if enum.name in enum_names:
            raise MendixImportError(f"duplicate enumeration name {enum.name!r}")
        enum_names.add(enum.name)
    seen = set()
    for entity in export.entities:
        if entity.name in seen:
            raise MendixImportError(f"duplicate entity name {entity.name!r}")
        seen.add(entity.name)
        if entity.generalization is not None and entity.generalization not in entity_names:
            raise MendixImportError(
                f"entity {entity.name!r} generalizes absent entity {entity.generalization!r}")
        for attr in entity.attributes:
            if attr.type == "Enumeration":
                if not attr.enum_ref:
                    raise MendixImportError(
                        f"attribute {entity.name}.{attr.name} of type Enumeration lacks enum_ref")
                if attr.enum_ref not in enum_names:
                    raise MendixImportError(
                        f"attribute {entity.name}.{attr.name} references absent "
                        f"enumeration {attr.enum_ref!r}")
    for assoc in export.associations:
        for end in (assoc.parent, assoc.child):
            if end not in entity_names:
                raise MendixImportError(
                    f"association {assoc.name!r} references absent entity {end!r}")


def mendix_to_pivot(export: MendixExport) -> tuple[DomainModel, LossReport]:
    """Apply the concept mapping: entities, attributes, enums, associations."""
    loss = LossReport()
    # classes and enumerations share one namespace, as in validate_model; a
    # name is claimed on first use and references resolve to what it claimed
    names = Namespace()
    claimed: dict[tuple[str, str], str] = {}  # (kind, raw name) -> pivot name

    def pivot_name(kind: str, raw: str) -> str:
        if (kind, raw) not in claimed:
            name = claimed[kind, raw] = names.claim(sanitize_identifier(raw))
            if name != raw:
                loss.add(kind, raw, "RENAMED", "info", f"sanitized to {name}")
        return claimed[kind, raw]

    enumerations = []
    for enum in export.enumerations:
        literals = []
        for value in enum.values:
            cleaned = sanitize_identifier(value)
            if cleaned != value:
                loss.add("literal", f"{enum.name}.{value}", "RENAMED", "info",
                         f"sanitized to {cleaned}")
            if cleaned not in literals:
                literals.append(cleaned)
        enumerations.append(Enumeration(name=pivot_name("enumeration", enum.name),
                                        literals=tuple(literals)))

    classes = []
    generalizations = []
    for entity in export.entities:
        class_name = pivot_name("class", entity.name)
        prop_names = Namespace()
        properties = []
        for attr in entity.attributes:
            prop_name = prop_names.claim(sanitize_identifier(attr.name))
            if prop_name != attr.name:
                loss.add("property", f"{entity.name}.{attr.name}", "RENAMED", "info",
                         f"sanitized to {prop_name}")
            if attr.type == "Enumeration":
                type_ref = enum_type(pivot_name("enumeration", attr.enum_ref))
            elif attr.type in ATTRIBUTE_TYPES:
                primitive, detail = ATTRIBUTE_TYPES[attr.type]
                type_ref = primitive_type(primitive)
                if detail:
                    loss.add("property", f"{entity.name}.{attr.name}", "TYPE_COERCED",
                             "warning", f"{attr.type} -> {primitive}: {detail}")
            else:
                type_ref = primitive_type("str")
                loss.add("property", f"{entity.name}.{attr.name}", "TYPE_COERCED",
                         "warning", f"unknown Mendix type {attr.type!r} stored as str")
            properties.append(Property(name=prop_name, type=type_ref))
        classes.append(Class(name=class_name, properties=tuple(properties)))
        if entity.generalization is not None:
            generalizations.append(Generalization(
                general=pivot_name("class", entity.generalization), specific=class_name))

    associations = []
    for assoc in export.associations:
        key = (assoc.type, assoc.owner)
        if key not in CARDINALITY_TABLE:
            loss.add("association", assoc.name, "TYPE_COERCED", "warning",
                     f"unknown (type, owner) pair {key!r}; treated as (Reference, Default)")
            key = ("Reference", "Default")
        child_mult, parent_mult = CARDINALITY_TABLE[key]
        both = assoc.owner == "Both"
        child_class = pivot_name("class", assoc.child)
        parent_class = pivot_name("class", assoc.parent)
        child_role = sanitize_identifier(child_class.lower())
        parent_role = sanitize_identifier(parent_class.lower())
        if child_role == parent_role:
            parent_role += "_parent"
        associations.append(Association(
            name=sanitize_identifier(assoc.name),
            end1=AssociationEnd(role=child_role, class_name=child_class,
                                multiplicity=child_mult, navigable=both),
            end2=AssociationEnd(role=parent_role, class_name=parent_class,
                                multiplicity=parent_mult, navigable=True),
        ))

    model = DomainModel(
        name=sanitize_identifier(export.name),
        classes=tuple(classes),
        associations=tuple(associations),
        generalizations=tuple(generalizations),
        enumerations=tuple(enumerations),
    )
    return require_valid(model, "Mendix-derived model"), loss
