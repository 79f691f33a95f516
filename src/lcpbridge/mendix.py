"""Mendix project-export (JSON) to pivot model transformation.

The accepted document is the simplified stand-in schema documented in
``docs/mendix-export.schema.json``: top-level ``domainModel`` with entities,
associations (``parent``/``child``/``type``/``owner``) and enumerations.
Entities map to classes, attributes to properties, and association
multiplicities follow the (type, owner) decision table below.
"""

from __future__ import annotations

import json
from itertools import repeat
from pathlib import Path

from .errors import MendixImportError, input_file
from .loss import LossReport
from .model import (
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
    SlotRecord,
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
# the same, with the pivot type each maps to: (type, primitive, detail)
_PIVOT_TYPES = {mendix: (primitive_type(primitive), primitive, detail)
                for mendix, (primitive, detail) in ATTRIBUTE_TYPES.items()}

# (association type, owner) -> (child-end multiplicity, parent-end multiplicity)
CARDINALITY_TABLE = {
    ("Reference", "Default"): (Multiplicity(0, None), Multiplicity(0, 1)),
    ("Reference", "Both"): (Multiplicity(0, 1), Multiplicity(0, 1)),
    ("ReferenceSet", "Default"): (Multiplicity(0, None), Multiplicity(0, None)),
    ("ReferenceSet", "Both"): (Multiplicity(0, None), Multiplicity(0, None)),
}


# The records of one export: plain classes with ``__slots__``, not named
# tuples like the pivot model's types (see ``model``), since a large export
# makes tens of thousands of them, ``mendix_to_pivot`` reads their fields in
# its hottest loops, and nothing keeps them past it.


class MendixAttribute(SlotRecord):
    """An entity attribute as exported: its Mendix type and enumeration, if any."""

    __slots__ = ("name", "type", "enum_ref")

    def __init__(self, name: str, type: str, enum_ref: str | None = None):
        self.name = name
        self.type = type
        self.enum_ref = enum_ref


class MendixEntity(SlotRecord):
    """An exported entity: its attributes and the entity it generalizes, if any."""

    __slots__ = ("name", "attributes", "generalization")

    def __init__(self, name: str, attributes: tuple[MendixAttribute, ...] = (),
                 generalization: str | None = None):
        self.name = name
        self.attributes = attributes
        self.generalization = generalization


class MendixAssociation(SlotRecord):
    """An exported association from ``parent`` to ``child``, with its type and owner."""

    __slots__ = ("name", "parent", "child", "type", "owner")

    def __init__(self, name: str, parent: str, child: str, type: str = "Reference",
                 owner: str = "Default"):
        self.name = name
        self.parent = parent
        self.child = child
        self.type = type
        self.owner = owner


class MendixEnumeration(SlotRecord):
    """An exported enumeration and its values."""

    __slots__ = ("name", "values")

    def __init__(self, name: str, values: tuple[str, ...] = ()):
        self.name = name
        self.values = values


class MendixExport(SlotRecord):
    """The export's domain model as read, plus the reader's warnings."""

    __slots__ = ("name", "entities", "associations", "enumerations", "warnings")

    def __init__(self, name: str, entities: tuple[MendixEntity, ...] = (),
                 associations: tuple[MendixAssociation, ...] = (),
                 enumerations: tuple[MendixEnumeration, ...] = (), warnings: tuple[str, ...] = ()):
        self.name = name
        self.entities = entities
        self.associations = associations
        self.enumerations = enumerations
        self.warnings = warnings


DOMAIN_MODEL_FIELDS = frozenset(("name", "entities", "associations", "enumerations"))
# Each record's mandatory fields, then all its fields. ``parse_mendix_export``
# finds an unknown field by counting a record's keys against its mandatory
# fields plus the optional ones it holds, each tested there by name: an
# optional field added here or dropped is added to or dropped from that test.
_ENTITY_MANDATORY = ("name",)
ENTITY_FIELDS = frozenset((*_ENTITY_MANDATORY, "attributes", "generalization"))
_ATTRIBUTE_MANDATORY = ("name", "type")
ATTRIBUTE_FIELDS = frozenset((*_ATTRIBUTE_MANDATORY, "enum_ref"))
_ASSOCIATION_MANDATORY = ("name", "parent", "child")
ASSOCIATION_FIELDS = frozenset((*_ASSOCIATION_MANDATORY, "type", "owner"))
_ENUMERATION_MANDATORY = ("name",)
ENUMERATION_FIELDS = frozenset((*_ENUMERATION_MANDATORY, "values"))


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
    if not isinstance(items, list) or not all(map(isinstance, items, repeat(item_type))):
        noun = "objects" if item_type is dict else "strings"
        raise MendixImportError(f"field {key!r} in {where} must be a list of {noun}")
    return items


def _attribute_fields(attr: dict, entity: str) -> tuple[str, str, str | None]:
    """(name, type, enum_ref) of an attribute, checked one field at a time;
    the fast path in ``parse_mendix_export`` comes here only to raise."""
    name = _require(attr, "name", f"attribute of {entity}")
    where = f"attribute {entity}.{name}"
    return name, _require(attr, "type", where), _optional(attr, "enum_ref", where)


def _association_fields(raw: dict, name: str) -> tuple[str, str, str, str]:
    """(parent, child, type, owner) of an association, as for attributes."""
    where = f"association {name}"
    return (_require(raw, "parent", where), _require(raw, "child", where),
            _optional(raw, "type", where, "Reference"),
            _optional(raw, "owner", where, "Default"))


def parse_mendix_export(document: str | bytes | dict) -> MendixExport:
    """Read an export document into memory, checking referential integrity.

    Unknown fields are ignored but listed in the result's warnings.

    Each field is read once and its type checked inline; only a field that
    fails that check goes through ``_require``/``_optional``/``_list_of``,
    which raise the error for it (or accept a ``str`` or ``list`` subclass).
    An entity, attribute, association or enumeration is walked for unknown
    fields only when it has more keys than the known fields it holds.
    """
    if isinstance(document, (str, bytes)):
        try:
            payload = json.loads(document)
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
            raise MendixImportError(f"malformed JSON: {exc}") from exc
    else:
        payload = document
    if not isinstance(payload, dict) or not isinstance(payload.get("domainModel"), dict):
        raise MendixImportError("document has no top-level 'domainModel' object")
    dm = payload["domainModel"]

    warnings: list[str] = []

    def note_unknown(mapping: dict, known: frozenset[str], where: str):
        for key in mapping:
            if key not in known:
                warnings.append(f"ignored unknown field {key!r} in {where}")

    note_unknown(dm, DOMAIN_MODEL_FIELDS, "domainModel")

    entities = []
    for raw in _list_of(dm, "entities", dict, "domainModel"):
        name = raw.get("name")
        if name.__class__ is not str or not name:
            name = _require(raw, "name", "entity")
        if len(raw) > len(_ENTITY_MANDATORY) + ("attributes" in raw) + ("generalization" in raw):
            note_unknown(raw, ENTITY_FIELDS, f"entity {name}")
        attrs = raw.get("attributes")
        if attrs.__class__ is not list or not all(map(isinstance, attrs, repeat(dict))):
            attrs = _list_of(raw, "attributes", dict, f"entity {name}")
        attributes = []
        for attr in attrs:
            attr_name = attr.get("name")
            attr_type = attr.get("type")
            enum_ref = attr.get("enum_ref")
            if attr_name.__class__ is not str or not attr_name \
                    or attr_type.__class__ is not str or not attr_type \
                    or (enum_ref is not None and enum_ref.__class__ is not str):
                attr_name, attr_type, enum_ref = _attribute_fields(attr, name)
            if len(attr) > len(_ATTRIBUTE_MANDATORY) + ("enum_ref" in attr):
                note_unknown(attr, ATTRIBUTE_FIELDS, f"attribute {name}.{attr_name}")
            attributes.append(MendixAttribute(attr_name, attr_type, enum_ref))
        generalization = raw.get("generalization")
        if generalization is not None and generalization.__class__ is not str:
            generalization = _optional(raw, "generalization", f"entity {name}")
        entities.append(MendixEntity(name, tuple(attributes), generalization))

    associations = []
    for raw in _list_of(dm, "associations", dict, "domainModel"):
        name = raw.get("name")
        if name.__class__ is not str or not name:
            name = _require(raw, "name", "association")
        if len(raw) > len(_ASSOCIATION_MANDATORY) + ("type" in raw) + ("owner" in raw):
            note_unknown(raw, ASSOCIATION_FIELDS, f"association {name}")
        parent = raw.get("parent")
        child = raw.get("child")
        kind = raw.get("type", "Reference")
        owner = raw.get("owner", "Default")
        if parent.__class__ is not str or not parent or child.__class__ is not str \
                or not child or kind.__class__ is not str or owner.__class__ is not str:
            parent, child, kind, owner = _association_fields(raw, name)
        associations.append(MendixAssociation(name, parent, child, kind, owner))

    enumerations = []
    for raw in _list_of(dm, "enumerations", dict, "domainModel"):
        name = raw.get("name")
        if name.__class__ is not str or not name:
            name = _require(raw, "name", "enumeration")
        if len(raw) > len(_ENUMERATION_MANDATORY) + ("values" in raw):
            note_unknown(raw, ENUMERATION_FIELDS, f"enumeration {name}")
        values = raw.get("values")
        if values.__class__ is not list or not all(map(isinstance, values, repeat(str))):
            values = _list_of(raw, "values", str, f"enumeration {name}")
        enumerations.append(MendixEnumeration(name, tuple(values)))

    export = MendixExport(
        _optional(dm, "name", "domainModel", "DomainModel"),
        tuple(entities), tuple(associations), tuple(enumerations), tuple(warnings))
    _check_references(export)
    return export


def load_mendix_export(path: str | Path) -> MendixExport:
    try:
        with input_file(path, "r", encoding="utf-8") as handle:
            text = handle.read()
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
    """Apply the concept mapping: entities, attributes, enums, associations.

    Attribute, literal and role names repeat across entities, so each of
    them is sanitized once per distinct name in the call.
    """
    loss = LossReport()
    for warning in export.warnings:
        loss.add("model", export.name, "DROPPED", "info", warning)
    sanitized = Folds(sanitize_identifier)
    # classes and enumerations share one namespace, as in validate_model; a
    # name is claimed on first use and references resolve to what it claimed
    names = Namespace()
    claimed: dict[str, dict[str, str]] = {"class": {}, "enumeration": {}}  # raw -> pivot

    def pivot_name(kind: str, raw: str) -> str:
        of_kind = claimed[kind]
        name = of_kind.get(raw)
        if name is None:
            name = of_kind[raw] = names.claim(sanitize_identifier(raw))
            if name != raw:
                loss.add(kind, raw, "RENAMED", "info", f"sanitized to {name}")
        return name

    enumerations = []
    for enum in export.enumerations:
        literals = []
        for value in enum.values:
            cleaned = sanitized[value]
            if cleaned != value:
                loss.add("literal", f"{enum.name}.{value}", "RENAMED", "info",
                         f"sanitized to {cleaned}")
            if cleaned not in literals:
                literals.append(cleaned)
        enumerations.append(Enumeration(pivot_name("enumeration", enum.name), tuple(literals)))

    classes = []
    generalizations = []
    for entity in export.entities:
        class_name = pivot_name("class", entity.name)
        prop_names = Namespace()
        properties = []
        for attr in entity.attributes:
            prop_name = prop_names.claim(sanitized[attr.name])
            if prop_name != attr.name:
                loss.add("property", f"{entity.name}.{attr.name}", "RENAMED", "info",
                         f"sanitized to {prop_name}")
            attr_type = attr.type
            known = _PIVOT_TYPES.get(attr_type)
            if known is not None:
                type_ref, primitive, detail = known
                if detail:
                    loss.add("property", f"{entity.name}.{attr.name}", "TYPE_COERCED",
                             "warning", f"{attr_type} -> {primitive}: {detail}")
            elif attr_type == "Enumeration":
                type_ref = enum_type(pivot_name("enumeration", attr.enum_ref))
            else:
                type_ref = primitive_type("str")
                loss.add("property", f"{entity.name}.{attr.name}", "TYPE_COERCED",
                         "warning", f"unknown Mendix type {attr_type!r} stored as str")
            properties.append(Property(prop_name, type_ref))
        classes.append(Class(class_name, tuple(properties)))
        if entity.generalization is not None:
            generalizations.append(Generalization(
                pivot_name("class", entity.generalization), class_name))

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
        child_role = sanitized[child_class.lower()]
        parent_role = sanitized[parent_class.lower()]
        if child_role == parent_role:
            parent_role += "_parent"
        associations.append(Association(
            sanitize_identifier(assoc.name),
            AssociationEnd(child_role, child_class, child_mult, both),
            AssociationEnd(parent_role, parent_class, parent_mult, True)))

    model = DomainModel(
        name=sanitize_identifier(export.name),
        classes=tuple(classes),
        associations=tuple(associations),
        generalizations=tuple(generalizations),
        enumerations=tuple(enumerations),
    )
    return require_valid(model, "Mendix-derived model"), loss
