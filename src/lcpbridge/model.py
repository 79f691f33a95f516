"""Pivot structural metamodel: classes, associations, generalizations, enums.

All model types are immutable plain data. Construction never raises;
``validate_model`` is the single well-formedness gate and reports violations
as data. Platform adapters build these types and generators consume them.
It runs once, where a model is built from outside input, and nowhere
downstream: ``parse_pivot_text`` (a ``.bml`` load: a pivot file from an
earlier run, or a reviewed ``model.bml`` whose text the review changed),
``parse_plantuml`` (a bad vision-model answer is re-prompted),
``mendix_to_pivot``, ``infer_model``, the ``merge_models`` result, and
``pipeline.run_exporter`` for Python API callers only. ``print_pivot_text``,
the planners and the emitters trust it, and so does a review that gives
``model.bml`` back unchanged: its text parses back to the model it was
printed from.
Both planners read an association's ``kind`` and ``link`` (the end that
hosts a many-to-one or one-to-one), so they place each link alike.

The model types stay immutable: a validated model is shared by every
generator of a migration and by the merge, so no step may change what
another has checked. Each is a named tuple on ``Record``, which makes it
equal only to a record of its own class; a named tuple is built with one
tuple and hashed in C. The records an adapter builds on its way to or from a
model (``mendix.Mendix*``, ``relational.ColumnPlan``...) are plain classes
with ``__slots__`` instead: one step builds them and the next reads them,
and a slot reads faster than a tuple field. The entries of a loss report
are bare named tuples, and the records that importing and planning define
are plain slotted classes (see ``loss``).
"""

from __future__ import annotations

import functools
import re
from collections import namedtuple

PRIMITIVES = ("str", "int", "float", "bool", "date", "datetime", "time", "binary")

# Words the pivot concrete syntax claims for itself. Element names drawn from
# foreign platforms are sanitized away from these so every valid model can be
# printed and re-parsed.
RESERVED_WORDS = frozenset(
    ("model", "enum", "class", "extends", "association", "id", "nav") + PRIMITIVES
)

_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")
_NOT_ALNUM_RE = re.compile(r"[^A-Za-z0-9]+")


def is_identifier(name: str) -> bool:
    return bool(_IDENT_RE.match(name))


def sanitize_identifier(name: str) -> str:
    """Coerce a foreign name into a pivot identifier.

    Each run of spaces, punctuation and underscores becomes one underscore,
    and none is kept at either end; a non-letter start gets an ``X``
    prefix; reserved words get a trailing underscore. Deterministic, so
    repeated runs rename identically. Callers record a RENAMED loss entry
    when the result differs from the input.

    An ASCII name of letters, digits and single inner underscores, which
    the regex would return unchanged, skips it.
    """
    if name.isascii() and name.replace("_", "").isalnum() and "__" not in name \
            and name[0] != "_" and name[-1] != "_":
        cleaned = name
    else:
        cleaned = _NOT_ALNUM_RE.sub("_", name).strip("_") or "Unnamed"
    if not cleaned[0].isalpha():
        cleaned = "X" + cleaned
    if cleaned.lower() in RESERVED_WORDS:
        cleaned += "_"
    return cleaned


def fit_name(name: str, limit: int | None) -> str:
    """``name`` if it fits ``limit`` characters (or there is no limit), else
    its first ``limit - 6`` characters and 6 hex digits of its sha1 (long
    names stay distinct)."""
    if limit is None or len(name) <= limit:
        return name
    import hashlib  # only long names need it: imported here to keep it out of start-up

    return name[:limit - 6] + hashlib.sha1(name.encode("utf-8")).hexdigest()[:6].upper()


class Namespace:
    """The names generated so far in one scope: a model's tables or sheets,
    a table's columns, a sheet's headers, an imported model's classes.

    Names compare case-insensitively, as in ``validate_model``, XLSX sheet
    names and the table names of ``infer_model``. The caller applies its
    own fold first (``sanitize_identifier``, ``sql_name``...) and records a
    RENAMED loss entry when the claimed name differs from what it asked for.
    """

    __slots__ = ("limit", "_taken")

    def __init__(self, limit: int | None = None, taken=()):
        self.limit = limit
        self._taken = {name.lower() for name in taken}

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._taken

    def claim(self, *candidates: str) -> str:
        """The first candidate, fitted to the limit, that is still free; when
        all are taken, the first free ``<first candidate>_<n>`` for n = 2, 3..."""
        limit, taken = self.limit, self._taken
        for candidate in candidates:
            name = candidate if limit is None or len(candidate) <= limit \
                else fit_name(candidate, limit)
            low = name.lower()
            if low not in taken:
                break
        else:
            number = 2
            while (low := (name := fit_name(f"{candidates[0]}_{number}", limit)).lower()) \
                    in taken:
                number += 1
        taken.add(low)
        return name


class Folds(dict):
    """``fold(name)`` for each name looked up, computed on the first lookup.

    One call's memo of a pure name fold (``sanitize_identifier``,
    ``sql_name``): names repeat within a model (the same property in many
    classes, a class in many associations), so each distinct name is folded
    once. It lives as long as the call that made it, so nothing is kept
    from one model to the next.
    """

    __slots__ = ("fold",)

    def __init__(self, fold):
        super().__init__()
        self.fold = fold

    def __missing__(self, name: str) -> str:
        folded = self[name] = self.fold(name)
        return folded


class Record:
    """The equality of a named-tuple record: equal only to a record of its own
    class with equal fields, never to a plain tuple, and hashed as the tuple
    of its fields. It comes first among a record's bases."""

    __slots__ = ()

    def __eq__(self, other):
        if isinstance(other, tuple):
            return type(other) is type(self) and tuple.__eq__(self, other)
        return NotImplemented

    def __ne__(self, other):
        if isinstance(other, tuple):
            return type(other) is not type(self) or tuple.__ne__(self, other)
        return NotImplemented

    __hash__ = tuple.__hash__


class SlotRecord:
    """Value ``==`` for a record that is a plain class with ``__slots__``, for
    the records that are compared: equal to a record of its own class with
    equal slots. Such a record is mutable, so it has no hash."""

    __slots__ = ()

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)


class TypeRef(Record, namedtuple("TypeRef", "kind primitive enum_name", defaults=(None, None))):
    """Reference to a primitive type or a declared enumeration: ``kind`` is
    ``primitive`` or ``enumeration``."""

    __slots__ = ()

    def key(self) -> tuple:
        return (self.kind, self.primitive, self.enum_name)

    def display(self) -> str:
        return self.primitive if self.kind == "primitive" else (self.enum_name or "?")


_PRIMITIVE_TYPES = {name: TypeRef(kind="primitive", primitive=name) for name in PRIMITIVES}


def primitive_type(name: str) -> TypeRef:
    """The one shared reference to primitive ``name``."""
    type_ref = _PRIMITIVE_TYPES.get(name)
    if type_ref is None:
        raise ValueError(f"not a pivot primitive: {name!r}")
    return type_ref


def enum_type(name: str) -> TypeRef:
    return TypeRef(kind="enumeration", enum_name=name)


class Property(Record, namedtuple("Property", "name type is_id", defaults=(False,))):
    """A class attribute: its name, its type and whether it is the class's id."""

    __slots__ = ()


class Class(Record, namedtuple("Class", "name properties", defaults=((),))):
    """A named class and its properties, in declaration order."""

    __slots__ = ()


class Multiplicity(Record, namedtuple("Multiplicity", "lower upper")):
    """The bounds of an association end; ``upper`` None is unbounded (``*``)."""

    __slots__ = ()

    @property
    def is_many(self) -> bool:
        return self.upper is None or self.upper > 1

    def display(self) -> str:
        upper = "*" if self.upper is None else str(self.upper)
        return f"{self.lower}..{upper}"


MANY = Multiplicity(0, None)


class AssociationEnd(Record, namedtuple("AssociationEnd", "role class_name multiplicity navigable",
                                          defaults=(MANY, True))):
    """One end of an association: its role, its class, multiplicity and navigability."""

    __slots__ = ()


class Association(Record, namedtuple("Association", "name end1 end2")):
    """A binary association between the classes of its two ends."""

    __slots__ = ()

    @property
    def ends(self) -> tuple[AssociationEnd, AssociationEnd]:
        return (self.end1, self.end2)

    @property
    def kind(self) -> str:
        """``many-to-many``, ``many-to-one`` or ``one-to-one``, from the ends' upper bounds."""
        many1 = self.end1.multiplicity.is_many
        many2 = self.end2.multiplicity.is_many
        if many1 and many2:
            return "many-to-many"
        if many1 or many2:
            return "many-to-one"
        return "one-to-one"

    @property
    def link(self) -> tuple[AssociationEnd, AssociationEnd]:
        """(host end, referenced end) of a many-to-one or one-to-one link: the
        many end hosts a many-to-one, and a one-to-one is hosted by the end
        that sorts first by (class, role)."""
        end1, end2 = self.end1, self.end2
        many1 = end1.multiplicity.is_many
        if many1 == end2.multiplicity.is_many:
            if (end2.class_name, end2.role) < (end1.class_name, end1.role):
                return end2, end1
            return end1, end2
        return (end1, end2) if many1 else (end2, end1)


class Generalization(Record, namedtuple("Generalization", "general specific")):
    """``specific`` inherits from ``general``; both are class names."""

    __slots__ = ()


class Enumeration(Record, namedtuple("Enumeration", "name literals", defaults=((),))):
    """A named enumeration and its literals, in declaration order."""

    __slots__ = ()


class DomainModel(Record, namedtuple("DomainModel",
                                     "name classes associations generalizations enumerations",
                                     defaults=((), (), (), ()))):
    """The pivot model: its name, classes, associations, generalizations and enumerations."""

    __slots__ = ()


def empty_model(name: str = "Model") -> DomainModel:
    return DomainModel(name=name)


# ---------------------------------------------------------------------------
# Validation


class Violation(Record, namedtuple("Violation", "rule element message")):
    """One broken well-formedness rule: its code, the element and why."""

    __slots__ = ()

    def __str__(self) -> str:
        return f"{self.rule} [{self.element}]: {self.message}"


class ValidationResult:
    """The violations ``validate_model`` found; true when there are none."""

    __slots__ = ("violations",)

    def __init__(self, violations: list[Violation] | None = None):
        self.violations = [] if violations is None else violations

    @property
    def ok(self) -> bool:
        return not self.violations

    def rules(self) -> set[str]:
        return {v.rule for v in self.violations}

    def __bool__(self) -> bool:
        return self.ok

    def __str__(self) -> str:
        if self.ok:
            return "ok"
        return "\n".join(str(v) for v in self.violations)


def _check_name(value: str, kind: str, out: list[Violation]):
    if not is_identifier(value):
        out.append(Violation("BAD_IDENTIFIER", value or f"<empty {kind}>",
                             f"{kind} name must start with a letter and use letters/digits/underscore"))


@functools.cache
def _identifiers_re() -> re.Pattern:
    """Identifiers, each followed by NUL, compiled on first use. No
    identifier holds NUL, so each repetition reads exactly one name and the
    possessive ``++`` never has to give one back."""
    return re.compile(r"(?:[A-Za-z][A-Za-z0-9_]*\0)++")


def _all_identifiers(model: DomainModel) -> bool:
    """Whether every name ``validate_model`` checks is an identifier: one
    fullmatch over the names joined by NUL, as in
    ``tabular.infer_column_type``. A name that holds NUL would read as two,
    so the NUL count must equal the name count."""
    names = [model.name]
    names += [cls.name for cls in model.classes]
    names += [prop.name for cls in model.classes for prop in cls.properties]
    for enum in model.enumerations:
        names.append(enum.name)
        names += enum.literals
    for assoc in model.associations:
        names += (assoc.name, assoc.end1.role, assoc.end2.role)
    joined = "\0".join(names) + "\0"
    return joined.count("\0") == len(names) and _identifiers_re().fullmatch(joined) is not None


def validate_model(model: DomainModel) -> ValidationResult:
    """Check every pivot invariant; violations are returned, never raised.

    The names are checked together first; only when one of them fails does
    each name get its own check, in the order its violation is reported.
    """
    out: list[Violation] = []
    bad_names = not _all_identifiers(model)

    if bad_names:
        _check_name(model.name, "model", out)

    # lowercase -> the first name declared; the names not stored there (case
    # twins, repeats, clashes) are few, and are kept aside to tell a reference
    # to them from an undeclared one
    class_names: dict[str, str] = {}
    other_classes: set[str] = set()
    for cls in model.classes:
        if bad_names:
            _check_name(cls.name, "class", out)
        low = cls.name.lower()
        if low in class_names:
            out.append(Violation("DUPLICATE_CLASS_NAME", cls.name,
                                 f"clashes with class {class_names[low]!r} (names compare case-insensitively)"))
            other_classes.add(cls.name)
        else:
            class_names[low] = cls.name

    enum_names: dict[str, str] = {}
    other_enums: set[str] = set()
    for enum in model.enumerations:
        if bad_names:
            _check_name(enum.name, "enumeration", out)
        low = enum.name.lower()
        if low in enum_names:
            out.append(Violation("DUPLICATE_ENUM_NAME", enum.name, "enumeration name repeated"))
            other_enums.add(enum.name)
        elif low in class_names:
            out.append(Violation("DUPLICATE_ENUM_NAME", enum.name,
                                 f"clashes with class {class_names[low]!r}"))
            other_enums.add(enum.name)
        else:
            enum_names[low] = enum.name
        if enum.name in _PRIMITIVE_TYPES:
            # such an enum could never be referenced: the concrete syntax
            # resolves primitive names first
            out.append(Violation("RESERVED_ENUM_NAME", enum.name,
                                 "enumeration may not shadow a primitive type name"))
        if not enum.literals:
            out.append(Violation("EMPTY_ENUM", enum.name, "enumeration needs at least one literal"))
        seen_lits = set()
        for lit in enum.literals:
            if bad_names:
                _check_name(lit, "literal", out)
            if lit in seen_lits:
                out.append(Violation("DUPLICATE_LITERAL", f"{enum.name}.{lit}", "literal repeated"))
            seen_lits.add(lit)

    def declared(name: str, names: dict[str, str], others: set[str]) -> bool:
        return names.get(name.lower()) == name or name in others

    for cls in model.classes:
        prop_names = set()
        id_props = [p.name for p in cls.properties if p.is_id]
        if len(id_props) > 1:
            out.append(Violation("MULTIPLE_ID_PROPERTIES", cls.name,
                                 f"more than one id property: {', '.join(id_props)}"))
        for prop in cls.properties:
            if bad_names:
                _check_name(prop.name, "property", out)
            low = prop.name.lower()
            if low in prop_names:
                out.append(Violation("DUPLICATE_PROPERTY_NAME", f"{cls.name}.{prop.name}",
                                     "property name repeated within class (case-insensitive)"))
            prop_names.add(low)
            t = prop.type
            if t.kind == "primitive":
                if t.primitive not in _PRIMITIVE_TYPES or t.enum_name is not None:
                    out.append(Violation("BAD_TYPE", f"{cls.name}.{prop.name}",
                                         f"malformed primitive type reference {t!r}"))
            elif t.kind == "enumeration":
                if not t.enum_name or t.primitive is not None:
                    out.append(Violation("BAD_TYPE", f"{cls.name}.{prop.name}",
                                         f"malformed enumeration type reference {t!r}"))
                elif not declared(t.enum_name, enum_names, other_enums):
                    out.append(Violation("UNKNOWN_ENUM", f"{cls.name}.{prop.name}",
                                         f"references absent enumeration {t.enum_name!r}"))
            else:
                out.append(Violation("BAD_TYPE", f"{cls.name}.{prop.name}",
                                     f"unknown type kind {t.kind!r}"))

    for assoc in model.associations:
        if bad_names:
            _check_name(assoc.name, "association", out)
        for end in (assoc.end1, assoc.end2):
            if bad_names:
                _check_name(end.role, "role", out)
            if not declared(end.class_name, class_names, other_classes):
                out.append(Violation("DANGLING_END", f"{assoc.name}.{end.role}",
                                     f"references absent class {end.class_name!r}"))
            m = end.multiplicity
            if m.lower < 0 or (m.upper is not None and (m.upper < 1 or m.lower > m.upper)):
                out.append(Violation("BAD_MULTIPLICITY", f"{assoc.name}.{end.role}",
                                     f"bounds {m.display()} out of order"))
        if assoc.end1.class_name == assoc.end2.class_name and assoc.end1.role == assoc.end2.role:
            out.append(Violation("DUPLICATE_ROLE", assoc.name,
                                 "self-association ends need distinct role names"))

    children_seen: dict[str, str] = {}
    edges: dict[str, str] = {}  # specific -> general, for cycle walk
    for gen in model.generalizations:
        label = f"{gen.specific}->{gen.general}"
        if gen.general == gen.specific:
            out.append(Violation("SELF_GENERALIZATION", label, "a class cannot specialize itself"))
            continue
        for name in (gen.general, gen.specific):
            if not declared(name, class_names, other_classes):
                out.append(Violation("DANGLING_GENERALIZATION", label,
                                     f"references absent class {name!r}"))
        if gen.specific in children_seen:
            # single inheritance: the concrete syntax can express at most one
            # parent per class, so a second one would be unprintable
            out.append(Violation("MULTIPLE_PARENTS", gen.specific,
                                 f"already specializes {children_seen[gen.specific]!r}"))
        else:
            children_seen[gen.specific] = gen.general
            edges[gen.specific] = gen.general

    # settled once per class: a walk up the parents meeting a class twice is in or below a cycle
    cyclic: dict[str, bool] = {}
    for start in edges:
        path, node = {}, start
        while node in edges and node not in cyclic and node not in path:
            path[node] = None
            node = edges[node]
        cyclic.update(dict.fromkeys(path, node in path or cyclic.get(node, False)))
        if cyclic[start]:
            out.append(Violation("GENERALIZATION_CYCLE", start,
                                 "generalization graph contains a cycle"))

    return ValidationResult(out)


def require_valid(model: DomainModel, context: str = "model") -> DomainModel:
    """Raise InvalidModelError unless the model validates; convenience gate."""
    from .errors import InvalidModelError

    result = validate_model(model)
    if not result.ok:
        raise InvalidModelError(f"{context} failed validation", result.violations)
    return model


# ---------------------------------------------------------------------------
# Structural equality


def _end_key(end: AssociationEnd) -> tuple:
    # Roles and navigability are presentation-level: the PlantUML interchange
    # syntax cannot carry them, so they stay out of the equivalence.
    # Unbounded upper sorts as -1 to keep keys comparable.
    upper = -1 if end.multiplicity.upper is None else end.multiplicity.upper
    return (end.class_name, end.multiplicity.lower, upper)


def association_key(assoc: Association) -> tuple:
    """Name and ends (class and bounds), the identity ``model_equal`` compares."""
    ends = sorted([_end_key(assoc.end1), _end_key(assoc.end2)])
    return (assoc.name, tuple(ends))


def _class_key(cls: Class) -> tuple:
    props = sorted((p.name, p.type.key(), p.is_id) for p in cls.properties)
    return (cls.name, tuple(props))


def model_equal(a: DomainModel, b: DomainModel) -> bool:
    """Equality up to collection ordering; the model's own name is ignored."""
    if sorted(map(_class_key, a.classes)) != sorted(map(_class_key, b.classes)):
        return False
    if sorted(map(association_key, a.associations)) != \
            sorted(map(association_key, b.associations)):
        return False
    gens_a = sorted((g.general, g.specific) for g in a.generalizations)
    gens_b = sorted((g.general, g.specific) for g in b.generalizations)
    if gens_a != gens_b:
        return False
    enums_a = sorted((e.name, frozenset(e.literals)) for e in a.enumerations)
    enums_b = sorted((e.name, frozenset(e.literals)) for e in b.enumerations)
    return enums_a == enums_b

