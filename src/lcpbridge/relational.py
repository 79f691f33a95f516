"""Relational DDL generation for Oracle-Apex-style import.

The classic class-diagram-to-relational mapping: one table per class with a
surrogate key, foreign keys for many-to-one and one-to-one associations,
junction tables for many-to-many, and class-table inheritance where the
child's primary key is also a foreign key to the parent. The ``ansi``
dialect keeps the script runnable on an embedded engine (sqlite) for
verification; ``oracle`` is what ships.

The pivot model read here stays immutable (see ``model``). The plan records
are plain classes with ``__slots__``: ``plan_relational`` builds one per
column and foreign key, tens of thousands on a large model, and sets a
child table's key after it is built; only it writes them, and ``emit_sql``
reads them once, rendering each table in one pass.

A constraint's name is ``sql_name`` of its prefix and plan names joined by
``_``. The camelCase boundary (a capital after a lowercase letter or a
digit) never touches a ``_``, so that fold distributes over the join:
``emit_sql`` folds each distinct plan name once per call and upper-cases,
merges ``__`` and fits only the joined name. The plan names are folded
again because ``sql_name`` is not idempotent: the column ``X1Y``, which
``sql_name("x1y")`` gives, folds to ``X1_Y``.
"""

from __future__ import annotations

import re

from .loss import LossReport
from .model import AssociationEnd, Class, DomainModel, Folds, Namespace, fit_name

MAX_NAME = 30  # classic Oracle identifier limit

# pivot primitive -> Oracle column type (the plan stores Oracle flavor)
SQL_TYPES = {
    "str": "VARCHAR2(255)",
    "int": "NUMBER(10)",
    "float": "NUMBER(18,4)",
    "bool": "NUMBER(1)",
    "date": "DATE",
    "datetime": "TIMESTAMP",
    "time": "VARCHAR2(8)",
    "binary": "BLOB",
}

_ANSI_TYPES = {
    "VARCHAR2(255)": "VARCHAR(255)",
    "NUMBER(10)": "NUMERIC(10)",
    "NUMBER(18,4)": "NUMERIC(18,4)",
    "NUMBER(1)": "NUMERIC(1)",
    "VARCHAR2(8)": "VARCHAR(8)",
}

DIALECTS = ("oracle", "ansi")


_CAMEL_BOUNDARY = re.compile(r"(?<=[a-z0-9])(?=[A-Z])")


def sql_name(name: str) -> str:
    """Upper snake case, truncated to 30 chars with a stable hash suffix.

    ``name`` is a pivot identifier, which ``validate_model`` keeps ASCII, or
    a name built from such identifiers; the boundary rule (``_`` before a
    capital that follows a lowercase letter or digit) is an ASCII rule.
    """
    return fit_name(_CAMEL_BOUNDARY.sub("_", name).upper().replace("__", "_"), MAX_NAME)


class ColumnPlan:
    """One column: its SQL name and type, nullability, uniqueness and check
    (a column-scoped membership or range predicate)."""

    __slots__ = ("name", "sql_type", "nullable", "unique", "check")

    def __init__(self, name: str, sql_type: str, nullable: bool = True, unique: bool = False,
                 check: str | None = None):
        self.name = name
        self.sql_type = sql_type
        self.nullable = nullable
        self.unique = unique
        self.check = check


class ForeignKeyPlan:
    """A column that references the ``ID`` key of ``ref_table``."""

    __slots__ = ("column", "ref_table")

    def __init__(self, column: str, ref_table: str):
        self.column = column
        self.ref_table = ref_table


class TablePlan:
    """One table: its columns, primary key and foreign keys, and whether the
    database fills its surrogate key (``identity_pk``)."""

    __slots__ = ("name", "columns", "primary_key", "foreign_keys", "identity_pk")

    def __init__(self, name: str, columns: list[ColumnPlan] | None = None,
                 primary_key: list[str] | None = None,
                 foreign_keys: list[ForeignKeyPlan] | None = None, identity_pk: bool = True):
        self.name = name
        self.columns = [] if columns is None else columns
        self.primary_key = ["ID"] if primary_key is None else primary_key
        self.foreign_keys = [] if foreign_keys is None else foreign_keys
        self.identity_pk = identity_pk


class RelationalSchemaPlan:
    """The tables of a schema, in the order ``emit_sql`` creates them."""

    __slots__ = ("tables",)

    def __init__(self, tables: list[TablePlan] | None = None):
        self.tables = [] if tables is None else tables


def _quoted_literal(value: str) -> str:
    return "'" + value.replace("'", "''") + "'"


def plan_relational(model: DomainModel) -> tuple[RelationalSchemaPlan, LossReport]:
    """Derive the table layout for a valid pivot model; names are unique as claimed.

    The class tables come parents first (stably, by generalization depth),
    then the junctions, which is the order ``emit_sql`` creates them in.
    Property and role names repeat across classes and associations, so each
    of them goes through ``sql_name`` once per distinct name in the call.
    """
    loss = LossReport()

    table_of_class: dict[str, TablePlan] = {}
    columns_of: dict[str, Namespace] = {}  # table name -> its columns
    tables = Namespace(MAX_NAME)
    sql_names = Folds(sql_name)
    enum_literals = {e.name: e.literals for e in model.enumerations}
    # enumeration name -> the check's IN list, built on first use
    memberships = Folds(lambda enum: ", ".join(map(_quoted_literal, enum_literals[enum])))

    for cls in model.classes:
        table_name = tables.claim(sql_name(cls.name))
        if table_name != cls.name:
            loss.add("class", cls.name, "RENAMED", "info", f"table {table_name}")
        table = TablePlan(table_name, [ColumnPlan("ID", "NUMBER(10)", False)])
        columns = columns_of[table_name] = Namespace(MAX_NAME, ("ID",))
        for prop in cls.properties:
            folded = sql_names[prop.name]
            col_name = columns.claim(folded)
            if col_name != folded:
                loss.add("property", f"{cls.name}.{prop.name}", "RENAMED", "info",
                         f"column {col_name} in table {table_name}")
            type_ref = prop.type
            if type_ref.kind == "enumeration":
                table.columns.append(ColumnPlan(
                    col_name, "VARCHAR2(255)", not prop.is_id, prop.is_id,
                    f'"{col_name}" IN ({memberships[type_ref.enum_name]})'))
            else:
                primitive = type_ref.primitive
                check = f'"{col_name}" IN (0, 1)' if primitive == "bool" else None
                if primitive == "time":
                    loss.add("property", f"{cls.name}.{prop.name}", "TYPE_COERCED",
                             "warning", "time stored as 8-char text")
                table.columns.append(ColumnPlan(
                    col_name, SQL_TYPES[primitive], not prop.is_id, prop.is_id, check))
        table_of_class[cls.name] = table

    parent_of: dict[str, str] = {}
    for gen in model.generalizations:
        parent_of[gen.specific] = gen.general
        child = table_of_class[gen.specific]
        child.identity_pk = False  # shares the parent's key value
        child.foreign_keys.append(ForeignKeyPlan("ID", table_of_class[gen.general].name))
        loss.add("generalization", f"{gen.specific}->{gen.general}", "GENERALIZATION_FLATTENED",
                 "info", "class-table inheritance: child key doubles as FK to parent")

    def fk_column(table: TablePlan, ref_end: AssociationEnd, assoc_name: str,
                  prefer_role: bool) -> str:
        # self-associations name the column after the role (MANAGER_ID, not
        # PERSON_ID); otherwise the referenced table names it. A column named
        # after neither the first choice nor the role is reported.
        role_key = fit_name(sql_names[ref_end.role] + "_ID", MAX_NAME)
        table_key = fit_name(table_of_class[ref_end.class_name].name + "_ID", MAX_NAME)
        candidates = (role_key, table_key) if prefer_role else (table_key, role_key)
        column = columns_of[table.name].claim(*candidates)
        if column != candidates[0] and column != role_key:
            loss.add("association", assoc_name, "RENAMED", "info",
                     f"role {ref_end.role} stored as column {column} in table {table.name}")
        return column

    junctions: list[TablePlan] = []
    for assoc in model.associations:
        end1, end2 = assoc.end1, assoc.end2
        same_class = end1.class_name == end2.class_name
        if assoc.kind == "many-to-many":
            table1, table2 = table_of_class[end1.class_name], table_of_class[end2.class_name]
            base = f"{table1.name}_{table2.name}"
            if len(base) > MAX_NAME:
                base = sql_name(base)
            junction = TablePlan(name=tables.claim(base, sql_name(f"{base}_{assoc.name}")),
                                 primary_key=[], identity_pk=False)
            columns_of[junction.name] = Namespace(MAX_NAME)
            for end in (end1, end2):
                col = fk_column(junction, end, assoc.name, same_class)
                junction.columns.append(ColumnPlan(col, "NUMBER(10)", False))
                junction.primary_key.append(col)
                junction.foreign_keys.append(ForeignKeyPlan(
                    col, table_of_class[end.class_name].name))
            junctions.append(junction)
            relaxed = (end1, end2)
        else:
            host_end, ref_end = assoc.link
            host = table_of_class[host_end.class_name]
            col = fk_column(host, ref_end, assoc.name, same_class)
            one_to_one = assoc.kind == "one-to-one"
            host.columns.append(ColumnPlan(
                col, "NUMBER(10)", ref_end.multiplicity.lower == 0, one_to_one))
            host.foreign_keys.append(ForeignKeyPlan(col, table_of_class[ref_end.class_name].name))
            relaxed = () if one_to_one else (host_end,)
        for end in relaxed:
            if end.multiplicity.lower > 0:
                loss.add("association", assoc.name, "MULTIPLICITY_RELAXED", "info",
                         f"lower bound {end.multiplicity.lower} on {end.role} not enforced")

    depth_of: dict[str, int] = {}  # each class's depth, settled once

    def depth(cls: Class) -> int:
        path, name = [], cls.name
        while name in parent_of and name not in depth_of:
            path.append(name)
            name = parent_of[name]
        for count, name in enumerate(reversed(path), start=depth_of.get(name, 0) + 1):
            depth_of[name] = count
        return depth_of.get(cls.name, 0)

    # sorted() is stable, so classes of equal depth keep the model's order
    class_tables = [table_of_class[cls.name] for cls in sorted(model.classes, key=depth)]
    return RelationalSchemaPlan(class_tables + junctions), loss


# ---------------------------------------------------------------------------
# Emission


def emit_sql(plan: RelationalSchemaPlan, dialect: str = "oracle") -> str:
    """Deterministic DDL script for the plan.

    The tables are created in plan order, which ``plan_relational`` makes
    parents first, junctions last. oracle: CREATE TABLEs followed by ALTER
    TABLE ... ADD CONSTRAINT for every foreign key (safe for cycles). ansi:
    foreign keys are inlined in the CREATE statements because the embedded
    verification engine does not support adding constraints afterwards. The
    plan is trusted as built: ``plan_relational`` claims every name from a
    ``Namespace``. Constraint names are built as the module docstring says.
    """
    if dialect not in DIALECTS:
        raise ValueError(f"unknown dialect {dialect!r}; expected one of {DIALECTS}")
    ansi = dialect == "ansi"
    folds = Folds(lambda name: _CAMEL_BOUNDARY.sub("_", name))

    def constraint(name: str) -> str:
        return fit_name(name.upper().replace("__", "_"), MAX_NAME)

    creates: list[str] = []
    alters: list[str] = []  # oracle adds the foreign keys once every table exists
    for table in plan.tables:
        quoted, folded = f'"{table.name}"', folds[table.name]
        body: list[str] = []
        noted = -1  # ansi's identity key, whose comment follows its comma
        for col in table.columns:
            sql_type = _ANSI_TYPES.get(col.sql_type, col.sql_type) if ansi else col.sql_type
            if col.name == "ID" and table.identity_pk:
                if ansi:
                    noted = len(body)
                body.append(f'  "ID" {sql_type} '
                            + ("NOT NULL" if ansi else "GENERATED BY DEFAULT AS IDENTITY"))
            else:
                body.append(f'  "{col.name}" {sql_type}'
                            + ("" if col.nullable else " NOT NULL"))
        if table.primary_key:
            cols = ", ".join(f'"{c}"' for c in table.primary_key)
            body.append(f'  CONSTRAINT "{constraint("PK_" + folded)}" PRIMARY KEY ({cols})')
        body += [f'  CONSTRAINT "{constraint(f"UQ_{folded}_{folds[col.name]}")}" '
                 f'UNIQUE ("{col.name}")' for col in table.columns if col.unique]
        body += [f'  CONSTRAINT "{constraint(f"CK_{folded}_{folds[col.name]}")}" '
                 f"CHECK ({col.check})" for col in table.columns if col.check]
        for fk in table.foreign_keys:
            name = constraint(f"FK_{folded}_{folds[fk.column]}")
            references = f'FOREIGN KEY ("{fk.column}") REFERENCES "{fk.ref_table}" ("ID")'
            if ansi:
                body.append(f'  CONSTRAINT "{name}" {references}')
            else:
                alters.append(f'ALTER TABLE {quoted} ADD CONSTRAINT "{name}" {references};')
        if noted >= 0:
            note = " -- populate from a sequence or the application"
            body[noted:noted + 2] = [f"{body[noted]},{note}\n{body[noted + 1]}"
                                     if noted + 1 < len(body) else body[noted] + note]
        head = f"CREATE TABLE {quoted} ("
        creates.append(f"{head}\n" + ",\n".join(body) + "\n);" if body else f"{head}\n);")
    return "\n\n".join(creates + alters) + "\n" if creates else ""
