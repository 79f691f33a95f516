"""Relational planning and DDL emission, verified on an embedded engine."""

import random
import sqlite3

import hashlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lcpbridge.model import (
    Association,
    AssociationEnd,
    Class,
    DomainModel,
    Enumeration,
    Generalization,
    Multiplicity,
    Property,
    empty_model,
    enum_type,
    primitive_type,
)
from lcpbridge.relational import (
    _ANSI_TYPES,
    DIALECTS,
    MAX_NAME,
    SQL_TYPES,
    ColumnPlan,
    ForeignKeyPlan,
    RelationalSchemaPlan,
    TablePlan,
    emit_sql,
    plan_relational,
    sql_name,
)
from lcpbridge.workbook import plan_workbook

from expected import (
    expected_fk_count,
    expected_table_count,
    manifest_problems,
    plan_problems,
    reference_sql_name,
    reference_table_order,
    table_named,
    with_reason,
)
from generators import adversarial_name, fresh_name, random_model


def run_script(script: str) -> sqlite3.Connection:
    conn = sqlite3.connect(":memory:")
    conn.executescript(script)
    return conn


def introspect_tables(conn) -> list[str]:
    rows = conn.execute(
        "SELECT name FROM sqlite_master WHERE type='table' ORDER BY name").fetchall()
    return [r[0] for r in rows]


def introspect_fk_count(conn) -> int:
    total = 0
    for table in introspect_tables(conn):
        fks = conn.execute(f'PRAGMA foreign_key_list("{table}")').fetchall()
        total += len({row[0] for row in fks})  # group composite FKs by id
    return total


def assert_runs_on_sqlite(plan, model):
    """The ANSI script runs and makes the tables and foreign keys the model needs."""
    conn = run_script(emit_sql(plan, dialect="ansi"))
    assert len(introspect_tables(conn)) == expected_table_count(model)
    assert introspect_fk_count(conn) == expected_fk_count(model)
    conn.close()


def _m(c1, c2, m1, m2, name="A1", r1="left", r2="right"):
    return Association(name, AssociationEnd(r1, c1, m1), AssociationEnd(r2, c2, m2))


class TestPlan:
    def test_single_class(self):
        model = DomainModel("M", classes=(
            Class("Book", (Property("title", primitive_type("str")),)),))
        plan, loss = plan_relational(model)
        assert [t.name for t in plan.tables] == ["BOOK"]
        book = plan.tables[0]
        assert [c.name for c in book.columns] == ["ID", "TITLE"]
        assert book.primary_key == ["ID"]

    def test_many_to_one_fk_on_many_side(self):
        model = DomainModel("M", classes=(Class("Book"), Class("Library")),
                            associations=(_m("Book", "Library",
                                             Multiplicity(0, None), Multiplicity(0, 1)),))
        plan, _ = plan_relational(model)
        book = table_named(plan, "BOOK")
        fk_col = next(c for c in book.columns if c.name == "LIBRARY_ID")
        assert fk_col.nullable
        assert book.foreign_keys[0].ref_table == "LIBRARY"

    def test_mandatory_one_end_not_null(self):
        model = DomainModel("M", classes=(Class("Book"), Class("Library")),
                            associations=(_m("Book", "Library",
                                             Multiplicity(0, None), Multiplicity(1, 1)),))
        plan, _ = plan_relational(model)
        fk_col = next(c for c in table_named(plan, "BOOK").columns
                      if c.name == "LIBRARY_ID")
        assert not fk_col.nullable

    def test_many_to_many_junction(self):
        model = DomainModel("M", classes=(Class("Book"), Class("Author")),
                            associations=(_m("Book", "Author",
                                             Multiplicity(0, None), Multiplicity(0, None)),))
        plan, _ = plan_relational(model)
        junction = table_named(plan, "BOOK_AUTHOR")
        assert junction is not None
        assert junction.primary_key == ["BOOK_ID", "AUTHOR_ID"]
        assert len(junction.foreign_keys) == 2

    @pytest.mark.parametrize("m1, m2, relaxed", [
        (Multiplicity(1, None), Multiplicity(1, 1), ["lower bound 1 on left not enforced"]),
        (Multiplicity(2, None), Multiplicity(1, None),
         ["lower bound 2 on left not enforced", "lower bound 1 on right not enforced"]),
        (Multiplicity(1, 1), Multiplicity(1, 1), []),
    ], ids=["many-to-one", "many-to-many", "one-to-one"])
    def test_unenforced_lower_bounds_reported(self, m1, m2, relaxed):
        model = DomainModel("M", classes=(Class("A"), Class("B")),
                            associations=(_m("A", "B", m1, m2),))
        _, loss = plan_relational(model)
        assert [i.detail for i in with_reason(loss, "MULTIPLICITY_RELAXED")] == relaxed

    def test_one_to_one_unique_fk(self):
        model = DomainModel("M", classes=(Class("Person"), Class("Passport")),
                            associations=(_m("Person", "Passport",
                                             Multiplicity(1, 1), Multiplicity(0, 1)),))
        plan, _ = plan_relational(model)
        # host = alphabetically first class
        passport = table_named(plan, "PASSPORT")
        fk_col = next(c for c in passport.columns if c.name.endswith("_ID"))
        assert fk_col.unique
        assert passport.foreign_keys[0].column == fk_col.name

    def test_generalization_shared_key(self):
        model = DomainModel("M", classes=(Class("Media"), Class("Book")),
                            generalizations=(
                                __import__("lcpbridge.model", fromlist=["Generalization"])
                                .Generalization("Media", "Book"),))
        plan, _ = plan_relational(model)
        book = table_named(plan, "BOOK")
        assert book.foreign_keys[0].column == "ID"
        assert book.foreign_keys[0].ref_table == "MEDIA"
        assert not book.identity_pk

    def test_enum_property_membership_check(self):
        model = DomainModel("M",
                            classes=(Class("Ticket", (Property("status", enum_type("S")),)),),
                            enumerations=(Enumeration("S", ("OPEN", "CLOSED")),))
        plan, _ = plan_relational(model)
        col = next(c for c in table_named(plan, "TICKET").columns if c.name == "STATUS")
        assert col.check == '"STATUS" IN (\'OPEN\', \'CLOSED\')'

    def test_time_property_coerced_with_loss(self):
        model = DomainModel("M", classes=(
            Class("Slot", (Property("starts", primitive_type("time")),)),))
        plan, loss = plan_relational(model)
        col = next(c for c in table_named(plan, "SLOT").columns if c.name == "STARTS")
        assert col.sql_type == "VARCHAR2(8)"
        assert with_reason(loss, "TYPE_COERCED")

    def test_column_collision_reports_both_names(self):
        model = DomainModel("M", classes=(
            Class("T", (Property("a_b", primitive_type("int")),
                        Property("aB", primitive_type("int")),)),))
        plan, loss = plan_relational(model)
        assert [c.name for c in table_named(plan, "T").columns] == ["ID", "A_B", "A_B_2"]
        assert [(e.element_name, e.detail) for e in with_reason(loss, "RENAMED")] == \
            [("T.aB", "column A_B_2 in table T")]
        assert_runs_on_sqlite(plan, model)

    @pytest.mark.parametrize("name", ["ID", "Id", "id"])
    def test_property_named_like_the_surrogate_key(self, name):
        model = DomainModel("M", classes=(
            Class("Book", (Property(name, primitive_type("str")),)),))
        plan, loss = plan_relational(model)
        assert [c.name for c in table_named(plan, "BOOK").columns] == ["ID", "ID_2"]
        assert [(e.element_name, e.detail) for e in with_reason(loss, "RENAMED")] == [
            ("Book", "table BOOK"), (f"Book.{name}", "column ID_2 in table BOOK")]
        assert_runs_on_sqlite(plan, model)

    def test_classes_folding_to_one_table_name(self):
        model = DomainModel("M", classes=(Class("aB"), Class("a_b")), associations=(
            _m("aB", "a_b", Multiplicity(0, None), Multiplicity(0, 1), name="L"),
            _m("aB", "a_b", Multiplicity(0, None), Multiplicity(0, None), name="N")))
        plan, loss = plan_relational(model)
        assert [t.name for t in plan.tables] == ["A_B", "A_B_2", "A_B_A_B_2"]
        assert [(fk.column, fk.ref_table) for fk in table_named(plan, "A_B").foreign_keys] \
            == [("A_B_2_ID", "A_B_2")]
        assert [c.name for c in table_named(plan, "A_B_A_B_2").columns] == \
            ["A_B_ID", "A_B_2_ID"]
        assert [(e.element_name, e.detail) for e in with_reason(loss, "RENAMED")] == [
            ("aB", "table A_B"), ("a_b", "table A_B_2")]
        assert_runs_on_sqlite(plan, model)

    def test_camel_and_snake_properties_folding_to_one_column(self):
        model = DomainModel("M", classes=(Class("T", (
            Property("fooBar", primitive_type("int")),
            Property("foo_Bar", primitive_type("str")),
            Property("FOO_BAR_2", primitive_type("str")))),))
        plan, loss = plan_relational(model)
        assert [c.name for c in table_named(plan, "T").columns] == \
            ["ID", "FOO_BAR", "FOO_BAR_2", "FOO_BAR_2_2"]
        assert [e.element_name for e in with_reason(loss, "RENAMED")] == \
            ["T.foo_Bar", "T.FOO_BAR_2"]
        assert_runs_on_sqlite(plan, model)

    @pytest.mark.parametrize("m1, m2, role", [
        (Multiplicity(0, None), Multiplicity(0, 1), "manager"),
        (Multiplicity(0, 1), Multiplicity(0, 1), "reports"),  # hosted on the end sorted first
    ], ids=["many-to-one", "one-to-one"])
    def test_self_reference_stored_under_the_class_name_is_reported(self, m1, m2, role):
        """As in a self junction (test_self_many_to_many_with_case_twin_roles)."""
        model = DomainModel("M", classes=(Class("Person", (
            Property("managerId", primitive_type("int")),
            Property("reportsId", primitive_type("int")))),), associations=(
            _m("Person", "Person", m1, m2, name="Manages", r1="reports", r2="manager"),))
        plan, loss = plan_relational(model)
        assert [c.name for c in table_named(plan, "PERSON").columns] == \
            ["ID", "MANAGER_ID", "REPORTS_ID", "PERSON_ID"]
        assert [(e.element_name, e.detail) for e in with_reason(loss, "RENAMED")] == [
            ("Person", "table PERSON"),
            ("Manages", f"role {role} stored as column PERSON_ID in table PERSON")]
        assert_runs_on_sqlite(plan, model)

    def test_self_association_role_columns(self):
        model = DomainModel("M", classes=(Class("Person"),),
                            associations=(_m("Person", "Person",
                                             Multiplicity(0, None), Multiplicity(0, 1),
                                             r1="reports", r2="manager"),))
        plan, _ = plan_relational(model)
        person = table_named(plan, "PERSON")
        assert any(c.name == "MANAGER_ID" for c in person.columns)

    def test_self_many_to_many_with_case_twin_roles(self):
        model = DomainModel("M", classes=(Class("Person"),), associations=(
            _m("Person", "Person", Multiplicity(0, None), Multiplicity(0, None),
               name="Knows", r1="a", r2="A"),))
        plan, loss = plan_relational(model)
        junction = table_named(plan, "PERSON_PERSON")
        assert [c.name for c in junction.columns] == ["A_ID", "PERSON_ID"]
        assert [(e.element_kind, e.element_name) for e in with_reason(loss, "RENAMED")] == \
            [("class", "Person"), ("association", "Knows")]
        assert_runs_on_sqlite(plan, model)

    def test_self_many_to_many_with_roles_named_like_the_class(self):
        model = DomainModel("M", classes=(Class("Person"),), associations=(
            _m("Person", "Person", Multiplicity(0, None), Multiplicity(0, None),
               name="Knows", r1="person", r2="Person"),))
        plan, loss = plan_relational(model)
        junction = table_named(plan, "PERSON_PERSON")
        assert [c.name for c in junction.columns] == ["PERSON_ID", "PERSON_ID_2"]
        assert [(e.element_name, e.detail) for e in with_reason(loss, "RENAMED")] == [
            ("Person", "table PERSON"),
            ("Knows", "role Person stored as column PERSON_ID_2 in table PERSON_PERSON")]
        assert_runs_on_sqlite(plan, model)

    def test_foreign_key_with_both_candidates_taken_is_numbered(self):
        model = DomainModel("M", classes=(
            Class("Person"),
            Class("Order", (Property("personId", primitive_type("int")),
                            Property("ownerId", primitive_type("int"))))), associations=(
            _m("Order", "Person", Multiplicity(0, None), Multiplicity(0, 1),
               name="Owns", r1="orders", r2="owner"),))
        plan, loss = plan_relational(model)
        order = table_named(plan, "ORDER")
        assert [c.name for c in order.columns] == ["ID", "PERSON_ID", "OWNER_ID", "PERSON_ID_2"]
        assert [fk.column for fk in order.foreign_keys] == ["PERSON_ID_2"]
        assert [e.element_name for e in with_reason(loss, "RENAMED")] == \
            ["Person", "Order", "Owns"]
        assert_runs_on_sqlite(plan, model)

    def test_validate_reports_duplicate_column(self):
        key = ColumnPlan(name="A_ID", sql_type="NUMBER(10)")
        plan = RelationalSchemaPlan([TablePlan(name="T", columns=[key, key])])
        assert plan_problems(plan) == ["duplicate column name: T.A_ID"]


class TestNames:
    def test_upper_snake(self):
        assert sql_name("BookAuthor") == "BOOK_AUTHOR"
        assert sql_name("pages") == "PAGES"
        assert sql_name("Sales_Order") == "SALES_ORDER"

    def test_truncation_is_stable_and_bounded(self):
        long_name = "AVeryLongClassNameThatKeepsGoingAndGoing"
        first = sql_name(long_name)
        assert len(first) <= 30
        assert first == sql_name(long_name)
        other = sql_name(long_name + "More")
        assert first != other  # hash suffix keeps them apart


def loop_sql_name(name: str) -> str:
    """sql_name as a character loop: the reference for the regex version."""
    flat = []
    prev_lower = False
    for ch in name:
        if ch.isupper() and prev_lower:
            flat.append("_")
        flat.append(ch.upper())
        prev_lower = ch.islower() or ch.isdigit()
    result = "".join(flat).replace("__", "_")
    if len(result) > MAX_NAME:
        digest = hashlib.sha1(result.encode("utf-8")).hexdigest()[:6].upper()
        result = result[:MAX_NAME - 6] + digest
    return result


# pivot identifiers: an ASCII letter, then letters, digits and underscores,
# drawn so that runs of capitals, "__" and names past 30 characters occur
PIVOT_IDENTIFIERS = st.builds(
    lambda head, parts: head + "".join(parts),
    st.sampled_from("aAzZqQ"),
    st.lists(st.sampled_from(["a", "b", "Z", "XY", "ABC", "0", "9", "_", "__", "id", "Id"]),
             max_size=25))


@settings(max_examples=300, deadline=None)
@given(PIVOT_IDENTIFIERS)
@example("HTTPServer")
@example("field0Value")
@example("a__B")
@example("AVeryLongClassNameThatKeepsGoingAndGoing")
def test_sql_name_matches_reference(name):
    assert sql_name(name) == loop_sql_name(name)


class TestEmit:
    def test_empty_plan(self):
        plan, _ = plan_relational(empty_model("M"))
        assert emit_sql(plan, dialect="ansi") == ""

    def test_single_table_no_alter(self):
        model = DomainModel("M", classes=(Class("Book"),))
        plan, _ = plan_relational(model)
        script = emit_sql(plan, dialect="oracle")
        assert script.count("CREATE TABLE") == 1
        assert "ALTER TABLE" not in script

    def test_oracle_uses_identity_and_alter(self, library_model):
        plan, _ = plan_relational(library_model)
        script = emit_sql(plan, dialect="oracle")
        assert "GENERATED BY DEFAULT AS IDENTITY" in script
        assert "ALTER TABLE" in script
        assert "VARCHAR2" in script

    def test_ansi_runs_on_sqlite(self, library_model):
        plan, _ = plan_relational(library_model)
        conn = run_script(emit_sql(plan, dialect="ansi"))
        tables = introspect_tables(conn)
        assert set(tables) == {"AUTHOR", "BOOK", "BOOK_AUTHOR", "LIBRARY"}

    def test_self_association_cycle_accepted(self):
        model = DomainModel("M", classes=(Class("Person"),),
                            associations=(_m("Person", "Person",
                                             Multiplicity(0, None), Multiplicity(0, 1),
                                             r1="reports", r2="manager"),))
        plan, _ = plan_relational(model)
        for dialect in ("oracle", "ansi"):
            script = emit_sql(plan, dialect=dialect)
            if dialect == "ansi":
                run_script(script)
        # oracle flavor: FK arrives via ALTER after the create
        oracle = emit_sql(plan, dialect="oracle")
        assert oracle.index("CREATE TABLE") < oracle.index("ALTER TABLE")

    def test_determinism(self, library_model):
        plan1, _ = plan_relational(library_model)
        plan2, _ = plan_relational(library_model)
        for dialect in ("oracle", "ansi"):
            assert emit_sql(plan1, dialect=dialect) == emit_sql(plan2, dialect=dialect)

    def test_unknown_dialect(self, library_model):
        plan, _ = plan_relational(library_model)
        with pytest.raises(ValueError):
            emit_sql(plan, dialect="postgres")


@st.composite
def models_with_generalizations(draw):
    """Valid models with up to 9 generalizations (chains included), fresh or
    adversarial names, and the classes in any order, so a child may come
    before its parent."""
    model = random_model(random.Random(draw(st.integers(0, 2**31))),
                         max_generalizations=draw(st.integers(0, 9)),
                         names=draw(st.sampled_from((fresh_name, adversarial_name))))
    order = draw(st.permutations(range(len(model.classes))))
    return model._replace(classes=tuple(model.classes[i] for i in order))


class TestTableOrder:
    def test_parents_first_then_junctions(self):
        model = DomainModel("M", classes=(Class("Manager"), Class("Person"), Class("Employee"),
                                          Class("Team")),
                            associations=(_m("Team", "Person", Multiplicity(0, None),
                                             Multiplicity(0, None)),),
                            generalizations=(Generalization("Employee", "Manager"),
                                             Generalization("Person", "Employee")))
        plan, _ = plan_relational(model)
        assert [t.name for t in plan.tables] == \
            ["PERSON", "TEAM", "EMPLOYEE", "MANAGER", "TEAM_PERSON"]
        script = emit_sql(plan, dialect="ansi")
        assert script.index('"PERSON" (') < script.index('"EMPLOYEE" (') \
            < script.index('"MANAGER" (')
        assert_runs_on_sqlite(plan, model)

    @settings(max_examples=300, deadline=None)
    @given(models_with_generalizations())
    def test_plan_order_is_the_emitters_former_order(self, model):
        plan, _ = plan_relational(model)
        # a plan without generalizations lists the same table names in model
        # order, the order the plan used to have before emit_sql sorted it
        model_order = [t.name for t in plan_relational(
            model._replace(generalizations=()))[0].tables]
        as_listed = sorted(plan.tables, key=lambda t: model_order.index(t.name))
        expected = reference_table_order(RelationalSchemaPlan(as_listed))
        assert [t.name for t in plan.tables] == [t.name for t in expected]


class TestEngineOracle:
    def test_random_models_execute_and_counts_match(self):
        rng = random.Random(31)
        for _ in range(30):
            model = random_model(rng)
            plan, _ = plan_relational(model)
            conn = run_script(emit_sql(plan, dialect="ansi"))
            tables = introspect_tables(conn)
            assert len(tables) == expected_table_count(model)
            assert introspect_fk_count(conn) == expected_fk_count(model)
            conn.close()

    def test_id_values_and_checks_enforced(self, library_model):
        plan, _ = plan_relational(library_model)
        conn = run_script(emit_sql(plan, dialect="ansi"))
        conn.execute("PRAGMA foreign_keys = ON")
        conn.execute('INSERT INTO "LIBRARY" ("ID", "NAME") VALUES (1, \'Central\')')
        conn.execute('INSERT INTO "BOOK" ("ID", "TITLE", "PAGES", "STATUS", '
                     '"PUBLISHED", "LIBRARY_ID") '
                     "VALUES (1, 'Dune', 412, 'AVAILABLE', '01/08/1965', 1)")
        with pytest.raises(sqlite3.IntegrityError):
            conn.execute('INSERT INTO "BOOK" ("ID", "STATUS") VALUES (2, \'NOT_A_STATUS\')')
        with pytest.raises(sqlite3.IntegrityError):
            conn.execute('INSERT INTO "BOOK" ("ID", "LIBRARY_ID") VALUES (3, 99)')


def _long(stem: str) -> str:
    """A 40-character identifier; FK columns built from it pass 30 characters."""
    return (stem + "WithAVeryLongName" * 3)[:40]


class TestLongNames:
    @pytest.mark.parametrize("m1, m2, self_assoc", [
        (Multiplicity(0, None), Multiplicity(0, 1), False),
        (Multiplicity(0, 1), Multiplicity(1, 1), False),
        (Multiplicity(0, None), Multiplicity(1, None), False),
        (Multiplicity(0, None), Multiplicity(0, 1), True),
        (Multiplicity(0, None), Multiplicity(0, None), True),
    ], ids=["many-to-one", "one-to-one", "many-to-many", "self-many-to-one",
            "self-many-to-many"])
    def test_fk_columns_fit_and_ddl_runs(self, m1, m2, self_assoc):
        first, second = _long("Order"), _long("Customer")
        if self_assoc:
            second = first
        classes = (Class(first),) if self_assoc else (Class(first), Class(second))
        model = DomainModel("M", classes=classes, associations=(
            _m(first, second, m1, m2, name=_long("Link"),
               r1=_long("placedOrders"), r2=_long("buyer")),))
        plan, _ = plan_relational(model)
        assert plan_problems(plan) == []
        assert manifest_problems(plan_workbook(model)[0]) == []
        assert_runs_on_sqlite(plan, model)

    def test_two_long_references_stay_distinct(self):
        host, a, b = _long("Order"), _long("CustomerA"), _long("CustomerB")
        model = DomainModel("M", classes=(Class(host), Class(a), Class(b)), associations=(
            _m(host, a, Multiplicity(0, None), Multiplicity(0, 1), name="L1"),
            _m(host, b, Multiplicity(0, None), Multiplicity(0, 1), name="L2")))
        plan, _ = plan_relational(model)
        assert plan_problems(plan) == []
        fk_columns = [fk.column for fk in plan.tables[0].foreign_keys]
        assert len(set(fk_columns)) == 2
        conn = run_script(emit_sql(plan, dialect="ansi"))
        assert introspect_fk_count(conn) == expected_fk_count(model)


# The emitter as it was before it rendered each table in one pass: each
# constraint name went through sql_name whole, here with every name through
# the camelCase substitution, as the lookbehind alone folds it. It is the
# reference the one-pass emitter is held to, byte for byte.


def _reference_render_type(sql_type: str, dialect: str) -> str:
    if dialect == "ansi":
        return _ANSI_TYPES.get(sql_type, sql_type)
    return sql_type


def _reference_constraint_name(prefix: str, *parts: str) -> str:
    raw = "_".join((prefix,) + parts)
    return reference_sql_name(raw)


def _reference_emit_table(table: TablePlan, dialect: str) -> str:
    body: list[tuple[str, str]] = []  # (definition, trailing comment)
    for col in table.columns:
        parts = [f'  "{col.name}" {_reference_render_type(col.sql_type, dialect)}']
        comment = ""
        if col.name == "ID" and table.identity_pk:
            if dialect == "oracle":
                parts.append("GENERATED BY DEFAULT AS IDENTITY")
            else:
                parts.append("NOT NULL")
                comment = "populate from a sequence or the application"
        elif not col.nullable:
            parts.append("NOT NULL")
        body.append((" ".join(parts), comment))
    if table.primary_key:
        cols = ", ".join(f'"{c}"' for c in table.primary_key)
        body.append((f'  CONSTRAINT "{_reference_constraint_name("PK", table.name)}" '
                     f"PRIMARY KEY ({cols})", ""))
    for col in table.columns:
        if col.unique:
            name = _reference_constraint_name("UQ", table.name, col.name)
            body.append((f'  CONSTRAINT "{name}" UNIQUE ("{col.name}")', ""))
    for col in table.columns:
        if col.check:
            name = _reference_constraint_name("CK", table.name, col.name)
            body.append((f'  CONSTRAINT "{name}" CHECK ({col.check})', ""))
    if dialect == "ansi":
        for fk in table.foreign_keys:
            name = _reference_constraint_name("FK", table.name, fk.column)
            body.append((f'  CONSTRAINT "{name}" FOREIGN KEY ("{fk.column}") '
                         f'REFERENCES "{fk.ref_table}" ("ID")', ""))

    lines = [f'CREATE TABLE "{table.name}" (']
    for i, (definition, comment) in enumerate(body):
        comma = "," if i < len(body) - 1 else ""
        suffix = f" -- {comment}" if comment else ""
        lines.append(definition + comma + suffix)
    lines.append(");")
    return "\n".join(lines)


def reference_emit_sql(plan: RelationalSchemaPlan, dialect: str) -> str:
    if not plan.tables:
        return ""
    statements = [_reference_emit_table(t, dialect) for t in plan.tables]
    if dialect == "oracle":
        for table in plan.tables:
            for fk in table.foreign_keys:
                name = _reference_constraint_name("FK", table.name, fk.column)
                statements.append(
                    f'ALTER TABLE "{table.name}" ADD CONSTRAINT "{name}" '
                    f'FOREIGN KEY ("{fk.column}") REFERENCES "{fk.ref_table}" ("ID");')
    return "\n\n".join(statements) + "\n"


# Plans built directly, past what plan_relational makes: names as drawn or
# as sql_name folds them ("__" inside, "_" at the end), the surrogate key
# anywhere or alone, any mix of flags. Column names stay unique in their
# table, which emit_sql trusts.
_PLAN_NAMES = st.one_of(PIVOT_IDENTIFIERS, PIVOT_IDENTIFIERS.map(sql_name), st.just("ID"))
PLANS = st.builds(RelationalSchemaPlan, st.lists(st.builds(
    TablePlan, _PLAN_NAMES,
    st.lists(st.builds(ColumnPlan, _PLAN_NAMES, st.sampled_from(sorted(SQL_TYPES.values())),
                       st.booleans(), st.booleans(), st.none() | st.just("1 = 1")),
             max_size=4, unique_by=lambda column: column.name.lower()),
    st.lists(_PLAN_NAMES, max_size=2),
    st.lists(st.builds(ForeignKeyPlan, _PLAN_NAMES, _PLAN_NAMES), max_size=2),
    st.booleans()), max_size=4))


class TestEmitMatchesReference:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**31), st.sampled_from(DIALECTS))
    def test_adversarial_models(self, seed, dialect):
        model = random_model(random.Random(seed), names=adversarial_name)
        plan, _ = plan_relational(model)
        assert emit_sql(plan, dialect) == reference_emit_sql(plan, dialect)

    @settings(max_examples=300, deadline=None)
    @given(PLANS, st.sampled_from(DIALECTS))
    def test_any_plan(self, plan, dialect):
        assert emit_sql(plan, dialect) == reference_emit_sql(plan, dialect)

    @pytest.mark.parametrize("dialect", DIALECTS)
    @pytest.mark.parametrize("cls, prop, constraint", [
        # the plan's column X1Y folds again, to X1_Y
        ("T", "x1y", "CK_T_X1_Y"),
        # the table CLASS_ and the join make "__", which merges
        ("Class_", "flag", "CK_CLASS_FLAG"),
        # past 30 characters: the first 24 and a sha1 suffix
        (_long("Order"), _long("isShipped"),
         sql_name(f"CK_{sql_name(_long('Order'))}_{sql_name(_long('isShipped'))}")),
    ], ids=["digit-before-capital", "reserved-word-table", "long"])
    def test_named_cases(self, cls, prop, constraint, dialect):
        model = DomainModel("M", classes=(Class(cls, (Property(prop, primitive_type("bool")),)),))
        plan, _ = plan_relational(model)
        script = emit_sql(plan, dialect)
        assert script == reference_emit_sql(plan, dialect)
        assert f'CONSTRAINT "{constraint}" CHECK' in script
        assert len(constraint) <= MAX_NAME

    @pytest.mark.parametrize("dialect", DIALECTS)
    @pytest.mark.parametrize("columns, primary_key", [
        ([ColumnPlan("ID", "NUMBER(10)", False)], []),
        ([ColumnPlan("A", "DATE"), ColumnPlan("ID", "NUMBER(10)", False)], ["ID"]),
    ], ids=["identity-key-alone", "identity-key-not-first"])
    def test_hand_built_identity_tables(self, columns, primary_key, dialect):
        plan = RelationalSchemaPlan([TablePlan("T", columns, primary_key)])
        assert emit_sql(plan, dialect) == reference_emit_sql(plan, dialect)
