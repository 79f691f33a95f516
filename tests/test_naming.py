"""One naming rule for every generated name, and the property that every
valid model generates: names that collide in a generator's fold are renamed,
never rejected."""

import random
import sqlite3

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lcpbridge.dsl import parse_pivot_text, print_pivot_text
from lcpbridge.model import RESERVED_WORDS, Namespace, model_equal, sanitize_identifier
from lcpbridge.relational import emit_sql, plan_relational
from lcpbridge.tabular import infer_model, load_tabular
from lcpbridge.workbook import emit_workbook, plan_workbook

from expected import (
    expected_fk_count,
    expected_table_count,
    manifest_problems,
    plan_problems,
    reference_sanitize_identifier,
)
from generators import adversarial_name, random_model


class TestNamespace:
    def test_first_free_candidate(self):
        names = Namespace(taken=("ID",))
        assert names.claim("id", "Key") == "Key"
        assert names.claim("key", "other") == "other"

    def test_numbered_after_the_first_candidate(self):
        names = Namespace(taken=("a", "b"))
        assert names.claim("A", "B") == "A_2"
        assert names.claim("a", "b") == "a_3"
        assert "A_3" in names and "c" not in names

    def test_candidates_fitted_to_the_limit(self):
        names = Namespace(limit=8)
        first = names.claim("ABCDEFGHIJ")
        assert len(first) == 8 and first.startswith("AB")
        numbered = names.claim("ABCDEFGHIJ")
        assert len(numbered) == 8 and numbered != first

    def test_no_limit_keeps_long_names(self):
        assert Namespace().claim("x" * 100) == "x" * 100


# Names drawn to sit on each edge of the fold's test: ``_`` runs, ``_`` at
# either end, digits before capitals, non-ASCII letters and digits, the empty
# string and the reserved words in any case.
_RESERVED_ANY_CASE = st.sampled_from(sorted(RESERVED_WORDS)).flatmap(
    lambda word: st.lists(st.booleans(), min_size=len(word), max_size=len(word)).map(
        lambda upper: "".join(c.upper() if u else c for c, u in zip(word, upper))))
FOLD_NAMES = st.one_of(
    st.lists(st.one_of(
        st.sampled_from(["a", "Z", "q", "B", "0", "9", "_", "__", " ", "-", ".", "\u00e9",
                         "\u00df", "\u0660", "\u2003", "Item", "x1Y", "HTTP", "Server"]),
        _RESERVED_ANY_CASE), max_size=6).map("".join),
    _RESERVED_ANY_CASE,
    st.text(max_size=8),
    st.just(""))


class TestFoldsMatchTheirRegex:
    """A name that a C-level test settles skips ``sanitize_identifier``'s
    regex; the result is what the regex alone gives."""

    @settings(max_examples=1000, deadline=None)
    @given(FOLD_NAMES)
    @example("")
    @example("_")
    @example("a__b")
    @example("_a")
    @example("a_")
    @example("\u00e9t\u00e9")
    @example("\u0660")
    @example("MODEL")
    @example("9lives")
    @example("x1Y")
    @example("HTTPServer")
    @example("CUSTOMER_ORDER")
    def test_sanitize_identifier(self, name):
        assert sanitize_identifier(name) == reference_sanitize_identifier(name)


@pytest.fixture(scope="module")
def workbook_path(tmp_path_factory):
    return tmp_path_factory.mktemp("naming") / "model.xlsx"


@settings(max_examples=500, deadline=None)
@given(st.integers(0, 2**31))
def test_every_valid_model_generates(workbook_path, seed):
    """Adversarially named valid models (see ``generators.adversarial_name``)
    round-trip through the DSL to the same text, plan to a relational schema
    and a workbook that pass the test-side checks of ``expected``, run as
    ANSI DDL on sqlite with one table per class and per many-to-many
    association, and reload from their workbook with one class per sheet.

    The PlantUML round trip is not a leg here: only reserved words still
    block it. A class named like a reserved word (``Class``) comes back with
    the ``_`` suffix that ``parse_plantuml`` gives foreign names; every other
    valid name keeps its spelling, which
    ``test_plantuml.py::TestEmit::test_round_trip_on_adversarial_models``
    checks on these models without the reserved words.
    """
    model = random_model(random.Random(seed), names=adversarial_name)

    text = print_pivot_text(model)
    parsed = parse_pivot_text(text)
    assert model_equal(parsed, model)
    assert print_pivot_text(parsed) == text  # roles, navigability and the model name too

    plan, _ = plan_relational(model)
    assert plan_problems(plan) == []
    conn = sqlite3.connect(":memory:")
    try:
        conn.executescript(emit_sql(plan, dialect="ansi"))
        tables = [row[0] for row in conn.execute(
            "SELECT name FROM sqlite_master WHERE type='table'")]
        fk_ids = sum(len({row[0] for row in conn.execute(
            f'PRAGMA foreign_key_list("{table}")')}) for table in tables)
    finally:
        conn.close()
    assert len(tables) == expected_table_count(model)
    assert fk_ids == expected_fk_count(model)

    manifest, _ = plan_workbook(model)
    assert manifest_problems(manifest) == []
    emit_workbook(manifest, workbook_path)
    inferred, _ = infer_model(load_tabular([workbook_path]))
    assert len(inferred.classes) == len(manifest.sheets)
    for sheet, cls in zip(manifest.sheets, inferred.classes):
        assert len(cls.properties) == len(sheet.columns), sheet.name
