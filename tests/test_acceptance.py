"""Acceptance suite: one test per criterion, each printing PASS or FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines interleaved with pytest's own output.
"""

import json
import random
import sqlite3
import sys
import time
from contextlib import contextmanager
from datetime import datetime

import pytest

from lcpbridge.capabilities import query_capabilities
from lcpbridge.dsl import parse_pivot_text, print_pivot_text
from lcpbridge.llm import ReplayVisionClient, merge_models
from lcpbridge.mendix import load_mendix_export, mendix_to_pivot, parse_mendix_export
from lcpbridge.model import empty_model, model_equal, validate_model
from lcpbridge.pipeline import (
    ExecutionOptions,
    MigrationInputs,
    execute_from_pivot,
    execute_migration,
)
from lcpbridge.planner import plan_migration
from lcpbridge.plantuml import emit_plantuml, parse_plantuml
from lcpbridge.relational import (
    emit_sql,
    plan_relational,
)
from lcpbridge.workbook import (
    ListDropdown,
    SheetDropdown,
    plan_workbook,
)

from expected import expected_dropdown_count, expected_fk_count, expected_table_count, is_empty
from generators import random_mendix_export, random_merge_pair, random_model
from test_capabilities import GOLDEN


@contextmanager
def criterion(number: int, name: str):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[ACCEPTANCE {number}] {name}: FAIL", file=sys.stderr)
        raise
    elapsed = time.perf_counter() - started
    print(f"[ACCEPTANCE {number}] {name}: PASS ({elapsed:.2f}s)", file=sys.stderr)


def test_criterion_1_capability_golden_data():
    with criterion(1, "capability registry matches all 20 golden rows"):
        started = time.perf_counter()
        for (platform, direction), expected in sorted(GOLDEN.items()):
            record = query_capabilities(platform, direction)
            assert (record.data, record.gui, record.behavior,
                    record.third_party, record.formats) == expected, (platform, direction)
        assert len(GOLDEN) == 20
        assert time.perf_counter() - started < 1.0


def test_criterion_2_pivot_round_trips():
    with criterion(2, "DSL and PlantUML round-trips on 200 random models"):
        started = time.perf_counter()
        rng = random.Random(20240201)
        for _ in range(200):
            model = random_model(rng, max_classes=10, max_associations=15,
                                 max_enums=3, max_generalizations=3)
            text = print_pivot_text(model)
            parsed = parse_pivot_text(text)
            assert model_equal(parsed, model)
            assert print_pivot_text(parsed) == text
            assert model_equal(parse_plantuml(emit_plantuml(model)).model, model)
        assert time.perf_counter() - started < 30.0


def test_criterion_3_mendix_mapping(mendix_library_path):
    with criterion(3, "Mendix mapping: library fixture + count conservation"):
        export = load_mendix_export(mendix_library_path)
        model, _ = mendix_to_pivot(export)
        assert len(model.classes) == 3
        assert len(model.associations) == 2
        assert len(model.enumerations) == 1

        by_name = {a.name: a for a in model.associations}
        # Reference/Default: child 0..*, parent 0..1
        ends = {e.class_name: e.multiplicity for e in by_name["Book_Library"].ends}
        assert (ends["Book"].lower, ends["Book"].upper) == (0, None)
        assert (ends["Library"].lower, ends["Library"].upper) == (0, 1)
        # ReferenceSet/Default: 0..* both sides
        ends = {e.class_name: e.multiplicity for e in by_name["Book_Author"].ends}
        assert (ends["Book"].lower, ends["Book"].upper) == (0, None)
        assert (ends["Author"].lower, ends["Author"].upper) == (0, None)

        rng = random.Random(20240203)
        for _ in range(100):
            doc = random_mendix_export(rng)
            parsed = parse_mendix_export(doc)
            pivot, _ = mendix_to_pivot(parsed)
            assert len(pivot.classes) == len(parsed.entities)
            assert len(pivot.associations) == len(parsed.associations)
            assert len(pivot.enumerations) == len(parsed.enumerations)
            assert validate_model(pivot).ok


def test_criterion_4_spreadsheet_rules():
    with criterion(4, "workbook generation rules on 100 random models"):
        rng = random.Random(20240204)
        for _ in range(100):
            model = random_model(rng)
            manifest, _ = plan_workbook(model)

            class_sheets = [s for s in manifest.sheets if s.kind == "class"]
            bridge_sheets = [s for s in manifest.sheets if s.kind == "bridge"]
            m2m_count = sum(1 for a in model.associations
                            if a.end1.multiplicity.is_many and a.end2.multiplicity.is_many)
            assert len(class_sheets) == len(model.classes)
            assert len(bridge_sheets) == m2m_count

            dropdowns = [c for s in manifest.sheets for c in s.columns
                         if isinstance(c.validation, SheetDropdown)]
            assert len(dropdowns) == expected_dropdown_count(model)
            for sheet in bridge_sheets:
                assert len(sheet.columns) == 2
                assert all(isinstance(c.validation, SheetDropdown) for c in sheet.columns)

            for sheet in manifest.sheets:
                assert sheet.sample_row is not None
                assert len(sheet.sample_row) == len(sheet.columns)
                for column, value in zip(sheet.columns, sheet.sample_row):
                    if column.cell_format == "DD/MM/YYYY":
                        datetime.strptime(value, "%d/%m/%Y")
                    elif column.cell_format == "DD/MM/YYYY HH:MM":
                        datetime.strptime(value, "%d/%m/%Y %H:%M")
                    elif column.cell_format == "0":
                        int(value)
                    elif column.cell_format == "0.00":
                        float(value)
                    if isinstance(column.validation, ListDropdown) \
                            and column.validation.options:
                        assert value in column.validation.options


def test_criterion_5_sql_engine_oracle():
    with criterion(5, "ANSI DDL executes on sqlite with matching counts (100 models)"):
        started = time.perf_counter()
        rng = random.Random(20240205)
        for _ in range(100):
            model = random_model(rng)
            plan, _ = plan_relational(model)
            script = emit_sql(plan, dialect="ansi")
            conn = sqlite3.connect(":memory:")
            conn.executescript(script)
            tables = [r[0] for r in conn.execute(
                "SELECT name FROM sqlite_master WHERE type='table'")]
            fk_total = 0
            for table in tables:
                rows = conn.execute(f'PRAGMA foreign_key_list("{table}")').fetchall()
                fk_total += len({row[0] for row in rows})
            assert len(tables) == expected_table_count(model)
            assert fk_total == expected_fk_count(model)
            conn.close()
        assert time.perf_counter() - started < 120.0


def test_criterion_6_merge_laws():
    with criterion(6, "merge laws on 200 random (partial, inferred) pairs"):
        rng = random.Random(20240206)
        for index in range(200):
            partial, inferred = random_merge_pair(rng)
            merged, report = merge_models(partial, inferred)
            assert validate_model(merged).ok

            # partial preservation: merge restricted to partial's elements == partial
            partial_classes = {c.name: c for c in partial.classes}
            for cls in merged.classes:
                if cls.name in partial_classes:
                    original = {p.name: p for p in partial_classes[cls.name].properties}
                    surviving = {p.name: p for p in cls.properties}
                    for name, prop in original.items():
                        assert surviving[name].type.key() == prop.type.key()
                        assert surviving[name].is_id == prop.is_id
            assert {c.name for c in partial.classes} <= {c.name for c in merged.classes}

            # identity laws
            assert model_equal(merge_models(partial, empty_model())[0], partial)
            assert model_equal(merge_models(empty_model(), inferred)[0], inferred)
            idem_merged, idem_report = merge_models(partial, partial)
            assert model_equal(idem_merged, partial)
            assert is_empty(idem_report)

            for conflict in report.conflicts:
                assert conflict.resolution == "PARTIAL_WINS"

            # associations the partial lacked arrive from the inferred side
            if not partial.associations:
                assert len(merged.associations) == len(
                    {(a.name,) for a in inferred.associations
                     if a.end1.class_name and a.end2.class_name})


def test_criterion_7_scenario_mendix_to_powerapps(tmp_path, mendix_library_path):
    with criterion(7, "end-to-end Mendix -> PowerApps workbook"):
        plan = plan_migration("mendix", "powerapps")
        assert plan.export_method == "formal"
        assert plan.import_method == "alternative"
        result = execute_migration(
            plan, MigrationInputs(files=[mendix_library_path]), tmp_path)

        manifest = json.loads((tmp_path / "model.xlsx.manifest.json").read_text())
        class_sheets = [s for s in manifest["sheets"] if s["kind"] == "class"]
        bridge_sheets = [s for s in manifest["sheets"] if s["kind"] == "bridge"]
        assert len(class_sheets) == 3
        assert [s["name"] for s in bridge_sheets] == ["BOOK_AUTHOR"]

        book = next(s for s in manifest["sheets"] if s["name"] == "Book")
        sheet_dropdowns = [c for c in book["columns"]
                           if c["validation"] and c["validation"]["kind"] == "sheet"]
        assert [c["validation"]["source_sheet"] for c in sheet_dropdowns] == ["Library"]

        warnings = [i for i in result.loss if i.reason == "ASSOCIATIONS_UNKNOWN"
                    and i.severity == "warning"]
        assert warnings, "PowerApps association risk must be reported"


def test_criterion_8_scenario_powerapps_to_apex(tmp_path, csv_paths, screenshot_path,
                                                replay_dir):
    with criterion(8, "end-to-end PowerApps -> Apex, fully offline"):
        plan = plan_migration("powerapps", "apex")
        assert plan.export_method == "alternative"
        assert plan.import_method == "formal"
        inputs = MigrationInputs(files=list(csv_paths), images=[screenshot_path],
                                 llm_client=ReplayVisionClient(replay_dir))
        result = execute_migration(plan, inputs, tmp_path,
                                   ExecutionOptions(dialect="ansi"))

        csv_classes = {p.stem for p in csv_paths}
        assert csv_classes <= {c.name for c in result.model.classes}
        assert result.merge_report is not None
        assert len(result.merge_report.added_associations) == 2

        conn = sqlite3.connect(":memory:")
        conn.executescript((tmp_path / "model.sql").read_text())
        tables = {r[0] for r in conn.execute(
            "SELECT name FROM sqlite_master WHERE type='table'")}
        assert {"BOOK", "AUTHOR", "LIBRARY", "BOOK_AUTHOR"} == tables


def test_criterion_9_determinism(tmp_path, mendix_library_path, csv_paths,
                                 screenshot_path, replay_dir):
    with criterion(9, "re-runs from the persisted pivot are byte-identical"):
        plan_a = plan_migration("mendix", "powerapps")
        run_a = execute_migration(
            plan_a, MigrationInputs(files=[mendix_library_path]), tmp_path / "a1")
        execute_from_pivot(run_a.pivot_path, "workbook", tmp_path / "a2")
        execute_from_pivot(run_a.pivot_path, "workbook", tmp_path / "a3")
        for name in ("model.xlsx", "model.xlsx.manifest.json"):
            assert (tmp_path / "a2" / name).read_bytes() == \
                (tmp_path / "a3" / name).read_bytes()
            assert (tmp_path / "a2" / name).read_bytes() == \
                (tmp_path / "a1" / name).read_bytes()

        plan_b = plan_migration("powerapps", "apex")
        inputs = MigrationInputs(files=list(csv_paths), images=[screenshot_path],
                                 llm_client=ReplayVisionClient(replay_dir))
        run_b = execute_migration(plan_b, inputs, tmp_path / "b1",
                                  ExecutionOptions(dialect="ansi"))
        execute_from_pivot(run_b.pivot_path, "apex-sql", tmp_path / "b2",
                           ExecutionOptions(dialect="ansi"))
        execute_from_pivot(run_b.pivot_path, "apex-sql", tmp_path / "b3",
                           ExecutionOptions(dialect="ansi"))
        assert (tmp_path / "b2" / "model.sql").read_bytes() == \
            (tmp_path / "b3" / "model.sql").read_bytes()
        assert (tmp_path / "b2" / "model.sql").read_bytes() == \
            (tmp_path / "b1" / "model.sql").read_bytes()
