"""Output checks that feed the benchmark's failure count.

Each check compares a migration's artifacts with counts taken from the
input generator's spec, never with lcpbridge's own expectations. The
checks run after timing and are not part of any measured time.
"""

from __future__ import annotations

import json
import sqlite3
import zipfile
from pathlib import Path

from lcpbridge.dsl import load_pivot_file
from lcpbridge.relational import emit_sql, plan_relational


def _common(out: Path) -> list[str]:
    problems = []
    for name in ("model.bml", "loss-report.json"):
        if not (out / name).is_file():
            problems.append(f"{name} missing")
    if not problems and "items" not in json.loads((out / "loss-report.json").read_text()):
        problems.append("loss-report.json has no items list")
    return problems


def formal_sql(out: Path, expect: dict) -> list[str]:
    """ANSI DDL from the persisted model.bml runs on sqlite with the spec's counts."""
    problems = _common(out)
    if problems:
        return problems
    if not (out / "model.sql").read_text(encoding="utf-8").startswith("CREATE TABLE"):
        problems.append("model.sql does not start with CREATE TABLE")
    plan, _ = plan_relational(load_pivot_file(out / "model.bml"))
    conn = sqlite3.connect(":memory:")
    try:
        conn.executescript(emit_sql(plan, dialect="ansi"))
        tables = [row[0] for row in conn.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table'")]
        fks = sum(len(conn.execute(f'PRAGMA foreign_key_list("{t}")').fetchall())
                  for t in tables)
    finally:
        conn.close()
    if len(tables) != expect["tables"]:
        problems.append(f"{len(tables)} tables, spec has {expect['tables']}")
    if fks != expect["foreign_keys"]:
        problems.append(f"{fks} foreign keys, spec has {expect['foreign_keys']}")
    return problems


def screenshot_workbook(out: Path, expect: dict) -> list[str]:
    """One sheet per class and bridge; the merge adds every drawn association."""
    problems = _common(out)
    if problems:
        return problems
    with zipfile.ZipFile(out / "model.xlsx") as book:
        sheets = [n for n in book.namelist() if n.startswith("xl/worksheets/")]
    if len(sheets) != expect["sheets"]:
        problems.append(f"{len(sheets)} sheets, spec has {expect['sheets']}")
    report = json.loads((out / "merge-report.json").read_text(encoding="utf-8"))
    if sorted(report["added_associations"]) != expect["associations"]:
        problems.append("merge report does not add exactly the drawn associations")
    return problems


def bulk_rows(out: Path, expect: dict) -> list[str]:
    """Every column of model.bml carries the type its values were drawn from."""
    problems = _common(out)
    if problems:
        return problems
    model = load_pivot_file(out / "model.bml")
    found = {c.name: [(p.name, p.type.display()) for p in c.properties] for c in model.classes}
    for table, columns in expect["types"].items():
        if found.get(table) != [tuple(c) for c in columns]:
            problems.append(f"class {table}: {found.get(table)} != drawn {columns}")
    if len(found) != expect["classes"]:
        problems.append(f"{len(found)} classes, spec has {expect['classes']}")
    return problems


CHECKS = {"formal-sql": formal_sql, "screenshot-workbook": screenshot_workbook,
          "bulk-rows": bulk_rows}


def same_artifacts(left: Path, right: Path) -> list[str]:
    """Byte-for-byte comparison of two output directories."""
    names = sorted(p.name for p in left.iterdir())
    if names != sorted(p.name for p in right.iterdir()):
        return [f"different files: {names}"]
    return [f"{name} is not byte-identical" for name in names
            if (left / name).read_bytes() != (right / name).read_bytes()]
