"""What the generators must produce for a pivot model, counted from the model
alone, lookups by name into the plans they build, and the tabular type
ladder a value at a time."""

from __future__ import annotations

import re

from lcpbridge.model import DomainModel
from lcpbridge.relational import RelationalSchemaPlan, TablePlan
from lcpbridge.tabular import _temporal_kind
from lcpbridge.workbook import ManifestSheet, WorkbookManifest


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


def table_named(plan: RelationalSchemaPlan, name: str) -> TablePlan | None:
    return next((t for t in plan.tables if t.name == name), None)


def sheet_named(manifest: WorkbookManifest, name: str) -> ManifestSheet | None:
    return next((s for s in manifest.sheets if s.name == name), None)


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
