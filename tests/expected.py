"""What the generators must produce for a pivot model, counted from the model
alone, and lookups by name into the plans they build."""

from __future__ import annotations

from lcpbridge.model import DomainModel
from lcpbridge.relational import RelationalSchemaPlan, TablePlan
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
