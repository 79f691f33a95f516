"""Migration-path planning over the capability registry.

For each end of a source/target pair the planner picks the formal method
(the platform's parseable model export or import, handled by an adapter in
``pipeline.IMPORTERS`` or ``pipeline.EXPORTERS``) or the alternative method
(screenshot through a vision model on the way out, structured workbook on
the way in), then predicts the information loss the chosen combination will
incur.
"""

from __future__ import annotations

from .capabilities import CapabilityMatrix, default_matrix
from .errors import NoViablePathError
from .loss import LossReport
from .pipeline import EXPORTERS, IMPORTERS

# Formal import happens only through real model formats, not data-file
# inference; these are the tokens with a faithful generator behind them.
FORMAL_IMPORT_FORMATS = ("SQL",)


class MigrationPlan:
    """The chain of steps from a source to a target platform, and its expected
    losses. Each method is ``formal`` or ``alternative``; ``matrix`` is the
    registry the plan was made from, which the repr leaves out."""

    __slots__ = ("source", "target", "export_method", "import_method", "chain",
                 "expected_losses", "matrix")

    def __init__(self, source: str, target: str, export_method: str, import_method: str,
                 chain: tuple[str, ...], expected_losses: LossReport, matrix: CapabilityMatrix):
        self.source = source
        self.target = target
        self.export_method = export_method
        self.import_method = import_method
        self.chain = chain
        self.expected_losses = expected_losses
        self.matrix = matrix

    def __repr__(self) -> str:
        return (f"MigrationPlan(source={self.source!r}, target={self.target!r}, "
                f"export_method={self.export_method!r}, import_method={self.import_method!r}, "
                f"chain={self.chain!r}, expected_losses={self.expected_losses!r})")

    def as_dict(self) -> dict:
        return {
            "source": self.source,
            "target": self.target,
            "export_method": self.export_method,
            "import_method": self.import_method,
            "chain": list(self.chain),
            "expected_losses": [i.as_dict() for i in self.expected_losses],
        }


def plan_migration(source: str, target: str,
                   matrix: CapabilityMatrix | None = None) -> MigrationPlan:
    """Choose methods and the adapter chain for a platform pair.

    Export: formal only when the source exports a complete data model in a
    format a registered importer parses. A partial export is combined with
    the screenshot path so the vision model can recover the missing
    relationships. Import: formal needs full data import through a real
    model format (SQL) with a generator behind it; anything else falls
    back to the structured workbook.
    """
    matrix = matrix or default_matrix()
    source_cap = matrix.get(source, "export")
    target_cap = matrix.get(target, "import")
    losses = LossReport()
    chain: list[str] = []

    # --- export leg -------------------------------------------------------
    formal_importer = next((a.id for token in source_cap.formats
                            for a in IMPORTERS.values() if token in a.formats), None)

    if source_cap.data == "full" and formal_importer is not None:
        export_method = "formal"
        chain.append(formal_importer)
        if formal_importer == "tabular":
            # data-file export: the structure survives but not the links
            losses.add("model", source, "ASSOCIATIONS_UNKNOWN", "warning",
                       "tabular export carries no explicit relationships")
    else:
        export_method = "alternative"
        if source_cap.data == "partial" and any(
                t in IMPORTERS["tabular"].formats for t in source_cap.formats):
            chain.append("tabular")
            losses.add("model", source, "ASSOCIATIONS_UNKNOWN", "warning",
                       "partial export lacks relationships; recovered from the image")
        chain.append("image-llm")
        losses.add("model", source, "LLM_INFERRED", "info",
                   "elements read from a screenshot by a vision model; review advised")

    if source_cap.third_party:
        losses.add("model", source, "THIRD_PARTY_REQUIRED", "info",
                   "source export needs an external application")

    # --- import leg -------------------------------------------------------
    if target_cap.data == "none":
        raise NoViablePathError(
            f"platform {target!r} offers no data-model import at all")

    formal_exporter = next((a.id for token in target_cap.formats
                            if token in FORMAL_IMPORT_FORMATS
                            for a in EXPORTERS.values() if token in a.formats), None)

    if target_cap.data == "full" and formal_exporter is not None:
        import_method = "formal"
        chain.append(formal_exporter)
    else:
        import_method = "alternative"
        chain.append("workbook")
        losses.add("model", target, "ASSOCIATIONS_UNKNOWN", "warning",
                   "workbook import: relationships must be inferred from the "
                   "sample row and may be dropped by the platform")
        if "XLSX" not in target_cap.formats and "CSV" not in target_cap.formats:
            losses.add("model", target, "DROPPED", "warning",
                       "target lists no tabular import format; workbook may be rejected")

    if target_cap.third_party:
        losses.add("model", target, "THIRD_PARTY_REQUIRED", "info",
                   "target import needs an external application")

    return MigrationPlan(source=source, target=target,
                         export_method=export_method, import_method=import_method,
                         chain=tuple(chain), expected_losses=losses, matrix=matrix)
