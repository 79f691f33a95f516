"""lcpbridge: migrate structural data models between low-code platforms.

Importers (Mendix JSON, PlantUML, tabular exports, screenshot-via-LLM)
produce a pivot model; generators (Oracle-style SQL, structured workbook,
CSV, PlantUML) turn it into something the target platform can ingest. The
planner picks the path from the capability registry and predicts the
information loss.

Each public name below is imported from its module on first use, so
``import lcpbridge`` loads no layer and planning loads only the registry,
the planner and the adapter table. ``_EXPORTS`` is the one table of where
each name lives; ``pipeline`` takes its layer functions from here.
"""

import importlib

__version__ = "0.1.0"

# module -> the public names it defines
_EXPORTS = {
    "capabilities": ("CapabilityMatrix", "load_capabilities", "query_capabilities"),
    "dsl": ("load_pivot_file", "parse_pivot_text", "print_pivot_text", "read_pivot_text",
            "save_pivot_file"),
    "llm": ("HttpVisionClient", "PromptContext", "ReplayVisionClient", "VisionRequest",
            "build_prompt", "extract_model", "invoke_vision_model", "load_prompt_context",
            "merge_models"),
    "loss": ("LossItem", "LossReport"),
    "mendix": ("load_mendix_export", "mendix_to_pivot", "parse_mendix_export"),
    "model": ("Association", "AssociationEnd", "Class", "DomainModel", "Enumeration",
              "Generalization", "Multiplicity", "Property", "TypeRef", "enum_type",
              "model_equal", "primitive_type", "require_valid", "validate_model"),
    "pipeline": ("ExecutionOptions", "ExecutionResult", "MigrationInputs",
                 "execute_from_pivot", "execute_import", "execute_migration"),
    "planner": ("MigrationPlan", "plan_migration"),
    "plantuml": ("emit_plantuml", "parse_plantuml"),
    "relational": ("RelationalSchemaPlan", "emit_sql", "plan_relational"),
    "tabular": ("TabularSource", "infer_model", "load_tabular"),
    "workbook": ("WorkbookManifest", "emit_workbook", "plan_workbook"),
}
_PUBLIC = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_PUBLIC, "__version__"]


def __getattr__(name: str):
    """Import the module that defines ``name`` on its first lookup (PEP 562)."""
    if name not in _PUBLIC:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{_PUBLIC[name]}", __name__),
                                      name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
