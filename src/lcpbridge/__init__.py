"""lcpbridge: migrate structural data models between low-code platforms.

Importers (Mendix JSON, PlantUML, tabular exports, screenshot-via-LLM)
produce a pivot model; generators (Oracle-style SQL, structured workbook,
CSV, PlantUML) turn it into something the target platform can ingest. The
planner picks the path from the capability registry and predicts the
information loss.
"""

from .capabilities import CapabilityMatrix, load_capabilities, query_capabilities
from .dsl import load_pivot_file, parse_pivot_text, print_pivot_text, save_pivot_file
from .llm import (
    HttpVisionClient,
    PromptContext,
    ReplayVisionClient,
    VisionRequest,
    build_prompt,
    extract_model,
    invoke_vision_model,
    merge_models,
)
from .loss import LossItem, LossReport
from .mendix import load_mendix_export, mendix_to_pivot, parse_mendix_export
from .model import (
    Association,
    AssociationEnd,
    Class,
    DomainModel,
    Enumeration,
    Generalization,
    Multiplicity,
    Property,
    TypeRef,
    enum_type,
    model_equal,
    primitive_type,
    validate_model,
)
from .pipeline import (
    ExecutionOptions,
    ExecutionResult,
    MigrationInputs,
    execute_from_pivot,
    execute_import,
    execute_migration,
)
from .planner import MigrationPlan, plan_migration
from .plantuml import emit_plantuml, parse_plantuml
from .relational import RelationalSchemaPlan, emit_sql, plan_relational
from .tabular import TabularSource, infer_model, load_tabular
from .workbook import WorkbookManifest, emit_workbook, plan_workbook

__version__ = "0.1.0"
