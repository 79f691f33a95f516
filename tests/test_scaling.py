"""Cost of the formal path's layers as the model grows eightfold.

Linear work grows about 8x from 500 to 4,000 classes and quadratic work
64x; the bound of 24x leaves room for timing noise and cache effects while
still catching a quadratic step.
"""

import functools
import gc
import sys
import time
import tracemalloc

import pytest

from lcpbridge.dsl import parse_pivot_text, print_pivot_text
from lcpbridge.llm import MergeReport, merge_models
from lcpbridge.mendix import mendix_to_pivot, parse_mendix_export
from lcpbridge.model import (
    Class,
    DomainModel,
    Generalization,
    Property,
    empty_model,
    primitive_type,
    validate_model,
)
from lcpbridge.plantuml import emit_plantuml, parse_plantuml
from lcpbridge.relational import emit_sql, plan_relational
from lcpbridge.tabular import infer_column_type, infer_model, load_tabular
from lcpbridge.workbook import emit_workbook, plan_workbook
from lcpbridge.xlsx import read_workbook

from generators import (
    scaling_csv,
    scaling_merge_report,
    scaling_mendix,
    scaling_model,
    scaling_tables,
    scaling_workbook,
)

SMALL, LARGE = 500, 4000
MAX_GROWTH = 24


def growth(layer, small, large) -> float:
    """Ratio of the best of three process times, large over small.

    The sizes alternate, so a change in machine speed during the test
    affects both sides alike.
    """
    best = [float("inf"), float("inf")]
    for _ in range(3):
        for k, arg in enumerate((small, large)):
            start = time.process_time()
            layer(arg)
            best[k] = min(best[k], time.process_time() - start)
    return best[1] / best[0]


def plan_and_emit(model):
    plan, _ = plan_relational(model)
    return emit_sql(plan)


def half_known(model):
    """(partial, inferred) for merge_models: the partial holds every class
    with half of its properties, and nothing else."""
    partial = DomainModel(model.name, classes=tuple(
        Class(c.name, c.properties[:len(c.properties) // 2]) for c in model.classes))
    return partial, model


def chain_model(n: int) -> DomainModel:
    """``n`` classes in one inheritance chain, one property on the root."""
    names = [f"Level{i}" for i in range(n)]
    return DomainModel("Chain", classes=(
        Class(names[0], (Property("label", primitive_type("str")),)),
        *(Class(name) for name in names[1:])),
        generalizations=tuple(Generalization(general=names[k], specific=names[k + 1])
                              for k in range(n - 1)))


def import_tabular(paths):
    """The tabular import as the pipeline runs it: one load per CSV file,
    each table inferred before the next file is read."""
    return infer_model(table for path in paths for table in load_tabular([path]))


def without_generalizations(model):
    """(partial, inferred) for merge_models: the partial holds every class
    and no generalization, so the merge adds each of them."""
    return DomainModel(model.name, classes=model.classes), model


@pytest.mark.parametrize("layer, make", [
    (plan_and_emit, scaling_model),
    (parse_pivot_text, lambda n: print_pivot_text(scaling_model(n))),
    (plan_workbook, scaling_model),
    (lambda pair: merge_models(*pair), lambda n: half_known(scaling_model(n))),
    (emit_workbook, lambda n: plan_workbook(scaling_model(n))[0]),
    (validate_model, chain_model),
    (plan_relational, chain_model),
    (plan_workbook, chain_model),
    (lambda pair: merge_models(*pair), lambda n: without_generalizations(chain_model(n))),
    (import_tabular, scaling_csv),
], ids=["plan_relational+emit_sql", "parse_pivot_text", "plan_workbook", "merge_models",
        "emit_workbook", "validate_model(chain)", "plan_relational(chain)", "plan_workbook(chain)",
        "merge_models(chain)", "load_tabular+infer_model(csv)"])
def test_layer_grows_at_most_linearly(layer, make, tmp_path):
    """``scaling_model``, or for (chain) one inheritance chain of as many
    classes, whose walks up the parents cost quadratic time when each class
    walks to the root, or for (csv) one CSV file per table."""
    if layer is emit_workbook:  # the workbook and its manifest go to files
        layer = lambda manifest: emit_workbook(manifest, tmp_path / "model.xlsx")
    if make is scaling_csv:  # one CSV file per table
        make = lambda n: scaling_csv(n, tmp_path / str(n))
    ratio = growth(layer, make(SMALL), make(LARGE))
    assert ratio <= MAX_GROWTH, f"{ratio:.1f}x from {SMALL} to {LARGE} classes"


def wide_class(n: int) -> str:
    """PlantUML text of one class with ``n`` attributes."""
    attributes = "".join(f"  a{i} : int\n" for i in range(n))
    return f"@startuml\nclass Wide {{\n{attributes}}}\n@enduml\n"


def test_wide_class_parse_grows_at_most_linearly():
    """Attributes of one class, which ``scaling_model`` keeps at six."""
    ratio = growth(parse_plantuml, wide_class(SMALL), wide_class(LARGE))
    assert ratio <= MAX_GROWTH, f"{ratio:.1f}x from {SMALL} to {LARGE} attributes"


# Counts repeat exactly from run to run, so they can bear the tight bound of
# the target shape: doubling the model at most about doubles the work.
COUNT_SMALL, COUNT_LARGE = 2500, 5000
MAX_COUNT_GROWTH = 2.3


def python_calls(layer, arg) -> int:
    """Python-level function calls made by ``layer(arg)``."""
    calls = 0

    def count(frame, event, _arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(count)
    try:
        layer(arg)
    finally:
        sys.setprofile(None)
    return calls


def allocations(layer, arg) -> tuple[int, int]:
    """(blocks still allocated after ``layer(arg)``, with its result alive;
    peak traced bytes during the call).

    The call starts with the interpreter's free lists empty. Tuples, lists,
    dicts and floats that earlier code freed are kept there and handed out
    again without an allocation tracemalloc sees, so without the full
    collection, which empties them, what ran before would decide part of
    the counts: ``infer_model``'s peak ratio read 2.32 run alone and under
    2.3 after other tests.
    """
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        gc.collect()
        tracemalloc.reset_peak()
        result = layer(arg)
        peak = tracemalloc.get_traced_memory()[1]
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    del result
    return sum(stat.count_diff for stat in after.compare_to(before, "filename")), peak


# Each input of the count guards is built once per module: several guards
# read the same model or plan.
counted_model = functools.cache(scaling_model)


@functools.cache
def counted_plan(n: int):
    return plan_relational(counted_model(n))[0]


@functools.cache
def counted_manifest(n: int):
    return plan_workbook(counted_model(n))[0]


def import_mendix(text: str):
    return mendix_to_pivot(parse_mendix_export(text))


def count_ratios(layer, small, large) -> dict[str, float]:
    """Large over small for calls, blocks still allocated and peak bytes."""
    calls = python_calls(layer, large) / python_calls(layer, small)
    (blocks_small, peak_small), (blocks_large, peak_large) = \
        allocations(layer, small), allocations(layer, large)
    return {"calls": calls, "blocks": blocks_large / blocks_small,
            "peak bytes": peak_large / peak_small}


@pytest.mark.parametrize("layer, make", [
    (parse_pivot_text, lambda n: print_pivot_text(counted_model(n))),
    (print_pivot_text, counted_model),
    (parse_plantuml, lambda n: emit_plantuml(counted_model(n))),
    (plan_relational, counted_model),
    (plan_workbook, counted_model),
    (infer_model, scaling_tables),
    (read_workbook, scaling_workbook),
    (import_mendix, scaling_mendix),
    (validate_model, counted_model),
    (emit_sql, counted_plan),
    (emit_workbook, counted_manifest),
    (MergeReport.to_json, scaling_merge_report),
    (emit_plantuml, counted_model),
    (lambda pair: merge_models(*pair), lambda n: half_known(counted_model(n))),
    (load_tabular, scaling_csv),
], ids=["parse_pivot_text", "print_pivot_text", "parse_plantuml", "plan_relational",
        "plan_workbook", "infer_model", "read_workbook", "parse_mendix_export+mendix_to_pivot",
        "validate_model", "emit_sql", "emit_workbook", "MergeReport.to_json", "emit_plantuml",
        "merge_models", "load_tabular(csv)"])
def test_counts_grow_linearly(layer, make, tmp_path):
    parse_pivot_text("model Warm")  # first-use set-up stays out of the counts
    parse_plantuml(wide_class(2))
    infer_column_type(["1"])
    read_workbook(scaling_workbook(2, tmp_path / "warm.xlsx"))
    validate_model(empty_model())
    load_tabular(scaling_csv(2, tmp_path / "warm"))
    if make is scaling_workbook:  # the workbook is read from a file
        make = lambda n: scaling_workbook(n, tmp_path / f"{n}.xlsx")
    if make is scaling_csv:  # one CSV file per table
        make = lambda n: scaling_csv(n, tmp_path / str(n))
    if layer is emit_workbook:  # the workbook and its manifest go to files
        layer = lambda manifest: emit_workbook(manifest, tmp_path / "model.xlsx")
    ratios = count_ratios(layer, make(COUNT_SMALL), make(COUNT_LARGE))
    assert max(ratios.values()) <= MAX_COUNT_GROWTH, \
        f"{ratios} from {COUNT_SMALL} to {COUNT_LARGE} classes"


def test_wide_class_parse_grows_linearly():
    parse_plantuml(wide_class(2))  # first-use set-up stays out of the counts
    ratios = count_ratios(parse_plantuml, wide_class(2000), wide_class(4000))
    assert max(ratios.values()) <= MAX_COUNT_GROWTH, f"{ratios} from 2,000 to 4,000 attributes"
