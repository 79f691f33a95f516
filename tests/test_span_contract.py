"""The benchmark's per-layer spans rely on how pipeline.py reaches each layer.

``perfbench/spans.py`` swaps the layer functions named in ``LAYER_CALLS`` on
``lcpbridge.pipeline`` at run time. That only works while the pipeline looks
those names up on its own module on every call; an adapter table that
captured the function objects would leave the traced run reporting zeros.
A layer loads on its first call, so a name swapped before then must still
be the one called.
"""

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

from lcpbridge import pipeline
from lcpbridge.pipeline import (
    ExecutionOptions,
    MigrationInputs,
    execute_from_pivot,
    execute_import,
    execute_migration,
)
from lcpbridge.planner import plan_migration


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    return importlib.import_module("spans")


def test_every_traced_name_is_a_pipeline_function(spans):
    for name in spans.LAYER_CALLS:
        assert callable(getattr(pipeline, name, None)), name


def test_every_traced_name_is_a_public_name_of_the_package(spans):
    """``pipeline`` takes only the package's public names, so a layer
    missing from the package's table fails here, not only in a traced run."""
    import lcpbridge

    assert sorted(set(spans.LAYER_CALLS) - set(lcpbridge._PUBLIC)) == []


def test_pipeline_takes_no_other_name_from_the_package():
    """The package's ``__path__`` or ``__all__`` would make ``pipeline``
    pass for a package and ``import *`` from it pull in every public name."""
    assert not hasattr(pipeline, "__path__")
    assert not hasattr(pipeline, "__all__")
    with pytest.raises(AttributeError, match="'lcpbridge.pipeline'"):
        pipeline.no_such_name


def test_execute_migration_calls_the_swapped_names(monkeypatch, tmp_path, csv_paths):
    """The tabular import loads one file per ``load_tabular`` call, each a
    one-file list, all of them before the export leg plans anything."""
    calls = []
    for name in ("plan_relational", "load_tabular"):
        def spy(*args, _name=name, _original=getattr(pipeline, name), **kwargs):
            calls.append((_name, list(args[0]) if _name == "load_tabular" else None))
            return _original(*args, **kwargs)
        monkeypatch.setattr(pipeline, name, spy)

    plan = plan_migration("outsystems", "apex")
    assert plan.chain == ("tabular", "apex-sql")
    assert len(csv_paths) > 1
    execute_migration(plan, MigrationInputs(files=list(csv_paths)), tmp_path)
    assert calls == [("load_tabular", [path]) for path in csv_paths] + [
        ("plan_relational", None)]


FORMAL_LAYERS = ("load_mendix_export", "mendix_to_pivot", "save_pivot_file",
                 "load_pivot_file", "plan_relational", "emit_sql")


@pytest.fixture
def spied(monkeypatch):
    """Swap ``FORMAL_LAYERS`` on the pipeline, as the benchmark does; the
    returned list records each call through a swapped name."""
    calls = []
    for name in FORMAL_LAYERS:
        def spy(*args, _name=name, _original=getattr(pipeline, name), **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)
        monkeypatch.setattr(pipeline, name, spy)
    return calls


def test_reviewed_migration_calls_the_swapped_names(spied, tmp_path, mendix_library_path):
    """A review that leaves ``model.bml`` as written re-loads nothing."""
    reviewed = []
    plan = plan_migration("mendix", "apex")
    assert plan.chain == ("mendix-json", "apex-sql")
    execute_migration(plan, MigrationInputs(files=[mendix_library_path]), tmp_path,
                      ExecutionOptions(review_hook=reviewed.append))
    assert reviewed == [tmp_path / "model.bml"]
    assert spied == [name for name in FORMAL_LAYERS if name != "load_pivot_file"]


def test_edited_review_calls_every_swapped_name(spied, tmp_path, mendix_library_path):
    def edit(pivot_path):
        pivot_path.write_text(pivot_path.read_text() + "\nclass Addendum {}\n")

    execute_migration(plan_migration("mendix", "apex"),
                      MigrationInputs(files=[mendix_library_path]), tmp_path,
                      ExecutionOptions(review_hook=edit))
    assert spied == list(FORMAL_LAYERS)


def test_execute_from_pivot_calls_the_swapped_names(spied, tmp_path, mendix_library_path):
    execute_import(["mendix-json"], MigrationInputs(files=[mendix_library_path]), "mendix",
                   tmp_path / "work")
    assert spied == ["load_mendix_export", "mendix_to_pivot", "save_pivot_file"]
    spied.clear()
    execute_from_pivot(tmp_path / "work" / "model.bml", "apex-sql", tmp_path / "out")
    assert spied == ["load_pivot_file", "plan_relational", "emit_sql"]


# argv: src, the Mendix export, the output directory
SWAP_BEFORE_LOAD = """\
import sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
from lcpbridge import pipeline
from lcpbridge.planner import plan_migration
assert "lcpbridge.relational" not in sys.modules
calls = []
def emit_sql(plan, dialect):
    calls.append(dialect)
    return "-- swapped\\n"
pipeline.emit_sql = emit_sql
plan = plan_migration("mendix", "apex")
pipeline.execute_migration(plan, pipeline.MigrationInputs(files=[Path(sys.argv[2])]), sys.argv[3])
print(calls, "lcpbridge.relational" in sys.modules)
"""


def test_a_name_swapped_before_its_layer_loads_is_the_one_called(tmp_path, mendix_library_path):
    src = Path(pipeline.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-c", SWAP_BEFORE_LOAD, str(src),
                           str(mendix_library_path), str(tmp_path)],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["['oracle']", "True"]  # plan_relational still loads it
    assert (tmp_path / "model.sql").read_text(encoding="utf-8") == "-- swapped\n"
