"""What a fresh process pays before its first migration: the modules that
``import lcpbridge``, planning and a first migration load, and how each
record class is defined."""

import dataclasses
import importlib
import inspect
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import lcpbridge

SRC = Path(lcpbridge.__file__).resolve().parent.parent
DATA = Path(__file__).resolve().parent / "data"

# stdlib modules that one path alone uses: that path imports them
DEFERRED = ("xml.etree.ElementTree", "zipfile", "hashlib", "base64", "csv")

# the package modules that importing and planning load; every layer waits
# for the first adapter that calls into it
PLAN_MODULES = {"lcpbridge", "lcpbridge.capabilities", "lcpbridge.errors", "lcpbridge.loss",
                "lcpbridge.pipeline", "lcpbridge.planner"}

# Modules that ``site`` preloads are in ``before`` and so never count.
PROBE = """\
import sys
before = set(sys.modules)
sys.path.insert(0, sys.argv[1])
import lcpbridge
for source, target in (("mendix", "apex"), ("powerapps", "outsystems"), ("outsystems", "apex")):
    lcpbridge.plan_migration(source, target)
print(" ".join(sorted(set(sys.modules) - before)))
"""

# argv: src, source platform, output directory, input files
MIGRATE = """\
import sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import lcpbridge
plan = lcpbridge.plan_migration(sys.argv[2], "apex")
lcpbridge.execute_migration(plan, lcpbridge.MigrationInputs(files=[Path(p) for p in sys.argv[4:]]),
                            sys.argv[3])
print(" ".join(sorted(sys.modules)))
"""


def _fresh_process(code: str, *args) -> set[str]:
    """The modules a new interpreter holds after running ``code``."""
    done = subprocess.run([sys.executable, "-c", code, str(SRC), *map(str, args)],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return set(done.stdout.split())


def test_import_and_plan_load_no_deferred_module():
    added = _fresh_process(PROBE)
    assert {m for m in added if m.split(".")[0] == "lcpbridge"} == PLAN_MODULES
    assert sorted(added.intersection(DEFERRED)) == []


def test_formal_migration_loads_no_tabular_llm_or_workbook_layer(tmp_path):
    loaded = _fresh_process(MIGRATE, "mendix", tmp_path, DATA / "mendix_library.json")
    assert (tmp_path / "model.sql").is_file()
    assert {"lcpbridge.mendix", "lcpbridge.relational"} <= loaded
    for layer in ("llm", "plantuml", "tabular", "xlsx", "workbook"):
        assert f"lcpbridge.{layer}" not in loaded


def test_csv_migration_loads_no_xlsx_reader(tmp_path):
    loaded = _fresh_process(MIGRATE, "outsystems", tmp_path, *sorted((DATA / "csv").glob("*.csv")))
    assert (tmp_path / "model.sql").is_file()
    assert "lcpbridge.tabular" in loaded
    assert "lcpbridge.xlsx" not in loaded


CLI = """\
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
from lcpbridge.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main(sys.argv[2:]) == 0
print(" ".join(sorted(sys.modules)))
"""


@pytest.mark.parametrize("argv", [("plan", "--from", "powerapps", "--to", "outsystems"),
                                  ("capabilities",)])
def test_cli_plan_and_capabilities_load_no_layer(argv):
    loaded = _fresh_process(CLI, *argv)
    assert {m for m in loaded if m.split(".")[0] == "lcpbridge"} == PLAN_MODULES | {"lcpbridge.cli"}


def test_every_public_name_resolves():
    assert len(lcpbridge.__all__) == len(set(lcpbridge.__all__))
    for name in lcpbridge.__all__:
        assert getattr(lcpbridge, name) is not None, name
    assert set(lcpbridge.__all__) <= set(dir(lcpbridge))
    with pytest.raises(AttributeError):
        lcpbridge.no_such_name


def _record_classes() -> list[type]:
    classes = []
    for info in pkgutil.iter_modules(lcpbridge.__path__):
        module = importlib.import_module(f"lcpbridge.{info.name}")
        classes += [obj for obj in vars(module).values()
                    if inspect.isclass(obj) and dataclasses.is_dataclass(obj)
                    and obj.__module__ == module.__name__]
    return classes


def test_every_record_class_has_a_written_docstring():
    """Without one, ``dataclasses`` builds ``Name(field: type, ...)`` from
    ``inspect.signature`` each time the module is imported."""
    classes = _record_classes()
    assert len(classes) >= 40
    generated = [cls.__qualname__ for cls in classes
                 if cls.__doc__ in (None, cls.__name__ + str(inspect.signature(cls))
                                    .replace(" -> None", ""))]
    assert generated == []
