"""What a fresh process pays before its first migration: the modules that
``import lcpbridge``, planning and a first migration load."""

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


# argv: src, model.bml, output directory
CSV_EXPORT = """\
import sys
sys.path.insert(0, sys.argv[1])
import lcpbridge
lcpbridge.execute_from_pivot(sys.argv[2], "csv", sys.argv[3])
print(" ".join(sorted(sys.modules)))
"""


def test_csv_export_loads_no_xlsx_writer(tmp_path, library_model):
    from lcpbridge.dsl import save_pivot_file

    save_pivot_file(library_model, tmp_path / "model.bml")
    loaded = _fresh_process(CSV_EXPORT, tmp_path / "model.bml", tmp_path / "out")
    assert (tmp_path / "out" / "Book.csv").is_file()
    assert "lcpbridge.workbook" in loaded
    assert "lcpbridge.xlsx" not in loaded


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


# argv: src, then the arguments of one ``lcpbridge`` command, if any
FIRST_RUN = """\
import contextlib, io, sys
before = set(sys.modules)
sys.path.insert(0, sys.argv[1])
import lcpbridge
lcpbridge.plan_migration("powerapps", "outsystems")
if sys.argv[2:]:
    from lcpbridge.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(sys.argv[2:]) == 0
print(" ".join(sorted(set(sys.modules) - before)))
"""

SCREENSHOT = "--image {image} --llm-mode replay --replay-dir {replay}"
# a first migration of each benchmarked chain and of both README scenarios
FIRST_MIGRATIONS = {
    "formal-sql": "--from mendix --to apex --input {mendix}",
    "screenshot-workbook": "--from powerapps --to outsystems --input {csvs} " + SCREENSHOT,
    "bulk-rows": "--from outsystems --to apex --input {xlsx}",
    "readme-mendix-powerapps": "--from mendix --to powerapps --input {mendix}",
    "readme-powerapps-apex": "--from powerapps --to apex --input {csvs} " + SCREENSHOT,
}


@pytest.mark.parametrize("run", [None, *FIRST_MIGRATIONS])
def test_no_run_loads_dataclasses_or_inspect(run, tmp_path, csv_paths, screenshot_path,
                                             replay_dir):
    """No record is a dataclass, so neither importing and planning nor a
    first migration loads ``dataclasses``, or ``inspect``, which it imports."""
    argv = []
    if run is not None:
        from generators import scaling_workbook

        xlsx = scaling_workbook(3, tmp_path / "export.xlsx") if run == "bulk-rows" else None
        paths = {"{mendix}": [DATA / "mendix_library.json"], "{csvs}": csv_paths,
                 "{image}": [screenshot_path], "{replay}": [replay_dir], "{xlsx}": [xlsx]}
        argv = ["migrate", *(arg for token in FIRST_MIGRATIONS[run].split()
                             for arg in paths.get(token, [token])),
                "--out", tmp_path / "out"]
    loaded = _fresh_process(FIRST_RUN, *argv)
    assert {"lcpbridge", "lcpbridge.planner"} <= loaded
    assert sorted(loaded & {"dataclasses", "inspect"}) == []
