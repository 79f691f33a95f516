"""What a fresh process pays before its first migration: the modules that
``import lcpbridge`` and planning load, and how each record class is defined."""

import dataclasses
import importlib
import inspect
import pkgutil
import subprocess
import sys
from pathlib import Path

import lcpbridge

SRC = Path(lcpbridge.__file__).resolve().parent.parent

# stdlib modules that one path alone uses: that path imports them
DEFERRED = ("xml.etree.ElementTree", "zipfile", "hashlib", "base64", "csv")

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


def test_import_and_plan_load_no_deferred_module():
    done = subprocess.run([sys.executable, "-c", PROBE, str(SRC)], capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    added = set(done.stdout.split())
    assert "lcpbridge.planner" in added
    assert sorted(added.intersection(DEFERRED)) == []


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
