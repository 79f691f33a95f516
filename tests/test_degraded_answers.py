"""Vision answers that are nearly right, through the whole screenshot path.

The tabular export holds every class and property of the full model and no
association; the vision client answers the full model's diagram with one
seeded edit. A retyped property shows as a merge conflict, and a misspelled
or invented class as an added class. A dropped association or a flipped
multiplicity cannot be detected: the tabular partial model carries no
association to compare them with, so the merged associations are the
answer's.
"""

import json
import random

import pytest

from lcpbridge.llm import VisionModelClient, extract_model
from lcpbridge.model import (
    Association,
    AssociationEnd,
    Class,
    DomainModel,
    Multiplicity,
    Property,
    primitive_type,
)
from lcpbridge.pipeline import MigrationInputs, execute_migration
from lcpbridge.plantuml import emit_plantuml
from lcpbridge.planner import plan_migration
from lcpbridge.tabular import infer_model, load_tabular

from conftest import PLACEHOLDER_PNG
from expected import class_named

# table -> columns of (header, values); the ladder reads each column's type
TABLES = {
    "Customer": [("name", ["Ada", "Lin"]), ("since", ["01/02/2020", "15/06/2021"])],
    "Invoice": [("total", ["12.5", "7.25"]), ("paid", ["true", "false"])],
    "Product": [("label", ["Desk", "Lamp"]), ("stock", ["3", "12"]),
                ("price", ["99.0", "15.5"])],
    "Store": [("city", ["Oslo", "Rome"])],
}
LINKS = (  # (name, left, left multiplicity, right, right multiplicity)
    ("Invoice_Customer", "Invoice", Multiplicity(0, None), "Customer", Multiplicity(1, 1)),
    ("Invoice_Product", "Invoice", Multiplicity(0, None), "Product", Multiplicity(0, None)),
    ("Store_Product", "Store", Multiplicity(0, 1), "Product", Multiplicity(0, None)),
)
EDITS = ("drop-association", "flip-multiplicity", "misspell-class", "retype-property",
         "invent-class")
SEEDS = range(4)


class AnswerClient(VisionModelClient):
    """Answers every request with one fixed completion."""

    def __init__(self, answer: str):
        self.answer = answer

    def complete(self, request) -> str:
        return self.answer


def _write_export(directory):
    paths = []
    for table, columns in TABLES.items():
        rows = [",".join(h for h, _ in columns)]
        rows += [",".join(row) for row in zip(*(v for _, v in columns))]
        path = directory / f"{table}.csv"
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        paths.append(path)
    return paths


def _full_model(partial: DomainModel) -> DomainModel:
    associations = tuple(
        Association(name, AssociationEnd(left.lower(), left, m_left),
                    AssociationEnd(right.lower(), right, m_right))
        for name, left, m_left, right, m_right in LINKS)
    return partial._replace(associations=associations)


def _rename_class(model: DomainModel, old: str, new: str) -> DomainModel:
    def end(e):
        return e._replace(class_name=new) if e.class_name == old else e

    return model._replace(
        classes=tuple(c._replace(name=new) if c.name == old else c for c in model.classes),
        associations=tuple(a._replace(end1=end(a.end1), end2=end(a.end2))
                           for a in model.associations))


def degrade(full: DomainModel, edit: str, rng: random.Random) -> tuple[DomainModel, str]:
    """The full model with one seeded edit, and the element it touched."""
    taken = {c.name.lower() for c in full.classes}
    if edit == "drop-association":
        victim = rng.choice(full.associations)
        return full._replace(associations=tuple(
            a for a in full.associations if a is not victim)), victim.name
    if edit == "flip-multiplicity":
        index = rng.randrange(len(full.associations))
        assoc = full.associations[index]
        side = rng.choice(("end1", "end2"))
        m = getattr(assoc, side).multiplicity
        flipped = Multiplicity(m.lower, 1 if m.upper is None else None)
        changed = assoc._replace(**{side: getattr(assoc, side)._replace(multiplicity=flipped)})
        associations = list(full.associations)
        associations[index] = changed
        return full._replace(associations=tuple(associations)), assoc.name
    if edit == "misspell-class":
        cls = rng.choice(full.classes)
        while True:
            at = rng.randrange(1, len(cls.name))
            letter = rng.choice("abcdefghijklmnopqrstuvwxyz")
            name = cls.name[:at] + letter + cls.name[at + 1:]
            if name.lower() not in taken:
                return _rename_class(full, cls.name, name), name
    if edit == "retype-property":
        index = rng.randrange(len(full.classes))
        cls = full.classes[index]
        at = rng.randrange(len(cls.properties))
        prop = cls.properties[at]
        other = rng.choice([p for p in ("str", "int", "float", "bool", "date")
                            if p != prop.type.primitive])
        props = list(cls.properties)
        props[at] = prop._replace(type=primitive_type(other))
        classes = list(full.classes)
        classes[index] = cls._replace(properties=tuple(props))
        return full._replace(classes=tuple(classes)), f"{cls.name}.{prop.name}"
    assert edit == "invent-class"
    name = rng.choice([n for n in ("Coupon", "Shelf", "Courier", "Refund")
                       if n.lower() not in taken])
    anchor = rng.choice(full.classes).name
    invented = Class(name, (Property("code", primitive_type("str")),))
    link = Association(f"{name}_{anchor}",
                       AssociationEnd(name.lower(), name, Multiplicity(0, None)),
                       AssociationEnd(anchor.lower(), anchor, Multiplicity(0, 1)))
    return full._replace(classes=full.classes + (invented,),
                         associations=full.associations + (link,)), name


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("edit", EDITS)
def test_degraded_answer_migrates(tmp_path, edit, seed):
    csv_paths = _write_export(tmp_path)
    image = tmp_path / "diagram.png"
    image.write_bytes(PLACEHOLDER_PNG)
    partial, _ = infer_model(load_tabular(csv_paths), name="Imported")
    answer_model, touched = degrade(_full_model(partial), edit, random.Random(seed))
    answer = emit_plantuml(answer_model)

    plan = plan_migration("powerapps", "outsystems")
    assert plan.chain == ("tabular", "image-llm", "workbook")
    out = tmp_path / "out"
    result = execute_migration(plan, MigrationInputs(
        files=csv_paths, images=[image], llm_client=AnswerClient(answer)), out)

    report = json.loads((out / "merge-report.json").read_text(encoding="utf-8"))
    assert (out / "model.xlsx").exists()
    if edit == "retype-property":
        assert [c["element"] for c in report["conflicts"]] == [touched]
        assert report["conflicts"][0]["resolution"] == "PARTIAL_WINS"
    elif edit in ("misspell-class", "invent-class"):
        assert report["added_classes"] == [touched]
    else:
        assert report["conflicts"] == [] and report["added_classes"] == []
        assert result.model.associations == extract_model(answer).model.associations


def test_enumeration_named_like_a_partial_class(tmp_path):
    """The answer's enumeration loses to the partial class of its name, so the
    answer's property of that type is stored as str, with a conflict."""
    (tmp_path / "Status.csv").write_text("code,label\nA,Open\nB,Closed\n", encoding="utf-8")
    (tmp_path / "Order.csv").write_text("total,placed\n12.5,01/02/2024\n", encoding="utf-8")
    image = tmp_path / "diagram.png"
    image.write_bytes(PLACEHOLDER_PNG)
    answer = ("@startuml\nenum Status {\n  Open\n}\nclass Invoice {\n  state : Status\n}\n"
              "@enduml\n")
    out = tmp_path / "out"
    result = execute_migration(plan_migration("powerapps", "outsystems"), MigrationInputs(
        files=[tmp_path / "Status.csv", tmp_path / "Order.csv"], images=[image],
        llm_client=AnswerClient(answer)), out)

    assert [c.name for c in result.model.classes] == ["Status", "Order", "Invoice"]
    assert result.model.enumerations == ()
    assert class_named(result.model, "Invoice").properties == \
        (Property("state", primitive_type("str")),)
    report = json.loads((out / "merge-report.json").read_text(encoding="utf-8"))
    assert report["added_classes"] == ["Invoice"]
    assert report["conflicts"] == [
        {"element": "enum Status", "partial_value": "class Status already present",
         "inferred_value": "Open", "resolution": "PARTIAL_WINS"},
        {"element": "Invoice.state", "partial_value": "class Status",
         "inferred_value": "enumeration Status", "resolution": "PARTIAL_WINS"},
    ]
    assert (out / "model.xlsx").exists()
