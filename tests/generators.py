"""Seeded random generators for models, Mendix exports and tabular sources.

Used directly by the acceptance suite (fixed seeds, explicit counts) and
wrapped into hypothesis strategies by the property tests.
"""

from __future__ import annotations

import json
import random
import string
import zipfile
from pathlib import Path

from lcpbridge.model import (
    RESERVED_WORDS,
    Association,
    AssociationEnd,
    Class,
    DomainModel,
    Enumeration,
    Generalization,
    Multiplicity,
    Property,
    enum_type,
    primitive_type,
    validate_model,
)
from lcpbridge.llm import MergeConflict, MergeReport
from lcpbridge.tabular import Table, TableColumn, TabularSource
from lcpbridge.workbook import (
    ListDropdown,
    ManifestColumn,
    ManifestSheet,
    SheetDropdown,
    WorkbookManifest,
)

PRIMITIVE_MENU = ("str", "int", "float", "bool", "date", "datetime", "time", "binary")
MULTIPLICITY_MENU = (
    Multiplicity(0, 1),
    Multiplicity(1, 1),
    Multiplicity(0, None),
    Multiplicity(1, None),
    Multiplicity(0, 3),
    Multiplicity(2, 5),
)


def fresh_name(rng: random.Random, taken: set, capitalize: bool = False) -> str:
    while True:
        length = rng.randint(3, 8)
        name = "".join(rng.choice(string.ascii_lowercase) for _ in range(length))
        if capitalize:
            name = name.capitalize()
        if name.lower() not in taken and name.lower() not in RESERVED_WORDS:
            taken.add(name.lower())
            return name


# Pieces of adversarial names: short words that fold onto each other once
# joined in camel or snake case (fooBar, foo_Bar, FOO_BAR), digits before a
# capital (x2Item folds to X2_ITEM), and a stem that takes a name past the
# 30-character SQL and the 31-character sheet limits.
_PIECES = ("a", "b", "ab", "foo", "bar", "id", "x2", "item")
_LONG_STEM = "averyLongSharedPrefixForNames"


def adversarial_name(rng: random.Random, taken: set, capitalize: bool = False) -> str:
    """A valid identifier, unique in ``taken`` (case-insensitively), drawn to
    collide in the generators' folds: mixed case, ``_`` runs, digits,
    reserved words in any case, camel/snake twins and names of 25-33
    characters that share their first 24."""
    while True:
        draw = rng.random()
        if draw < 0.15:
            name = rng.choice(sorted(RESERVED_WORDS))
        elif draw < 0.3:
            name = _LONG_STEM[:rng.randint(24, 29)] + rng.choice(_PIECES)
        else:
            name = rng.choice(_PIECES) + "".join(
                rng.choice(("", "_", "__")) + rng.choice(_PIECES).capitalize()
                for _ in range(rng.randint(0, 2)))
        name = "".join(c.swapcase() if rng.random() < 0.2 else c for c in name)
        if capitalize:
            name = name[0].upper() + name[1:]
        if name.lower() not in taken:
            taken.add(name.lower())
            return name


def random_model(rng: random.Random, max_classes: int = 10, max_associations: int = 15,
                 max_enums: int = 3, max_generalizations: int = 3,
                 names=fresh_name) -> DomainModel:
    """A valid model; ``names(rng, taken, capitalize)`` draws every name
    (``adversarial_name`` for names that collide in the generators' folds)."""
    taken: set = set()
    name = names(rng, taken, capitalize=True)

    enums = []
    for _ in range(rng.randint(0, max_enums)):
        literals_taken: set = set()
        literals = tuple(names(rng, literals_taken).upper()
                         for _ in range(rng.randint(1, 4)))
        enums.append(Enumeration(name=names(rng, taken, capitalize=True),
                                 literals=literals))

    classes = []
    for _ in range(rng.randint(0, max_classes)):
        class_name = names(rng, taken, capitalize=True)
        props_taken: set = set()
        properties = []
        id_assigned = False
        for _ in range(rng.randint(0, 5)):
            if enums and rng.random() < 0.2:
                type_ref = enum_type(rng.choice(enums).name)
            else:
                type_ref = primitive_type(rng.choice(PRIMITIVE_MENU))
            is_id = (not id_assigned and type_ref.kind == "primitive"
                     and rng.random() < 0.15)
            id_assigned = id_assigned or is_id
            properties.append(Property(name=names(rng, props_taken),
                                       type=type_ref, is_id=is_id))
        classes.append(Class(name=class_name, properties=tuple(properties)))

    generalizations = []
    if len(classes) >= 2:
        children = rng.sample(range(1, len(classes)),
                              min(rng.randint(0, max_generalizations), len(classes) - 1))
        for child_index in children:
            parent_index = rng.randrange(0, child_index)  # earlier class: stays acyclic
            generalizations.append(Generalization(
                general=classes[parent_index].name, specific=classes[child_index].name))

    associations = []
    assoc_names: set = set()
    if classes:
        for _ in range(rng.randint(0, max_associations)):
            c1 = rng.choice(classes).name
            c2 = rng.choice(classes).name
            role_taken: set = set()
            role1 = names(rng, role_taken)
            role2 = names(rng, role_taken)
            associations.append(Association(
                name=names(rng, assoc_names, capitalize=True),
                end1=AssociationEnd(role=role1, class_name=c1,
                                    multiplicity=rng.choice(MULTIPLICITY_MENU),
                                    navigable=rng.random() < 0.7),
                end2=AssociationEnd(role=role2, class_name=c2,
                                    multiplicity=rng.choice(MULTIPLICITY_MENU),
                                    navigable=rng.random() < 0.7),
            ))

    model = DomainModel(name=name, classes=tuple(classes),
                        associations=tuple(associations),
                        generalizations=tuple(generalizations),
                        enumerations=tuple(enums))
    result = validate_model(model)
    assert result.ok, f"generator produced an invalid model: {result}"
    return model


MENDIX_TYPE_MENU = ("String", "HashedString", "Integer", "Long", "AutoNumber",
                    "Decimal", "Boolean", "DateTime", "Binary")


def with_fold_twins(model: DomainModel, rng: random.Random) -> DomainModel:
    """``model`` plus pairs of valid names that fold to one on the PlantUML
    leg, a reserved word ``w`` and ``w_``: one to three pairs of classes,
    each pair sharing a property half the time, one to three pairs of
    enumerations, each pair sharing a literal half the time, one to three
    pairs of properties in classes drawn at random, up to four associations
    to the new classes, and, half the time, a parent from ``model`` for each
    twin class, so a pair may parse back with two parents. ``model`` must
    hold no reserved word (``fresh_name``) and no generalization, so that
    every twin folds only onto its own pair and the emitted text still parses."""
    words = rng.sample(sorted(RESERVED_WORDS), rng.randint(3, 9))
    third = len(words) // 3
    class_words, enum_words = words[:third], words[third:2 * third]
    property_words = words[2 * third:]
    classes = list(model.classes)
    for word in class_words:
        shared = Property(fresh_name(rng, set()), primitive_type(rng.choice(PRIMITIVE_MENU)))
        for name in (word.capitalize(), word.capitalize() + "_"):
            classes.append(Class(name, (shared,) if rng.random() < 0.5 else ()))
    enumerations = list(model.enumerations)
    for word in enum_words:
        shared = (fresh_name(rng, set()).upper(),) if rng.random() < 0.5 else ()
        for name in (word.capitalize(), word.capitalize() + "_"):
            taken = {literal.lower() for literal in shared}
            literals = tuple(fresh_name(rng, taken).upper() for _ in range(rng.randint(1, 3)))
            enumerations.append(Enumeration(name, literals + shared))
    for word in property_words:
        at = rng.randrange(len(classes))
        twins = tuple(Property(name, primitive_type(rng.choice(PRIMITIVE_MENU)))
                      for name in (word, word + "_"))
        classes[at] = classes[at]._replace(properties=classes[at].properties + twins)
    associations = list(model.associations)
    names = {a.name.lower() for a in associations}
    for _ in range(rng.randint(0, 4)):
        ends = [AssociationEnd(fresh_name(rng, set()) + str(i), rng.choice(classes).name,
                               rng.choice(MULTIPLICITY_MENU)) for i in (1, 2)]
        associations.append(Association(fresh_name(rng, names, capitalize=True), *ends))
    generalizations = [Generalization(rng.choice(model.classes).name, name)
                       for word in class_words if model.classes
                       for name in (word.capitalize(), word.capitalize() + "_")
                       if rng.random() < 0.5]
    twinned = model._replace(classes=tuple(classes), associations=tuple(associations),
                             generalizations=tuple(generalizations),
                             enumerations=tuple(enumerations))
    assert validate_model(twinned).ok
    return twinned


def random_mendix_export(rng: random.Random, max_entities: int = 8,
                         max_associations: int = 10, max_enums: int = 3) -> dict:
    """Random document in the simplified Mendix export schema."""
    taken: set = set()
    enums = []
    for _ in range(rng.randint(0, max_enums)):
        values_taken: set = set()
        enums.append({
            "name": fresh_name(rng, taken, capitalize=True),
            "values": [fresh_name(rng, values_taken).upper()
                       for _ in range(rng.randint(1, 4))],
        })

    entities = []
    for _ in range(rng.randint(0, max_entities)):
        attrs_taken: set = set()
        attributes = []
        for _ in range(rng.randint(0, 4)):
            if enums and rng.random() < 0.2:
                attributes.append({"name": fresh_name(rng, attrs_taken),
                                   "type": "Enumeration",
                                   "enum_ref": rng.choice(enums)["name"]})
            else:
                attributes.append({"name": fresh_name(rng, attrs_taken),
                                   "type": rng.choice(MENDIX_TYPE_MENU)})
        entity = {"name": fresh_name(rng, taken, capitalize=True),
                  "attributes": attributes}
        entities.append(entity)

    for index, entity in enumerate(entities):
        if index > 0 and rng.random() < 0.2:
            entity["generalization"] = entities[rng.randrange(0, index)]["name"]

    associations = []
    assoc_taken: set = set()
    if entities:
        for _ in range(rng.randint(0, max_associations)):
            associations.append({
                "name": fresh_name(rng, assoc_taken, capitalize=True),
                "parent": rng.choice(entities)["name"],
                "child": rng.choice(entities)["name"],
                "type": rng.choice(("Reference", "ReferenceSet")),
                "owner": rng.choice(("Default", "Both")),
            })

    return {"domainModel": {
        "name": fresh_name(rng, taken, capitalize=True),
        "entities": entities,
        "associations": associations,
        "enumerations": enums,
    }}


def random_merge_pair(rng: random.Random) -> tuple[DomainModel, DomainModel]:
    """A (partial, inferred) pair as the screenshot path produces them.

    The partial model is the full model stripped of associations and
    generalizations (what a tabular export preserves); the inferred model is
    the full model, sometimes with a property type changed (vision noise),
    sometimes with an extra class only it saw.
    """
    full = random_model(rng, max_classes=6, max_associations=6, max_enums=2,
                        max_generalizations=2)
    partial = DomainModel(name=full.name, classes=full.classes,
                          enumerations=full.enumerations)

    inferred_classes = []
    for cls in full.classes:
        properties = []
        for prop in cls.properties:
            if prop.type.kind == "primitive" and rng.random() < 0.15:
                other = rng.choice([p for p in PRIMITIVE_MENU if p != prop.type.primitive])
                properties.append(Property(name=prop.name, type=primitive_type(other),
                                           is_id=prop.is_id))
            else:
                properties.append(prop)
        inferred_classes.append(Class(name=cls.name, properties=tuple(properties)))

    taken = {c.name.lower() for c in full.classes} | \
            {e.name.lower() for e in full.enumerations} | {full.name.lower()}
    if rng.random() < 0.3:
        inferred_classes.append(Class(name=fresh_name(rng, taken, capitalize=True)))

    inferred = DomainModel(name="Seen", classes=tuple(inferred_classes),
                           associations=full.associations,
                           generalizations=full.generalizations,
                           enumerations=full.enumerations)
    assert validate_model(inferred).ok
    return partial, inferred


# characters JSON escapes: quotes, backslashes, control characters,
# non-ASCII and astral-plane characters
_JSON_HOSTILE = '"\\/\b\f\n\r\t\x00\x1f\x7f é\U0001f600'


def report_text(rng: random.Random, taken: set) -> str:
    """A string for a report field: an adversarial name, or up to 8 of the
    characters JSON escapes."""
    if rng.random() < 0.5:
        return adversarial_name(rng, taken)
    return "".join(rng.choice(_JSON_HOSTILE) for _ in range(rng.randint(0, 8)))


def random_manifest(rng: random.Random) -> WorkbookManifest:
    """Any manifest, not only one ``plan_workbook`` lays out: 0-3 sheets of
    0-3 columns, each with no, a sheet or a list validation (of 0-3
    options), and no sample row or one of 0-3 values."""
    taken: set = set()

    def text() -> str:
        return report_text(rng, taken)

    def column() -> ManifestColumn:
        validation = rng.choice((None, SheetDropdown(text()), ListDropdown(
            tuple(text() for _ in range(rng.randint(0, 3))))))
        return ManifestColumn(text(), text(), validation)

    return WorkbookManifest(text(), [
        ManifestSheet(text(), text(), [column() for _ in range(rng.randint(0, 3))],
                      rng.choice((None, [text() for _ in range(rng.randint(0, 3))])))
        for _ in range(rng.randint(0, 3))])


def random_merge_report(rng: random.Random) -> MergeReport:
    """A merge report of 0-3 entries in each list, conflicts included."""
    taken: set = set()

    def texts() -> list[str]:
        return [report_text(rng, taken) for _ in range(rng.randint(0, 3))]

    return MergeReport(texts(), texts(), texts(), texts(), texts(), [
        MergeConflict(*(report_text(rng, taken) for _ in range(4)))
        for _ in range(rng.randint(0, 3))])


def scaling_model(n: int) -> DomainModel:
    """The size ladder of the scaling tests: ``n`` classes of 6 properties,
    2n associations between random classes and n/10 generalizations."""
    rng = random.Random(n)
    names = [f"Entity{i}" for i in range(n)]
    classes = tuple(
        Class(name, tuple(Property(f"field{j}Value",
                                   primitive_type(PRIMITIVE_MENU[(i + j) % len(PRIMITIVE_MENU)]))
                          for j in range(6)))
        for i, name in enumerate(names))
    associations = tuple(
        Association(f"Link{k}",
                    AssociationEnd(f"src{k}", rng.choice(names), rng.choice(MULTIPLICITY_MENU)),
                    AssociationEnd(f"dst{k}", rng.choice(names), rng.choice(MULTIPLICITY_MENU),
                                   navigable=True))
        for k in range(2 * n))
    generalizations = tuple(Generalization(general=names[k], specific=names[k + 1])
                            for k in range(0, n - 1, 10))
    return DomainModel("Scaling", classes=classes, associations=associations,
                       generalizations=generalizations)


def scaling_merge_report(n: int) -> MergeReport:
    """The size ladder of the merge-report writer: each list of the report
    filled from ``scaling_model(n)``, with one conflict per class."""
    model = scaling_model(n)
    return MergeReport(
        added_classes=[c.name for c in model.classes],
        added_properties=[f"{c.name}.{p.name}" for c in model.classes for p in c.properties],
        added_associations=[a.name for a in model.associations],
        added_enumerations=[e.name for e in model.enumerations],
        added_generalizations=[g.specific for g in model.generalizations],
        conflicts=[MergeConflict(f"class {c.name}", "6 properties", "7 properties")
                   for c in model.classes])


def scaling_mendix(n: int) -> str:
    """The size ladder of the Mendix import, as export JSON: ``n`` entities
    of 6 attributes (one of them renamed, some typed by one of n/100
    enumerations), 2n associations between random entities and n/10
    generalizations, as in ``scaling_model``."""
    rng = random.Random(n)
    names = [f"Entity{i}" for i in range(n)]
    enums = [{"name": f"Status{k}", "values": ["OPEN", "On Hold", "closed"]}
             for k in range(max(1, n // 100))]
    types = MENDIX_TYPE_MENU + ("Enumeration",)
    entities = []
    for i, name in enumerate(names):
        attributes = []
        for j in range(6):
            kind = types[(i + j) % len(types)] if (i + j) % 4 else "String"
            attribute = {"name": f"field{j}Value" if j else "field value", "type": kind}
            if kind == "Enumeration":
                attribute["enum_ref"] = enums[i % len(enums)]["name"]
            attributes.append(attribute)
        entities.append({"name": name, "attributes": attributes})
    for k in range(0, n - 1, 10):
        entities[k + 1]["generalization"] = names[k]
    associations = [{"name": f"Link{k}", "parent": rng.choice(names),
                     "child": rng.choice(names),
                     "type": rng.choice(("Reference", "ReferenceSet")),
                     "owner": rng.choice(("Default", "Both"))} for k in range(2 * n)]
    return json.dumps({"domainModel": {"name": "Scaling", "entities": entities,
                                       "associations": associations, "enumerations": enums}})


# One column per rung of the type ladder, a text column and a blank one; the
# Arabic-Indic digits send the last date column down the per-value path.
SCALING_COLUMNS = (
    ("flag", ("true", "False", "")),
    ("count", ("1", "-20", "+3")),
    ("price", ("1.5", "2", "3e2")),
    ("due", ("2024-01-31", "29/02/2024", "")),
    ("at", ("2024-01-01 10:30", "31/12/1999 23:59:59", "1/2/2023 7:05")),
    ("note", ("a", "b, c", "2024-01-01")),
    ("empty", ("", "", "")),
    ("local", ("\u0662\u0660\u0662\u0664-\u0660\u0661-\u0660\u0662", "2024-01-02", "")),
)


def scaling_tables(n: int) -> TabularSource:
    """The size ladder of the tabular scaling test: ``n`` tables of the
    columns above, three rows each."""
    return TabularSource(tables=tuple(
        Table(f"Table{i}", tuple(TableColumn(header, values) for header, values in SCALING_COLUMNS))
        for i in range(n)))


def scaling_csv(n: int, directory: Path) -> list[Path]:
    """``scaling_tables(n)`` as CSV files: ``n`` files of the columns above,
    three rows each, written to ``directory``."""
    import csv

    directory.mkdir(parents=True, exist_ok=True)
    rows = list(zip(*(values for _, values in SCALING_COLUMNS)))
    paths = []
    for i in range(n):
        path = directory / f"Table{i}.csv"
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(header for header, _ in SCALING_COLUMNS)
            writer.writerows(rows)
        paths.append(path)
    return paths


def row_csv_files(count: int, rows: int, directory: Path) -> list[Path]:
    """``count`` CSV files of a header and ``rows`` data rows of five
    columns, every text distinct across the files, written to ``directory``:
    the ladder of the tabular import's memory, which grows with files."""
    import csv

    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for i in range(count):
        path = directory / f"T{i}.csv"
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(("id", "name", "count", "note", "when"))
            writer.writerows((f"r{i}.{r}", f"name {i}.{r} & co", (i * rows + r) % 9973,
                              f"note <{i}.{r}>", f"2024-01-{1 + r % 28:02d}")
                             for r in range(rows))
        paths.append(path)
    return paths


def screenshot_files(count: int, size: int, directory: Path) -> list[Path]:
    """``count`` PNG-signed files of ``size`` seeded random bytes each,
    written to ``directory``: the ladder of the image step's memory, which
    would grow with screenshots if it held them."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for i in range(count):
        path = directory / f"screen{i}.png"
        path.write_bytes(b"\x89PNG\r\n\x1a\n" + random.Random(i).randbytes(size - 8))
        paths.append(path)
    return paths


def scaling_workbook(n: int, path: Path) -> Path:
    """The size ladder of the workbook read: one sheet of ``n`` rows in the
    shared-strings layout, with number, boolean and inline string cells,
    written to ``path``."""
    ns = "http://schemas.openxmlformats.org/spreadsheetml/2006/main"
    rel = "http://schemas.openxmlformats.org/officeDocument/2006/relationships"
    rows = "".join(
        f'<row r="{r}"><c r="A{r}" t="s"><v>{2 * r}</v></c><c r="B{r}"><v>{r}.0</v></c>'
        f'<c r="C{r}" t="b"><v>{r % 2}</v></c><c r="D{r}" t="inlineStr"><is><t>note &amp; {r}</t>'
        f'</is></c><c r="F{r}" s="1" t="s"><v>{2 * r + 1}</v></c></row>' for r in range(1, n + 1))
    items = "".join(f"<si><t>name {i}</t></si><si><r><t>rich </t></r><r><rPr><b/></rPr>"
                    f"<t>{i}</t></r></si>" for i in range(1, n + 1))
    with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED) as zf:
        zf.writestr("xl/workbook.xml", f'<workbook xmlns="{ns}" xmlns:r="{rel}"><sheets>'
                    '<sheet name="Rows" sheetId="1" r:id="rId1"/></sheets></workbook>')
        zf.writestr("xl/_rels/workbook.xml.rels",
                    '<Relationships xmlns="http://schemas.openxmlformats.org/package/2006/'
                    f'relationships"><Relationship Id="rId1" Type="{rel}/worksheet" '
                    'Target="worksheets/sheet1.xml"/></Relationships>')
        zf.writestr("xl/worksheets/sheet1.xml",
                    f'<worksheet xmlns="{ns}"><sheetData>{rows}</sheetData></worksheet>')
        zf.writestr("xl/sharedStrings.xml", f'<sst xmlns="{ns}"><si><t>pad</t></si>{items}</sst>')
    return path
