"""Structured-workbook generation for platforms that infer models from data.

One sheet per class, one column per property, dropdowns wired across sheets
for many-to-one ends, a bridge sheet per many-to-many association, and one
sample data row so the importing platform can detect types and links. The
sibling ``.manifest.json`` is the canonical description of what was
generated and is what tests verify; the xlsx container realizes it.
``emit_workbook`` renders each sheet of the manifest straight to its sheet
part XML, with the column letters computed once per call, and hands the
parts to ``xlsx.write_workbook``, which deflates each as it comes.
"""

from __future__ import annotations

from collections import namedtuple
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .loss import LossReport, close_json_list, json_string_list
from .model import DomainModel, Namespace, Property, Record, SlotRecord

SHEET_NAME_MAX = 31  # hard container limit

CELL_FORMATS = {
    "str": "General",
    "int": "0",
    "float": "0.00",
    "bool": "General",
    "date": "DD/MM/YYYY",
    "datetime": "DD/MM/YYYY HH:MM",
    "time": "General",
    "binary": "General",
}

SAMPLE_VALUES = {
    "str": "Sample",
    "int": "1",
    "float": "1.5",
    "bool": "TRUE",
    "date": "01/01/2024",
    "datetime": "01/01/2024 00:00",
    "time": "12:00:00",
    "binary": "",
}

BOOL_OPTIONS = ("TRUE", "FALSE")
LIST_MAX = 255  # characters of a list validation typed as literals, commas included
DATA_ROWS = 1000  # rows covered by each dropdown validation


class SheetDropdown(Record, namedtuple("SheetDropdown", "source_sheet")):
    """A column whose cells pick from the first column of another sheet."""

    __slots__ = ()

    def as_dict(self):
        return {"kind": "sheet", "source_sheet": self.source_sheet}


class ListDropdown(Record, namedtuple("ListDropdown", "options")):
    """A column whose cells pick from a fixed list of options."""

    __slots__ = ()

    def as_dict(self):
        return {"kind": "list", "options": list(self.options)}


_BOOL_LIST = ListDropdown(BOOL_OPTIONS)


class ManifestColumn(Record, namedtuple("ManifestColumn", "header cell_format validation",
                                          defaults=("General", None))):
    """One header of a sheet: its cell format and its dropdown, if any."""

    __slots__ = ()

    def as_dict(self):
        return {
            "header": self.header,
            "cell_format": self.cell_format,
            "validation": self.validation.as_dict() if self.validation else None,
        }


class ManifestSheet(SlotRecord):
    """One sheet of the workbook: a class or a bridge (its ``kind``), its
    columns, its sample row."""

    __slots__ = ("name", "kind", "columns", "sample_row")

    def __init__(self, name: str, kind: str, columns: list[ManifestColumn] | None = None,
                 sample_row: list[str] | None = None):
        self.name = name
        self.kind = kind
        self.columns = [] if columns is None else columns
        self.sample_row = sample_row

    def as_dict(self):
        return {
            "name": self.name,
            "kind": self.kind,
            "columns": [c.as_dict() for c in self.columns],
            "sample_row": list(self.sample_row) if self.sample_row is not None else None,
        }


class WorkbookManifest(SlotRecord):
    """The layout of a generated workbook, written next to it as JSON."""

    __slots__ = ("workbook_name", "sheets")

    def __init__(self, workbook_name: str, sheets: list[ManifestSheet] | None = None):
        self.workbook_name = workbook_name
        self.sheets = [] if sheets is None else sheets

    def as_dict(self):
        return {"workbook_name": self.workbook_name,
                "sheets": [s.as_dict() for s in self.sheets]}

    def to_json(self) -> str:
        """``json.dumps(self.as_dict(), indent=2, sort_keys=True)`` plus a
        newline, written directly into one list of small pieces: the schema
        is fixed (manifest, sheets, columns, dropdowns), and ``indent``
        sends ``json.dumps`` down its pure-Python encoder before 3.13. The
        writer can go once 3.11 and 3.12 are dropped."""
        q = encode_basestring_ascii
        out = ['{\n  "sheets": [']
        for sheet in self.sheets:
            out.append('\n    {\n      "columns": [')
            for column in sheet.columns:
                validation = column.validation
                if validation is None:
                    validation_json = "null"
                elif type(validation) is SheetDropdown:
                    validation_json = ('{\n            "kind": "sheet",\n            '
                                       f'"source_sheet": {q(validation.source_sheet)}\n          }}')
                else:
                    options = json_string_list(validation.options, 12, q)
                    validation_json = ('{\n            "kind": "list",\n            "options": '
                                       f'{options}\n          }}')
                out.append(f'\n        {{\n          "cell_format": {q(column.cell_format)},'
                           f'\n          "header": {q(column.header)},'
                           f'\n          "validation": {validation_json}\n        }},')
            close_json_list(out, sheet.columns, 6)
            sample_row = ("null" if sheet.sample_row is None
                          else json_string_list(sheet.sample_row, 6, q))
            out.append(f',\n      "kind": {q(sheet.kind)},\n      "name": {q(sheet.name)},'
                       f'\n      "sample_row": {sample_row}\n    }},')
        close_json_list(out, self.sheets, 2)
        out.append(f',\n  "workbook_name": {q(self.workbook_name)}\n}}\n')
        return "".join(out)


def plan_workbook(model: DomainModel, include_sample_row: bool = True
                  ) -> tuple[WorkbookManifest, LossReport]:
    """Lay out sheets, columns, validations and the sample row for a valid
    model; sheet names and headers are unique as claimed."""
    loss = LossReport()
    manifest = WorkbookManifest(workbook_name=model.name)
    enum_literals = {e.name: e.literals for e in model.enumerations}
    sheets = Namespace(SHEET_NAME_MAX)

    # inherited columns repeat on the child sheet (transitively)
    parents = {g.specific: g.general for g in model.generalizations}
    classes_by_name = {c.name: c for c in model.classes}

    effective: dict[str, dict[str, Property]] = {}  # each class's columns, settled once

    def effective_properties(class_name: str) -> list[Property]:
        path, node = [], class_name
        while node is not None and node not in effective:
            path.append(node)
            node = parents.get(node)
        # root-first column order; a redeclared name keeps its slot but the
        # nearer class's version wins
        props = effective.get(node, {})
        for ancestor in reversed(path):
            props = dict(props)
            for prop in classes_by_name[ancestor].properties:
                props[prop.name.lower()] = prop
            effective[ancestor] = props
        return list(effective[class_name].values())

    sheet_of_class: dict[str, ManifestSheet] = {}
    headers_of: dict[str, Namespace] = {}  # class -> headers of its sheet
    for cls in model.classes:
        sheet_name = sheets.claim(cls.name)
        if sheet_name != cls.name:
            loss.add("class", cls.name, "RENAMED", "info", f"sheet {sheet_name}")
        sheet = ManifestSheet(sheet_name, "class", [], [])
        sheet_of_class[cls.name] = sheet
        for prop in effective_properties(cls.name):
            if prop.type.kind == "enumeration":
                literals = enum_literals[prop.type.enum_name]
                listed = len(",".join(literals))
                validation = ListDropdown(tuple(literals)) if listed <= LIST_MAX else None
                if validation is None:
                    loss.add("property", f"{cls.name}.{prop.name}", "DROPPED", "warning",
                             f"dropdown of column {prop.name!r} on sheet {sheet_name}: its list "
                             f"is {listed} characters, past the {LIST_MAX} a spreadsheet holds")
                column = ManifestColumn(prop.name, "General", validation)
                sample = literals[0]
            else:
                primitive = prop.type.primitive
                validation = _BOOL_LIST if primitive == "bool" else None
                column = ManifestColumn(prop.name, CELL_FORMATS[primitive], validation)
                sample = SAMPLE_VALUES[primitive]
            sheet.columns.append(column)
            sheet.sample_row.append(sample)
        manifest.sheets.append(sheet)
        headers_of[cls.name] = Namespace(taken=(c.header for c in sheet.columns))
        if cls.name in parents:
            loss.add("class", cls.name, "GENERALIZATION_FLATTENED", "warning",
                     f"columns of {parents[cls.name]} repeated on sheet {sheet_name}")

    # a dropdown lists its source sheet's column A: nothing to pick where the
    # sheet has no property column, only TRUE/FALSE or an enumeration's
    # literals where column A has a list dropdown of its own
    unlinkable = {}
    for sheet in manifest.sheets:
        if not sheet.columns:
            unlinkable[sheet.name] = "which has no property column"
        elif type(sheet.columns[0].validation) is ListDropdown:
            unlinkable[sheet.name] = (f"whose column A {sheet.columns[0].header!r} "
                                      "holds only the values of a list")

    def link_loss(assoc, place: str, sources: list[ManifestSheet], note: str = ""):
        lost = [s.name for s in sources if s.name in unlinkable]
        if lost:
            loss.add("association", assoc.name, "DROPPED", "warning",
                     f"{place} lists sheet {lost[0]}, {unlinkable[lost[0]]}, "
                     "so no row can be linked")
        else:
            loss.add("association", assoc.name, "ASSOCIATIONS_UNKNOWN", "warning",
                     f"survives only as {place}{note}")

    bridge_sheets: list[ManifestSheet] = []
    dropdown_samples: list[tuple[ManifestSheet, ManifestSheet]] = []  # (host, source)
    for assoc in model.associations:
        end1, end2 = assoc.end1, assoc.end2
        if assoc.kind == "many-to-many":
            base = f"{sheet_of_class[end1.class_name].name}_" \
                   f"{sheet_of_class[end2.class_name].name}".upper()
            name = sheets.claim(base, f"{base}_{assoc.name}".upper())
            bridge = ManifestSheet(name, "bridge", [], [])
            same_class = end1.class_name == end2.class_name
            headers = Namespace()
            for end in (end1, end2):
                # a self-association names its columns after the roles, else
                # after the class (numbered when that is taken too)
                header = headers.claim(end.role if same_class and end.role not in headers
                                       else end.class_name.lower())
                if same_class and header != end.role:
                    loss.add("association", assoc.name, "RENAMED", "info",
                             f"role {end.role} stored as column {header!r} on sheet {name}")
                source = sheet_of_class[end.class_name]
                bridge.columns.append(ManifestColumn(header, "General", SheetDropdown(source.name)))
                dropdown_samples.append((bridge, source))
            bridge_sheets.append(bridge)
            link_loss(assoc, f"bridge sheet {name}",
                      [sheet_of_class[end1.class_name], sheet_of_class[end2.class_name]],
                      "; the platform must infer it from the sample data")
        else:
            host_end, ref_end = assoc.link
            host = sheet_of_class[host_end.class_name]
            source = sheet_of_class[ref_end.class_name]
            header = headers_of[host_end.class_name].claim(ref_end.role)
            if header != ref_end.role:
                loss.add("association", ref_end.role, "RENAMED", "info",
                         f"dropdown column stored as {header!r} on sheet {host.name}")
            host.columns.append(ManifestColumn(header, "General", SheetDropdown(source.name)))
            dropdown_samples.append((host, source))
            if assoc.kind == "one-to-one":
                loss.add("association", assoc.name, "ONE_TO_ONE_FLATTENED", "warning",
                         "encoded like many-to-one; uniqueness of the link is not conveyed")
            link_loss(assoc, f"dropdown column {ref_end.role!r} on sheet {host.name}", [source])

    manifest.sheets.extend(bridge_sheets)

    # dropdown samples point at the referenced sheet's first sample value
    for host, source in dropdown_samples:
        host.sample_row.append(source.sample_row[0] if source.sample_row else "")
    if not include_sample_row:
        for sheet in manifest.sheets:
            sheet.sample_row = None
    return manifest, loss


def _sheet_parts(sheets: list[ManifestSheet]):
    """(name, sheet part XML) of each sheet: a header row, the sample row, whose
    cells a number format makes numbers and a ``TRUE,FALSE`` list booleans,
    and a list validation over rows 2 to ``DATA_ROWS + 1`` of each dropdown."""
    from .xlsx import SHEET_HEAD, STYLE_OF, column_letter, escape

    style = {fmt: f' s="{index}"' if index else "" for fmt, index in STYLE_OF.items()}
    width = max((len(sheet.columns) for sheet in sheets), default=0)
    letters = [column_letter(i) for i in range(1, width + 1)]
    last = DATA_ROWS + 1
    for sheet in sheets:
        header, checks = [], []
        for letter, column in zip(letters, sheet.columns):
            header.append(f'<c r="{letter}1" t="inlineStr"><is><t xml:space="preserve">'
                          f"{escape(column.header)}</t></is></c>")
            validation = column.validation
            if validation is None:
                continue
            if type(validation) is SheetDropdown:
                formula = f"'{escape(validation.source_sheet)}'!$A$2:$A${last}"
            else:
                formula = f'"{escape(",".join(validation.options))}"'
            checks.append(f'<dataValidation type="list" allowBlank="1" showDropDown="0" '
                          f'sqref="{letter}2:{letter}{last}"><formula1>{formula}</formula1>'
                          "</dataValidation>")
        rows = f'<row r="1">{"".join(header)}</row>'
        if sheet.sample_row is not None and sheet.columns:
            cells = []
            for letter, column, value in zip(letters, sheet.columns, sheet.sample_row):
                fmt = column.cell_format
                if fmt == "0" or fmt == "0.00":
                    cells.append(f'<c r="{letter}2"{style[fmt]}><v>{escape(value)}</v></c>')
                elif column.validation == _BOOL_LIST:
                    flag = "1" if value.strip().upper() in ("TRUE", "1") else "0"
                    cells.append(f'<c r="{letter}2" t="b"{style[fmt]}><v>{flag}</v></c>')
                else:
                    cells.append(f'<c r="{letter}2" t="inlineStr"{style[fmt]}><is>'
                                 f'<t xml:space="preserve">{escape(value)}</t></is></c>')
            rows += f'<row r="2">{"".join(cells)}</row>'
        validations = (f'<dataValidations count="{len(checks)}">{"".join(checks)}'
                       "</dataValidations>") if checks else ""
        yield sheet.name, f"{SHEET_HEAD}{rows}</sheetData>{validations}</worksheet>"


def emit_workbook(manifest: WorkbookManifest, path: str | Path) -> tuple[Path, Path]:
    """Write the xlsx container and its canonical manifest JSON.

    A zero-sheet manifest still produces a workbook with one blank sheet
    (the container format requires at least one), while the manifest JSON
    keeps the true zero-sheet description. The manifest is trusted as built:
    ``plan_workbook`` claims every sheet name and header from a ``Namespace``.
    """
    from .xlsx import write_workbook  # only this writer needs it: the CSV generator does not

    path = Path(path)
    write_workbook(path, _sheet_parts(manifest.sheets))
    manifest_path = Path(str(path) + ".manifest.json")
    manifest_path.write_text(manifest.to_json(), encoding="utf-8")
    return path, manifest_path
