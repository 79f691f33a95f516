"""Minimal OOXML spreadsheet container support (no third-party writer).

An ``.xlsx`` file is a zip of XML parts; this module writes and reads just
the subset the toolkit needs: sheets with inline-string/number/boolean
cells, per-cell number formats, and list data validations. Output is
byte-deterministic (fixed zip timestamps, no compression entropy sources),
which the migration determinism guarantee relies on.
"""

from __future__ import annotations

import re
import zipfile
from dataclasses import dataclass, field
from pathlib import Path
from xml.etree import ElementTree as ET

NS_MAIN = "http://schemas.openxmlformats.org/spreadsheetml/2006/main"
NS_REL = "http://schemas.openxmlformats.org/officeDocument/2006/relationships"
NS_PKG_REL = "http://schemas.openxmlformats.org/package/2006/relationships"

# The number formats the workbook generator uses, one cell style each: the
# builtin General, "0" and "0.00" (ids 0-2) and two in the custom range (164+).
_STYLES_XML = (
    '<?xml version="1.0" encoding="UTF-8" standalone="yes"?>'
    f'<styleSheet xmlns="{NS_MAIN}">'
    '<numFmts count="2"><numFmt numFmtId="164" formatCode="DD/MM/YYYY"/>'
    '<numFmt numFmtId="165" formatCode="DD/MM/YYYY HH:MM"/></numFmts>'
    '<fonts count="1"><font><sz val="11"/><name val="Calibri"/></font></fonts>'
    '<fills count="1"><fill><patternFill patternType="none"/></fill></fills>'
    '<borders count="1"><border/></borders>'
    '<cellStyleXfs count="1"><xf numFmtId="0"/></cellStyleXfs>'
    '<cellXfs count="5">'
    '<xf numFmtId="0" fontId="0" fillId="0" borderId="0"/>'
    + "".join(f'<xf numFmtId="{i}" fontId="0" fillId="0" borderId="0" applyNumberFormat="1"/>'
              for i in (1, 2, 164, 165))
    + "</cellXfs></styleSheet>"
)
_STYLE_OF = {"General": 0, "0": 1, "0.00": 2, "DD/MM/YYYY": 3, "DD/MM/YYYY HH:MM": 4}

_CELL_REF_RE = re.compile(r"([A-Z]+)(\d+)")
_EPOCH = (1980, 1, 1, 0, 0, 0)


def escape(text: str, entities: dict[str, str] | None = None) -> str:
    """Escape ``&`` (first), ``>`` and ``<``, then each of ``entities``.

    Local, so that ``xml.sax.saxutils`` and the ``urllib`` it imports stay
    out of ``import lcpbridge``.
    """
    text = text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")
    for char, entity in (entities or {}).items():
        text = text.replace(char, entity)
    return text


def column_letter(index: int) -> str:
    """1-based column index to spreadsheet letters (1 -> A, 27 -> AA)."""
    letters = ""
    while index > 0:
        index, rem = divmod(index - 1, 26)
        letters = chr(ord("A") + rem) + letters
    return letters


def _column_index(letters: str) -> int:
    index = 0
    for ch in letters:
        index = index * 26 + (ord(ch) - ord("A") + 1)
    return index


@dataclass
class CellValue:
    """A typed cell for the writer."""

    text: str
    kind: str = "inline"  # inline | number | bool
    number_format: str = "General"


@dataclass
class ListValidation:
    column: int  # 1-based
    first_row: int
    last_row: int
    formula: str  # e.g. "'Library'!$A$2:$A$1000" or "\"TRUE,FALSE\""


@dataclass
class SheetData:
    name: str
    rows: list[list[CellValue]] = field(default_factory=list)
    validations: list[ListValidation] = field(default_factory=list)


def _sheet_xml(sheet: SheetData) -> str:
    rows_xml = []
    for r, row in enumerate(sheet.rows, start=1):
        cells = []
        for c, cell in enumerate(row, start=1):
            ref = f"{column_letter(c)}{r}"
            style = _STYLE_OF[cell.number_format]
            style_attr = f' s="{style}"' if style else ""
            if cell.kind == "number":
                cells.append(f'<c r="{ref}"{style_attr}><v>{escape(cell.text)}</v></c>')
            elif cell.kind == "bool":
                value = "1" if cell.text.strip().upper() in ("TRUE", "1") else "0"
                cells.append(f'<c r="{ref}" t="b"{style_attr}><v>{value}</v></c>')
            else:
                cells.append(
                    f'<c r="{ref}" t="inlineStr"{style_attr}>'
                    f"<is><t xml:space=\"preserve\">{escape(cell.text)}</t></is></c>"
                )
        rows_xml.append(f'<row r="{r}">{"".join(cells)}</row>')

    validations = ""
    if sheet.validations:
        items = []
        for v in sheet.validations:
            col = column_letter(v.column)
            sqref = f"{col}{v.first_row}:{col}{v.last_row}"
            items.append(
                f'<dataValidation type="list" allowBlank="1" showDropDown="0" sqref="{sqref}">'
                f"<formula1>{escape(v.formula)}</formula1></dataValidation>"
            )
        validations = (
            f'<dataValidations count="{len(sheet.validations)}">{"".join(items)}</dataValidations>'
        )

    return (
        '<?xml version="1.0" encoding="UTF-8" standalone="yes"?>'
        f'<worksheet xmlns="{NS_MAIN}">'
        f'<sheetData>{"".join(rows_xml)}</sheetData>'
        f"{validations}"
        "</worksheet>"
    )


def write_workbook(path: str | Path, sheets: list[SheetData]) -> None:
    """Write the sheets as an .xlsx file; at least one sheet is emitted."""
    if not sheets:
        sheets = [SheetData(name="Sheet1", rows=[])]

    sheet_entries = []
    rel_entries = []
    for i, sheet in enumerate(sheets, start=1):
        safe_name = escape(sheet.name, {'"': "&quot;"})
        sheet_entries.append(
            f'<sheet name="{safe_name}" sheetId="{i}" r:id="rId{i}"/>')
        rel_entries.append(
            f'<Relationship Id="rId{i}" '
            f'Type="{NS_REL}/worksheet" Target="worksheets/sheet{i}.xml"/>')
    styles_rid = len(sheets) + 1
    rel_entries.append(
        f'<Relationship Id="rId{styles_rid}" Type="{NS_REL}/styles" Target="styles.xml"/>')

    content_types = (
        '<?xml version="1.0" encoding="UTF-8" standalone="yes"?>'
        '<Types xmlns="http://schemas.openxmlformats.org/package/2006/content-types">'
        '<Default Extension="rels" '
        'ContentType="application/vnd.openxmlformats-package.relationships+xml"/>'
        '<Default Extension="xml" ContentType="application/xml"/>'
        '<Override PartName="/xl/workbook.xml" ContentType="application/vnd.'
        'openxmlformats-officedocument.spreadsheetml.sheet.main+xml"/>'
        + "".join(
            f'<Override PartName="/xl/worksheets/sheet{i}.xml" ContentType="application/vnd.'
            "openxmlformats-officedocument.spreadsheetml.worksheet+xml\"/>"
            for i in range(1, len(sheets) + 1)
        )
        + '<Override PartName="/xl/styles.xml" ContentType="application/vnd.'
        'openxmlformats-officedocument.spreadsheetml.styles+xml"/>'
        "</Types>"
    )
    root_rels = (
        '<?xml version="1.0" encoding="UTF-8" standalone="yes"?>'
        f'<Relationships xmlns="{NS_PKG_REL}">'
        f'<Relationship Id="rId1" Type="{NS_REL}/officeDocument" Target="xl/workbook.xml"/>'
        "</Relationships>"
    )
    workbook_xml = (
        '<?xml version="1.0" encoding="UTF-8" standalone="yes"?>'
        f'<workbook xmlns="{NS_MAIN}" xmlns:r="{NS_REL}">'
        f'<sheets>{"".join(sheet_entries)}</sheets>'
        "</workbook>"
    )
    workbook_rels = (
        '<?xml version="1.0" encoding="UTF-8" standalone="yes"?>'
        f'<Relationships xmlns="{NS_PKG_REL}">{"".join(rel_entries)}</Relationships>'
    )

    parts: list[tuple[str, str]] = [
        ("[Content_Types].xml", content_types),
        ("_rels/.rels", root_rels),
        ("xl/workbook.xml", workbook_xml),
        ("xl/_rels/workbook.xml.rels", workbook_rels),
        ("xl/styles.xml", _STYLES_XML),
    ]
    for i, sheet in enumerate(sheets, start=1):
        parts.append((f"xl/worksheets/sheet{i}.xml", _sheet_xml(sheet)))

    with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED) as zf:
        for name, data in parts:
            info = zipfile.ZipInfo(name, date_time=_EPOCH)
            info.compress_type = zipfile.ZIP_DEFLATED
            info.external_attr = 0o600 << 16
            zf.writestr(info, data.encode("utf-8"))


# ---------------------------------------------------------------------------
# Reading

MAX_ROWS = 1_048_576  # sheet limits set by OOXML: rows per sheet ...
MAX_COLUMNS = 16_384  # ... and columns per row (A to XFD)

_ROW = f"{{{NS_MAIN}}}row"
_CELL = f"{{{NS_MAIN}}}c"
_VALUE = f"{{{NS_MAIN}}}v"
_TEXT = f"{{{NS_MAIN}}}t"
_SHARED_ITEM = f"{{{NS_MAIN}}}si"
_VALIDATION = f"{{{NS_MAIN}}}dataValidation"
_SHARED_PART = "xl/sharedStrings.xml"


@dataclass
class SheetContent:
    name: str
    rows: list[list[str]]
    validations: list[dict]


def _cell_text(cell: ET.Element) -> str | int:
    """The cell's display string, or its shared-string index for ``t="s"``."""
    kind = cell.get("t", "n")
    if kind == "inlineStr":
        node = cell.find(f"{{{NS_MAIN}}}is")
        return "".join(t.text or "" for t in node.iter(_TEXT)) if node is not None else ""
    value = cell.findtext(_VALUE, default="")
    if kind == "s":
        try:
            index = int(value)
        except ValueError:
            return ""
        return index if index >= 0 else ""
    if kind == "b":
        return "TRUE" if value.strip() == "1" else "FALSE"
    if kind == "str":
        return value
    # plain number: keep integral values free of a trailing .0
    if value and "." in value:
        try:
            as_float = float(value)
            if as_float == int(as_float) and "e" not in value.lower():
                return str(int(as_float))
        except ValueError:
            pass
    return value


def _read_sheet(part, max_rows: int | None, wanted: set[int]):
    """Stream one sheet part into a cell grid and its list validations.

    Reading stops at the first row numbered past ``max_rows``; the grid is
    then what a full read would give, cut to ``max_rows`` rows, and the
    validations, which follow the rows, are not reached. Shared-string cells
    hold their index, which is also added to ``wanted``.
    """
    grid: list[list] = []
    validations = []
    for _, elem in ET.iterparse(part):
        if elem.tag == _ROW:
            row_index = int(elem.get("r", len(grid) + 1))
            if not 1 <= row_index <= MAX_ROWS:
                raise ValueError(f"row number {row_index} is outside 1..{MAX_ROWS}")
            if max_rows is not None and row_index > max_rows:
                grid.extend([] for _ in range(max_rows - len(grid)))
                break
            while len(grid) < row_index:
                grid.append([])
            cells = grid[row_index - 1]
            for cell in elem.iter(_CELL):
                ref = cell.get("r", "")
                match = _CELL_REF_RE.match(ref)
                col = _column_index(match.group(1)) if match else len(cells) + 1
                if col > MAX_COLUMNS:
                    raise ValueError(f"cell {ref!r} in row {row_index} is past column XFD")
                while len(cells) < col:
                    cells.append("")
                text = cells[col - 1] = _cell_text(cell)
                if isinstance(text, int):
                    wanted.add(text)
            elem.clear()
        elif elem.tag == _VALIDATION:
            validations.append({
                "type": elem.get("type", ""),
                "sqref": elem.get("sqref", ""),
                "formula": elem.findtext(f"{{{NS_MAIN}}}formula1", default=""),
            })
    return grid, validations


def _shared_strings(zf: zipfile.ZipFile, wanted: set[int]) -> dict[int, str]:
    """The shared strings at the ``wanted`` indices, streamed up to the last one."""
    found: dict[int, str] = {}
    if not wanted or _SHARED_PART not in zf.namelist():
        return found
    last = max(wanted)
    with zf.open(_SHARED_PART) as part:
        events = ET.iterparse(part, events=("start", "end"))
        _, root = next(events)
        index = 0
        for event, elem in events:
            if event == "end" and elem.tag == _SHARED_ITEM:
                if index in wanted:
                    found[index] = "".join(t.text or "" for t in elem.iter(_TEXT))
                if index == last:
                    break
                index += 1
                root.clear()  # drop the items read so far: memory stays flat
    return found


def read_workbook(path: str | Path, max_rows: int | None = None) -> list[SheetContent]:
    """Read sheet names, cell grid (as display strings) and list validations.

    With ``max_rows`` set, each sheet is read only up to that row number,
    which relies on rows coming in ascending order, as OOXML requires, and
    list validations are kept only for sheets read to their end.
    """
    with zipfile.ZipFile(path) as zf:
        workbook = ET.fromstring(zf.read("xl/workbook.xml"))
        rels = ET.fromstring(zf.read("xl/_rels/workbook.xml.rels"))
        targets = {}
        for rel in rels.iter(f"{{{NS_PKG_REL}}}Relationship"):
            target = rel.get("Target", "")
            if target.startswith("/"):
                target = target.lstrip("/")
            else:
                target = "xl/" + target
            targets[rel.get("Id")] = target

        wanted: set[int] = set()
        sheets = []
        for sheet in workbook.iter(f"{{{NS_MAIN}}}sheet"):
            rid = sheet.get(f"{{{NS_REL}}}id")
            with zf.open(targets[rid]) as part:
                grid, validations = _read_sheet(part, max_rows, wanted)
            sheets.append(SheetContent(name=sheet.get("name", ""), rows=grid,
                                       validations=validations))
        shared = _shared_strings(zf, wanted)
    if wanted:
        for sheet in sheets:
            for cells in sheet.rows:
                for col, text in enumerate(cells):
                    if isinstance(text, int):
                        cells[col] = shared.get(text, "")
    return sheets
