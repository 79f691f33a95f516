"""Seeded inputs for the migration benchmark, written with the stdlib only.

Mendix exports are written with ``json``, data exports with ``csv`` and,
for workbooks, with ``zipfile`` in the shared-strings layout a spreadsheet
application produces. Vision-model answers are PlantUML written from the
generator's own spec. Nothing here calls lcpbridge, so the inputs and the
expected counts the checks compare against stay independent of the code
under test.

Known limits of the system that the inputs respect on purpose:

* each entity pair gets at most one association, because two Reference
  associations between the same pair make ``plan_relational`` raise
  ``NameCollisionError``;
* workbook dates are text cells, because the XLSX reader ignores number
  formats and would infer an Excel serial date as ``int``.
"""

from __future__ import annotations

import csv
import json
import random
import zipfile
from pathlib import Path
from xml.sax.saxutils import escape

WORDS = (
    "Account", "Address", "Asset", "Batch", "Booking", "Branch", "Budget", "Campaign",
    "Carrier", "Case", "Contact", "Contract", "Customer", "Delivery", "Device", "Employee",
    "Event", "Invoice", "Item", "Journal", "Lead", "Ledger", "License", "Location",
    "Machine", "Member", "Order", "Partner", "Payment", "Policy", "Product", "Project",
    "Quote", "Region", "Request", "Route", "Shipment", "Store", "Supplier", "Task",
    "Team", "Ticket", "Vehicle", "Visit", "Voucher", "Warehouse",
)
STEMS = (
    "amount", "balance", "code", "comment", "created", "due", "label", "level", "limit",
    "note", "number", "owner", "price", "quantity", "rating", "score", "state", "title",
    "total", "weight",
)
MENDIX_TYPES = ("String", "HashedString", "Integer", "Long", "AutoNumber", "Decimal",
                "Boolean", "DateTime", "Binary", "Enumeration")
DATA_TYPES = ("str", "int", "float", "bool", "date", "datetime")
PUML_TYPES = {"str": "String", "int": "Integer", "float": "Decimal", "bool": "Boolean",
              "date": "Date", "datetime": "DateTime"}

VALUE_POOL = 400  # distinct values per column; exports repeat values
IMAGE_BYTES = 1 << 20  # one screenshot-sized payload
CLASSES_PER_IMAGE = 40
IMAGE_POOL = 12


def size_ladder(count: int, low: int, high: int) -> list[int]:
    """``count`` sizes spread evenly over [low, high] on a log scale.

    Every seed gets the same ladder, so batch totals and percentiles differ
    between seeds by the content of the inputs, not by the sizes drawn.
    """
    return [round(low * (high / low) ** (k / (count - 1))) for k in range(count)]


def balanced(rng: random.Random, values, count: int) -> list:
    """``count`` picks spread evenly over ``values``, in a seeded order.

    Fixed proportions keep the work in a model the same from seed to seed
    while the seed decides which table gets which share.
    """
    values = list(values)
    picks = [values[k * len(values) // count] for k in range(count)]
    rng.shuffle(picks)
    return picks


def class_names(rng: random.Random, count: int) -> list[str]:
    return [f"{rng.choice(WORDS)}{i}" for i in range(count)]


def property_names(rng: random.Random, count: int) -> list[str]:
    stems = rng.sample(STEMS, count)
    return [f"{stem}{rng.randint(1, 9)}" for stem in stems]


def distinct_pairs(rng: random.Random, n: int, count: int) -> list[tuple[int, int]]:
    """Up to ``count`` ordered pairs of distinct indices, one per unordered pair."""
    seen: set[tuple[int, int]] = set()
    pairs = []
    limit = min(count, n * (n - 1) // 2)
    while len(pairs) < limit:
        a, b = rng.randrange(n), rng.randrange(n)
        key = (min(a, b), max(a, b))
        if a == b or key in seen:
            continue
        seen.add(key)
        pairs.append((a, b))
    return pairs


# ---------------------------------------------------------------------------
# Cell values


def cell_value(rng: random.Random, kind: str) -> str:
    if kind == "str":
        return f"{rng.choice(STEMS)}-{rng.randint(0, 99999)} {rng.choice(WORDS).lower()}"
    if kind == "int":
        return str(rng.randint(-5000, 99999))
    if kind == "float":
        return f"{rng.randint(0, 99999)}.{rng.randint(1, 99):02d}"
    if kind == "bool":
        return rng.choice(("TRUE", "FALSE"))
    day, month, year = rng.randint(1, 28), rng.randint(1, 12), rng.randint(1990, 2030)
    if kind == "date":
        return f"{day:02d}/{month:02d}/{year}"
    return f"{day:02d}/{month:02d}/{year} {rng.randint(0, 23):02d}:{rng.randint(0, 59):02d}"


def table_rows(rng: random.Random, types: list[str], rows: int,
               blank_share: float = 0.0) -> list[list[str]]:
    """Data rows drawn from a per-column value pool; row 1 has no blank cell."""
    columns = []
    for kind in types:
        pool = [cell_value(rng, kind) for _ in range(min(rows, VALUE_POOL))]
        column = rng.choices(pool, k=rows)
        for index in rng.sample(range(1, rows), int((rows - 1) * blank_share)) if rows else ():
            column[index] = ""
        columns.append(column)
    return [list(row) for row in zip(*columns)]


def write_csv(path: Path, headers: list[str], rows: list[list[str]]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(headers)
        writer.writerows(rows)


def _column_letter(index: int) -> str:
    letters = ""
    while index > 0:
        index, rem = divmod(index - 1, 26)
        letters = chr(ord("A") + rem) + letters
    return letters


_NS = "http://schemas.openxmlformats.org/spreadsheetml/2006/main"
_NS_R = "http://schemas.openxmlformats.org/officeDocument/2006/relationships"
_NS_PKG = "http://schemas.openxmlformats.org/package/2006/relationships"
_XML_HEAD = '<?xml version="1.0" encoding="UTF-8" standalone="yes"?>\r\n'


def write_xlsx(path: Path, sheets: list[tuple[str, list[str], list[str], list[list[str]]]]
               ) -> None:
    """Write (name, headers, types, rows) sheets the way a spreadsheet app saves them.

    Text goes to a shared-strings table, numbers to plain numeric cells,
    booleans to ``t="b"`` cells; empty cells are omitted. Dates stay text.
    """
    shared: dict[str, int] = {}
    shared_refs = 0

    def sst(text: str) -> int:
        nonlocal shared_refs
        shared_refs += 1
        return shared.setdefault(text, len(shared))

    sheet_parts = []
    for name, headers, types, rows in sheets:
        width = len(headers)
        last = f"{_column_letter(width)}{len(rows) + 1}"
        out = [f'{_XML_HEAD}<worksheet xmlns="{_NS}" xmlns:r="{_NS_R}">'
               f'<dimension ref="A1:{last}"/><sheetViews><sheetView workbookViewId="0"/>'
               '</sheetViews><sheetFormatPr defaultRowHeight="15"/><sheetData>']
        out.append(f'<row r="1" spans="1:{width}">' + "".join(
            f'<c r="{_column_letter(c)}1" t="s"><v>{sst(h)}</v></c>'
            for c, h in enumerate(headers, start=1)) + "</row>")
        for r, row in enumerate(rows, start=2):
            cells = []
            for c, (kind, value) in enumerate(zip(types, row), start=1):
                if not value:
                    continue
                ref = f"{_column_letter(c)}{r}"
                if kind in ("int", "float"):
                    cells.append(f'<c r="{ref}"><v>{value}</v></c>')
                elif kind == "bool":
                    cells.append(f'<c r="{ref}" t="b"><v>{1 if value == "TRUE" else 0}</v></c>')
                else:
                    cells.append(f'<c r="{ref}" t="s"><v>{sst(value)}</v></c>')
            out.append(f'<row r="{r}" spans="1:{width}">{"".join(cells)}</row>')
        out.append('</sheetData><pageMargins left="0.7" right="0.7" top="0.75" '
                   'bottom="0.75" header="0.3" footer="0.3"/></worksheet>')
        sheet_parts.append("".join(out))

    strings = "".join(f"<si><t>{escape(s)}</t></si>" for s in shared)
    shared_xml = (f'{_XML_HEAD}<sst xmlns="{_NS}" count="{shared_refs}" '
                  f'uniqueCount="{len(shared)}">{strings}</sst>')
    n = len(sheets)
    workbook_xml = (
        f'{_XML_HEAD}<workbook xmlns="{_NS}" xmlns:r="{_NS_R}"><bookViews>'
        '<workbookView xWindow="0" yWindow="0" windowWidth="28800" windowHeight="12300"/>'
        "</bookViews><sheets>"
        + "".join(f'<sheet name="{escape(s[0])}" sheetId="{i}" r:id="rId{i}"/>'
                  for i, s in enumerate(sheets, start=1))
        + "</sheets></workbook>")
    rel_type = "http://schemas.openxmlformats.org/officeDocument/2006/relationships"
    workbook_rels = (
        f'{_XML_HEAD}<Relationships xmlns="{_NS_PKG}">'
        + "".join(f'<Relationship Id="rId{i}" Type="{rel_type}/worksheet" '
                  f'Target="worksheets/sheet{i}.xml"/>' for i in range(1, n + 1))
        + f'<Relationship Id="rId{n + 1}" Type="{rel_type}/styles" Target="styles.xml"/>'
        + f'<Relationship Id="rId{n + 2}" Type="{rel_type}/sharedStrings" '
          'Target="sharedStrings.xml"/></Relationships>')
    ct_base = "application/vnd.openxmlformats-officedocument.spreadsheetml"
    content_types = (
        f'{_XML_HEAD}<Types xmlns="http://schemas.openxmlformats.org/package/2006/'
        'content-types"><Default Extension="rels" ContentType="application/'
        'vnd.openxmlformats-package.relationships+xml"/><Default Extension="xml" '
        'ContentType="application/xml"/>'
        f'<Override PartName="/xl/workbook.xml" ContentType="{ct_base}.sheet.main+xml"/>'
        + "".join(f'<Override PartName="/xl/worksheets/sheet{i}.xml" '
                  f'ContentType="{ct_base}.worksheet+xml"/>' for i in range(1, n + 1))
        + f'<Override PartName="/xl/styles.xml" ContentType="{ct_base}.styles+xml"/>'
        f'<Override PartName="/xl/sharedStrings.xml" '
        f'ContentType="{ct_base}.sharedStrings+xml"/></Types>')
    root_rels = (
        f'{_XML_HEAD}<Relationships xmlns="{_NS_PKG}"><Relationship Id="rId1" '
        f'Type="{rel_type}/officeDocument" Target="xl/workbook.xml"/></Relationships>')
    styles = (
        f'{_XML_HEAD}<styleSheet xmlns="{_NS}"><fonts count="1"><font><sz val="11"/>'
        '<name val="Calibri"/></font></fonts><fills count="1"><fill><patternFill '
        'patternType="none"/></fill></fills><borders count="1"><border/></borders>'
        '<cellStyleXfs count="1"><xf numFmtId="0" fontId="0" fillId="0" borderId="0"/>'
        '</cellStyleXfs><cellXfs count="1"><xf numFmtId="0" fontId="0" fillId="0" '
        'borderId="0" xfId="0"/></cellXfs></styleSheet>')

    parts = [("[Content_Types].xml", content_types), ("_rels/.rels", root_rels),
             ("xl/workbook.xml", workbook_xml), ("xl/_rels/workbook.xml.rels", workbook_rels),
             ("xl/styles.xml", styles), ("xl/sharedStrings.xml", shared_xml)]
    parts += [(f"xl/worksheets/sheet{i}.xml", xml) for i, xml in enumerate(sheet_parts, 1)]
    with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED) as zf:
        for name, text in parts:
            zf.writestr(name, text.encode("utf-8"))


# ---------------------------------------------------------------------------
# formal-sql: Mendix JSON exports


def mendix_export(rng: random.Random, n: int, name: str) -> tuple[dict, dict]:
    """An export of ``n`` entities and the counts the SQL check expects."""
    entities = class_names(rng, n)
    enums = [(f"Status{k}", [f"{w.upper()}_{k}" for w in rng.sample(WORDS, rng.randint(3, 6))])
             for k in range(max(2, n // 100))]
    specialized = set(rng.sample(range(1, n), n // 10))
    doc_entities = []
    for i, entity in enumerate(entities):
        attributes = []
        for attr_name in property_names(rng, 6):
            kind = rng.choice(MENDIX_TYPES)
            attr = {"name": attr_name, "type": kind}
            if kind == "Enumeration":
                attr["enum_ref"] = rng.choice(enums)[0]
            attributes.append(attr)
        item = {"name": entity, "attributes": attributes}
        if i in specialized:
            item["generalization"] = entities[rng.randrange(i)]
        doc_entities.append(item)
    pairs = distinct_pairs(rng, n, 2 * n)
    kinds = balanced(rng, [("Reference", "Default")] * 11 + [("Reference", "Both")] * 3
                     + [("ReferenceSet", "Default")] * 6, len(pairs))
    associations = [{"name": f"{entities[child]}_{entities[parent]}",
                     "parent": entities[parent], "child": entities[child],
                     "type": kind, "owner": owner}
                    for (child, parent), (kind, owner) in zip(pairs, kinds)]
    reference_sets = sum(1 for a in associations if a["type"] == "ReferenceSet")
    references = len(associations) - reference_sets
    document = {"domainModel": {
        "name": name, "entities": doc_entities, "associations": associations,
        "enumerations": [{"name": e, "values": v} for e, v in enums]}}
    expect = {"classes": n, "tables": n + reference_sets,
              "foreign_keys": references + 2 * reference_sets + len(specialized)}
    return document, expect


def formal_sql_migration(rng: random.Random, root: Path, ident: str, n: int) -> dict:
    document, expect = mendix_export(rng, n, f"App{ident}")
    path = root / f"{ident}.json"
    path.write_text(json.dumps(document, indent=2), encoding="utf-8")
    return {"id": ident, "files": [str(path)], "images": [], "expect": expect}


# ---------------------------------------------------------------------------
# screenshot-workbook: partial CSV exports, screenshots, vision answers


def write_image_pool(rng: random.Random, root: Path) -> list[str]:
    paths = []
    for k in range(IMAGE_POOL):
        path = root / f"screen{k}.png"
        path.write_bytes(b"\x89PNG\r\n\x1a\n" + rng.randbytes(IMAGE_BYTES - 8))
        paths.append(str(path))
    return paths


def plantuml_answer(classes: list[tuple[str, list[tuple[str, str]]]],
                    generalizations: list[tuple[str, str]],
                    associations: list[tuple[str, str, str, str, str]]) -> str:
    """The vision model's reply: prose around one @startuml block."""
    lines = ["Here is the class diagram I read from the screenshot.", "", "@startuml"]
    for name, props in classes:
        lines.append(f"class {name} {{")
        lines.extend(f"  {prop} : {PUML_TYPES[kind]}" for prop, kind in props)
        lines.append("}")
    lines.extend(f"{general} <|-- {specific}" for general, specific in generalizations)
    lines.extend(f'{left} "{m_left}" -- "{m_right}" {right} : {name}'
                 for name, left, m_left, m_right, right in associations)
    lines += ["@enduml", "", "The relationships follow the connector lines in the image."]
    return "\n".join(lines) + "\n"


def truncated_answer(answer: str) -> str:
    """A reply cut off mid-diagram: it has @startuml but no @enduml."""
    lines = answer.splitlines()
    return "\n".join(lines[:len(lines) // 2]) + "\n"


def screenshot_migration(rng: random.Random, root: Path, ident: str, n: int,
                         images: list[str], max_rows: int = 200,
                         malformed_first: bool = False) -> dict:
    folder = root / ident
    folder.mkdir()
    names = class_names(rng, n)
    widths = balanced(rng, range(3, 9), n)
    types = iter(balanced(rng, DATA_TYPES, sum(widths)))
    row_counts = balanced(rng, [0] * 3 + [max_rows * k // 20 for k in range(1, 21)], n)
    classes = []
    files = []
    for name, width, rows in zip(names, widths, row_counts):
        props = property_names(rng, width)
        kinds = [next(types) for _ in props]
        path = folder / f"{name}.csv"
        write_csv(path, props, table_rows(rng, kinds, rows))
        files.append(str(path))
        classes.append((name, list(zip(props, kinds))))
    generalizations = [(names[rng.randrange(i)], names[i])
                       for i in sorted(rng.sample(range(1, n), n // 10))]
    pairs = distinct_pairs(rng, n, n)
    kinds = balanced(rng, [("0..*", "0..1")] * 6 + [("0..*", "0..*")] * 3
                     + [("0..1", "0..1")], len(pairs))
    associations = [(f"{names[a]}_{names[b]}", names[a], m_left, m_right, names[b])
                    for (a, b), (m_left, m_right) in zip(pairs, kinds)]
    many_to_many = sum(1 for _, _, m_left, m_right, _ in associations
                       if m_left == m_right == "0..*")
    answer = plantuml_answer(classes, generalizations, associations)
    count = max(1, round(n / CLASSES_PER_IMAGE))
    picked = rng.sample(images, count) if count <= len(images) else rng.choices(images, k=count)
    return {"id": ident, "files": files, "images": picked,
            "answer": answer, "malformed_first": malformed_first,
            "expect": {"classes": n, "sheets": n + many_to_many,
                       "associations": sorted(a[0] for a in associations)}}


# ---------------------------------------------------------------------------
# bulk-rows: row-heavy OutSystems data exports


def bulk_rows_migration(rng: random.Random, root: Path, ident: str, as_xlsx: bool,
                        rows: list[int]) -> dict:
    """One table per entry of ``rows``, as CSV files or as one workbook.

    Table j has 4 + j % 5 columns whose types are spread evenly over
    ``DATA_TYPES``, so the shape is the same for every seed.
    """
    folder = root / ident
    folder.mkdir()
    tables = []
    for j, (name, count) in enumerate(zip(class_names(rng, len(rows)), rows)):
        kinds = balanced(rng, DATA_TYPES, 4 + j % 5)
        props = property_names(rng, len(kinds))
        tables.append((name, props, kinds, table_rows(rng, kinds, count, blank_share=0.03)))
    if as_xlsx:
        path = folder / "export.xlsx"
        write_xlsx(path, tables)
        files = [str(path)]
    else:
        files = []
        for name, props, _, values in tables:
            path = folder / f"{name}.csv"
            write_csv(path, props, values)
            files.append(str(path))
    return {"id": ident, "files": files, "images": [],
            "expect": {"classes": len(tables),
                       "types": {name: list(zip(props, types))
                                 for name, props, types, _ in tables}}}
