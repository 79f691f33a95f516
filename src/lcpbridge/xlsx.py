"""Minimal OOXML spreadsheet container support (no third-party writer).

An ``.xlsx`` file is a zip of XML parts (SpreadsheetML, ECMA-376 Part 1).
The writer takes each sheet as its name and its sheet part, rendered by the
workbook generator in the styles of ``STYLE_OF``, and writes the zip itself:
each part is deflated once and its local header packed once. The bytes are
the ones ``zipfile`` writes for the same members (the tests hold it to
that), byte-deterministic with fixed zip timestamps and no compression
entropy sources, which the migration determinism guarantee relies on.
``zipfile``, ``zlib`` and ``xml.etree.ElementTree`` are imported by the
functions that read or write, so ``import lcpbridge`` does not load them.

The reader gives each sheet's cells as display strings. A compiled scan
reads the sheet and shared-strings parts a chunk at a time, only as far
as the rows or strings it needs: it splits the text at each row or item
end and reads each with one ``fullmatch``, which accounts for every
character, and one ``findall``. It reads the markup this writer saves and
the shared-strings layout ECMA-376 describes, with attributes in the order
Excel documents them: rows and cells with those attributes, ``<v>``
values, inline and shared strings with rich and phonetic runs, the five
predefined entities and numeric character references. No workbook saved
by a spreadsheet app is in the repository, so how much of one the scan
reads is not known. ElementTree checks the markup around the rows. Where
the scan meets anything else (a formula, a comment, CDATA, a processing
instruction, a prefixed or foreign element, another entity, a CR in text,
an unknown attribute or child), it drops what it read of that part, and
ElementTree reads the part from its start: each part has one reader. That
reader is also the reference the tests hold the scan to. The scan reads
text pieces cut at row or item ends (``_chunks``), ElementTree the events of
one pull parser (``_events``); both feed ``_fill``, which places the cells.
"""

from __future__ import annotations

import bisect
import errno
import functools
import io
import itertools
import re
from pathlib import Path
from typing import TYPE_CHECKING, BinaryIO, NamedTuple

if TYPE_CHECKING:
    import zipfile
    from collections.abc import Iterable
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
STYLE_OF = {"General": 0, "0": 1, "0.00": 2, "DD/MM/YYYY": 3, "DD/MM/YYYY HH:MM": 4}

# A sheet part up to its rows, which ``</sheetData>`` and the validations follow
SHEET_HEAD = ('<?xml version="1.0" encoding="UTF-8" standalone="yes"?>'
              f'<worksheet xmlns="{NS_MAIN}"><sheetData>')

_CELL_REF_RE = re.compile(r"([A-Z]+)(\d+)")
_DOS_DATE = 1 << 5 | 1  # 1980-01-01, the first day a zip header can hold; the time is 0
_ZIP64_LIMIT = (1 << 31) - 1  # zipfile's limits, past which it writes ZIP64 records
_ZIP_FILECOUNT_LIMIT = (1 << 16) - 1


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


def _package_parts(names: list[str]) -> list[tuple[str, str]]:
    """The parts before the sheets: content types, relationships, the
    workbook naming each sheet, and the styles."""
    head = '<?xml version="1.0" encoding="UTF-8" standalone="yes"?>'
    office = "application/vnd.openxmlformats-officedocument.spreadsheetml"
    numbers = range(1, len(names) + 1)
    quoted = (escape(name, {'"': "&quot;"}) for name in names)
    sheets = "".join(f'<sheet name="{name}" sheetId="{i}" r:id="rId{i}"/>'
                     for i, name in zip(numbers, quoted))
    rels = "".join(f'<Relationship Id="rId{i}" Type="{NS_REL}/worksheet" '
                   f'Target="worksheets/sheet{i}.xml"/>' for i in numbers)
    overrides = "".join(f'<Override PartName="/xl/worksheets/sheet{i}.xml" '
                        f'ContentType="{office}.worksheet+xml"/>' for i in numbers)
    return [
        ("[Content_Types].xml",
         f'{head}<Types xmlns="http://schemas.openxmlformats.org/package/2006/content-types">'
         '<Default Extension="rels" '
         'ContentType="application/vnd.openxmlformats-package.relationships+xml"/>'
         '<Default Extension="xml" ContentType="application/xml"/>'
         f'<Override PartName="/xl/workbook.xml" ContentType="{office}.sheet.main+xml"/>'
         f'{overrides}<Override PartName="/xl/styles.xml" ContentType="{office}.styles+xml"/>'
         "</Types>"),
        ("_rels/.rels",
         f'{head}<Relationships xmlns="{NS_PKG_REL}"><Relationship Id="rId1" '
         f'Type="{NS_REL}/officeDocument" Target="xl/workbook.xml"/></Relationships>'),
        ("xl/workbook.xml",
         f'{head}<workbook xmlns="{NS_MAIN}" xmlns:r="{NS_REL}"><sheets>{sheets}</sheets>'
         "</workbook>"),
        ("xl/_rels/workbook.xml.rels",
         f'{head}<Relationships xmlns="{NS_PKG_REL}">{rels}<Relationship '
         f'Id="rId{len(names) + 1}" Type="{NS_REL}/styles" Target="styles.xml"/>'
         "</Relationships>"),
        ("xl/styles.xml", _STYLES_XML),
    ]


def _deflated(name: str, text: str) -> tuple[str, int, int, bytes]:
    """(name, CRC-32, size, deflated bytes) of ``text`` as UTF-8. The stream
    is the one ``zipfile`` feeds a ``compressobj`` at the default level:
    deflate reads all of the input either way, and one ``zlib.compress``
    takes less than half the time on a small part."""
    import zlib

    data = text.encode("utf-8")
    return name, zlib.crc32(data), len(data), zlib.compress(data, -1, -15)


def _zip(members: list[tuple[str, int, int, bytes]]) -> list[bytes]:
    """The zip file of ``_deflated`` members, as the pieces ``zipfile``
    writes for each ``writestr`` of a ``ZipInfo`` dated 1980-01-01, deflated,
    with mode 0600 (version 2.0, made on Unix), each local header packed
    once. Past 65,535 members the end record is ZIP64's, as there; past
    2 GiB, where ``zipfile`` writes ZIP64 fields, OSError (EFBIG)."""
    import struct

    pieces, directory, offset = [], [], 0
    for name, crc, size, data in members:
        encoded, flags = name.encode("utf-8"), 0 if name.isascii() else 0x800
        header = struct.pack("<4s2B4HL2L2H", b"PK\x03\x04", 20, 0, flags, 8, 0, _DOS_DATE,
                             crc, len(data), size, len(encoded), 0)
        pieces += (header, encoded, data)
        directory += (struct.pack("<4s4B4HL2L5H2L", b"PK\x01\x02", 20, 3, 20, 0, flags, 8, 0,
                                  _DOS_DATE, crc, len(data), size, len(encoded), 0, 0, 0, 0,
                                  0o600 << 16, offset), encoded)
        offset += len(header) + len(encoded) + len(data)
    count, size = len(members), sum(map(len, directory))
    if max(offset, size, *(m[2] * 1.05 for m in members)) > _ZIP64_LIMIT:
        raise OSError(errno.EFBIG, "a workbook past 2 GiB needs ZIP64 fields")
    if count > _ZIP_FILECOUNT_LIMIT:
        directory += (struct.pack("<4sQ2H2L4Q", b"PK\x06\x06", 44, 45, 45, 0, 0, count, count,
                                  size, offset),
                      struct.pack("<4sLQL", b"PK\x06\x07", 0, offset + size, 1))
    end = min(count, 0xFFFF)
    directory.append(struct.pack("<4s4H2LH", b"PK\x05\x06", 0, 0, end, end, size, offset, 0))
    return pieces + directory


def write_workbook(path: str | Path, sheets: Iterable[tuple[str, str]]) -> None:
    """Write each (sheet name, sheet part XML) of ``sheets`` as a sheet of an
    .xlsx file, deflated as it comes, or one blank sheet where there is none:
    the container requires one."""
    names, members = [], []
    for i, (name, xml) in enumerate(sheets, start=1):
        names.append(name)
        members.append(_deflated(f"xl/worksheets/sheet{i}.xml", xml))
    if not names:
        names.append("Sheet1")
        members.append(_deflated("xl/worksheets/sheet1.xml",
                                 f"{SHEET_HEAD}</sheetData></worksheet>"))
    parts = [_deflated(name, text) for name, text in _package_parts(names)]
    with open(path, "wb") as handle:
        handle.writelines(_zip(parts + members))


# ---------------------------------------------------------------------------
# Reading

MAX_ROWS = 1_048_576  # sheet limits set by OOXML: rows per sheet ...
MAX_COLUMNS = 16_384  # ... and columns per row (A to XFD)

_ROW = f"{{{NS_MAIN}}}row"
_CELL = f"{{{NS_MAIN}}}c"
_VALUE = f"{{{NS_MAIN}}}v"
_INLINE = f"{{{NS_MAIN}}}is"
_TEXT = f"{{{NS_MAIN}}}t"
_RUN = f"{{{NS_MAIN}}}r"
_SHARED_ITEM = f"{{{NS_MAIN}}}si"
_SHARED_STRINGS = f"{NS_REL}/sharedStrings"
_SHARED_PART = "xl/sharedStrings.xml"  # where the part is when no relationship names it
_CHUNK = 1 << 15  # bytes inflated at a time
_CONTROLS = bytes(range(0x20)).translate(None, b"\t\n\r")  # no XML character
_ENTITIES = {"amp": "&", "lt": "<", "gt": ">", "quot": '"', "apos": "'"}


class SheetContent:
    """A sheet as read: its name and its cells as display strings."""

    __slots__ = ("name", "rows")

    def __init__(self, name: str, rows: list[list[str]]):
        self.name = name
        self.rows = rows


class _Unread(Exception):
    """The scan met markup it does not read; ElementTree reads the part from its start."""


class _Patterns(NamedTuple):
    rows: tuple[re.Pattern, re.Pattern]  # empty rows and a row, fullmatched; indexed by
    ends: tuple[re.Pattern, re.Pattern]  # ... x14ac; empty rows, then </sheetData>
    cells: re.Pattern  # findall: (column letters, t, <v> text, <is> markup)
    items: re.Pattern  # shared-string items, fullmatched
    item_texts: re.Pattern  # findall: (<t> text of a plain item, markup of any other)
    runs: re.Pattern  # findall: the text of each <t> of rich markup, "" for <rPh>
    entity: re.Pattern
    foreign_encoding: re.Pattern


@functools.cache
def _patterns() -> _Patterns:
    """The scan's patterns, compiled on first use.

    The fullmatched ones account for every character of the rows or items
    they read. Text holds no CR and no reference but the five predefined
    entities and numeric ones (``_chunks`` has checked that every character
    is one XML allows). Attributes are quoted with ``"`` and come in the
    order Excel documents them; lcpbridge writes ``t`` before ``s``. A cell
    reference is one to three letters and a row number, as the row's ``r``
    is a number. A cell holds at most a ``<v>`` and an ``<is>``; rich text
    holds ``<t>``, ``<r>`` runs with their formatting, ``<rPh>`` and
    ``<phoneticPr>``. The row patterns are indexed by whether the root
    declares the ``x14ac`` prefix, whose ``dyDescent`` may follow a row's
    attributes.
    """
    value = r'"[^"<&]*+"'
    plain = r"[^<&\r]*+"
    text = rf"{plain}(?:&(?:amp|lt|gt|quot|apos|#[0-9]++|#x[0-9a-fA-F]++);{plain})*+"
    t = rf"<t(?: xml:space={value})?+(?:>{text}</t>|/>)"
    formats = (r"<(?:b|i|strike|condense|extend|outline|shadow|u|vertAlign|sz|rFont|family"
               rf"|charset|scheme)(?: val={value})?+/>|<color(?: auto={value})?+"
               rf"(?: indexed={value})?+(?: rgb={value})?+(?: theme={value})?+"
               rf"(?: tint={value})?+/>")
    rich = (rf"(?:{t}|<r>(?:<rPr>(?:{formats})*+</rPr>|<rPr/>)?+{t}</r>"
            rf"|<rPh sb={value} eb={value}>{t}</rPh>"
            rf"|<phoneticPr fontId={value}(?: type={value})?+(?: alignment={value})?+/>)*+")
    cell = (r'<c(?: r="[A-Z]{1,3}+[0-9]++")?+'
            rf"(?: s={value}(?: t={value})?+| t={value}(?: s={value})?+)?+"
            rf"(?:/>|>(?:<v>{text}</v>|<v/>)?+(?:<is>{rich}</is>|<is/>)?+</c>)")
    ws = r"[ \t\r\n]*+"
    # the attributes after r: skipped at once where the tag ends, as it
    # mostly does after r and spans
    more = "".join(rf"(?: {name}={value})?+" for name in (
        "s", "customFormat", "ht", "hidden", "customHeight", "outlineLevel", "collapsed",
        "thickTop", "thickBot", "ph"))
    rows, ends = [], []
    for x14ac in ("", rf"(?: x14ac:dyDescent={value})?+"):
        attrs = rf"(?: spans={value})?+(?:(?=/?>)|{more}{x14ac})"
        empty = rf'(?:<row(?: r="[0-9]++")?+{attrs}/>{ws})*+'
        rows.append(re.compile(rf'{ws}(?P<empty>{empty})<row(?: r="(?P<r>[0-9]++)")?+{attrs}>'
                               rf"(?:{ws}{cell})*+{ws}"))
        ends.append(re.compile(rf"{ws}(?P<empty>{empty})</sheetData>"))
    return _Patterns(
        rows=tuple(rows),
        ends=tuple(ends),
        cells=re.compile(r'<c(?: r="([A-Z]++)[0-9]++")?+(?: s="[^"]*+")?+(?: t="([^"]*+)")?+'
                         r'(?: s="[^"]*+")?+(?:/>|>(?:<v>([^<]*+)</v>|<v/>)?+'
                         r"(?:<is>(.*?)</is>|<is/>)?+</c>)", re.S),
        items=re.compile(rf"(?:{ws}(?:<si/>|<si>{rich}</si>))*+{ws}"),
        item_texts=re.compile(r'<si>(?:<t(?: xml:space="[^"]*+")?+>([^<]*+)</t>|(.*?))</si>|<si/>',
                              re.S),
        runs=re.compile(r"<rPh .*?</rPh>|<t[^>]*+>([^<]*+)</t>", re.S),
        entity=re.compile(r"&(#x[0-9a-fA-F]++|#[0-9]++|amp|lt|gt|quot|apos);"),
        foreign_encoding=re.compile(r"""<\?xml[^>]*encoding\s*=\s*["'](?!(?i:utf-8)["'])"""),
    )


def _entity(match: re.Match) -> str:
    ref = match[1]
    if ref[0] != "#":
        return _ENTITIES[ref]
    try:
        code = int(ref[2:], 16) if ref[1] == "x" else int(ref[1:])
    except ValueError:  # too many digits
        raise _Unread from None
    if not (code in (0x9, 0xA, 0xD) or 0x20 <= code <= 0xD7FF or 0xE000 <= code <= 0xFFFD
            or 0x10000 <= code <= 0x10FFFF):
        raise _Unread  # not an XML character
    return chr(code)


def _unescape(text: str) -> str:
    return _patterns().entity.sub(_entity, text) if "&" in text else text


def _rich_text(node: ET.Element) -> str:
    """The text of a shared or inline string: its own ``<t>`` and the ``<t>``
    of its ``<r>`` runs (ECMA-376 §18.4.8), never a phonetic ``<rPh>`` run."""
    parts = []
    for child in node:
        if child.tag == _TEXT:
            parts.append(child.text or "")
        elif child.tag == _RUN:
            parts.extend(t.text or "" for t in child.iterfind(_TEXT))
    return "".join(parts)


def _scanned_text(markup: str) -> str:
    """``_rich_text`` of rich markup the scan has matched."""
    return _unescape("".join(_patterns().runs.findall(markup)))


@functools.lru_cache(maxsize=4096)
def _column_index(letters: str) -> int:
    """Column letters to a 1-based index; four letters and more are past XFD."""
    if len(letters) > 3:
        return MAX_COLUMNS + 1
    index = 0
    for ch in letters:
        index = index * 26 + (ord(ch) - ord("A") + 1)
    return index


def _number_text(value: str) -> str:
    """A plain number's display string: integral values lose a trailing .0.

    Past 2**53 a float no longer holds every integer, so there the digits
    are read exactly, and a value that is not integral keeps its text.
    """
    try:
        as_float = float(value)
    except ValueError:
        return value
    if not as_float.is_integer() or "e" in value.lower():
        return value
    if -2.0 ** 53 < as_float < 2.0 ** 53:
        return str(int(as_float))
    from decimal import Decimal  # rare: imported here to keep it out of start-up

    exact = Decimal(value)
    return str(int(exact)) if exact == exact.to_integral_value() else value


def _fill(grid: list[list], rows, max_rows: int | None, wanted: set[int]) -> bool:
    """Place each (r, cells) of ``rows`` into ``grid``; True once a row
    numbered past ``max_rows`` ends the read, with ``grid`` cut to ``max_rows``.

    Both readers feed this. ``r`` is the row's attribute, None when absent:
    such a row follows the last one. Each cell is (column letters, ``t``,
    ``<v>`` text, inline text); without letters it follows the last cell.
    A shared-string cell holds its index, which is also added to ``wanted``.
    """
    for r, cells in rows:
        row_index = len(grid) + 1 if r is None else int(r)
        if not 1 <= row_index <= MAX_ROWS:
            raise ValueError(f"row number {row_index} is outside 1..{MAX_ROWS}")
        if max_rows is not None and row_index > max_rows:
            grid.extend([] for _ in range(max_rows - len(grid)))
            return True
        while len(grid) < row_index:
            grid.append([])
        line = grid[row_index - 1]
        for letters, kind, value, inline in cells:
            if kind == "s":
                try:
                    text = int(value)
                except ValueError:
                    text = ""
                else:
                    if text < 0:
                        text = ""
                    else:
                        wanted.add(text)
            elif kind == "b":
                text = "TRUE" if value.strip() == "1" else "FALSE"
            elif kind == "inlineStr":
                text = inline
            elif kind != "str" and "." in value:
                text = _number_text(value)
            else:
                text = value
            end = len(line)
            col = _column_index(letters) if letters else end + 1
            if col > end:
                if col > MAX_COLUMNS:
                    raise ValueError(
                        f"cell {letters or col} in row {row_index} is past column XFD")
                if col > end + 1:
                    line.extend([""] * (col - 1 - end))
                line.append(text)
            else:
                line[col - 1] = text
    return False


def _events(source, events: tuple[str, ...]):
    """The ElementTree ``events`` of the XML in the binary file ``source``,
    fed to one pull parser ``_CHUNK`` bytes at a time: ElementTree's own
    streaming reader defines a class per call in Python 3.11, which is
    cyclic garbage."""
    from xml.etree import ElementTree as ET

    parser = ET.XMLPullParser(events)
    while data := source.read(_CHUNK):
        parser.feed(data)
        yield from parser.read_events()
    parser.close()
    yield from parser.read_events()


def _tree_rows(part):
    """(r, cells) for each row of sheet XML through ElementTree: the reader
    of what the scan does not read, and the scan's reference."""
    for _, elem in _events(part, ("end",)):
        if elem.tag == _ROW:
            cells = []
            for cell in elem.iter(_CELL):
                ref = _CELL_REF_RE.match(cell.get("r", ""))
                kind = cell.get("t", "")
                inline = cell.find(_INLINE) if kind == "inlineStr" else None
                cells.append((ref.group(1) if ref else "", kind,
                              cell.findtext(_VALUE, default=""),
                              "" if inline is None else _rich_text(inline)))
            yield elem.get("r"), cells
            elem.clear()


def _tree_shared_strings(part, wanted: set[int], found: dict[int, str]) -> None:
    """Put the shared strings at the ``wanted`` indices into ``found``
    through ElementTree, streamed up to the last one."""
    last = max(wanted)
    events = _events(part, ("start", "end"))
    _, root = next(events)
    index = 0
    for event, elem in events:
        if event == "end" and elem.tag == _SHARED_ITEM:
            if index in wanted:
                found[index] = _rich_text(elem)
            if index == last:
                break
            index += 1
            root.clear()  # drop the items read so far: memory stays flat


def _chunks(part, end: bytes):
    """The text of ``part``, inflated ``_CHUNK`` bytes at a time and decoded a
    piece at a time: each piece but the last ends with the last ``end`` read
    so far, and the last, which holds no ``end``, is what follows it.

    Raises _Unread on a character XML does not allow, and on ``]]>``, which
    XML text never holds.
    """
    buf = bytearray()
    while chunk := part.read(_CHUNK):
        start = max(len(buf) - len(end) + 1, 0)
        buf += chunk
        cut = buf.rfind(end, start) + len(end)
        if cut >= len(end):
            yield _decoded(buf[:cut])
            del buf[:cut]
    yield _decoded(buf)


def _decoded(data: bytearray) -> str:
    if (len(data.translate(None, _CONTROLS)) != len(data) or b"]]>" in data
            or b"\xef\xbf\xbe" in data or b"\xef\xbf\xbf" in data):  # U+FFFE, U+FFFF
        raise _Unread
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError:
        raise _Unread from None


def _outline(doc: str, marker: str) -> bool:
    """Check a part with its rows or items cut out and one empty ``marker``
    element in their place; True if its root declares the ``x14ac`` prefix.

    Raises _Unread unless ElementTree parses ``doc`` and finds no DOCTYPE,
    comment, CDATA or encoding but UTF-8, and the marker is the only row or
    item and is in the main namespace. The callers check the part's head
    with the root's end tag right after the marker first: so the marker is
    a child of the root, and the main namespace is the root's default.
    """
    from xml.etree import ElementTree as ET

    if "<!" in doc or _patterns().foreign_encoding.search(doc):
        raise _Unread
    prefixes, found, started = set(), [], False
    try:
        for event, item in _events(io.BytesIO(doc.encode()), ("start-ns", "start")):
            if event == "start-ns":
                if not started:  # declared on the root
                    prefixes.add(item[0])
            else:
                started = True
                if item.tag.rpartition("}")[2] in (marker, "row", "si"):
                    found.append(item.tag)
    except ET.ParseError:
        raise _Unread from None
    if found != [f"{{{NS_MAIN}}}{marker}"]:
        raise _Unread
    return "x14ac" in prefixes


def _scanned_rows(segments: list[str], pattern: re.Pattern):
    """(r, cells) for each row of ``segments``, the text between row ends, as
    ``_tree_rows`` gives them; raises _Unread at a segment it does not read."""
    cells = _patterns().cells
    for segment in segments:
        match = pattern.fullmatch(segment)
        if match is None:
            raise _Unread
        if match["empty"]:
            yield from _empty_rows(match["empty"])
        found = cells.findall(segment)
        if "&" in segment or "<is" in segment:
            found = [(letters, kind, _unescape(value), _scanned_text(inline) if inline else "")
                     for letters, kind, value, inline in found]
        yield match["r"], found


def _empty_rows(markup: str):
    return ((match[1], ()) for match in re.finditer(r'<row(?: r="([^"]*)")?', markup))


def _scan_sheet(part, max_rows: int | None, grid: list[list], wanted: set[int]) -> None:
    """Read a sheet part into ``grid`` by the compiled scan, a chunk at a
    time, until a row numbered past ``max_rows`` or the part's end. Raises
    _Unread at the first markup the scan does not read."""
    pieces = _chunks(part, b"</row>")
    text = next(pieces)
    start = text.find("<sheetData")
    head = text[:start]
    if text.startswith("<sheetData>", start):
        body = text[start + len("<sheetData>"):]
    elif text.startswith("<sheetData/>", start):
        body = "</sheetData>" + text[start + len("<sheetData/>"):]
    else:
        raise _Unread
    x14ac = _outline(head + "<sheetData/></worksheet>", "sheetData")
    rows, ends = _patterns().rows[x14ac], _patterns().ends[x14ac]
    for piece in itertools.chain(("",), pieces):
        segments = (body + piece).split("</row>")
        body = segments.pop()
        if _fill(grid, _scanned_rows(segments, rows), max_rows, wanted):
            return
    match = ends.match(body)
    if match is None:
        raise _Unread
    _outline(head + "<sheetData/>" + body[match.end():], "sheetData")
    _fill(grid, _empty_rows(match["empty"]), max_rows, wanted)


def _scan_shared_strings(part, wanted: list[int], found: dict[int, str]) -> None:
    """Put the shared strings at the sorted ``wanted`` indices into ``found``
    by the compiled scan, a chunk at a time, up to the last of them. Raises
    _Unread at the first markup the scan does not read."""
    patterns = _patterns()
    pieces = _chunks(part, b"</si>")
    text = next(pieces)
    start = text.find("<si")
    if start < 0:
        raise _Unread
    head = text[:start]
    _outline(head + "<si/></sst>", "si")
    index, pick = 0, 0  # the number of the piece's first item; wanted[pick] is the next
    for items in itertools.chain((text[start:],), pieces):
        if not items.endswith("</si>"):  # the part's last piece: the root ends in it
            stop = items.rfind("</sst>")
            if stop < 0:
                raise _Unread
            _outline(head + "<si/>" + items[stop:], "si")
            items = items[:stop]
        if patterns.items.fullmatch(items) is None:
            raise _Unread
        texts = patterns.item_texts.findall(items)
        end = bisect.bisect_left(wanted, index + len(texts), pick)
        for number in wanted[pick:end]:
            plain, rich = texts[number - index]
            found[number] = _scanned_text(rich) if rich else _unescape(plain)
        if end == len(wanted):
            return
        index, pick = index + len(texts), end


def _read_sheet(zf: zipfile.ZipFile, name: str, max_rows: int | None,
                wanted: set[int]) -> list[list]:
    """A sheet part's grid, read by the scan or, where the scan meets markup
    it does not read, through ElementTree from the part's start."""
    grid: list[list] = []
    indices: set[int] = set()  # the shared strings the grid holds
    try:
        with zf.open(name) as part:
            _scan_sheet(part, max_rows, grid, indices)
    except _Unread:
        grid, indices = [], set()
        with zf.open(name) as part:
            _fill(grid, _tree_rows(part), max_rows, indices)
    wanted |= indices
    return grid


def _shared_strings(zf: zipfile.ZipFile, name: str, wanted: set[int]) -> dict[int, str]:
    """The shared strings at the ``wanted`` indices, read by the scan or,
    where the scan meets markup it does not read, through ElementTree from
    the part's start."""
    found: dict[int, str] = {}
    if not wanted or name not in zf.namelist():
        return found
    try:
        with zf.open(name) as part:
            _scan_shared_strings(part, sorted(wanted), found)
    except _Unread:
        found = {}
        with zf.open(name) as part:
            _tree_shared_strings(part, wanted, found)
    return found


def read_workbook(path: str | Path | BinaryIO, max_rows: int | None = None) -> list[SheetContent]:
    """Read sheet names and cell grids, as display strings, from a path or an
    open binary file.

    With ``max_rows`` set, each sheet is read only up to that row number,
    which relies on rows coming in ascending order, as OOXML requires.
    """
    import zipfile
    from xml.etree import ElementTree as ET

    with zipfile.ZipFile(path) as zf:
        workbook = ET.fromstring(zf.read("xl/workbook.xml"))
        rels = ET.fromstring(zf.read("xl/_rels/workbook.xml.rels"))
        targets = {}
        shared_part = _SHARED_PART
        for rel in rels.iter(f"{{{NS_PKG_REL}}}Relationship"):
            target = rel.get("Target", "")
            if target.startswith("/"):
                target = target.lstrip("/")
            else:
                target = "xl/" + target
            targets[rel.get("Id")] = target
            if rel.get("Type") == _SHARED_STRINGS:
                shared_part = target

        wanted: set[int] = set()
        sheets = []
        for sheet in workbook.iter(f"{{{NS_MAIN}}}sheet"):
            name = sheet.get("name", "")
            rid = sheet.get(f"{{{NS_REL}}}id")
            if rid not in targets:
                raise ValueError(f"sheet {name!r} points at relationship {rid!r}, "
                                 "which the workbook does not define")
            sheets.append(SheetContent(name=name,
                                       rows=_read_sheet(zf, targets[rid], max_rows, wanted)))
        shared = _shared_strings(zf, shared_part, wanted)
    if wanted:
        # each index to its string, "" where the table has none; any other
        # cell text is not a key, so it stays as it is
        strings = dict.fromkeys(wanted, "")
        strings.update(shared)
        for sheet in sheets:
            for cells in sheet.rows:
                cells[:] = map(strings.get, cells, cells)
    return sheets
