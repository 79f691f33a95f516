"""Partial-model inference from tabular exports (CSV files or a workbook).

Mirrors what low-code platforms do when initializing a project from a data
source: each table becomes a class, each column a property, and the cell
values drive type detection. Associations cannot be observed this way, so
the loss report always flags them as unknown.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from itertools import islice, zip_longest
from pathlib import Path

from .errors import TabularError
from .loss import LossReport
from .model import (
    Class,
    DomainModel,
    Namespace,
    Property,
    primitive_type,
    require_valid,
    sanitize_identifier,
)

SAMPLE_LIMIT = 1000  # data rows read per table; the rest of the file is not read

# The date and datetime rungs accept exactly what the stdlib's strptime
# accepts with the temporal formats: "%d/%m/%Y" and "%Y-%m-%d", alone (date)
# or followed by " %H:%M" or " %H:%M:%S" (datetime). That takes 1-digit
# fields, a space-padded day, any run of whitespace before the time and
# Unicode decimal digits where strptime has \d, but not 30/02, 29/02 in a
# common year, year 0 or seconds 60 and 61.


@functools.cache
def _column_rungs() -> tuple[tuple[str, re.Pattern], ...]:
    """The ladder as (kind, pattern), in order. Each pattern fullmatches a
    whole column: its values, each followed by NUL.

    No value pattern matches NUL, so each repetition reads exactly one value
    and the possessive ``++`` never has to give one back. The temporal
    patterns are strptime's fields for the temporal formats (see
    Lib/_strptime.py) without \\d's Unicode digits, held to the calendar:
    days 29 and 30 in every month but February, 31 only in the long months,
    29 February only in a leap year, no year 0 and no seconds 60 or 61.
    A column that is not ASCII reaches them with its digits mapped to
    ASCII (``_temporal_rung``).
    """
    year = r"(?!0000)[0-9]{4}"
    leap = r"(?!0000)(?:[0-9]{2}(?:0[48]|[2468][048]|[13579][26])|(?:[02468][048]|[13579][26])00)"
    day = r"(?:1[0-9]|2[0-8]|0[1-9]|[1-9]| [1-9])"  # 1-28
    month, not_feb, long = r"(?:1[0-2]|0?[1-9])", r"(?:1[0-2]|0?[13-9])", r"(?:1[02]|0?[13578])"
    dmy = (f"(?:{day}/{month}/{year}|(?:29|30)/{not_feb}/{year}|31/{long}/{year}"
           f"|29/0?2/{leap})")
    ymd = (f"(?:{year}-{month}-{day}|{year}-{not_feb}-(?:29|30)|{year}-{long}-31"
           f"|{leap}-0?2-29)")
    date = f"(?:{dmy}|{ymd})"
    time = r"\s+(?:2[0-3]|[0-1][0-9]|[0-9]):(?:[0-5][0-9]|[0-9])(?::(?:[0-5][0-9]|[0-9]))?"
    values = (
        ("bool", "(?ai:true|false)"),
        ("int", r"[+-]?\d+"),
        ("float", r"[+-]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?"),
        ("date", date),
        ("datetime", date + time),
    )
    return tuple((kind, re.compile(f"(?:{value}\0)++")) for kind, value in values)


@functools.cache
def _strptime_shapes() -> dict[str, re.Pattern]:
    """strptime's patterns for the temporal formats (Lib/_strptime.py, the
    same in 3.11 to 3.13) as column patterns like the rungs, by kind.
    Where they have \\d they take any Unicode decimal digit; the calendar is
    left to the rungs."""
    day = r"(?:3[01]|[12]\d|0[1-9]|[1-9]| [1-9])"
    month = r"(?:1[0-2]|0[1-9]|[1-9])"
    date = rf"(?:{day}/{month}/\d{{4}}|\d{{4}}-{month}-{day})"
    time = r"\s+(?:2[0-3]|[01]\d|\d):(?:[0-5]\d|\d)(?::(?:6[01]|[0-5]\d|\d))?"
    return {"date": re.compile(f"(?:{date}\0)++"),
            "datetime": re.compile(f"(?:{date}{time}\0)++")}


@dataclass(frozen=True)
class TableColumn:
    """One column of a table: its header and its sampled values."""

    header: str
    values: tuple[str, ...]


@dataclass(frozen=True)
class Table:
    """One CSV file or XLSX sheet: its name and its columns."""

    name: str
    columns: tuple[TableColumn, ...]


@dataclass(frozen=True)
class TabularSource:
    """The tables of one tabular export."""

    tables: tuple[Table, ...]


def _check_headers(headers: list[str], where: str) -> None:
    seen: dict[str, str] = {}
    for header in headers:
        low = header.strip().lower()
        if low in seen:
            raise TabularError(
                f"DUPLICATE_HEADER: {where} repeats column {header!r} "
                f"(clashes with {seen[low]!r})")
        seen[low] = header


def _table_from_rows(name: str, rows: list[list[str]], where: str) -> Table:
    """The header row and the data rows after it; the readers stop at
    SAMPLE_LIMIT data rows."""
    if not rows or not any(cell.strip() for cell in rows[0]):
        if rows and not any(cell.strip() for row in rows for cell in row):
            return Table(name=name, columns=())  # the sheet of a class with no properties
        raise TabularError(f"{where} has no header row")
    headers = [h.strip() for h in rows[0]]
    _check_headers(headers, where)
    data = rows[1:]
    # transposed in C; short rows are padded with "", cells past the header
    # are dropped, and a column no row reaches is all ""
    values = list(islice(zip_longest(*data, fillvalue=""), len(headers)))
    values += [("",) * len(data)] * (len(headers) - len(values))
    return Table(name=name, columns=tuple(
        TableColumn(header=header, values=column) for header, column in zip(headers, values)))


def _load_csv(path: Path) -> Table:
    import csv  # only CSV input needs it: imported here to keep it out of start-up

    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:
            rows = list(islice(csv.reader(handle), SAMPLE_LIMIT + 1))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise TabularError(f"cannot read {path}: {exc}") from exc
    return _table_from_rows(path.stem, rows, str(path))


def load_tabular(paths) -> TabularSource:
    """Load CSV files and/or workbooks; one table per file or sheet."""
    tables: list[Table] = []
    names: set[str] = set()

    def add(table: Table):
        if table.name.lower() in names:
            raise TabularError(f"duplicate table name {table.name!r}")
        names.add(table.name.lower())
        tables.append(table)

    for raw_path in paths:
        path = Path(raw_path)
        if not path.exists():
            raise TabularError(f"cannot read {path}: no such file")
        suffix = path.suffix.lower()
        if suffix == ".csv":
            add(_load_csv(path))
        elif suffix == ".xlsx":
            from . import xlsx  # only workbook input needs it: kept out of a CSV run

            try:
                sheets = xlsx.read_workbook(path, max_rows=SAMPLE_LIMIT + 1)
            except Exception as exc:
                raise TabularError(f"cannot read workbook {path}: {exc}") from exc
            for sheet in sheets:
                if not sheet.rows:
                    continue  # blank placeholder sheet
                add(_table_from_rows(sheet.name, sheet.rows, f"{path}:{sheet.name}"))
        else:
            raise TabularError(f"unsupported tabular input {path} (expected .csv or .xlsx)")
    return TabularSource(tables=tuple(tables))


# ---------------------------------------------------------------------------
# Type inference


def _temporal_kind(value: str) -> str | None:
    """"date" or "datetime" for a stripped value the ladder accepts as one."""
    return _temporal_rung(value + "\0")


def _temporal_rung(joined: str) -> str | None:
    """"date" or "datetime" for a column, joined as ``infer_column_type``
    joins it, whose every value strptime reads with a format of that kind.

    On a column that is not ASCII, strptime reads any Unicode decimal
    digit where its patterns have \\d, and int() reads the digit's value.
    So the calendar rungs judge the column with its digits mapped to
    ASCII, and strptime's own patterns check that each digit sits where
    strptime takes one. Both are regex calls over the whole column.
    """
    ascii_only = joined.isascii()
    digits = joined if ascii_only else joined.translate(
        {ord(c): str(int(c)) for c in set(joined) if c.isdecimal()})
    for kind, pattern in _column_rungs()[3:]:
        if pattern.fullmatch(digits) and (ascii_only
                                          or _strptime_shapes()[kind].fullmatch(joined)):
            return kind
    return None


def infer_column_type(values) -> tuple[str, bool]:
    """Apply the precedence ladder; returns (primitive name, defaulted flag).

    Empty cells are ignored. A column with no usable values defaults to str.
    Each rung tests the whole column with one regex call.
    """
    usable = [v for v in map(str.strip, values) if v]
    if not usable:
        return "str", True
    joined = "\0".join(usable) + "\0"
    if joined.count("\0") != len(usable):
        return "str", False  # a value holds NUL, which no rung accepts
    for kind, pattern in _column_rungs()[:3]:
        if pattern.fullmatch(joined):
            return kind, False
    return _temporal_rung(joined) or "str", False


def infer_model(source: TabularSource, name: str = "Imported") -> tuple[DomainModel, LossReport]:
    """One class per table, one property per column, types from the ladder.

    No associations are ever fabricated.
    """
    loss = LossReport()
    classes = _infer_classes(source, loss)
    loss.add("model", name, "ASSOCIATIONS_UNKNOWN", "warning",
             "tabular sources carry no explicit relationships between classes")
    model = DomainModel(name=sanitize_identifier(name), classes=classes)
    return require_valid(model, "inferred tabular model"), loss


def _infer_classes(source: TabularSource, loss: LossReport) -> tuple[Class, ...]:
    """The classes of ``infer_model``; its name sets are gone before the
    model is validated."""
    class_names = Namespace()
    classes = []
    for table in source.tables:
        class_name = class_names.claim(sanitize_identifier(table.name))
        if class_name != table.name:
            loss.add("class", table.name, "RENAMED", "info", f"sanitized to {class_name}")
        prop_names = Namespace()
        properties = []
        for column in table.columns:
            prop_name = prop_names.claim(sanitize_identifier(column.header))
            if prop_name != column.header:
                loss.add("property", f"{table.name}.{column.header}", "RENAMED", "info",
                         f"sanitized to {prop_name}")
            primitive, defaulted = infer_column_type(column.values)
            if defaulted:
                loss.add("property", f"{table.name}.{column.header}", "TYPE_DEFAULTED",
                         "warning", "no values to sample; str assumed")
            properties.append(Property(name=prop_name, type=primitive_type(primitive)))
        classes.append(Class(name=class_name, properties=tuple(properties)))
    return tuple(classes)
