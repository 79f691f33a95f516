"""Partial-model inference from tabular exports (CSV files or a workbook).

Mirrors what low-code platforms do when initializing a project from a data
source: each table becomes a class, each column a property, and the cell
values drive type detection. Associations cannot be observed this way, so
the loss report always flags them as unknown.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass
from datetime import datetime
from itertools import islice
from pathlib import Path

from . import xlsx
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

_INT_RE = re.compile(r"[+-]?\d+\Z")
_FLOAT_RE = re.compile(r"[+-]?(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?\Z")
_BOOL_TOKENS = frozenset(("true", "false"))

# The date and datetime rungs accept exactly what the stdlib's strptime
# accepts with "%d/%m/%Y" or "%Y-%m-%d", alone or followed by " %H:%M" or
# " %H:%M:%S". The field patterns are strptime's own (Lib/_strptime.py), so
# 1-digit fields, a space-padded day, any run of whitespace before the time
# and Unicode decimal digits where strptime has \d all match as they do
# there; datetime(...) then rejects what the patterns let through (30/02,
# 29/02 in a common year, year 0, seconds 60 and 61).
_DAY = r"(?P<d>3[0-1]|[1-2]\d|0[1-9]|[1-9]| [1-9])"
_MONTH = r"(?P<m>1[0-2]|0[1-9]|[1-9])"
_YEAR = r"(?P<Y>\d\d\d\d)"
_TIME = (r"(?:\s+(?P<H>2[0-3]|[0-1]\d|\d):(?P<M>[0-5]\d|\d)"
         r"(?::(?P<S>6[0-1]|[0-5]\d|\d))?)?\Z")
_DMY_RE = re.compile(f"{_DAY}/{_MONTH}/{_YEAR}{_TIME}")
_YMD_RE = re.compile(f"{_YEAR}-{_MONTH}-{_DAY}{_TIME}")


@dataclass(frozen=True)
class TableColumn:
    header: str
    values: tuple[str, ...]


@dataclass(frozen=True)
class Table:
    name: str
    columns: tuple[TableColumn, ...]


@dataclass(frozen=True)
class TabularSource:
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
    columns = []
    for idx, header in enumerate(headers):
        values = tuple(
            row[idx] if idx < len(row) else ""
            for row in rows[1:]
        )
        columns.append(TableColumn(header=header, values=values))
    return Table(name=name, columns=tuple(columns))


def _load_csv(path: Path) -> Table:
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
    found = _DMY_RE.match(value) or _YMD_RE.match(value)
    if found is None:
        return None
    day, month, year, hour, minute, second = found.group("d", "m", "Y", "H", "M", "S")
    try:
        datetime(int(year), int(month), int(day),
                 int(hour or 0), int(minute or 0), int(second or 0))
    except ValueError:
        return None
    return "date" if hour is None else "datetime"


def infer_column_type(values) -> tuple[str, bool]:
    """Apply the precedence ladder; returns (primitive name, defaulted flag).

    Empty cells are ignored. A column with no usable values defaults to str.
    """
    usable = [v for v in map(str.strip, values) if v]
    if not usable:
        return "str", True
    if all(v.lower() in _BOOL_TOKENS for v in usable):
        return "bool", False
    if all(map(_INT_RE.match, usable)):
        return "int", False
    if all(map(_FLOAT_RE.match, usable)):
        return "float", False
    if all(_temporal_kind(v) == "date" for v in usable):
        return "date", False
    if all(_temporal_kind(v) == "datetime" for v in usable):
        return "datetime", False
    return "str", False


def infer_model(source: TabularSource, name: str = "Imported",
                suggest_references: bool = False) -> tuple[DomainModel, LossReport]:
    """One class per table, one property per column, types from the ladder.

    No associations are ever fabricated. With ``suggest_references`` on, a
    column whose header matches another table's name yields a
    REFERENCE_CANDIDATE suggestion in the loss report, nothing more.
    """
    loss = LossReport()
    table_names = {t.name.lower() for t in source.tables}
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
            if suggest_references and column.header.strip().lower() in table_names \
                    and column.header.strip().lower() != table.name.lower():
                loss.add("property", f"{table.name}.{column.header}", "REFERENCE_CANDIDATE",
                         "info", "header matches another table; possible many-to-one")
        classes.append(Class(name=class_name, properties=tuple(properties)))

    loss.add("model", name, "ASSOCIATIONS_UNKNOWN", "warning",
             "tabular sources carry no explicit relationships between classes")
    model = DomainModel(name=sanitize_identifier(name), classes=tuple(classes))
    return require_valid(model, "inferred tabular model"), loss
