"""CSV/workbook loading and type inference."""

import csv
import random
import time
import tracemalloc
import zipfile
from datetime import datetime
from xml.sax.saxutils import escape

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lcpbridge.errors import MissingInputError, TabularError
from lcpbridge.model import validate_model
from lcpbridge.pipeline import MigrationInputs, execute_import
from lcpbridge.tabular import (
    SAMPLE_LIMIT,
    Table,
    TableColumn,
    TabularSource,
    _table_from_rows,
    _temporal_kind,
    infer_column_type,
    infer_model,
    load_tabular,
)
from lcpbridge.xlsx import read_workbook

from expected import (
    class_named,
    reference_column_type,
    reference_table_from_rows,
    with_reason,
)
from generators import row_csv_files
from test_scaling import python_calls


def _source(**tables) -> TabularSource:
    built = []
    for name, columns in tables.items():
        built.append(Table(name=name, columns=tuple(
            TableColumn(header=h, values=tuple(v)) for h, v in columns.items())))
    return TabularSource(tables=tuple(built))


DATE_FORMATS = ("%d/%m/%Y", "%Y-%m-%d")
DATETIME_FORMATS = tuple(f"{d} {t}" for d in DATE_FORMATS for t in ("%H:%M", "%H:%M:%S"))


def reference_temporal_kind(value: str) -> str | None:
    """The date and datetime rungs as strptime calls: the reference for the
    regex version."""
    value = value.strip()
    for kind, formats in (("date", DATE_FORMATS), ("datetime", DATETIME_FORMATS)):
        for fmt in formats:
            try:
                datetime.strptime(value, fmt)
                return kind
            except ValueError:
                pass
    return None


# A second, independent route to the expected type: try each primitive's own
# parser over every value instead of walking the precedence ladder.
def _oracle_type(values):
    usable = [v.strip() for v in values if v.strip()]
    if not usable:
        return "str"

    def parses(value, kind):
        try:
            if kind == "bool":
                return value.lower() in ("true", "false")
            if kind == "int":
                int(value)
                return not any(ch in value for ch in ".eE _")
            if kind == "float":
                float(value)
                return "_" not in value and value.lower() not in ("nan", "inf", "-inf", "+inf")
            return reference_temporal_kind(value) == kind
        except ValueError:
            return False

    for kind in ("bool", "int", "float", "date", "datetime"):
        if all(parses(v, kind) for v in usable):
            return kind
    return "str"


class TestLoad:
    def test_single_csv(self, tmp_path):
        path = tmp_path / "Book.csv"
        path.write_text("title,pages\nDune,412\n", encoding="utf-8")
        source = load_tabular([path])
        assert len(source.tables) == 1
        table = source.tables[0]
        assert table.name == "Book"
        assert [c.header for c in table.columns] == ["title", "pages"]

    def test_two_csvs_two_tables(self, tmp_path):
        (tmp_path / "Book.csv").write_text("title\nDune\n", encoding="utf-8")
        (tmp_path / "Author.csv").write_text("name\nHerbert\n", encoding="utf-8")
        source = load_tabular(sorted(tmp_path.glob("*.csv")))
        assert {t.name for t in source.tables} == {"Book", "Author"}

    def test_duplicate_header_rejected(self, tmp_path):
        path = tmp_path / "Bad.csv"
        path.write_text("name,name\na,b\n", encoding="utf-8")
        with pytest.raises(TabularError) as err:
            load_tabular([path])
        assert "DUPLICATE_HEADER" in str(err.value)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "Empty.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(TabularError) as err:
            load_tabular([path])
        assert "header" in str(err.value)

    def test_blank_header_above_data_rejected(self, tmp_path):
        path = tmp_path / "Headless.csv"
        path.write_text(",\na,b\n", encoding="utf-8")
        with pytest.raises(TabularError) as err:
            load_tabular([path])
        assert "no header row" in str(err.value)

    def test_missing_file(self, tmp_path):
        with pytest.raises(MissingInputError):
            load_tabular([tmp_path / "nope.csv"])

    def test_rfc4180_quoting(self, tmp_path):
        path = tmp_path / "Quoted.csv"
        path.write_text('title,note\n"A, B",says ""hi""\n', encoding="utf-8")
        table = load_tabular([path]).tables[0]
        assert table.columns[0].values == ("A, B",)

    def test_sampling_stops_at_limit(self, tmp_path):
        rows = "\n".join(str(i) for i in range(2000))
        (tmp_path / "Big.csv").write_text("n\n" + rows + "\n", encoding="utf-8")
        table = load_tabular([tmp_path / "Big.csv"]).tables[0]
        assert len(table.columns[0].values) == 1000

    def test_non_utf8_csv_is_tabular_error(self, tmp_path):
        path = tmp_path / "Bad.csv"
        path.write_bytes(b"a,b\n1,\xff\n")
        with pytest.raises(TabularError) as err:
            load_tabular([path])
        assert "Bad.csv" in str(err.value)


# Workbooks built with zipfile alone, in the shared-strings layout that
# spreadsheet apps save: blank cells are omitted, text sits in xl/sharedStrings.xml.
_NS = "http://schemas.openxmlformats.org/spreadsheetml/2006/main"
_REL = "http://schemas.openxmlformats.org/officeDocument/2006/relationships"
_PKG = "http://schemas.openxmlformats.org/package/2006/relationships"


def _letters(col: int) -> str:
    letters = ""
    while col:
        col, rem = divmod(col - 1, 26)
        letters = chr(65 + rem) + letters
    return letters


def _write_xlsx(path, sheet_data: str, strings=()) -> None:
    sst = "".join(f"<si><t>{escape(s)}</t></si>" for s in strings)
    with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED) as zf:
        zf.writestr("xl/workbook.xml", f'<workbook xmlns="{_NS}" xmlns:r="{_REL}"><sheets>'
                    '<sheet name="Data" sheetId="1" r:id="rId1"/></sheets></workbook>')
        zf.writestr("xl/_rels/workbook.xml.rels", f'<Relationships xmlns="{_PKG}">'
                    f'<Relationship Id="rId1" Type="{_REL}/worksheet" '
                    'Target="worksheets/sheet1.xml"/></Relationships>')
        zf.writestr("xl/worksheets/sheet1.xml",
                    f'<worksheet xmlns="{_NS}"><sheetData>{sheet_data}</sheetData></worksheet>')
        zf.writestr("xl/sharedStrings.xml", f'<sst xmlns="{_NS}">{sst}</sst>')


def _write_grid_xlsx(path, grid: dict[int, list[str]], rng=None, tail: str = "") -> None:
    """Row number -> texts; the strings table is in first-use order unless
    ``rng`` shuffles it; ``tail`` is raw XML appended after the last row."""
    strings = list(dict.fromkeys(v for _, row in sorted(grid.items()) for v in row if v))
    if rng is not None:
        rng.shuffle(strings)
    index = {s: i for i, s in enumerate(strings)}
    rows = []
    for r, row in sorted(grid.items()):
        cells = "".join(f'<c r="{_letters(c)}{r}" t="s"><v>{index[v]}</v></c>'
                        for c, v in enumerate(row, start=1) if v)
        rows.append(f'<row r="{r}">{cells}</row>')
    _write_xlsx(path, "".join(rows) + tail, strings)


def _grid(rows: int, rng: random.Random, blank_share: float = 0.0) -> dict[int, list[str]]:
    """A header and ``rows`` data rows of five columns, every text distinct."""
    grid = {1: ["id", "name", "count", "note", "when"]}
    for r in range(2, rows + 2):
        grid[r] = [
            "" if rng.random() < blank_share else value
            for value in (f"r{r}", f"name {r} & co", str(rng.randint(0, 9999)),
                          f"note <{r}>", f"2024-01-{1 + r % 28:02d}")
        ]
    return grid


def _expected_table(name: str, rows: list[list[str]]) -> Table:
    """What loading ``rows`` (a full read of the file) must give: the header,
    then the first SAMPLE_LIMIT data rows, short rows padded with blanks."""
    header, data = rows[0], rows[1:SAMPLE_LIMIT + 1]
    return Table(name=name, columns=tuple(
        TableColumn(header=h, values=tuple(row[i] if i < len(row) else "" for row in data))
        for i, h in enumerate(header)))


def _load_peak(path) -> int:
    tracemalloc.start()
    try:
        load_tabular([path])
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBoundedRead:
    """Loading reads the header and SAMPLE_LIMIT data rows, and no further."""

    def test_csv_same_table_as_full_read(self, tmp_path):
        rng = random.Random(3)
        path = tmp_path / "Orders.csv"
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["id", "note", "amount"])
            for i in range(5000):
                note = rng.choice(["plain", "a, b", 'say "hi"', "two\nlines", ""])
                writer.writerow([i, note, rng.randint(0, 999)][:rng.choice((2, 3))])
        with open(path, newline="", encoding="utf-8") as handle:
            full = list(csv.reader(handle))
        assert len(full) == 5001
        assert load_tabular([path]).tables == (_expected_table("Orders", full),)

    def test_xlsx_same_table_as_full_read(self, tmp_path):
        rng = random.Random(4)
        grid = _grid(5000, rng, blank_share=0.15)
        del grid[400]  # a row gap: row 400 has no <row> element
        path = tmp_path / "export.xlsx"
        _write_grid_xlsx(path, grid, rng=rng)
        full = [grid.get(r, []) for r in range(1, max(grid) + 1)]
        assert load_tabular([path]).tables == (_expected_table("Data", full),)

    def test_defect_past_the_cap_is_not_read(self, tmp_path):
        csv_path = tmp_path / "Late.csv"
        csv_path.write_bytes(b"n\n" + b"1234567890\n" * 5000 + b"\xff\n")
        xlsx_path = tmp_path / "late.xlsx"
        _write_grid_xlsx(xlsx_path, _grid(2000, random.Random(5)), tail="<row r=")
        assert len(load_tabular([csv_path]).tables[0].columns[0].values) == SAMPLE_LIMIT
        assert len(load_tabular([xlsx_path]).tables[0].columns[0].values) == SAMPLE_LIMIT

    @pytest.mark.parametrize("kind", ["csv", "xlsx", "xlsx-shuffled"])
    def test_load_memory_does_not_grow_with_rows(self, tmp_path, kind):
        """xlsx-shuffled spreads the sampled rows' strings over the whole table."""
        def write(rows: int):
            path = tmp_path / f"T{rows}.{kind[:4]}"
            grid = _grid(rows, random.Random(rows))
            if kind != "csv":
                _write_grid_xlsx(path, grid, rng=random.Random(rows) if "-" in kind else None)
            else:
                with open(path, "w", newline="", encoding="utf-8") as handle:
                    csv.writer(handle).writerows(row for _, row in sorted(grid.items()))
            return path

        load_tabular([write(50)])  # warm up imports and caches outside the measurement
        small, large = _load_peak(write(2_000)), _load_peak(write(40_000))
        assert large <= 1.5 * small, (small, large)
        if kind == "xlsx":  # nor does the work: the Python calls of the capped read
            small, large = (python_calls(load_tabular, [write(rows)]) for rows in (2_500, 5_000))
            assert abs(large - small) <= 0.05 * small, (small, large)

    def test_import_memory_does_not_grow_with_files(self, tmp_path):
        """The tabular import infers each file's tables before it reads the
        next file, so it holds about one file's sample however many it reads."""
        def peak(count: int) -> int:
            paths = row_csv_files(count, 1_000, tmp_path / str(count))
            tracemalloc.start()
            try:
                execute_import(["tabular"], MigrationInputs(files=paths), "outsystems",
                               tmp_path / f"out{count}")
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        execute_import(["tabular"], MigrationInputs(files=row_csv_files(1, 50, tmp_path / "w")),
                       "outsystems", tmp_path / "warm")  # imports and caches, unmeasured
        small, large = peak(4), peak(32)
        assert large <= 1.5 * small, (small, large)


class TestXlsxFuzz:
    """Arbitrary bytes and edited workbooks end in a source or a TabularError."""

    @staticmethod
    def load(path):
        try:
            load_tabular([path])
        except TabularError:
            pass

    @settings(max_examples=100, deadline=None)
    @given(data=st.binary(max_size=600))
    def test_arbitrary_bytes(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("fuzz") / "any.xlsx"
        # some of them behind the signature a zip begins with
        path.write_bytes(b"PK\x03\x04" + data if data[:1] == b"\0" else data)
        self.load(path)

    @settings(max_examples=250, deadline=None)
    @given(part=st.sampled_from(["xl/workbook.xml", "xl/_rels/workbook.xml.rels",
                                 "xl/worksheets/sheet1.xml", "xl/sharedStrings.xml"]),
           at=st.integers(0, 10**6), cut=st.integers(0, 12),
           insert=st.sampled_from(["", "<", ">", "&", '"', "&amp", "\x00", "\r", "é", "]]>",
                                   "<!--", "</row>", "<row>", '<row r="0"/>', '<c r="XFE1"/>',
                                   '<c t="s"><v>99</v></c>', "<si/>", 'r="2"', "9" * 30]),
           flip=st.one_of(st.none(), st.tuples(st.integers(0, 10**6), st.integers(1, 255))))
    def test_edited_workbook(self, tmp_path_factory, part, at, cut, insert, flip):
        folder = tmp_path_factory.mktemp("fuzz")
        _write_grid_xlsx(folder / "valid.xlsx", _grid(12, random.Random(at), blank_share=0.2))
        with zipfile.ZipFile(folder / "valid.xlsx") as zf:
            parts = {name: zf.read(name).decode() for name in zf.namelist()}
        text = parts[part]
        at %= len(text) + 1
        parts[part] = text[:at] + insert + text[at + cut:]
        path = folder / "edited.xlsx"
        with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED) as zf:
            for name, data in parts.items():
                zf.writestr(name, data)
        if flip is not None:
            data = bytearray(path.read_bytes())
            data[flip[0] % len(data)] ^= flip[1]
            path.write_bytes(data)
        self.load(path)


class TestSheetBounds:
    """Coordinates past the OOXML sheet limits are rejected, not padded to."""

    @pytest.mark.parametrize("sheet_data", [
        '<row r="1"><c r="A1" t="s"><v>0</v></c><c r="ZZZZZZZZ1" t="s"><v>0</v></c></row>',
        '<row r="1"><c r="XFE1" t="s"><v>0</v></c></row>',
        '<row r="1"><c r="A1" t="s"><v>0</v></c></row>'
        '<row r="1048577"><c r="A1048577" t="s"><v>0</v></c></row>',
        '<row r="0"><c r="A1" t="s"><v>0</v></c></row>',
    ], ids=["column-ZZZZZZZZ", "column-XFE", "row-1048577", "row-0"])
    def test_out_of_range_is_tabular_error(self, tmp_path, sheet_data):
        path = tmp_path / "far.xlsx"
        _write_xlsx(path, sheet_data, ["h"])
        with pytest.raises(TabularError, match=r"past column XFD|outside 1\.\.1048576"):
            load_tabular([path])

    def test_last_row_and_column_accepted(self, tmp_path):
        path = tmp_path / "edge.xlsx"
        _write_xlsx(path, '<row r="1"><c r="A1" t="s"><v>0</v></c></row>'
                          '<row r="1048576"><c r="XFD1048576" t="s"><v>1</v></c></row>',
                    ["h", "far"])
        sheet = read_workbook(path, max_rows=3)[0]
        assert sheet.rows == [["h"], [], []]
        _write_xlsx(path, '<row r="1"><c r="XFD1" t="s"><v>0</v></c></row>', ["h"])
        row = read_workbook(path)[0].rows[0]
        assert len(row) == 16_384 and row[-1] == "h"


class TestInference:
    def test_book_example(self):
        source = _source(Book={"title": ["A", "B"], "pages": ["12", "300"]})
        model, _ = infer_model(source)
        book = class_named(model, "Book")
        assert book.properties[0].type.primitive == "str"
        assert book.properties[1].type.primitive == "int"

    def test_empty_column_defaults_to_str_with_loss(self):
        source = _source(Book={"notes": ["", "", ""]})
        model, loss = infer_model(source)
        assert class_named(model, "Book").properties[0].type.primitive == "str"
        assert with_reason(loss, "TYPE_DEFAULTED")

    def test_int_generalizes_to_float(self):
        source = _source(T={"x": ["1", "2.5"]})
        model, _ = infer_model(source)
        assert class_named(model, "T").properties[0].type.primitive == "float"

    @pytest.mark.parametrize("values,expected", [
        (["true", "FALSE", "True"], "bool"),
        (["1", "2", "-3"], "int"),
        (["1.5", "2", "3e2"], "float"),
        (["01/01/2024", "31/12/1999"], "date"),
        (["2024-01-01"], "date"),
        (["01/01/2024 10:30", "2024-01-01 00:00:00"], "datetime"),
        (["maybe", "2"], "str"),
        ([" 42 ", "7"], "int"),
    ])
    def test_precedence_ladder(self, values, expected):
        primitive, defaulted = infer_column_type(values)
        assert primitive == expected
        assert not defaulted

    def test_against_independent_oracle(self):
        rng = random.Random(5)
        pools = {
            "bool": ["true", "false", "TRUE", "False"],
            "int": ["0", "42", "-7", "+5"],
            "float": ["1.5", "-0.25", "3e2", "7"],
            "date": ["01/01/2024", "2023-06-30", "31/12/1999"],
            "datetime": ["01/01/2024 10:30", "2023-06-30 23:59:59"],
            "str": ["hello", "a b c", "NaN-ish", "12x"],
        }
        for _ in range(300):
            kinds = rng.sample(list(pools), rng.randint(1, 3))
            values = [rng.choice(pools[k]) for k in kinds for _ in range(rng.randint(1, 3))]
            if rng.random() < 0.3:
                values.append("")
            rng.shuffle(values)
            assert infer_column_type(values)[0] == _oracle_type(values)

    def test_order_insensitive(self):
        values = ["1", "2.5", "three", "01/01/2020"]
        expected = infer_column_type(values)[0]
        rng = random.Random(1)
        for _ in range(10):
            shuffled = values[:]
            rng.shuffle(shuffled)
            assert infer_column_type(shuffled)[0] == expected

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.sampled_from(
        ["true", "1", "2.5", "01/01/2024", "2024-01-01 10:00", "word", ""]),
        min_size=0, max_size=8),
        st.sampled_from(["true", "1", "2.5", "01/01/2024", "word"]))
    def test_monotone_widening(self, values, extra):
        order = {"bool": 0, "int": 1, "float": 2, "date": 0, "datetime": 0, "str": 9}
        before, defaulted = infer_column_type(values)
        after, _ = infer_column_type(values + [extra])
        if defaulted:
            return  # no evidence yet; the first value sets the type freely
        # str is absorbing; adding values never narrows within the numeric chain
        if before == "str":
            assert after == "str"
        if before in ("int", "float") and after in ("int", "float", "str"):
            assert order[after] >= order[before]

    def test_class_and_property_counts(self):
        source = _source(A={"x": ["1"], "y": ["2"]}, B={"z": ["a"]})
        model, _ = infer_model(source)
        assert len(model.classes) == len(source.tables)
        for table in source.tables:
            cls = class_named(model, table.name)
            assert len(cls.properties) == len(table.columns)

    def test_no_associations_and_loss_noted(self):
        source = _source(Book={"t": ["a"]}, Author={"n": ["b"]})
        model, loss = infer_model(source)
        assert model.associations == ()
        assert with_reason(loss, "ASSOCIATIONS_UNKNOWN")

    @pytest.mark.parametrize("names", [
        ("Book", "book"),
        ("\u212a", "k"),  # KELVIN SIGN lowercases to k, yet sanitizes to Unnamed
        ("k", "\u212a"),
        ("\u212a", "Unnamed", "K"),
        ("a b", "a_b", "A_B"),
    ])
    def test_table_names_equal_under_lower_are_refused(self, names):
        source = _source(**{name: {"x": ["1"]} for name in names})
        with pytest.raises(TabularError) as err:
            infer_model(source)
        assert str(err.value) == f"duplicate table name {names[-1]!r}"

    def test_sanitized_collisions_are_numbered(self):
        source = _source(**{name: {"x": ["1"]} for name in ("a b", "a_b", "a-b!", "\u212a",
                                                             "Unnamed")})
        model, loss = infer_model(source)
        assert [c.name for c in model.classes] == ["a_b", "a_b_2", "a_b_3", "Unnamed",
                                                   "Unnamed_2"]
        assert [(i.element_name, i.detail) for i in with_reason(loss, "RENAMED")] == [
            ("a b", "sanitized to a_b"), ("a_b", "sanitized to a_b_2"),
            ("a-b!", "sanitized to a_b_3"), ("\u212a", "sanitized to Unnamed"),
            ("Unnamed", "sanitized to Unnamed_2")]

    def test_inferred_model_validates(self, csv_paths):
        model, _ = infer_model(load_tabular(csv_paths))
        assert validate_model(model).ok
        assert {c.name for c in model.classes} == {"Book", "Author", "Library"}
        book = class_named(model, "Book")
        types = {p.name: p.type.primitive for p in book.properties}
        assert types == {"title": "str", "pages": "int", "published": "date"}


_UNICODE_DIGITS = ("٠١٢٣٤٥٦٧٨٩", "०१२३४५६७८९", "０１２３４５６７８９")


@st.composite
def temporal_text(draw):
    """Dates and datetimes drawn to hit strptime's quirks: 1-digit and
    space-padded fields, any whitespace before the time, out-of-range values
    its patterns let through (30/02, 29/02 in a common year, year 0000,
    seconds 60 and 61), Unicode decimal digits where it has \\d, and leading
    and trailing characters."""
    digits = draw(st.sampled_from((None,) * 6 + _UNICODE_DIGITS))

    def field(low, high, edges, pads=("{}", "{:02d}")):
        # out-of-range values sit mid-list: hypothesis favours both ends
        numbers = list(range(low, high + 1))
        numbers[len(numbers) // 2:len(numbers) // 2] = edges
        text = draw(st.sampled_from(pads)).format(draw(st.sampled_from(numbers)))
        if digits:  # the first character of a field is an ASCII class in strptime
            text = text[:1] + text[1:].translate(str.maketrans("0123456789", digits))
        return text

    day = field(1, 28, (0, 29, 30, 31, 32), ("{}", "{:02d}", "{:2d}"))
    month = field(1, 12, (0, 13))
    year = draw(st.sampled_from(("{:04d}",) * 4 + ("{}",))).format(draw(st.one_of(
        st.integers(1, 9999), st.sampled_from((2023, 0, 10_000, 2024)))))
    if digits:
        year = year.translate(str.maketrans("0123456789", digits))
    text = f"{day}/{month}/{year}" if draw(st.booleans()) else f"{year}-{month}-{day}"
    if draw(st.booleans()):
        text += draw(st.sampled_from([" ", " ", "  ", "\t", " \t ", "\n", "\xa0", "", "T"]))
        text += f"{field(0, 23, (24,))}:{field(0, 59, (60,))}"
        if draw(st.booleans()):
            text += f":{field(0, 59, (60, 61, 62))}"
    lead = draw(st.sampled_from(["", "", " ", "\t", "\n "]))
    tail = draw(st.sampled_from(["", "", "", "", "", "", " ", "x", ":", "0"]))
    return lead + text + tail


@settings(max_examples=600, deadline=None)
@given(st.one_of(temporal_text(), temporal_text(), temporal_text(),
                 st.text(alphabet="0123456789٠٥/-: \tx", max_size=20)))
@example("2024-01- 5")
@example("5/1/2024\t\t 7:3:9")
@example("٠١/٠٢/٢٠٢٤")
@example("٢٠٢٤-٠١-٠٢")
@example("1٥/1/2024")
@example("29/02/2024")
@example("29/02/2023")
@example("0000-01-01")
@example("2024-01-01 23:59:60")
@example("2024-01-01 23:59:61")
@example("31/12/1999 10:30x")
def test_temporal_rungs_match_strptime_reference(text):
    expected = reference_temporal_kind(text)
    assert _temporal_kind(text.strip()) == expected
    inferred, _ = infer_column_type([text])
    assert (inferred if inferred in ("date", "datetime") else None) == expected


def _any_case(word: str):
    return st.lists(st.booleans(), min_size=len(word), max_size=len(word)).map(
        lambda upper: "".join(c.upper() if u else c for c, u in zip(word, upper)))


@st.composite
def month_end(draw):
    """Days 28-31 of any month, in years around the leap-year rules."""
    day, month = draw(st.integers(28, 31)), draw(st.integers(1, 12))
    year = draw(st.sampled_from((0, 4, 1900, 2000, 2023, 2024, 2100)))
    text = (f"{day}/{month:02d}/{year:04d}" if draw(st.booleans())
            else f"{year:04d}-{month}-{day}")
    return text + draw(st.sampled_from(("", " 10:30", " 23:59:59", " 0:0:60")))


_CELLS = {
    "temporal": temporal_text(),
    "month end": month_end(),
    "int": st.one_of(st.integers(-10**12, 10**12).map(str),
                     st.sampled_from(["+5", "-0", "٣", "+٤٥", "1_000"])),
    "float": st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                       st.sampled_from([".5", "1.", "3e2", "-0.25E-3", "1e", ".", "٣.٥"])),
    "bool": st.sampled_from(["true", "false"]).flatmap(_any_case),
    "blank": st.sampled_from(["", " ", "\t", "\n"]),
    "odd": st.sampled_from(["1\0", "\0", "true\0", "2024-01-01\0", "1\n2", "tr\nue",
                            "1\t2", "2024-01-01\t10:30", "31/12/1999\n23:59", "falſe"]),
}


@st.composite
def mixed_column(draw):
    """1-20 cells drawn from one to three of the kinds above."""
    kinds = draw(st.lists(st.sampled_from(sorted(_CELLS)), min_size=1, max_size=3, unique=True))
    return draw(st.lists(st.one_of(*(_CELLS[k] for k in kinds)), min_size=1, max_size=20))


@settings(max_examples=600, deadline=None)
@given(mixed_column())
@example(["29/02/2024", "2024-02-29", "2\u0665/1/\u0662\u0660\u0662\u0664"])
@example(["29/02/0000"])
@example(["31/04/2024 10:30"])
@example(["29/02/2023 10:30"])
@example(["1", "2\x003"])
@example(["2024-01-01", "2024-01-01\x00"])
def test_column_ladder_matches_value_ladder(column):
    assert infer_column_type(column) == reference_column_type(column)


def test_column_failing_at_last_value_costs_linear_time():
    accepted = ["29/02/2024 10:30"] * 100_000
    failing = accepted + ["x"]
    assert infer_column_type(accepted) == ("datetime", False)
    assert infer_column_type(failing) == ("str", False)

    def best_time(column):
        best = float("inf")
        for _ in range(3):
            start = time.process_time()
            infer_column_type(column)
            best = min(best, time.process_time() - start)
        return best

    # every value is read once by each rung, whether or not the last one fails
    assert best_time(failing) <= 4 * best_time(accepted)


# Header cells that fold onto each other: case twins (one only under
# Unicode lowercasing), padding, blanks and non-ASCII text.
_HEADER_CELLS = st.one_of(
    st.sampled_from(["id", "ID", " id ", "Id\t", "name", "NAME ", "", " ", "\u00a0",
                     "\u212a", "k", "K", "stra\u00dfe", "STRASSE", "\u0130", "i\u0307",
                     "\u01c5", "\u01c6", "\u00c9", "\u00e9"]),
    st.text(max_size=3))


@settings(max_examples=400, deadline=None)
@given(st.lists(st.lists(_HEADER_CELLS, max_size=6), max_size=5))
@example([[" ", ""], ["", " "]])
@example([[" ", ""], ["", "x"]])
@example([["id", " ID"], ["1"]])
@example([["\u212a", "k"], ["1", "2", "3"], []])
def test_table_from_rows_matches_reference(rows):
    """The joined header test, the one-set header check and the positional
    records give the same table, or the same error, as a test per cell.
    The first row is the header; the data rows are ragged."""
    try:
        expected = reference_table_from_rows("T", rows, "t.csv")
    except TabularError as exc:
        with pytest.raises(TabularError) as err:
            _table_from_rows("T", rows, "t.csv")
        assert str(err.value) == str(exc)
    else:
        assert _table_from_rows("T", rows, "t.csv") == expected
