"""Round-trip checks for the minimal OOXML container layer, the container
held to ``zipfile``'s bytes, and the sheet scan held to the ElementTree
reader."""

import contextlib
import errno
import io
import subprocess
import sys
import zipfile
from decimal import Decimal
from pathlib import Path
from unittest import mock
from xml.etree import ElementTree as ET

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lcpbridge
from lcpbridge import xlsx
from lcpbridge.xlsx import (
    NS_MAIN,
    NS_PKG_REL,
    NS_REL,
    SHEET_HEAD,
    column_letter,
    escape,
    read_workbook,
    write_workbook,
)


def _sheet_part(rows, validations=()) -> str:
    """A sheet part with ``rows`` of cells, rendered as the workbook
    generator renders its cells: a str is an inline string, a bool a boolean
    and a Decimal a number in the "0" format. Each validation is a list
    validation, (sqref, formula)."""
    def cell(ref, value):
        if isinstance(value, bool):
            return f'<c r="{ref}" t="b"><v>{int(value)}</v></c>'
        if isinstance(value, Decimal):
            return f'<c r="{ref}" s="1"><v>{value}</v></c>'
        return (f'<c r="{ref}" t="inlineStr"><is><t xml:space="preserve">{escape(value)}</t>'
                "</is></c>")
    body = "".join(
        f'<row r="{r}">'
        + "".join(cell(f"{column_letter(c)}{r}", value) for c, value in enumerate(row, start=1))
        + "</row>" for r, row in enumerate(rows, start=1))
    checks = "".join(f'<dataValidation type="list" allowBlank="1" showDropDown="0" '
                     f'sqref="{sqref}"><formula1>{escape(formula)}</formula1></dataValidation>'
                     for sqref, formula in validations)
    if checks:
        checks = f'<dataValidations count="{len(validations)}">{checks}</dataValidations>'
    return f"{SHEET_HEAD}{body}</sheetData>{checks}</worksheet>"


def test_column_letters():
    assert [column_letter(i) for i in (1, 2, 26, 27, 52, 703)] == \
        ["A", "B", "Z", "AA", "AZ", "AAA"]


def test_write_read_round_trip(tmp_path):
    path = tmp_path / "t.xlsx"
    write_workbook(path, [("People", _sheet_part([
        ["name", "age", "member"], ["Ada", Decimal("36"), True]]))])
    back = read_workbook(path)
    assert back[0].name == "People"
    assert back[0].rows[0] == ["name", "age", "member"]
    assert back[0].rows[1] == ["Ada", "36", "TRUE"]


def test_validations_survive(tmp_path):
    path = tmp_path / "t.xlsx"
    write_workbook(path, [("S", _sheet_part([["col"]], [("A2:A10", "'Other'!$A$2:$A$10")])),
                          ("Other", _sheet_part([["x"]]))])
    with zipfile.ZipFile(path) as zf:
        xml = ET.fromstring(zf.read("xl/worksheets/sheet1.xml"))
    validation, = xml.iter(f"{{{NS_MAIN}}}dataValidation")
    assert validation.get("type") == "list"
    assert validation.findtext(f"{{{NS_MAIN}}}formula1") == "'Other'!$A$2:$A$10"
    assert validation.get("sqref") == "A2:A10"
    assert read_workbook(path)[0].rows == [["col"]]


def test_empty_sheet_list_yields_placeholder(tmp_path):
    path = tmp_path / "t.xlsx"
    write_workbook(path, [])
    back = read_workbook(path)
    assert len(back) == 1
    assert back[0].rows == []


def test_bytes_deterministic(tmp_path):
    sheets = [("S", _sheet_part([["a", "b"]]))]
    write_workbook(tmp_path / "a.xlsx", sheets)
    write_workbook(tmp_path / "b.xlsx", sheets)
    assert (tmp_path / "a.xlsx").read_bytes() == (tmp_path / "b.xlsx").read_bytes()


def test_is_a_real_zip_with_expected_parts(tmp_path):
    path = tmp_path / "t.xlsx"
    write_workbook(path, [("S", _sheet_part([["x"]]))])
    with zipfile.ZipFile(path) as zf:
        names = set(zf.namelist())
    assert "[Content_Types].xml" in names
    assert "xl/workbook.xml" in names
    assert "xl/worksheets/sheet1.xml" in names
    assert "xl/styles.xml" in names


def test_escaped_characters(tmp_path):
    path = tmp_path / "t.xlsx"
    write_workbook(path, [("S", _sheet_part([["a < b & c > d", 'quote "x"']]))])
    back = read_workbook(path)
    assert back[0].rows[0] == ["a < b & c > d", 'quote "x"']


def test_number_cells_read_without_trailing_zero(tmp_path):
    path = tmp_path / "t.xlsx"
    write_workbook(path, [("S", _sheet_part([[Decimal("1"), Decimal("1.5")]]))])
    back = read_workbook(path)
    assert back[0].rows[0] == ["1", "1.5"]


# ---------------------------------------------------------------------------
# The container: the bytes zipfile writes

def _zipfile_bytes(parts) -> bytes:
    """``parts``, (name, bytes), written by ``zipfile`` as members dated
    1980-01-01, deflated, with mode 0600."""
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w", zipfile.ZIP_DEFLATED) as zf:
        for name, data in parts:
            info = zipfile.ZipInfo(name, date_time=(1980, 1, 1, 0, 0, 0))
            info.compress_type = zipfile.ZIP_DEFLATED
            info.external_attr = 0o600 << 16
            zf.writestr(info, data)
    return buffer.getvalue()


# part names as zipfile keeps them: no NUL, not a directory
_part_names = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\0"),
                      min_size=1, max_size=12).filter(lambda name: not name.endswith("/"))
_contents = st.one_of(st.text(max_size=300), st.sampled_from(["", "東京 &amp; ü" * 40]),
                      st.binary(max_size=2000).map(lambda data: data.decode("latin-1")))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(_part_names, _contents), max_size=6,
                unique_by=lambda part: part[0]))
def test_container_bytes_equal_zipfiles(parts):
    members = [xlsx._deflated(name, text) for name, text in parts]
    assert b"".join(xlsx._zip(members)) == \
        _zipfile_bytes([(name, text.encode("utf-8")) for name, text in parts])


_cell_texts = st.text(st.characters(blacklist_categories=("Cs", "Cc")), max_size=20)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.text(st.characters(blacklist_categories=("Cs", "Cc")),
                                  min_size=1, max_size=31),
                          st.lists(st.lists(_cell_texts, max_size=4), max_size=3)),
                max_size=4))
def test_workbook_bytes_equal_zipfiles(tmp_path_factory, sheets):
    """A whole file, the blank placeholder sheet among them: its members
    rewritten by zipfile in the same order give the same bytes."""
    path = tmp_path_factory.mktemp("book") / "t.xlsx"
    write_workbook(path, [(name, _sheet_part(rows)) for name, rows in sheets])
    with zipfile.ZipFile(path) as zf:
        parts = [(info.filename, zf.read(info)) for info in zf.infolist()]
    assert len(parts) == 5 + max(len(sheets), 1)
    assert path.read_bytes() == _zipfile_bytes(parts)


def test_past_65535_members_the_end_record_is_zip64s():
    """The member count that makes zipfile write ZIP64's end records, with
    the limit lowered to three members on both sides."""
    parts = [(f"p{i}", f"text {i}") for i in range(5)]
    with mock.patch.object(xlsx, "_ZIP_FILECOUNT_LIMIT", 3), \
            mock.patch.object(zipfile, "ZIP_FILECOUNT_LIMIT", 3):
        data = b"".join(xlsx._zip([xlsx._deflated(name, text) for name, text in parts]))
        assert data == _zipfile_bytes([(name, text.encode()) for name, text in parts])
    assert b"PK\x06\x06" in data
    with zipfile.ZipFile(io.BytesIO(data)) as zf:
        assert [zf.read(name).decode() for name in zf.namelist()] == [t for _, t in parts]


@pytest.mark.parametrize("parts", [[("big", "x" * 200)], [(f"p{i}", "small") for i in range(5)]],
                         ids=["part", "offsets"])
def test_past_2_gib_the_writer_refuses(parts):
    """Where zipfile would write ZIP64 extra fields, for a part or for the
    offsets, here past a limit lowered to 100 bytes, the writer raises
    EFBIG, which a migration reports as OUTPUT_ERROR."""
    with mock.patch.object(xlsx, "_ZIP64_LIMIT", 100), pytest.raises(OSError) as raised:
        xlsx._zip([xlsx._deflated(name, text) for name, text in parts])
    assert raised.value.errno == errno.EFBIG


def test_escape_replaces_ampersand_first():
    assert escape("a < b & c > d") == "a &lt; b &amp; c &gt; d"
    assert escape("&lt;") == "&amp;lt;"
    assert escape('say "x" & go', {'"': "&quot;"}) == "say &quot;x&quot; &amp; go"


def test_import_leaves_network_and_sax_modules_out():
    src = str(Path(lcpbridge.__file__).parent.parent)
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import lcpbridge; "
             "print(sorted(m for m in ('urllib.request', 'xml.sax') if m in sys.modules))")
    result = subprocess.run([sys.executable, "-c", probe, src], capture_output=True,
                            text=True, check=True)
    assert result.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# Reading: the scan against the ElementTree reader

def _package(path, sheet_xml: str | bytes, strings_xml: str | bytes | None = None,
             strings_target: str = "sharedStrings.xml", sheet_rid: str = "rId1") -> None:
    """A one-sheet workbook named Data, with the given sheet and shared-strings parts."""
    rels = (f'<Relationship Id="rId1" Type="{NS_REL}/worksheet" Target="worksheets/sheet1.xml"/>'
            f'<Relationship Id="rId2" Type="{NS_REL}/sharedStrings" Target="{strings_target}"/>')
    with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED) as zf:
        zf.writestr("xl/workbook.xml", f'<workbook xmlns="{NS_MAIN}" xmlns:r="{NS_REL}"><sheets>'
                    f'<sheet name="Data" sheetId="1" r:id="{sheet_rid}"/></sheets></workbook>')
        zf.writestr("xl/_rels/workbook.xml.rels",
                    f'<Relationships xmlns="{NS_PKG_REL}">{rels}</Relationships>')
        zf.writestr("xl/worksheets/sheet1.xml", sheet_xml)
        if strings_xml is not None:
            zf.writestr(f"xl/{strings_target}", strings_xml)


def _sheet(rows: str) -> str:
    return f'<worksheet xmlns="{NS_MAIN}"><sheetData>{rows}</sheetData></worksheet>'


def _strings(items: str, root_attrs: str = "") -> str:
    return f'<sst xmlns="{NS_MAIN}"{root_attrs}>{items}</sst>'


def _read(path, max_rows=None, scan=True, chunk=xlsx._CHUNK):
    """read_workbook's sheets as (name, rows), or "error", inflating ``chunk``
    bytes at a time; without ``scan`` every part goes to the ElementTree reader."""
    with contextlib.nullcontext() if scan else mock.patch.multiple(
            xlsx, _scan_sheet=mock.Mock(side_effect=xlsx._Unread),
            _scan_shared_strings=mock.Mock(side_effect=xlsx._Unread)), \
            mock.patch.object(xlsx, "_CHUNK", chunk):
        try:
            return [(sheet.name, sheet.rows) for sheet in read_workbook(path, max_rows)]
        except Exception:  # whatever the reader raises, load_tabular makes a TabularError
            return "error"


def _fast_path_only():
    """Fail if a part goes to the ElementTree reader."""
    return mock.patch.multiple(
        xlsx, _tree_rows=mock.Mock(side_effect=AssertionError("sheet read by ElementTree")),
        _tree_shared_strings=mock.Mock(side_effect=AssertionError("strings read by ElementTree")))


_PHONETIC = '<t>東京</t><rPh sb="0" eb="2"><t>トウキョウ</t></rPh><phoneticPr fontId="1"/>'


@pytest.mark.parametrize("scan", [True, False], ids=["scan", "elementtree"])
def test_phonetic_runs_are_not_text(tmp_path, scan):
    path = tmp_path / "t.xlsx"
    _package(path, _sheet(
        '<row r="1"><c r="A1" t="s"><v>0</v></c><c r="B1" t="s"><v>1</v></c>'
        f'<c r="C1" t="inlineStr"><is>{_PHONETIC}</is></c></row>'),
        _strings(f'<si>{_PHONETIC}</si><si><r><t>大</t></r><r><rPr><b/></rPr><t>阪</t></r>'
                 '<rPh sb="0" eb="1"><t>オオ</t></rPh></si>'))
    assert _read(path, scan=scan) == [("Data", [["東京", "大阪", "東京"]])]


@pytest.mark.parametrize("scan", [True, False], ids=["scan", "elementtree"])
def test_integral_numbers_past_2_53_keep_every_digit(tmp_path, scan):
    path = tmp_path / "t.xlsx"
    values = ("12345678901234567890.0", "-9007199254740993", "9007199254740993.5",
              "9007199254740992.0", "3.0", "1e20")
    _package(path, _sheet('<row r="1">' + "".join(
        f'<c r="{letter}1"><v>{value}</v></c>' for letter, value in zip("ABCDEF", values))
        + "</row>"))
    assert _read(path, scan=scan) == [("Data", [[
        "12345678901234567890", "-9007199254740993", "9007199254740993.5",
        "9007199254740992", "3", "1e20"]])]


def test_shared_strings_found_through_their_relationship(tmp_path):
    path = tmp_path / "t.xlsx"
    _package(path, _sheet('<row r="1"><c r="A1" t="s"><v>0</v></c></row>'
                          '<row r="2"><c r="A2" t="s"><v>1</v></c></row>'),
             _strings("<si><t>name</t></si><si><t>Ada</t></si>"), strings_target="strings.xml")
    assert read_workbook(path)[0].rows == [["name"], ["Ada"]]


def test_sheet_without_relationship_is_named(tmp_path):
    path = tmp_path / "t.xlsx"
    _package(path, _sheet(""), sheet_rid="rId7")
    with pytest.raises(ValueError, match=r"sheet 'Data' .*'rId7'"):
        read_workbook(path)


def test_scan_reads_the_writers_and_the_shared_strings_layout(tmp_path):
    """No part of either layout goes to ElementTree: workbooks this writer
    saves, and a hand-written sheet with the attributes and shared strings
    ECMA-376 describes, in the order Excel documents them."""
    written = tmp_path / "written.xlsx"
    write_workbook(written, [
        ("People", _sheet_part([
            ["name", "age", "member"], ["Ada & <Bob>", Decimal("36"), True],
            [" two\nlines ", Decimal("1.50")]], [("C2:C9", '"TRUE,FALSE"')])),
        ("Empty", _sheet_part([]))])
    saved = tmp_path / "saved.xlsx"
    head = ('<?xml version="1.0" encoding="UTF-8" standalone="yes"?>\r\n'
            f'<worksheet xmlns="{NS_MAIN}" xmlns:r="{NS_REL}" '
            'xmlns:mc="http://schemas.openxmlformats.org/markup-compatibility/2006" '
            'mc:Ignorable="x14ac" '
            'xmlns:x14ac="http://schemas.microsoft.com/office/spreadsheetml/2009/9/ac">'
            '<dimension ref="A1:C3"/><sheetViews><sheetView tabSelected="1" workbookViewId="0">'
            '<selection activeCell="A2" sqref="A2"/></sheetView></sheetViews>'
            '<sheetFormatPr defaultRowHeight="15" x14ac:dyDescent="0.25"/><sheetData>')
    rows = ('<row r="1" spans="1:3" x14ac:dyDescent="0.25"><c r="A1" t="s"><v>0</v></c>'
            '<c r="B1" t="s"><v>1</v></c><c r="C1" t="s"><v>2</v></c></row>'
            '<row r="2" spans="1:3" ht="30" customHeight="1" x14ac:dyDescent="0.25">'
            '<c r="A2" s="1" t="s"><v>3</v></c><c r="B2" s="2"><v>3.0</v></c>'
            '<c r="C2" t="b"><v>0</v></c></row><row r="3" spans="1:3"/>')
    tail = ('</sheetData><pageMargins left="0.7" right="0.7" top="0.75" bottom="0.75" '
            'header="0.3" footer="0.3"/></worksheet>')
    _package(saved, head + rows + tail, _strings(
        f'<si><t>name</t></si><si><t>size</t></si><si><t xml:space="preserve">ok </t></si>'
        f'<si>{_PHONETIC}</si>'))
    with _fast_path_only():
        assert [(s.name, s.rows) for s in read_workbook(written)] == [
            ("People", [["name", "age", "member"], ["Ada & <Bob>", "36", "TRUE"],
                        [" two\nlines ", "1.50"]]),
            ("Empty", [])]
        assert read_workbook(saved)[0].rows == [
            ["name", "size", "ok "], ["東京", "3", "FALSE"], []]
        assert read_workbook(saved, max_rows=2)[0].rows == [
            ["name", "size", "ok "], ["東京", "3", "FALSE"]]
    assert _read(saved) == _read(saved, scan=False)


def test_elementtree_reads_a_sheet_from_its_first_row(tmp_path):
    """A formula in row 900 of 1,200: the scan gives the sheet up, and
    ElementTree reads it from row 1; the grid is the one ElementTree reads."""
    path = tmp_path / "t.xlsx"
    _package(path, _sheet("".join(
        f'<row r="{r}"><c r="A{r}" t="s"><v>{r % 7}</v></c><c r="B{r}">'
        f'{"<f>A1*2</f>" if r == 900 else ""}<v>{r}</v></c></row>' for r in range(1, 1201))),
        _strings("".join(f"<si><t>s{i}</t></si>" for i in range(7))))
    tree_rows = xlsx._tree_rows
    for max_rows, last in ((None, 1200), (1001, 1002)):
        expected = _read(path, max_rows, scan=False)
        assert expected[0][1][899] == ["s4", "900"]
        rows = []
        with mock.patch.object(xlsx, "_tree_rows", lambda part: (
                rows.append(row) or row for row in tree_rows(part))):
            assert _read(path, max_rows) == expected
        assert [int(r) for r, _ in rows] == list(range(1, last + 1))


def test_elementtree_reads_shared_strings_from_the_first_item(tmp_path):
    """A comment after shared string 3,000 of 4,000: the scan gives the part
    up, and ElementTree fills every wanted string counting from item 0."""
    path = tmp_path / "t.xlsx"
    items = [f"<si><t>text {i}</t></si>" for i in range(4000)]
    items[3000:3000] = ["<!-- note -->"]
    _package(path, _sheet("".join(f'<row r="{r}"><c r="A{r}" t="s"><v>{r * 3}</v></c></row>'
                                  for r in range(1, 1300))), _strings("".join(items)))
    expected = _read(path, scan=False)
    assert expected == [("Data", [[f"text {r * 3}"] for r in range(1, 1300)])]
    tree_strings, calls = xlsx._tree_shared_strings, []

    def spy(part, wanted, found):
        calls.append(dict(found))
        tree_strings(part, wanted, found)
        calls.append(dict(found))
    with mock.patch.object(xlsx, "_tree_shared_strings", spy):
        assert _read(path) == expected
    assert calls == [{}, {i: f"text {i}" for i in range(3, 3 * 1300, 3)}]


# Markup for the equivalence test. Text pieces are XML text as written, with
# the five entities, numeric references and a CR that XML reads as a LF.
_PIECES = ["a", "Zq", " ", "1", "3.0", "-2", "东", "&amp;", "&lt;", "&gt;", "&quot;", "&apos;",
           "&#10;", "&#x41;", "&#13;", "\n", "\t", "\r\n", ">", '"', "'"]
_texts = st.lists(st.sampled_from(_PIECES), max_size=4).map("".join)
_t = st.one_of(_texts.map("<t>{}</t>".format),
               _texts.map('<t xml:space="preserve">{}</t>'.format), st.just("<t/>"))
_rich = st.lists(st.one_of(
    _t,
    _t.map("<r>{}</r>".format),
    _t.map(('<r><rPr><b/><sz val="11"/><color theme="1"/><rFont val="Calibri"/></rPr>'
            "{}</r>").format),
    _t.map('<rPh sb="0" eb="1">{}</rPh>'.format),
    st.just('<phoneticPr fontId="1" type="noConversion"/>'),
), max_size=3).map("".join)
_values = st.one_of(st.sampled_from(["1", " 1", "3.0", "1.50", "2e3", "", "1" + "0" * 400 + ".0"]),
                    _texts)


@st.composite
def _cells(draw) -> str:
    letters = draw(st.sampled_from(["A", "B", "C", "AB", "XFD", "a", ""]))
    ref = draw(st.sampled_from(["", f' r="{letters}7"', f' r="{letters}"']))
    kind = draw(st.sampled_from(["", "s", "n", "b", "str", "e", "inlineStr"]))
    t = f' t="{kind}"' if kind else ""
    s = draw(st.sampled_from(["", ' s="1"']))
    attrs = ref + draw(st.sampled_from([s + t, t + s]))
    values = st.sampled_from(["0", "1", "2", "4", " 1", "-1", "x"]) if kind == "s" else _values
    if draw(st.integers(0, 3)):  # mostly the content that the kind reads
        content = _rich.map("<is>{}</is>".format) if kind == "inlineStr" else \
            values.map("<v>{}</v>".format)
        return f"<c{attrs}>{draw(content)}</c>"
    body = draw(st.one_of(
        st.just("/>"), st.just("></c>"), st.just("><v/></c>"),
        values.map("><v>{}</v></c>".format),
        _rich.map("><is>{}</is></c>".format),
        st.tuples(values, _rich).map(lambda vr: f"><v>{vr[0]}</v><is>{vr[1]}</is></c>")))
    return f"<c{attrs}{body}"


@st.composite
def _rows(draw) -> str:
    number = draw(st.one_of(st.none(), st.integers(1, 6)))
    attrs = "" if number is None else f' r="{number}"'
    attrs += draw(st.sampled_from(["", ' spans="1:3"']))
    cells = draw(st.lists(_cells(), max_size=4))
    return f"<row{attrs}/>" if not cells and draw(st.booleans()) else \
        f"<row{attrs}>{''.join(cells)}</row>"


# Markup the scan leaves to ElementTree, well-formed or not, and rows past
# the sheet's bounds. The x prefix is bound on the root, to the main
# namespace or to another.
_UNREAD = [
    '<row r="0"/>', '<row r="1048577"/>', '<row r="2"><c r="XFE2"/></row>',
    '<row r="2"><c r="XFD2"/><c/></row>',
    "<!-- a note -->", "<?app data?>", '<row r="2"><c r="A2"><v><![CDATA[7]]></v></c></row>',
    '<x:row r="2"><x:c r="A2" t="str"><x:v>p</x:v></x:c></x:row>',
    '<row r="2"><c r="A2" t="str"><v>p</v><f>A1</f></c></row>', '<row r="2" x:r="1"/>',
    '<row r="2"><c r="A2" t="str"><v>&nbsp;</v></c></row>',
    '<row r="2"><c r="A2" t="str"><v>&#0;</v></c></row>',
    '<row r="2"><c r="A2"><v>1</v></row>', '<row r="2"><c r="A2" t="str"><v>a<b</v></c></row>',
    '<row r="2"><c r="A2" t="str"><v>a]]>b</v></c></row>',
    '<row r="2"><c r="A2" t="str"><v>a\r\nb</v></c></row>',
    '<row r="2"><c r="A2" t="inlineStr"><is><t>a\rb</t></is></c></row>',
    '<row r="2"><c r="A2" r="B2"/></row>', "<row r='2'/>", '<row r="2" ></row>', "</row>",
    '<row/><row><c t="str"><v>&#0;</v></c></row>',
]


_STRINGS_UNREAD = ["<!-- shared -->", "<si><t><![CDATA[c]]></t></si>", "<si><t>a<b/>c</t></si>",
                   "<si><t>&nbsp;</t></si>", "<si><t>a</si>", "<si><t>a</t><x:t>b</x:t></si>"]


@pytest.mark.parametrize("head, unread, tail, strings", [
    *(("", piece, "", "") for piece in _UNREAD),
    *(("", "", "", piece) for piece in _STRINGS_UNREAD),
    ('<row r="9"/>', "", "", ""),
    ("", "", '<row r="9"><c r="A9" t="str"><v>late</v></c></row>', ""),
])
def test_each_unread_markup_reads_as_elementtree_does(tmp_path, head, unread, tail, strings):
    path = tmp_path / "t.xlsx"
    rows = (f'<row r="1"><c r="A1" t="s"><v>0</v></c></row>{unread}'
            '<row r="3"><c t="str"><v>z</v></c></row>')
    _package(path, f'<worksheet xmlns="{NS_MAIN}" xmlns:x="{NS_MAIN}">{head}<sheetData>{rows}'
             f"</sheetData>{tail}</worksheet>",
             _strings(f"{strings}<si><t>h</t></si>", f' xmlns:x="{NS_MAIN}"'))
    for max_rows in (None, 1, 2, 3):
        expected = _read(path, max_rows, scan=False)
        for chunk in (xlsx._CHUNK, 7):
            assert _read(path, max_rows, chunk=chunk) == expected, (max_rows, chunk)


@pytest.mark.parametrize("part, at, piece", [
    ("sheet", "row", b"\xff"), ("sheet", "row", b"\x01"), ("sheet", "row", "\ufffe".encode()),
    ("sheet", "tail", b'<row r="9"/>'), ("sheet", "after", b"x"), ("sheet", "after", b"<!--c-->"),
    ("strings", "item", b"\xff"), ("strings", "after", b"<si/>"),
    ("strings", "after", b"<!--c-->"),
])
def test_bytes_and_markup_after_the_rows_read_as_elementtree_does(tmp_path, part, at, piece):
    """Bytes XML does not allow, and markup after the rows, the items or the
    root. A cell wants a shared string past the table, so all of it is read."""
    def put(where: str) -> bytes:
        return piece if (part, at) == where else b""
    sheet = (f'<worksheet xmlns="{NS_MAIN}"><sheetData><row r="1"><c r="A1" t="s"><v>0</v></c>'
             '<c t="s"><v>9</v></c></row><row r="2"><c t="str"><v>a').encode() + \
        put(("sheet", "row")) + b'b</v></c></row><row r="3"/></sheetData>' + \
        put(("sheet", "tail")) + b"</worksheet>" + put(("sheet", "after"))
    strings = f'<sst xmlns="{NS_MAIN}"><si><t>h'.encode() + put(("strings", "item")) + \
        b"</t></si></sst>" + put(("strings", "after"))
    path = tmp_path / "t.xlsx"
    _package(path, sheet, strings)
    for max_rows in (None, 1, 2, 3):
        expected = _read(path, max_rows, scan=False)
        for chunk in (xlsx._CHUNK, 7):
            assert _read(path, max_rows, chunk=chunk) == expected, (max_rows, chunk)


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(_rows(), max_size=6),
       gaps=st.lists(st.sampled_from(["", "\n", "\r\n  ", " \t"]), min_size=7, max_size=7),
       unread=st.one_of(st.none(), st.tuples(st.integers(0, 6), st.sampled_from(_UNREAD))),
       root=st.sampled_from([f' xmlns="{NS_MAIN}"', f' xmlns="{NS_MAIN}" xmlns:x="{NS_MAIN}"',
                             f' xmlns="{NS_MAIN}" xmlns:x="urn:other"',
                             f' xmlns="urn:other" xmlns:x="{NS_MAIN}"']),
       items=st.lists(st.one_of(_rich.map("<si>{}</si>".format), st.just("<si/>"),
                                _texts.map("<si><t>{}</t></si>".format)), max_size=5),
       around=st.sampled_from([("", ""), ('<dimension ref="A1"/>', '<pageMargins left="0.7"/>'),
                               ('<sheetViews><sheetView workbookViewId="0"/></sheetViews>', ""),
                               ('<row r="9"/>', ""),
                               ("", '<row r="9"><c r="A9" t="str"><v>late</v></c></row>')]),
       strings_unread=st.sampled_from(["", "", ""] + _STRINGS_UNREAD),
       chunk=st.sampled_from([xlsx._CHUNK, 1, 16, 64]))
def test_scan_reads_as_elementtree_does(tmp_path_factory, rows, gaps, unread, root, around,
                                        items, strings_unread, chunk):
    """Equal grids, or an error from both, at every cap, and wherever the
    parts are cut into chunks."""
    if unread is not None:
        rows = rows[:unread[0]] + [unread[1]] + rows[unread[0]:]
    markup = "".join(gap + row for gap, row in zip(gaps, rows)) + gaps[-1]
    path = tmp_path_factory.mktemp("scan") / "t.xlsx"
    head, tail = around
    _package(path, f"<worksheet{root}>{head}<sheetData>{markup}</sheetData>{tail}</worksheet>",
             _strings(strings_unread + "".join(items), f' xmlns:x="{NS_MAIN}"'))
    for max_rows in (None, 1, 3):
        assert _read(path, max_rows, chunk=chunk) == _read(path, max_rows, scan=False), max_rows
