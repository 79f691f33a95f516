"""Round-trip checks for the minimal OOXML container layer."""

import subprocess
import sys
import zipfile
from pathlib import Path

import lcpbridge
from lcpbridge.xlsx import (
    CellValue,
    ListValidation,
    SheetData,
    column_letter,
    escape,
    read_workbook,
    write_workbook,
)


def test_column_letters():
    assert [column_letter(i) for i in (1, 2, 26, 27, 52, 703)] == \
        ["A", "B", "Z", "AA", "AZ", "AAA"]


def test_write_read_round_trip(tmp_path):
    path = tmp_path / "t.xlsx"
    sheets = [SheetData(name="People", rows=[
        [CellValue("name"), CellValue("age"), CellValue("member")],
        [CellValue("Ada"), CellValue("36", kind="number", number_format="0"),
         CellValue("TRUE", kind="bool")],
    ])]
    write_workbook(path, sheets)
    back = read_workbook(path)
    assert back[0].name == "People"
    assert back[0].rows[0] == ["name", "age", "member"]
    assert back[0].rows[1] == ["Ada", "36", "TRUE"]


def test_validations_survive(tmp_path):
    path = tmp_path / "t.xlsx"
    sheet = SheetData(name="S", rows=[[CellValue("col")]], validations=[
        ListValidation(column=1, first_row=2, last_row=10,
                       formula="'Other'!$A$2:$A$10"),
    ])
    write_workbook(path, [sheet, SheetData(name="Other", rows=[[CellValue("x")]])])
    back = read_workbook(path)
    assert back[0].validations[0]["type"] == "list"
    assert back[0].validations[0]["formula"] == "'Other'!$A$2:$A$10"
    assert back[0].validations[0]["sqref"] == "A2:A10"


def test_empty_sheet_list_yields_placeholder(tmp_path):
    path = tmp_path / "t.xlsx"
    write_workbook(path, [])
    back = read_workbook(path)
    assert len(back) == 1
    assert back[0].rows == []


def test_bytes_deterministic(tmp_path):
    sheets = [SheetData(name="S", rows=[[CellValue("a"), CellValue("b")]])]
    write_workbook(tmp_path / "a.xlsx", sheets)
    write_workbook(tmp_path / "b.xlsx", sheets)
    assert (tmp_path / "a.xlsx").read_bytes() == (tmp_path / "b.xlsx").read_bytes()


def test_is_a_real_zip_with_expected_parts(tmp_path):
    path = tmp_path / "t.xlsx"
    write_workbook(path, [SheetData(name="S", rows=[[CellValue("x")]])])
    with zipfile.ZipFile(path) as zf:
        names = set(zf.namelist())
    assert "[Content_Types].xml" in names
    assert "xl/workbook.xml" in names
    assert "xl/worksheets/sheet1.xml" in names
    assert "xl/styles.xml" in names


def test_escaped_characters(tmp_path):
    path = tmp_path / "t.xlsx"
    write_workbook(path, [SheetData(name="S", rows=[
        [CellValue("a < b & c > d"), CellValue('quote "x"')]])])
    back = read_workbook(path)
    assert back[0].rows[0] == ["a < b & c > d", 'quote "x"']


def test_number_cells_read_without_trailing_zero(tmp_path):
    path = tmp_path / "t.xlsx"
    write_workbook(path, [SheetData(name="S", rows=[
        [CellValue("1", kind="number", number_format="0"),
         CellValue("1.5", kind="number", number_format="0.00")]])])
    back = read_workbook(path)
    assert back[0].rows[0] == ["1", "1.5"]


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
