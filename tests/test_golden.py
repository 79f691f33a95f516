"""The artifact contract: every file the CLI writes over ``tests/data`` keeps
the sha256 recorded in ``tests/data/golden.json``.

The CLI migrates the Mendix fixture to every platform and the OutSystems CSVs
to Apex, runs both single importers, and then every exporter on each
``model.bml`` written. An ``.xlsx`` is hashed member by member after
unzipping, because its DEFLATE bytes depend on the zlib build. A changed
digest is a reviewed edit of the JSON file, never a regenerated one.
"""

from __future__ import annotations

import hashlib
import json
import zipfile
from pathlib import Path

from lcpbridge.capabilities import default_matrix
from lcpbridge.cli import main

DATA_DIR = Path(__file__).parent / "data"
GOLDEN = DATA_DIR / "golden.json"
MENDIX = str(DATA_DIR / "mendix_library.json")
CSVS = [str(p) for p in sorted((DATA_DIR / "csv").glob("*.csv"))]

EXPORTS = {
    "apex-sql-oracle": ["apex-sql", "--dialect", "oracle"],
    "apex-sql-ansi": ["apex-sql", "--dialect", "ansi"],
    "workbook": ["workbook"],
    "csv": ["csv"],
    "plantuml": ["plantuml"],
}


def _runs() -> dict[str, list[str]]:
    runs = {f"migrate-mendix-{target}":
            ["migrate", "--from", "mendix", "--to", target, "--input", MENDIX]
            for target in default_matrix().platform_ids()}
    runs["migrate-outsystems-apex"] = ["migrate", "--from", "outsystems", "--to", "apex",
                                       "--input", *CSVS]
    runs["import-mendix-json"] = ["import", "mendix-json", "--input", MENDIX]
    runs["import-tabular"] = ["import", "tabular", "--input", *CSVS]
    return runs


def _digest_files(root: Path) -> dict[str, str]:
    digests = {}
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        key = path.relative_to(root).as_posix()
        if path.suffix == ".xlsx":
            with zipfile.ZipFile(path) as archive:
                for member in sorted(archive.namelist()):
                    digests[f"{key}!{member}"] = hashlib.sha256(archive.read(member)).hexdigest()
        else:
            digests[key] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def artifact_digests(root: Path) -> dict[str, str]:
    """Run the CLI into ``root`` and return the sha256 of every file it wrote."""
    for name, argv in _runs().items():
        out = root / name
        assert main([*argv, "--out", str(out)]) == 0, name
        for export, export_argv in EXPORTS.items():
            code = main(["export", export_argv[0], "--model", str(out / "model.bml"),
                         "--out", str(root / f"{name}.export" / export), *export_argv[1:]])
            assert code == 0, f"{name}: export {export}"
    return _digest_files(root)


def test_cli_artifacts_match_golden_digests(tmp_path, capsys):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    actual = artifact_digests(tmp_path)
    capsys.readouterr()
    assert sorted(actual) == sorted(expected)
    changed = sorted(key for key in expected if actual[key] != expected[key])
    assert not changed
