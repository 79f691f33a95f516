"""Capability registry: golden data and file loading."""

import pytest

from lcpbridge.capabilities import (
    default_matrix,
    load_capabilities,
    query_capabilities,
)
from lcpbridge.errors import ConfigError, UnknownPlatformError

# Golden copy of the capability matrix, written out independently of the
# shipped asset file: (data, gui, behavior, third_party, formats).
GOLDEN = {
    ("mendix", "export"): ("full", "full", "full", False, ("JSON",)),
    ("mendix", "import"): ("partial", "none", "none", False, ("XLSX",)),
    ("outsystems", "export"): ("full", "none", "none", True, ("XLSX",)),
    ("outsystems", "import"): ("partial", "none", "none", False, ("XLSX",)),
    ("powerapps", "export"): ("partial", "full", "full", False, ("CSV", "JSON")),
    ("powerapps", "import"): ("partial", "full", "full", False, ("CSV", "JSON")),
    ("appian", "export"): ("full", "full", "full", False, ("XML",)),
    ("appian", "import"): ("full", "full", "full", False, ("XML",)),
    ("servicenow", "export"): ("full", "full", "full", True, ("XML",)),
    ("servicenow", "import"): ("full", "full", "full", True, ("XML",)),
    ("salesforce", "export"): ("full", "none", "none", True, ("XLSX",)),
    ("salesforce", "import"): ("partial", "none", "none", False, ("XLSX",)),
    ("pegasystems", "export"): ("full", "none", "none", False, ("XLSX",)),
    ("pegasystems", "import"): ("partial", "none", "none", False, ("XLSX",)),
    ("zoho", "export"): ("full", "full", "full", False, ("DS",)),
    ("zoho", "import"): ("full", "full", "full", False, ("XLSX", "DS")),
    ("retool", "export"): ("partial", "full", "full", False, ("CSV", "JSON")),
    ("retool", "import"): ("partial", "full", "full", False, ("CSV", "JSON")),
    ("apex", "export"): ("full", "full", "full", False, ("SQL",)),
    ("apex", "import"): ("full", "full", "full", False, ("SQL",)),
}


def test_ten_platforms_two_directions():
    matrix = default_matrix()
    assert len(matrix.platform_ids()) == 10
    assert len(matrix.records) == 20


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_registry_matches_golden_row(key):
    platform, direction = key
    record = query_capabilities(platform, direction)
    data, gui, behavior, third_party, formats = GOLDEN[key]
    assert record.data == data
    assert record.gui == gui
    assert record.behavior == behavior
    assert record.third_party == third_party
    assert record.formats == formats


def test_mendix_examples():
    export = query_capabilities("mendix", "export")
    assert (export.data, export.gui, export.behavior) == ("full", "full", "full")
    assert export.formats == ("JSON",)
    imported = query_capabilities("mendix", "import")
    assert (imported.data, imported.gui, imported.behavior) == ("partial", "none", "none")
    assert imported.formats == ("XLSX",)


def test_outsystems_third_party_export():
    record = query_capabilities("outsystems", "export")
    assert record.data == "full"
    assert record.third_party
    assert record.formats == ("XLSX",)


def test_unknown_platform():
    with pytest.raises(UnknownPlatformError):
        query_capabilities("lotus-notes", "export")


def test_override_file(tmp_path):
    path = tmp_path / "caps.toml"
    path.write_text("""
[toyplatform]
display = "Toy"
[toyplatform.export]
data = "partial"
formats = ["CSV"]
[toyplatform.import]
data = "none"
formats = []
""", encoding="utf-8")
    matrix = load_capabilities(path)
    record = matrix.get("toyplatform", "export")
    assert record.data == "partial"
    assert matrix.get("toyplatform", "import").data == "none"


def test_bad_level_rejected(tmp_path):
    path = tmp_path / "caps.toml"
    path.write_text("""
[x]
[x.export]
data = "sometimes"
[x.import]
data = "none"
""", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_capabilities(path)


def test_bad_format_token_rejected(tmp_path):
    path = tmp_path / "caps.toml"
    path.write_text("""
[x]
[x.export]
data = "full"
formats = ["PDF"]
[x.import]
data = "none"
""", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_capabilities(path)


def test_toml_syntax_error_rejected(tmp_path):
    path = tmp_path / "caps.toml"
    path.write_text("""
[x
[x.export]
data = "full"
""", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_capabilities(path)
