"""Migration planning over the capability matrix."""

import itertools

import pytest

from lcpbridge.capabilities import default_matrix, load_capabilities
from lcpbridge.errors import NoViablePathError, UnknownPlatformError
from lcpbridge.pipeline import IMPORTERS
from lcpbridge.planner import plan_migration

from expected import with_reason


def test_mendix_to_powerapps():
    plan = plan_migration("mendix", "powerapps")
    assert plan.export_method == "formal"
    assert plan.import_method == "alternative"
    assert plan.chain == ("mendix-json", "workbook")


def test_powerapps_to_apex():
    plan = plan_migration("powerapps", "apex")
    assert plan.export_method == "alternative"
    assert plan.import_method == "formal"
    assert plan.chain == ("tabular", "image-llm", "apex-sql")
    assert with_reason(plan.expected_losses, "LLM_INFERRED")


def test_mendix_to_mendix():
    plan = plan_migration("mendix", "mendix")
    assert plan.export_method == "formal"
    assert plan.import_method == "alternative"
    assert plan.chain == ("mendix-json", "workbook")


def test_full_xlsx_export_uses_tabular_with_loss_note():
    plan = plan_migration("outsystems", "apex")
    assert plan.export_method == "formal"
    assert plan.chain[0] == "tabular"
    assert with_reason(plan.expected_losses, "ASSOCIATIONS_UNKNOWN")
    assert with_reason(plan.expected_losses, "THIRD_PARTY_REQUIRED")


def test_unparseable_full_export_falls_back_to_image():
    plan = plan_migration("appian", "powerapps")
    assert plan.export_method == "alternative"
    assert plan.chain[0] == "image-llm"
    assert "tabular" not in plan.chain  # no tabular leg without a tabular format


def test_workbook_risk_flagged_for_non_tabular_target():
    plan = plan_migration("mendix", "appian")
    assert plan.import_method == "alternative"
    assert with_reason(plan.expected_losses, "DROPPED")


def test_unknown_platform():
    with pytest.raises(UnknownPlatformError):
        plan_migration("mendix", "oracle")  # the id is "apex"


def test_total_over_all_known_pairs():
    matrix = default_matrix()
    for source, target in itertools.product(matrix.platform_ids(), repeat=2):
        plan = plan_migration(source, target)
        assert plan.chain
        assert plan.export_method in ("formal", "alternative")
        assert plan.import_method in ("formal", "alternative")
        # chains always end in a generator and start with at least one importer
        assert plan.chain[-1] in ("apex-sql", "workbook")
        assert all(step in IMPORTERS for step in plan.chain[:-1])


def test_planning_is_deterministic():
    first = plan_migration("powerapps", "apex")
    second = plan_migration("powerapps", "apex")
    assert first.as_dict() == second.as_dict()


def test_no_viable_path_when_import_is_none(tmp_path):
    path = tmp_path / "caps.toml"
    path.write_text("""
[closed]
display = "ClosedShop"
[closed.export]
data = "full"
formats = ["JSON"]
[closed.import]
data = "none"
formats = []
""", encoding="utf-8")
    matrix = load_capabilities(path)
    with pytest.raises(NoViablePathError):
        plan_migration("closed", "closed", matrix=matrix)
