"""The loss report's JSON against the standard library's encoder, and its
entries against the frozen dataclass they were."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcpbridge.loss import REASON_CODES, SEVERITIES, LossItem, LossReport

from expected import ReferenceLossItem

# quotes, backslashes, control characters, non-ASCII, astral-plane characters
_TEXT = st.one_of(st.text(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f é\U0001f600'), max_size=8),
                  st.text(max_size=8))


def _standard(report: LossReport) -> str:
    return json.dumps({"items": [i.as_dict() for i in report.items]},
                      indent=2, sort_keys=True) + "\n"


def test_empty_report():
    assert LossReport().to_json() == _standard(LossReport())


@settings(max_examples=300, deadline=None)
@given(st.lists(st.builds(LossItem, _TEXT, _TEXT, _TEXT, _TEXT, _TEXT), max_size=4))
def test_to_json_is_the_standard_encoding(items):
    report = LossReport(items)
    assert report.to_json() == _standard(report)
    assert json.loads(report.to_json())["items"] == [i.as_dict() for i in items]


def _reference_union(report: LossReport, other: LossReport) -> LossReport:
    """The merge as one loop over ``other`` with a set of what is kept."""
    merged = LossReport(list(report.items))
    seen = set(report.items)
    for item in other.items:
        if item not in seen:
            merged.items.append(item)
            seen.add(item)
    return merged


# few distinct values, so that items repeat within and across the reports
_ITEMS = st.lists(st.builds(LossItem, st.sampled_from("ab"), st.sampled_from("xy"),
                            st.just("RENAMED"), st.sampled_from(("info", "warning"))),
                  max_size=12)


@settings(max_examples=300, deadline=None)
@given(_ITEMS, _ITEMS)
def test_union_matches_the_loop(first, second):
    report, other = LossReport(first), LossReport(second)
    merged = report.union(other)
    assert merged.items == _reference_union(report, other).items
    assert report.items == first and other.items == second  # neither is changed
    assert merged.items is not report.items


# the fields of an entry, from three (both defaults) to five; few distinct
# values, so that entries repeat within and across the reports
_FIELDS = st.tuples(st.sampled_from("ab"), st.sampled_from(("x", "y\u00e9")),
                    st.sampled_from(("RENAMED", "DROPPED")), st.sampled_from(("info", "warning")),
                    st.sampled_from(("", "d", '"q"'))).flatmap(
    lambda fields: st.integers(3, 5).map(lambda n: fields[:n]))


@settings(max_examples=300, deadline=None)
@given(st.lists(_FIELDS, max_size=12), st.lists(_FIELDS, max_size=12))
def test_entries_match_the_frozen_dataclass(first, second):
    items, other = [LossItem(*f) for f in first], [LossItem(*f) for f in second]
    refs, other_refs = [ReferenceLossItem(*f) for f in first], [ReferenceLossItem(*f) for f in second]
    assert [i.as_dict() for i in items] == [r.as_dict() for r in refs]
    assert [repr(i) for i in items] == [repr(r).replace("Reference", "", 1) for r in refs]
    assert LossReport(items).to_json() == _standard(LossReport(refs))
    merged = LossReport(items).union(LossReport(other))
    assert [i.as_dict() for i in merged] == \
        [r.as_dict() for r in _reference_union(LossReport(refs), LossReport(other_refs))]


def test_add_takes_only_the_fixed_codes():
    report = LossReport()
    for reason in sorted(REASON_CODES):
        for severity in sorted(SEVERITIES):
            report.add("class", "A", reason, severity, "d")
    assert report.items[-1] == LossItem("class", "A", sorted(REASON_CODES)[-1], "warning", "d")
    assert len(report) == len(REASON_CODES) * len(SEVERITIES)
    with pytest.raises(ValueError, match="unknown loss reason code"):
        report.add("class", "A", "renamed")
    with pytest.raises(ValueError, match="unknown severity"):
        report.add("class", "A", "RENAMED", "fatal")
