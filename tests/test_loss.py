"""The loss report's JSON against the standard library's encoder."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from lcpbridge.loss import LossItem, LossReport

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
