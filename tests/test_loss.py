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
