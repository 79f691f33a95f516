"""Information-loss reporting.

Every adapter step records what it dropped, coerced or renamed; the final
report for a migration is the union of the planner's static prediction and
the entries collected while executing.

A loss entry is a bare named tuple, without the model records' ``Record``
equality (see ``model``), as are the records that importing and planning
define (``capabilities``, ``pipeline.Adapter``): that keeps ``model`` out of
start-up. Such a record equals a plain tuple of the same values.
"""

from __future__ import annotations

from collections import namedtuple
from json.encoder import encode_basestring_ascii

SEVERITIES = frozenset(("info", "warning", "loss"))

# Fixed reason-code enumeration. Adapters must pick from this list so that
# reports are machine-matchable.
REASON_CODES = frozenset((
    "TYPE_COERCED",            # source type narrowed/widened to a pivot primitive
    "TYPE_DEFAULTED",          # no evidence for a type; str assumed
    "ASSOCIATIONS_UNKNOWN",    # associations absent from the source or at risk in the target
    "GENERALIZATION_FLATTENED",  # inheritance encoded by repeating columns
    "ONE_TO_ONE_FLATTENED",    # one-to-one encoded like many-to-one
    "MULTIPLICITY_RELAXED",    # a bound the target format cannot enforce
    "RENAMED",                 # identifier sanitized to fit the pivot/target rules
    "DROPPED",                 # element has no representation in the target
    "THIRD_PARTY_REQUIRED",    # capability exists but needs an external tool
    "LLM_INFERRED",            # element recovered from an image by a vision model
))


def json_string_list(items, indent: int) -> str:
    """A list of strings laid out as ``json.dumps(indent=2)`` lays it out
    when the list opens on a line indented by ``indent`` spaces."""
    if not items:
        return "[]"
    pad = "\n" + " " * (indent + 2)
    return f"[{pad}{(',' + pad).join(map(encode_basestring_ascii, items))}\n{' ' * indent}]"


def close_json_list(out: list[str], items, indent: int) -> None:
    """Close a JSON list whose items were appended to ``out`` each with a
    trailing comma, laid out as ``json.dumps(indent=2)`` does at ``indent``."""
    if items:
        out[-1] = out[-1][:-1]
        out.append("\n" + " " * indent + "]")
    else:
        out.append("]")


class LossItem(namedtuple("LossItem", "element_kind element_name reason severity detail",
                          defaults=("warning", ""))):
    """One element that a step dropped, renamed or coerced, with its reason code."""

    __slots__ = ()

    def as_dict(self) -> dict:
        return self._asdict()


class LossReport:
    """Loss items in the order they were added: a step's, a plan's or a migration's."""

    __slots__ = ("items",)

    def __init__(self, items: list[LossItem] | None = None):
        self.items = [] if items is None else items

    def __eq__(self, other):
        return self.items == other.items if type(other) is LossReport else NotImplemented

    def __repr__(self) -> str:
        return f"LossReport(items={self.items!r})"

    def add(self, element_kind: str, element_name: str, reason: str,
            severity: str = "warning", detail: str = "") -> None:
        if reason not in REASON_CODES:
            raise ValueError(f"unknown loss reason code: {reason}")
        if severity not in SEVERITIES:
            raise ValueError(f"unknown severity: {severity}")
        self.items.append(LossItem(element_kind, element_name, reason, severity, detail))

    def extend(self, other: "LossReport") -> None:
        self.items.extend(other.items)

    def union(self, other: "LossReport") -> "LossReport":
        """Predicted-plus-actual merge: this report's items as they are, then
        the first occurrence of each of ``other``'s that this one lacks. Each
        item is hashed once."""
        fresh = dict.fromkeys(other.items)
        for item in self.items:
            fresh.pop(item, None)
        return LossReport(self.items + list(fresh))

    def to_json(self) -> str:
        """``json.dumps({"items": [...]}, indent=2, sort_keys=True)`` plus a
        newline, written directly: the schema is five strings per item, and
        ``indent`` sends ``json.dumps`` down its pure-Python encoder before
        3.13. The writer can go once 3.11 and 3.12 are dropped."""
        if not self.items:
            return '{\n  "items": []\n}\n'
        q = encode_basestring_ascii
        body = ",\n".join(
            f'    {{\n      "detail": {q(i.detail)},\n'
            f'      "element_kind": {q(i.element_kind)},\n'
            f'      "element_name": {q(i.element_name)},\n'
            f'      "reason": {q(i.reason)},\n'
            f'      "severity": {q(i.severity)}\n    }}'
            for i in self.items)
        return '{\n  "items": [\n' + body + '\n  ]\n}\n'

    def summary(self) -> str:
        """One human line per entry, for the CLI's error stream."""
        if not self.items:
            return "no information loss recorded"
        lines = []
        for i in self.items:
            detail = f" ({i.detail})" if i.detail else ""
            lines.append(f"[{i.severity}] {i.reason}: {i.element_kind} {i.element_name}{detail}")
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self):
        return iter(self.items)

    def __bool__(self) -> bool:
        return bool(self.items)
