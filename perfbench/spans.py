"""Spans around the calls ``execute_migration`` makes into each lcpbridge layer.

``lcpbridge.pipeline`` reaches every layer through names in its own module
namespace (``load_mendix_export``, ``emit_sql``, ...). ``instrument`` swaps
those names for wrappers that record a span around each call, so the traced
run times the real ``execute_migration`` and nothing in ``src/`` changes.
The swap lives only in the benchmark's worker process and is undone when the
block ends.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import lcpbridge.pipeline as pipeline

# pipeline global -> span name; load_tabular is split by input kind below
LAYER_CALLS = {
    "load_mendix_export": "mendix.load",
    "mendix_to_pivot": "mendix.map",
    "require_valid": "model.validate",
    "save_pivot_file": "dsl.save",
    "load_pivot_file": "dsl.load",
    "plan_relational": "relational.plan",
    "emit_sql": "relational.emit",
    "load_tabular": "tabular.load",
    "infer_model": "tabular.infer",
    "load_prompt_context": "llm.prompt",
    "build_prompt": "llm.prompt",
    "invoke_vision_model": "llm.complete",
    "extract_model": "llm.extract",
    "merge_models": "llm.merge",
    "plan_workbook": "workbook.plan",
    "emit_workbook": "xlsx.write",
}


class Tracer:
    """In-memory spans (name, start, end, parent index, migration id) and call counts."""

    def __init__(self):
        self.spans: list[list] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.returned: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self.migration = ""

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.migration])
        self._stack.append(index)
        self.calls[name] += 1
        try:
            yield
            self.returned[name] += 1
        finally:
            self.spans[index][2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name
            if name == "tabular.load":
                files = [Path(p) for p in args[0]]
                xlsx = all(p.suffix.lower() == ".xlsx" for p in files)
                span_name = "tabular.load_xlsx" if xlsx else "tabular.load_csv"
            with self.span(span_name):
                return fn(*args, **kwargs)
        return traced

    def self_times(self) -> dict[str, float]:
        """Per span name, the summed duration minus the time its child spans cover."""
        child_time: dict[int, float] = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += end - start - child_time[index]
        return dict(totals)

    def dump(self, path: Path) -> None:
        fields = ("name", "start", "end", "parent", "migration")
        path.write_text(json.dumps([dict(zip(fields, s)) for s in self.spans]) + "\n",
                        encoding="utf-8")


@contextmanager
def instrument(tracer: Tracer):
    """Route the pipeline's layer calls through ``tracer`` for the block's duration."""
    originals = {name: getattr(pipeline, name) for name in LAYER_CALLS}
    for name, fn in originals.items():
        setattr(pipeline, name, tracer.wrap(fn, LAYER_CALLS[name]))
    try:
        yield
    finally:
        for name, fn in originals.items():
            setattr(pipeline, name, fn)
