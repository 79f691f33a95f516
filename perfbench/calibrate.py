"""How fast this machine runs Python right now, from a fixed loop that never touches lcpbridge.

On a shared virtual machine the speed of one CPU can change by a factor of two
over minutes while neither ``time.process_time()`` nor steal time shows it, so
wall times of the same work spread far wider than any useful regression bound.
The benchmark therefore times this loop beside the work it measures and
reports every end-to-end time scaled to a reference speed::

    scaled = measured * REFERENCE_S / calibration_seconds()

A scaled second is the time the work would take on a machine that runs the
loop in ``REFERENCE_S``. The loop does what lcpbridge spends its time on:
string formatting, dict and list building, small objects, JSON and a regex.
"""

from __future__ import annotations

import json
import re
import time

REFERENCE_S = 0.010

_WORDS = [f"w{i}x" for i in range(500)]
_PATTERN = re.compile(r"(\w+)x")


class _Node:
    __slots__ = ("name", "kids")

    def __init__(self, name: str):
        self.name = name
        self.kids: list[_Node] = []


def _loop() -> int:
    table: dict[str, _Node] = {}
    nodes: list[_Node] = []
    for i in range(4000):
        key = f"{_WORDS[i % 500]}.{i}"
        node = table[key] = _Node(key)
        nodes.append(node)
        if i:
            nodes[i // 2].kids.append(node)
    text = json.dumps({key: len(node.kids) for key, node in table.items()})
    json.loads(text)
    _PATTERN.findall(text[:20000])
    return len(sorted(table, key=str.lower))


def calibration_seconds(repeats: int = 3) -> float:
    """The fastest of ``repeats`` runs of the loop, in wall seconds."""
    best = float("inf")
    for _ in range(repeats):
        begin = time.perf_counter()
        _loop()
        best = min(best, time.perf_counter() - begin)
    return best
