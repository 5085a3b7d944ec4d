"""In-memory span recording for the traced benchmark run.

Stdlib only, so the traced driver can time ``import improperdim`` itself.
A span is a dict with ``id``, ``name``, ``parent`` (id or None), ``op``
(the operation it belongs to), ``start`` and ``end`` (perf_counter
seconds) and optional ``tags``. Spans stay in memory until the traced driver
writes them out at the end of its operation.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    """Records nested spans; with ``enabled`` false it records nothing."""

    def __init__(self, op: str = "", enabled: bool = True):
        self.op = op
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []
        # first GLRT decision of the process: (span name, function, args)
        self.cold_call = None

    @contextmanager
    def span(self, name: str, **tags):
        if not self.enabled:
            yield
            return
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "op": self.op,
            "start": time.perf_counter(),
            "end": None,
        }
        if tags:
            record["tags"] = tags
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> its duration minus the time its direct children cover.

    Children of one parent run one after another, so the covered time is
    the sum of their durations.
    """
    covered = {span["id"]: 0.0 for span in spans}
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] += duration(span)
    return {span["id"]: duration(span) - covered[span["id"]] for span in spans}


def check_nesting(spans: list[dict]) -> list[str]:
    """Problems with the span tree: unclosed spans, children outside their
    parent, overlapping siblings. Empty when the tree is well formed."""
    problems = []
    by_id = {span["id"]: span for span in spans}
    last_end: dict = {}
    for span in spans:
        if span["end"] is None or span["end"] < span["start"]:
            problems.append(f"span {span['id']} ({span['name']}) is not closed")
            continue
        parent = by_id.get(span["parent"]) if span["parent"] is not None else None
        if span["parent"] is not None and parent is None:
            problems.append(f"span {span['id']} has an unknown parent")
        if parent is not None and not (
            parent["start"] <= span["start"] and span["end"] <= parent["end"]
        ):
            problems.append(f"span {span['id']} ({span['name']}) lies outside its parent")
        if span["start"] < last_end.get(span["parent"], float("-inf")):
            problems.append(f"span {span['id']} ({span['name']}) overlaps a sibling")
        last_end[span["parent"]] = span["end"]
    return problems
