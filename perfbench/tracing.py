"""In-memory spans for the traced benchmark run.

A span is (name, start, end, parent, operation id). Names are
"<layer>.<what>", and the layer is the part before the first dot. Spans
are opened by the benchmark around its own calls into threshgen and, while
a traced batch runs, by wrappers installed over public functions and
scipy's linprog as the package's modules look them up. No source file of
the package is edited; every wrapper is removed when the batch ends.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

_NAME, _START, _END, _PARENT, _OP = range(5)


class Tracer:
    """Collects spans and exact counters; nothing is written until asked."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self.operation = 0

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.operation])
        self._stack.append(index)
        try:
            yield
        finally:
            self.spans[index][_END] = time.perf_counter()
            self._stack.pop()

    def wrapper(self, name: str, function, on_result=None):
        """function wrapped in a span; on_result(args, kwargs, result) may
        add to counts."""
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(name):
                result = function(*args, **kwargs)
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return traced

    def records(self) -> list[dict]:
        keys = ("name", "start", "end", "parent", "op")
        return [dict(zip(keys, span)) for span in self.spans]


@contextmanager
def patched(replacements):
    """Temporarily set attributes: replacements is [(owner, attr, value)].

    Owners lacking the attribute are skipped, so a refactor that removes a
    function leaves its counter at zero instead of breaking the run.
    """
    saved = []
    try:
        for owner, attr, value in replacements:
            if hasattr(owner, attr):
                saved.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, value(getattr(owner, attr)))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


class NullTracer:
    """Stands in for Tracer in untraced batches: records nothing."""

    operation = 0

    def span(self, name: str):
        return nullcontext()


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans, first: int, end: int, by_name: bool = False) -> dict[str, float]:
    """Seconds of self time per layer (or per span name) over
    spans[first:end].

    A span's self time is its duration minus the durations of its direct
    children, so the self times of a root span and all its descendants sum
    to the root's duration.
    """
    child_time = defaultdict(float)
    for s in spans[first:end]:
        if s[_PARENT] is not None:
            child_time[s[_PARENT]] += s[_END] - s[_START]
    totals = defaultdict(float)
    for index in range(first, end):
        s = spans[index]
        key = s[_NAME] if by_name else layer_of(s[_NAME])
        totals[key] += s[_END] - s[_START] - child_time[index]
    return dict(totals)


def inclusive(spans, name: str, first: int, end: int) -> list[float]:
    """Durations, in seconds, of the spans called name in spans[first:end]."""
    return [s[_END] - s[_START] for s in spans[first:end] if s[_NAME] == name]
