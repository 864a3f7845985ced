"""In-memory spans recorded around the package's module-level calls.

The traced run swaps the public names that ``conceptq.pipeline`` and
``conceptq.evaluation`` look up at call time for wrappers that record a span
per call, and puts the originals back afterwards. Nothing in the package
changes; a span covers exactly the call the package makes.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    qid: int


class Tracer:
    """Collects spans of the current query; nests them by call order."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.qid = -1

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.qid))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index].end = time.perf_counter()

    def traced(self, name: str, fn):
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def write(self, path, env: dict) -> None:
        """Write one JSON line per span, after a header line holding ``env``."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"env": env}) + "\n")
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent, "query": s.qid}) + "\n")


@contextmanager
def patched(targets):
    """Temporarily replace ``(module, attribute, wrap)`` names; always restore them."""
    saved = []
    try:
        for module, attribute, wrap in targets:
            original = getattr(module, attribute)
            saved.append((module, attribute, original))
            setattr(module, attribute, wrap(original))
        yield
    finally:
        for module, attribute, original in reversed(saved):
            setattr(module, attribute, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


def per_query_self(spans: list[Span], key) -> dict[int, dict[str, float]]:
    """Self time summed per query and per ``key(span_name)`` group."""
    totals: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for s, t in zip(spans, self_times(spans)):
        totals[s.qid][key(s.name)] += t
    return totals
