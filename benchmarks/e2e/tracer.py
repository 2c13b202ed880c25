"""Span recording from outside the program.

The benchmark wraps each call into a layer's public function in a span
``{name, start, end, parent, op_id}``.  Spans stay in memory and are
written to ``out/trace-<workload>.jsonl`` when the run ends.  A layer's
*self time* is its span minus the part its child spans cover.

``NullTracer`` has the same surface and records nothing: running the
same ops once under each gives the tracing overhead.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class SpanSummary:
    """Aggregate of every span with one name."""

    total_s: float = 0.0
    self_s: float = 0.0
    calls: int = 0

    @property
    def mean_ms(self) -> float:
        return 1e3 * self.total_s / self.calls if self.calls else 0.0

    @property
    def coverage(self) -> float:
        """Share of these spans' time that their child spans account for."""
        return 1.0 - self.self_s / self.total_s if self.total_s else 0.0


class NullTracer:
    """The tracing-off twin of :class:`Tracer`."""

    @contextmanager
    def span(self, name: str, op_id: int = -1):
        yield

    def wrap(self, fn, name: str):
        return fn


class Tracer:
    """In-memory span store with a per-thread parent stack."""

    def __init__(self):
        #: ``[name, start, end, parent, op_id]`` — parent is a span index.
        self.spans: list[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, op_id: int = -1):
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else -1
        if op_id < 0 and parent >= 0:
            op_id = self.spans[parent][4]
        with self._lock:
            index = len(self.spans)
            record = [name, 0.0, 0.0, parent, op_id]
            self.spans.append(record)
        stack.append(index)
        record[1] = time.perf_counter()
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            stack.pop()

    def wrap(self, fn, name: str):
        """``fn`` with every call recorded as a span called ``name``."""

        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def summary(self) -> dict[str, "SpanSummary"]:
        """Per span name: total seconds, self seconds and call count."""
        covered = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, SpanSummary] = defaultdict(SpanSummary)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            entry = out[name]
            entry.total_s += end - start
            entry.self_s += (end - start) - covered[index]
            entry.calls += 1
        return out

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, op_id in self.spans:
                handle.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": parent, "op_id": op_id,
                }) + "\n")
