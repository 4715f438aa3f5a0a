"""In-memory span recorder for the benchmark's traced runs.

Spans are recorded by the benchmark around its own calls into matsum, never
inside the library. Each span is (name, start, end, parent index, item id);
all of them stay in memory until the run ends and are then written out once.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.item: str | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        record = [name, time.perf_counter(), None, parent, self.item]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, minus the time covered by child spans."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), covered in zip(self.spans, child_time):
            out[name] += (end - start) - covered
        return dict(out)

    def write(self, path) -> None:
        keys = ("name", "start", "end", "parent", "item")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)


def span(tracer: Tracer | None, name: str):
    """A span on the tracer, or nothing when the run is untraced."""
    return tracer.span(name) if tracer is not None else nullcontext()
