"""In-memory spans around the library calls the benchmark makes.

A span is one call across a layer boundary: its name ("<module>.<function>"),
start and end (perf_counter_ns), the index of the enclosing span (-1 at the
top) and the record being processed.  Spans are appended to a list while the
traced run executes and written out once, after it ends.  A layer is the
seqcomplex module a span name starts with; its self time is the duration of
its spans minus the time their child spans cover.

Only public functions are wrapped, and only from the benchmark's own code:
the untraced run calls the library functions directly.
"""

from __future__ import annotations

import json
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns
from typing import Callable

ROOT_SPAN = "bench.record"


class Tracer:
    """Collects spans and per-boundary counts for one traced run."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, record]
        self.child_ns: list[int] = []
        self.stack: list[int] = []
        self.record = -1
        self.counts: Counter[str] = Counter()

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, 0, 0, self.stack[-1] if self.stack else -1, self.record])
        self.child_ns.append(0)
        self.stack.append(idx)
        return idx

    def _close(self, idx: int, start: int, end: int) -> None:
        self.stack.pop()
        span = self.spans[idx]
        span[1], span[2] = start, end
        if span[3] >= 0:
            self.child_ns[span[3]] += end - start

    def wrap(self, name: str, fn: Callable, count: Callable | None = None) -> Callable:
        """fn inside a span; count(args, result) is added to counts[name]."""

        def traced(*args, **kwargs):
            idx = self._open(name)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, start, perf_counter_ns())
            if count is not None:
                self.counts[name] += count(args, result)
            return result

        return traced

    def record_span(self, fn: Callable) -> Callable:
        """fn as the root span of a new record."""
        traced = self.wrap(ROOT_SPAN, fn)

        def run(*args, **kwargs):
            self.record += 1
            return traced(*args, **kwargs)

        return run

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        start = perf_counter_ns()
        try:
            yield
        finally:
            self._close(idx, start, perf_counter_ns())

    # -- summaries ------------------------------------------------------------

    def calls(self, prefix: str) -> int:
        return sum(1 for s in self.spans if s[0].startswith(prefix))

    def total_s(self, prefix: str) -> float:
        """Summed duration of the spans whose name starts with prefix."""
        return sum(s[2] - s[1] for s in self.spans if s[0].startswith(prefix)) / 1e9

    def self_s(self, layer: str) -> float:
        """Time spent in a layer's own code, children excluded."""
        prefix = layer + "."
        return sum(
            s[2] - s[1] - self.child_ns[i]
            for i, s in enumerate(self.spans)
            if s[0].startswith(prefix)
        ) / 1e9

    def counted(self, prefix: str) -> int:
        return sum(v for k, v in self.counts.items() if k.startswith(prefix))

    def dump(self, path: Path) -> None:
        """Write one JSON array per span: name, start, end, parent, record."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
