"""In-memory span recorder for the traced run.

Spans are recorded by the benchmark around its calls into each layer's
public functions; nothing inside the program is instrumented.  A span
has a name (the layer), a start, an end and its parent.  A layer's self
time is its spans' durations minus the parts their child spans cover.
Spans stay in memory and are written out once, at exit.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional


@dataclass
class Span:
    sid: int
    name: str
    parent: Optional[int]
    start: float
    end: float = 0.0


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        record = Span(len(self.spans), name, parent, time.perf_counter())
        self.spans.append(record)
        self._stack.append(record.sid)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> Dict[str, float]:
        """Self time per span name, summed over every span of it."""
        child_time: Dict[int, float] = {}
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] = (
                    child_time.get(span.parent, 0.0) + span.end - span.start
                )
        out: Dict[str, float] = {}
        for span in self.spans:
            own = span.end - span.start - child_time.get(span.sid, 0.0)
            out[span.name] = out.get(span.name, 0.0) + own
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span.sid,
                            "name": span.name,
                            "parent": span.parent,
                            "start": span.start,
                            "end": span.end,
                        }
                    )
                    + "\n"
                )
