"""In-memory spans around the benchmark's calls into perilame's layers.

A span records (name, start, end, parent).  Span names are
``<layer>.<function>``; the layer is the part before the first dot.  Spans
stay in memory and are written out once, when the run ends.
"""

import time
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None

    @property
    def duration(self):
        return self.end - self.start

    @property
    def layer(self):
        return self.name.split(".", 1)[0]


class Tracer:
    """Records nested spans; ``span`` is a context manager."""

    def __init__(self):
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = Span(sid, name, start, end, parent)

    def children(self, sid):
        return [s for s in self.spans if s.parent == sid]

    def self_time(self, sid):
        """Span duration minus the part of it that its child spans cover."""
        return self.spans[sid].duration - sum(c.duration for c in self.children(sid))

    def durations(self, name):
        return [s.duration for s in self.spans if s.name == name]

    def to_json(self):
        return [asdict(s) for s in self.spans]


class NullTracer:
    """Tracing off: spans record nothing."""

    def span(self, name):
        return nullcontext()
