"""In-memory span recorder for the traced run.

Each span has a name, start, end, parent and thread.  Parents come from a
per-thread stack, so spans opened on two worker threads never nest into
each other.  A thread with no open span takes `ambient` as its parent: the
tiled-inference wrapper sets it to the `segment_volume` span while the call
runs, so the per-cube spans of the pool threads hang under that call.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

from stats import union_length


@dataclass
class Span:
    id: int
    name: str
    start: float
    parent: int | None
    thread: int
    end: float | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        return {"id": self.id, "name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "thread": self.thread, "attrs": self.attrs}


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.spans: list[Span] = []
        self.ambient: Span | None = None
        self._clock = clock
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def open(self, name: str, **attrs) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else self.ambient
        with self._lock:
            span = Span(next(self._ids), name, 0.0,
                        parent.id if parent is not None else None,
                        threading.get_ident(), attrs=attrs)
            self.spans.append(span)
        stack.append(span)
        span.start = self._clock()
        return span

    def close(self, span: Span) -> None:
        span.end = self._clock()
        stack = self._stack()
        # spans left open above this one by an exception are dropped with it
        while stack and stack.pop() is not span:
            pass

    @contextmanager
    def span(self, name: str, **attrs):
        s = self.open(name, **attrs)
        try:
            yield s
        finally:
            self.close(s)

    def closed(self) -> list[Span]:
        return [s for s in self.spans if s.end is not None]


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals.

    Children are clipped to the parent's interval; overlapping children
    (parallel workers) cover the parent's time once.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered = union_length(
            (max(c.start, s.start), min(c.end, s.end)) for c in children[s.id])
        out[s.id] = s.duration - covered
    return out


def op_roots(spans, root_names) -> dict[int, int]:
    """Span id -> id of the nearest enclosing span named in `root_names`.

    Spans outside every root are left out."""
    by_id = {s.id: s for s in spans}
    memo: dict[int, int | None] = {}

    def root(s: Span):
        path = []
        found = None
        while s is not None:
            if s.id in memo:
                found = memo[s.id]
                break
            path.append(s.id)
            if s.name in root_names:
                found = s.id
                break
            s = by_id.get(s.parent)
        for sid in path:
            memo[sid] = found
        return found

    return {s.id: r for s in spans if (r := root(s)) is not None}
