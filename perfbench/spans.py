"""In-memory span recorder and the method wrappers that feed it.

The traced run wraps the public methods each layer calls on its component
instances (or, for the scalar multi-core path, whose components are built
inside ``run_multicore_mix``, on their classes for the duration of one
call).  Wrapping instances rather than classes keeps the batch core's
exact-type gates intact: ``type(prefetcher) is IPCPPrefetcher`` still holds
when ``prefetcher.step_batch`` is an instance attribute.

Every wrapped call becomes a span ``(id, name, start, end, parent)``.
Per-name call counts, total time and self time (duration minus the time
covered by child spans) are accumulated exactly as the calls return; the
span log itself is kept in compact arrays up to :data:`SPAN_LOG_LIMIT`
entries and written out when the benchmark ends.
"""

from __future__ import annotations

import json
from array import array
from contextlib import contextmanager
from time import perf_counter

#: Spans kept in the written log.  Aggregates (calls, total and self time)
#: cover every span; only the per-span log is capped, to bound memory.
SPAN_LOG_LIMIT = 200_000

_MISSING = object()


class SpanRecorder:
    """Collects spans from wrapped calls and derives per-name self time."""

    def __init__(self, log_limit: int = SPAN_LOG_LIMIT) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        #: Items counted on results (e.g. candidates returned), per name.
        self.items: list[int] = []
        self.total: list[float] = []
        self.self_time: list[float] = []
        self._stack: list[list] = []
        self._next_span = 0
        self._log_limit = log_limit
        self.dropped = 0
        self._log_id = array("q")
        self._log_name = array("q")
        self._log_parent = array("q")
        self._log_start = array("d")
        self._log_end = array("d")

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.items.append(0)
            self.total.append(0.0)
            self.self_time.append(0.0)
        return nid

    def wrap(self, name: str, fn, count_items=None):
        """Return ``fn`` wrapped so that every call records one span.

        ``count_items(result)``, when given, adds to the name's item count
        (used to tally candidates returned by prefetcher kernels).
        """
        nid = self.name_id(name)
        stack = self._stack
        calls, items, total, self_time = (
            self.calls, self.items, self.total, self.self_time,
        )
        recorder = self

        def wrapper(*args, **kwargs):
            span = recorder._next_span
            recorder._next_span = span + 1
            parent = stack[-1][1] if stack else -1
            frame = [0.0, span]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                total[nid] += duration
                self_time[nid] += duration - frame[0]
                calls[nid] += 1
                if stack:
                    stack[-1][0] += duration
                recorder._log(span, nid, parent, start, end)
            if count_items is not None and result:
                items[nid] += count_items(result)
            return result

        return wrapper

    def _log(self, span: int, nid: int, parent: int, start: float, end: float):
        if len(self._log_id) >= self._log_limit:
            self.dropped += 1
            return
        self._log_id.append(span)
        self._log_name.append(nid)
        self._log_parent.append(parent)
        self._log_start.append(start)
        self._log_end.append(end)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, tuple[int, int]]:
        """``{name: (calls, items)}`` at this moment (phase boundaries)."""
        return {
            name: (self.calls[i], self.items[i])
            for i, name in enumerate(self.names)
        }

    def count(self, name: str) -> int:
        nid = self._ids.get(name)
        return self.calls[nid] if nid is not None else 0

    def item_count(self, name: str) -> int:
        nid = self._ids.get(name)
        return self.items[nid] if nid is not None else 0

    def seconds(self, name: str) -> float:
        nid = self._ids.get(name)
        return self.total[nid] if nid is not None else 0.0

    def self_seconds(self, name: str) -> float:
        nid = self._ids.get(name)
        return self.self_time[nid] if nid is not None else 0.0

    def logged_spans(self, name: str) -> list[tuple[int, float, float, int]]:
        """``(span id, start, end, parent id)`` of every logged ``name`` span."""
        nid = self._ids.get(name)
        if nid is None:
            return []
        return [
            (self._log_id[i], self._log_start[i], self._log_end[i],
             self._log_parent[i])
            for i in range(len(self._log_id))
            if self._log_name[i] == nid
        ]

    def write(self, path) -> None:
        """Write the span log and the per-name aggregates as JSON."""
        origin = min(self._log_start) if len(self._log_start) else 0.0
        payload = {
            "names": self.names,
            "aggregates": {
                name: {
                    "calls": self.calls[i],
                    "items": self.items[i],
                    "total_s": self.total[i],
                    "self_s": self.self_time[i],
                }
                for i, name in enumerate(self.names)
            },
            "span_fields": ["id", "name", "start_s", "end_s", "parent"],
            "spans": [
                [
                    self._log_id[i],
                    self.names[self._log_name[i]],
                    round(self._log_start[i] - origin, 9),
                    round(self._log_end[i] - origin, 9),
                    self._log_parent[i],
                ]
                for i in range(len(self._log_id))
            ],
            "spans_dropped": self.dropped,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


@contextmanager
def patched(targets):
    """Install wrappers for the duration of the block, then restore.

    ``targets`` is a list of ``(owner, attribute, replacement)``; the owner
    is an instance, a class or a module.  Instance attributes that did not
    exist before are deleted afterwards, so the class method shows through
    again; everything else is set back to its original value.
    """
    saved = []
    try:
        for owner, attribute, replacement in targets:
            saved.append((owner, attribute, vars(owner).get(attribute, _MISSING)))
            setattr(owner, attribute, replacement)
        yield
    finally:
        for owner, attribute, original in reversed(saved):
            if original is _MISSING:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)
