"""The benchmark's own in-memory span recorder.

Spans are recorded from the benchmark's files only, around the calls into
each layer of ``repro`` (phases of a round, single batch calls, layer
replays); nothing is added inside ``src/repro``.  A span is a dict with
``id``, ``name``, ``parent`` (the id of the span that was open when it
started), ``round`` (the round id it belongs to), ``start`` and ``end``
(``time.perf_counter`` seconds).  Spans stay in memory and are written out
only when the run ends.

The recorder is used from the client thread only, so the open-span stack is
a plain list.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

__all__ = ["SpanRecorder"]


class SpanRecorder:
    def __init__(self) -> None:
        self.enabled = False
        self.round_id: int | None = None
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        """Record one span; free when the recorder is off."""
        if not self.enabled:
            yield None
            return
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "round": self.round_id,
            "start": time.perf_counter(),
            "end": None,
            **attrs,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def self_seconds(self) -> dict[str, float]:
        """Per span name: total duration minus the part child spans cover."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = {}
        for s in self.spans:
            own = (s["end"] - s["start"]) - child_time[s["id"]]
            out[s["name"]] = out.get(s["name"], 0.0) + own
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "self_seconds": self.self_seconds()}, fh)
