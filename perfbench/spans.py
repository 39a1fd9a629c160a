"""The benchmark's own span recorder, independent of the package's tracer.

Spans carry a name, start, end, parent span and request id.  They stay
in memory and are written out once, when the run ends.  The recorder
lives in the benchmark's files so that a change to the code under test
cannot change the instrument that measures it.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, List, Optional

clock = time.perf_counter


class SpanRecorder:
    def __init__(self) -> None:
        self.spans: List[Dict] = []
        self._stack: List[int] = []

    def begin(self, name: str, parent: Optional[int] = None, request=None, **attrs) -> int:
        if parent is None and self._stack:
            parent = self._stack[-1]
        if request is None and parent is not None:
            request = self.spans[parent]["request"]
        self.spans.append(
            {"name": name, "parent": parent, "request": request,
             "start": clock(), "end": None, **attrs}
        )
        return len(self.spans) - 1

    def end(self, span_id: int, **attrs) -> float:
        span = self.spans[span_id]
        span["end"] = clock()
        span.update(attrs)
        return span["end"] - span["start"]

    @contextmanager
    def span(self, name: str, request=None, **attrs):
        """Nested span for synchronous code (parent = innermost open span)."""
        span_id = self.begin(name, request=request, **attrs)
        self._stack.append(span_id)
        try:
            yield self.spans[span_id]
        finally:
            self._stack.pop()
            self.end(span_id)

    def self_times(self) -> List[float]:
        """Duration minus the union of the children's intervals."""
        children = defaultdict(list)
        for span in self.spans:
            if span["parent"] is not None:
                children[span["parent"]].append((span["start"], span["end"]))
        result = []
        for index, span in enumerate(self.spans):
            covered, cursor = 0.0, span["start"]
            for start, end in sorted(children[index]):
                start, end = max(start, cursor), min(end, span["end"])
                if end > start:
                    covered += end - start
                    cursor = end
            result.append(span["end"] - span["start"] - covered)
        return result

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: count, total duration and total self time (s)."""
        out: Dict[str, Dict[str, float]] = {}
        for span, own in zip(self.spans, self.self_times()):
            entry = out.setdefault(span["name"], {"count": 0, "total_s": 0.0, "self_s": 0.0})
            entry["count"] += 1
            entry["total_s"] += span["end"] - span["start"]
            entry["self_s"] += own
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "totals": self.totals()}, handle, default=str)
