"""Lightweight nested spans and the bounded in-memory flight recorder.

The paper's backend-selection question is empirical — answering "which
data structure served this request, and what did it cost?" requires
seeing inside a run, not just timing it.  This module provides the
timing half of that visibility: **spans** (named, attributed intervals
on one monotonic clock, linked into a parent/child tree) and a
**flight recorder** (a bounded buffer of finished spans).

Design constraints, in priority order:

1. **Near-zero overhead when disabled.**  Everything is gated on one
   module-level boolean checked once per call: :func:`span` returns a
   shared no-op context manager without allocating, and
   :func:`timed_span` reads the clock but skips attribute dicts, id
   allocation, and recording.  Tracing is *off by default* and enabled
   via :func:`set_enabled`, the ``REPRO_TRACE`` environment variable,
   or per-call ``SimOptions.trace`` (which opens a
   :func:`repro.obs.trace_session`).
2. **One clock.**  Every span start/end — and, through
   :func:`repro.core.backend._execute`, every dispatcher-reported
   ``wall_time_s``/``elapsed_s`` — comes from :data:`clock`
   (``time.perf_counter``), so trace spans and result metadata can
   never disagree.
3. **Thread/process-safe identity.**  Span ids embed the process id and
   a per-process atomic counter, so spans exported from pool worker
   threads (see :mod:`repro.parallel`) or from other processes merge
   into the caller's recorder without collisions.
"""

from __future__ import annotations

import itertools
import os
import threading
from time import perf_counter as clock
from typing import Any, Dict, Iterable, List, Optional

TRACE_ENV_VAR = "REPRO_TRACE"
"""Environment variable enabling tracing process-wide.

Set e.g. ``REPRO_TRACE=1`` to run a whole process (or CI suite) with
every span live and every ``simulate`` result carrying a
``metadata["report"]``; an explicit ``trace=`` option always wins.
"""

_TRUE_VALUES = frozenset({"1", "true", "yes", "on"})


def env_enabled() -> bool:
    """Whether ``REPRO_TRACE`` currently asks for tracing."""
    return os.environ.get(TRACE_ENV_VAR, "").strip().lower() in _TRUE_VALUES


_enabled: bool = env_enabled()

_id_counter = itertools.count(1)


def enabled() -> bool:
    """The module-level tracing flag (the single gate every hook checks)."""
    return _enabled


def set_enabled(value: bool) -> bool:
    """Set the tracing flag; returns the previous value (for restoring)."""
    global _enabled
    previous = _enabled
    _enabled = bool(value)
    return previous


def _new_span_id() -> str:
    return f"{os.getpid()}-{next(_id_counter)}"


class Span:
    """One named interval on the span clock.

    ``finish()`` is idempotent; attributes set after finishing are
    ignored.  Spans are recorded into the active
    :class:`FlightRecorder` on finish — never at start — so the
    recorder only ever holds complete intervals.
    """

    __slots__ = (
        "name",
        "span_id",
        "parent_id",
        "start_s",
        "end_s",
        "status",
        "attributes",
        "pid",
        "thread_id",
        "_live",
    )

    def __init__(
        self,
        name: str,
        parent_id: Optional[str],
        live: bool,
        attributes: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.name = name
        self.start_s = clock()
        self.end_s: Optional[float] = None
        self._live = live
        if live:
            self.span_id = _new_span_id()
            self.parent_id = parent_id
            self.status = "ok"
            self.attributes = attributes or {}
            self.pid = os.getpid()
            self.thread_id = threading.get_ident()
        else:
            self.span_id = ""
            self.parent_id = None
            self.status = "ok"
            self.attributes = None
            self.pid = 0
            self.thread_id = 0

    def set(self, **attrs: Any) -> "Span":
        """Attach attributes (no-op when tracing is disabled)."""
        if self._live and self.end_s is None:
            self.attributes.update(attrs)
        return self

    def finish(self, status: Optional[str] = None, **attrs: Any) -> "Span":
        """Close the span (idempotent) and record it if tracing is live."""
        if self.end_s is not None:
            return self
        self.end_s = clock()
        if self._live:
            if attrs:
                self.attributes.update(attrs)
            if status is not None:
                self.status = status
            _unwind_to(self)
            current_recorder().record(self)
        return self

    @property
    def duration_s(self) -> float:
        """Elapsed seconds on the span clock (up to now if unfinished)."""
        end = self.end_s if self.end_s is not None else clock()
        return end - self.start_s

    def as_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
            "status": self.status,
            "attributes": dict(self.attributes or {}),
            "pid": self.pid,
            "thread_id": self.thread_id,
        }

    def __repr__(self) -> str:
        state = f"{self.duration_s:.6f}s" if self.end_s is not None else "open"
        return f"Span({self.name!r}, {state}, status={self.status!r})"


class FlightRecorder:
    """Bounded in-memory buffer of finished spans.

    Overflow drops the *newest* spans (the structural skeleton — root
    and dispatch spans — finishes last but starts first; inner hot-loop
    spans are the expendable ones) and counts them in ``dropped``.
    """

    def __init__(self, max_spans: int = 4096) -> None:
        if max_spans < 1:
            raise ValueError("max_spans must be positive")
        self.max_spans = max_spans
        self.dropped = 0
        self._spans: List[Span] = []
        self._imported: List[Dict[str, Any]] = []
        self._lock = threading.Lock()

    def record(self, span: Span) -> None:
        with self._lock:
            if len(self._spans) + len(self._imported) >= self.max_spans:
                self.dropped += 1
                return
            self._spans.append(span)

    def adopt(
        self, span_dicts: Iterable[Dict[str, Any]], parent_id: Optional[str]
    ) -> None:
        """Merge spans exported from another session into this recorder.

        Span ids embed the pid and a process-wide counter, so a pool
        worker thread's spans (or another process's) cannot collide
        with local ids; orphan spans (no parent in the batch) are
        re-parented under ``parent_id`` to keep one connected tree.
        """
        batch = [dict(entry) for entry in span_dicts]
        known = {entry["span_id"] for entry in batch}
        with self._lock:
            for entry in batch:
                if entry.get("parent_id") not in known:
                    entry["parent_id"] = parent_id
                if len(self._spans) + len(self._imported) >= self.max_spans:
                    self.dropped += 1
                    continue
                self._imported.append(entry)

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans) + len(self._imported)

    def span_dicts(self) -> List[Dict[str, Any]]:
        """All recorded spans as plain dicts, sorted by start time."""
        with self._lock:
            entries = [span.as_dict() for span in self._spans]
            entries.extend(dict(entry) for entry in self._imported)
        entries.sort(key=lambda entry: (entry["pid"], entry["start_s"]))
        return entries

    def tree(self) -> List[Dict[str, Any]]:
        """Nested span tree: each node is a span dict plus ``children``."""
        entries = self.span_dicts()
        by_id = {entry["span_id"]: entry for entry in entries}
        roots: List[Dict[str, Any]] = []
        for entry in entries:
            entry["children"] = []
        for entry in entries:
            parent = by_id.get(entry["parent_id"])
            if parent is None:
                roots.append(entry)
            else:
                parent["children"].append(entry)
        return roots

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()
            self._imported.clear()
            self.dropped = 0


class _ThreadState(threading.local):
    def __init__(self) -> None:  # called lazily per thread
        self.stack: List[Span] = []
        self.recorders: List[FlightRecorder] = []


_state = _ThreadState()

DEFAULT_RECORDER = FlightRecorder()
"""Process-wide fallback recorder used outside any trace session."""


def current_recorder() -> FlightRecorder:
    """The innermost active recorder (session-scoped, else the default)."""
    if _state.recorders:
        return _state.recorders[-1]
    return DEFAULT_RECORDER


def push_recorder(recorder: FlightRecorder) -> List[Span]:
    """Activate ``recorder`` for this thread; returns the saved span stack."""
    _state.recorders.append(recorder)
    saved, _state.stack = _state.stack, []
    return saved


def pop_recorder(recorder: FlightRecorder, saved_stack: List[Span]) -> None:
    """Deactivate ``recorder`` and restore the thread's span stack."""
    if _state.recorders and _state.recorders[-1] is recorder:
        _state.recorders.pop()
    elif recorder in _state.recorders:
        _state.recorders.remove(recorder)
    _state.stack = saved_stack


def current_span_id() -> Optional[str]:
    """Id of the innermost open span on this thread (``None`` at top level)."""
    stack = _state.stack
    return stack[-1].span_id if stack else None


def _unwind_to(span: Span) -> None:
    """Pop the stack down to (and including) ``span``.

    Finishing out of order — e.g. an exception abandoned a deeper span —
    self-heals: abandoned entries are discarded unrecorded rather than
    corrupting the stack for later calls.
    """
    stack = _state.stack
    if span in stack:
        while stack:
            if stack.pop() is span:
                break


def start_span(name: str, **attrs: Any) -> Span:
    """Open a live span (or a dead one when tracing is disabled).

    Prefer the :func:`span` context manager; use this explicit form when
    the close site needs to branch on the outcome first (the dispatcher
    does, to stamp fallback statuses).
    """
    if not _enabled:
        return Span(name, None, live=False)
    opened = Span(name, current_span_id(), live=True, attributes=attrs)
    _state.stack.append(opened)
    return opened


def timed_span(name: str, **attrs: Any) -> Span:
    """Like :func:`start_span`, but documented as a timer.

    Even a disabled (dead) span reads the clock at open and at
    ``finish()`` — nothing else — so call sites that report elapsed time
    (``wall_time_s``, fallback ``elapsed_s``) can use one code path
    whether or not the span is recorded.
    """
    return start_span(name, **attrs)


class _NullSpanContext:
    """Shared no-op context for disabled tracing: zero per-call allocation."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attrs: Any) -> "_NullSpanContext":
        return self


_NULL_CONTEXT = _NullSpanContext()


class _SpanContext:
    __slots__ = ("span",)

    def __init__(self, span: Span) -> None:
        self.span = span

    def __enter__(self) -> Span:
        return self.span

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.span.finish(status="error", error=exc_type.__name__)
        else:
            self.span.finish()
        return False


def span(name: str, **attrs: Any):
    """Context manager recording one span around its body.

    Disabled tracing returns a shared no-op object — the one branch
    above is the entire cost, which is what lets gate loops and rewrite
    rounds stay instrumented unconditionally.
    """
    if not _enabled:
        return _NULL_CONTEXT
    return _SpanContext(start_span(name, **attrs))
