"""Progress events and streaming callbacks for long-running work.

The ROADMAP's streaming facade: pass ``progress=callback`` to
:func:`repro.core.simulate` (or directly to the trajectory simulators
and :func:`~repro.verify.check_equivalence_random_stimuli`) and the
callback receives :class:`ProgressEvent`s as work completes — gates
applied in a backend's gate loop, trajectories finished (per chunk:
counts are reported on the calling thread as each chunk's result is
consumed, in chunk order, whether the chunks ran inline or on a thread
pool), stimuli checked, circuits of a sweep done.

Cancellation composes with the existing :class:`repro.resources.Deadline`
plumbing rather than adding a second mechanism: a callback that raises —
canonically :data:`CancelledError` — propagates out of the same gate-loop
checkpoints where budget deadlines are checked, unwinding through the
dispatcher (which only absorbs ``ResourceExhausted``) and draining any
:class:`~repro.parallel.ThreadPool` on the way out, exactly like a
tripped time budget.

Progress is independent of tracing: callbacks fire whether or not
``REPRO_TRACE``/``trace=True`` is set, because a reporter only exists
when the caller asked for one.
"""

from __future__ import annotations

from concurrent.futures import CancelledError
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

__all__ = [
    "CancelledError",
    "GATE_EVENT_INTERVAL",
    "ProgressEvent",
    "ProgressReporter",
]

GATE_EVENT_INTERVAL = 16
"""Default gate-loop throttle: one event per this many operations."""


@dataclass(frozen=True)
class ProgressEvent:
    """One unit-of-work report delivered to a progress callback.

    Attributes:
        kind: What is being counted — ``"gates"``, ``"trajectories"``,
            ``"stimuli"``, ``"shots"``, or ``"circuits"``.
        done: Units completed so far; strictly increasing across the
            events one reporter emits.
        total: Planned total, when known.
        backend: Backend name of the emitting loop (may be empty).
        payload: Optional extra context (e.g. the chunk index).
    """

    kind: str
    done: int
    total: Optional[int] = None
    backend: str = ""
    payload: Dict[str, Any] = field(default_factory=dict)

    @property
    def fraction(self) -> Optional[float]:
        if not self.total:
            return None
        return min(self.done / self.total, 1.0)


ProgressCallback = Callable[[ProgressEvent], None]


class ProgressReporter:
    """Throttled, monotonic event emitter wrapping one user callback.

    ``step()`` advances the counter and emits every ``every`` units;
    ``advance_to()`` jumps to an absolute count (chunk merges);
    ``close()`` guarantees a final event for the last units.  ``done``
    never decreases and no count is reported twice, so a callback can
    treat the stream as a progress bar without defensive checks.

    Exceptions from the callback are deliberately not swallowed — they
    are the cancellation mechanism (see the module docstring).
    """

    __slots__ = ("callback", "kind", "total", "backend", "every", "done", "_emitted")

    def __init__(
        self,
        callback: ProgressCallback,
        kind: str,
        total: Optional[int] = None,
        backend: str = "",
        every: int = 1,
    ) -> None:
        if not callable(callback):
            raise TypeError("progress callback must be callable")
        self.callback = callback
        self.kind = kind
        self.total = total
        self.backend = backend
        self.every = max(1, int(every))
        self.done = 0
        self._emitted = -1

    @classmethod
    def maybe(
        cls,
        callback: Optional[ProgressCallback],
        kind: str,
        total: Optional[int] = None,
        backend: str = "",
        every: int = 1,
    ) -> Optional["ProgressReporter"]:
        """A reporter, or ``None`` when no callback was supplied.

        Loops guard with ``if reporter is not None`` so the no-callback
        path costs one comparison.
        """
        if callback is None:
            return None
        return cls(callback, kind, total=total, backend=backend, every=every)

    def _emit(self, **payload: Any) -> None:
        self._emitted = self.done
        self.callback(
            ProgressEvent(
                kind=self.kind,
                done=self.done,
                total=self.total,
                backend=self.backend,
                payload=payload,
            )
        )

    def step(self, count: int = 1, **payload: Any) -> None:
        """Advance by ``count`` units, emitting when the throttle is due."""
        self.done += count
        if self.done - self._emitted >= self.every or (
            self.total is not None and self.done >= self.total
        ):
            self._emit(**payload)

    def advance_to(self, done: int, **payload: Any) -> None:
        """Jump to an absolute completed count (never backwards).

        Emits under the same ``every`` throttle as :meth:`step` — a
        tight ``advance_to`` loop (e.g. per-item chunk merges) must not
        flood the callback any more than a tight ``step`` loop does.
        Reaching ``total`` always emits, and :meth:`close` still
        guarantees a final event for any unreported remainder.
        """
        if done <= self.done:
            return
        self.done = done
        if self.done - self._emitted >= self.every or (
            self.total is not None and self.done >= self.total
        ):
            self._emit(**payload)

    def close(self) -> None:
        """Emit a final event if any stepped units are still unreported."""
        if self.done > self._emitted:
            self._emit()
