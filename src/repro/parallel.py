"""Pooled execution layer for embarrassingly parallel workloads.

The paper's simulation task is dominated by two embarrassingly parallel
loops: stochastic noise trajectories (arrays Sec. II, decision diagrams
ref. [13]) and random-stimuli equivalence checking (Sec. IV).  This
module is the one seam they all share:

- :func:`resolve_jobs` — worker-count policy (explicit ``n_jobs``
  argument, else the ``REPRO_JOBS`` environment variable, else one job,
  which runs inline);
- :func:`spawn_seeds` / :func:`chunk_sizes` — deterministic work
  splitting.  Chunk boundaries and per-chunk RNG streams
  (``numpy.random.SeedSequence.spawn``) depend only on the task size and
  the seed, never on the worker count, so a seeded run is bitwise
  reproducible at any ``n_jobs``;
- :class:`ThreadPool` — the pool every pooled loop and the job service
  (:mod:`repro.service`) run on.  It always drains cleanly: a crashing
  task, a ``KeyboardInterrupt``, or an abandoned result iterator cancels
  the remaining work and joins every worker thread before control
  leaves the ``with`` block;
- :func:`parallel_map` / :func:`task_stream` — the two call shapes the
  library uses (eager ordered map; lazy ordered stream with early exit).

Pooled work runs on threads of this process: tasks and results cross
no serialization boundary and a pool starts in well under a
millisecond.  Threads run side by side wherever numpy releases the GIL
— the batched trajectory kernel and dense sweeps on large states, TN
slice contractions — and take turns on pure-Python work (DD
trajectories, small chunks), where a pooled call gains nothing over
the inline one and can be slower.  On 2 vCPUs a spawn-context process
pool lost to threads on nearly every pooled loop of the library,
because worker start-up and pickling outweighed the work.

:class:`ProcessPool` is the spawn-context twin of :class:`ThreadPool`
with the same interface; no library path uses it, and the repository
benchmark's traced run times its start-up.  :func:`reap_process` is the
terminate-then-kill teardown that shard managers
(:mod:`repro.service.remote.cluster`) use for their child processes.

Resource budgets compose: callers hand workers a *share* of their
:class:`~repro.resources.ResourceBudget` via
:meth:`~repro.resources.ResourceBudget.share` (memory is divided across
workers that allocate concurrently; the wall-clock deadline propagates
as-is because workers run side by side).  A
:class:`~repro.resources.ResourceExhausted` raised inside a worker
surfaces in the caller after the pool has been drained, so the registry
dispatcher's fallback chain sees exactly the error a serial run would
have produced.

Observability composes here too: trace sessions are thread-local, so
when tracing (:mod:`repro.obs.trace`) is enabled in the caller, each
pooled task runs inside its own trace session on its worker thread and
hands its spans and metric snapshot back alongside the result; the
caller adopts the spans under its current span, merges the metrics, and
records every chunk's wall time in the ``parallel.chunk.wall_s``
histogram.  Independent of tracing, every pooled call can fill a
:class:`RunStats` — whether it ran inline or pooled, on how many
workers — which callers report in result metadata.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from contextlib import contextmanager
from functools import partial
from multiprocessing import get_context
from typing import Any, Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .obs import metrics as obs_metrics
from .obs import trace as obs_trace
from .obs.metrics import PARALLEL_CHUNK_WALL_S

JOBS_ENV_VAR = "REPRO_JOBS"
"""Environment variable supplying a default worker count.

Set e.g. ``REPRO_JOBS=2`` to run every parallel-capable loop in the
library (trajectories, random stimuli, ``simulate_many``) on two worker
threads without touching call sites; an explicit ``n_jobs=`` argument
always wins.  ``0`` or a negative value means "all available cores".
"""

DEFAULT_CHUNKS = 8
"""Default number of work chunks a parallel loop is split into.

Fixed (rather than derived from the worker count or measured speed) so
that chunk boundaries — and therefore per-chunk RNG streams and merge
order — depend only on the task size: a seeded run is identical at every
``n_jobs``, in every process.
"""


def resolve_jobs(n_jobs: Optional[int] = None) -> int:
    """Concrete worker count: ``None`` -> ``REPRO_JOBS`` -> 1; ``<= 0`` -> all cores."""
    if n_jobs is None:
        n_jobs = os.environ.get(JOBS_ENV_VAR, "").strip() or 1
    n_jobs = int(n_jobs)
    if n_jobs <= 0:
        return os.cpu_count() or 1
    return n_jobs


def spawn_seeds(seed: int, count: int) -> List[np.random.SeedSequence]:
    """``count`` independent child seed sequences of ``seed``.

    ``SeedSequence.spawn`` guarantees the children's streams are
    statistically independent of each other and of the parent, and the
    construction is a pure function of ``(seed, count)`` — workers get
    the same streams no matter how chunks are scheduled.
    """
    return list(np.random.SeedSequence(seed).spawn(count))


def chunk_sizes(total: int, num_chunks: Optional[int] = None) -> List[int]:
    """Split ``total`` work items into near-equal deterministic chunks.

    The split depends only on ``total`` and the explicit ``num_chunks``
    override: ``min(total, DEFAULT_CHUNKS)`` chunks by default, so the
    seeded loops that use the default merge identically at any
    ``n_jobs``.
    """
    if total <= 0:
        return []
    if num_chunks is None:
        num_chunks = min(total, DEFAULT_CHUNKS)
    num_chunks = max(1, min(int(num_chunks), total))
    base, extra = divmod(total, num_chunks)
    return [base + (1 if i < extra else 0) for i in range(num_chunks)]


def reap_process(process: Any, timeout_s: float = 5.0) -> None:
    """Terminate-then-kill teardown for one child process, always reaped.

    The escalation discipline every process owner in the library shares
    (shard managers in :mod:`repro.service.remote.cluster`): ask
    politely with ``terminate()`` (SIGTERM), wait up to ``timeout_s``,
    then ``kill()`` (SIGKILL) and wait again so the child can never
    linger as a zombie.  Duck-typed over both ``subprocess.Popen``
    (``poll``/``wait``) and ``multiprocessing.Process``
    (``is_alive``/``join``); already-dead children are still waited on
    once to reap their exit status.
    """
    is_popen = hasattr(process, "poll")

    def _alive() -> bool:
        return (
            process.poll() is None if is_popen else process.is_alive()
        )

    def _wait(seconds: float) -> None:
        try:
            if is_popen:
                process.wait(timeout=seconds)
            else:
                process.join(timeout=seconds)
        except Exception:
            pass

    if _alive():
        try:
            process.terminate()
        except OSError:
            pass
        _wait(timeout_s)
    if _alive():
        try:
            process.kill()
        except OSError:
            pass
        _wait(timeout_s)
    else:
        _wait(0.1)


class RunStats:
    """How one pooled call ran, for the caller's result metadata.

    Filled by :func:`parallel_map` / :func:`task_stream` when passed in:
    ``executor`` is ``"inline"`` or ``"thread"`` and ``jobs`` the worker
    count.  Collecting stats never perturbs results.
    """

    __slots__ = ("executor", "jobs")

    def __init__(self) -> None:
        self.executor: Optional[str] = None
        self.jobs: int = 1


class _DrainingPool:
    """Context-manager pool that always drains cleanly.

    Use as a context manager::

        with ThreadPool(4) as pool:
            results = pool.map(fn, tasks)

    On *any* exit — normal completion, a task exception, or a
    ``KeyboardInterrupt`` in the caller — pending tasks are cancelled
    and every worker is joined before ``__exit__`` returns, so no
    worker outlives the block.
    """

    def __init__(self, n_jobs: int) -> None:
        self.n_jobs = max(1, int(n_jobs))
        self._executor: Optional[Any] = None
        self._futures: List[Any] = []

    def _new_executor(self) -> Any:
        raise NotImplementedError

    def _abort(self, executor: Any) -> None:
        """Hard-abort hook: stop running tasks instead of waiting them out."""

    def __enter__(self) -> "_DrainingPool":
        self._executor = self._new_executor()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        executor, self._executor = self._executor, None
        futures, self._futures = self._futures, []
        if executor is None:
            return False
        for future in futures:
            future.cancel()
        if exc_type is not None and not (
            isinstance(exc_type, type) and issubclass(exc_type, Exception)
        ):
            self._abort(executor)
        executor.shutdown(wait=True, cancel_futures=True)
        return False

    def _require_executor(self) -> Any:
        if self._executor is None:
            raise RuntimeError(
                f"{type(self).__name__} used outside its context manager"
            )
        return self._executor

    def submit(self, fn: Callable, *args: Any) -> Any:
        """Submit one ``fn(*args)`` call; the future is tracked for cleanup.

        The single-task seam the job engine (:mod:`repro.service`)
        schedules on: jobs arrive one at a time from the queue rather
        than as a pre-known sequence, but still get cancelled and joined
        by ``__exit__`` like ``submit_all`` futures.
        """
        future = self._require_executor().submit(fn, *args)
        self._futures.append(future)
        return future

    def submit_all(self, fn: Callable, tasks: Sequence[Any]) -> List[Any]:
        """Submit one future per task; futures are tracked for cleanup."""
        executor = self._require_executor()
        futures = [executor.submit(fn, task) for task in tasks]
        self._futures.extend(futures)
        return futures

    def imap(self, fn: Callable, tasks: Sequence[Any]) -> Iterator[Any]:
        """Yield ``fn(task)`` results in task order.

        All tasks are submitted up front; abandoning the iterator (early
        exit) leaves the remaining futures to be cancelled by
        ``__exit__``.
        """
        for future in self.submit_all(fn, tasks):
            yield future.result()

    def map(self, fn: Callable, tasks: Sequence[Any]) -> List[Any]:
        """Eager ordered map over the pool."""
        return list(self.imap(fn, tasks))


class ThreadPool(_DrainingPool):
    """A thread pool (threads named ``repro-pool_<i>``) that drains cleanly.

    Tasks run in this process, so payloads and results are handed over
    as live objects and task functions need not be picklable.  A
    running task cannot be interrupted from outside; a hard abort
    cancels the queued tasks and waits for the running ones.
    """

    def _new_executor(self) -> ThreadPoolExecutor:
        return ThreadPoolExecutor(
            max_workers=self.n_jobs, thread_name_prefix="repro-pool"
        )


class ProcessPool(_DrainingPool):
    """Spawn-context process-pool twin of :class:`ThreadPool`.

    Task functions must be module-level (picklable by reference) and
    payloads must pickle.  The ``spawn`` start method is used everywhere
    — ``fork`` is unsafe once numpy's threadpools exist.  On a hard
    abort (``KeyboardInterrupt``/``SystemExit``) still-running workers
    are terminated rather than waited for.
    """

    def _new_executor(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.n_jobs, mp_context=get_context("spawn")
        )

    def _abort(self, executor: ProcessPoolExecutor) -> None:
        for process in getattr(executor, "_processes", {}).values():
            process.terminate()


def _traced_task(fn: Callable, task: Any) -> Tuple[Any, dict, float]:
    """Run one pooled task inside its own trace session on a worker thread.

    Trace sessions are thread-local, so the worker records into its own
    session and hands back ``(value, report, wall seconds)`` for the
    caller's thread to adopt — span ids draw from one process-wide
    atomic counter, so they never collide with the caller's.
    """
    from .obs import trace_session

    with trace_session() as session:
        chunk = obs_trace.timed_span(
            "parallel.chunk", fn=getattr(fn, "__name__", str(fn))
        )
        try:
            value = fn(task)
        finally:
            chunk.finish()
    return value, session.report(), chunk.duration_s


def _adopt(traced: Tuple[Any, dict, float]) -> Any:
    """Merge a traced task's spans, metrics and wall time into the caller's
    session (spans go under the caller's current span); return its value."""
    value, report, duration_s = traced
    if obs_trace.enabled():
        obs_trace.current_recorder().adopt(
            report.get("spans", ()), obs_trace.current_span_id()
        )
        obs_metrics.merge_snapshot(report.get("metrics"))
        obs_metrics.observe(PARALLEL_CHUNK_WALL_S, duration_s)
    return value


def _run_inline(fn: Callable, task: Any) -> Any:
    """Inline twin of :func:`_traced_task`: same span, no pool."""
    chunk = obs_trace.timed_span(
        "parallel.chunk", fn=getattr(fn, "__name__", str(fn)), inline=True
    )
    try:
        value = fn(task)
    finally:
        chunk.finish()
    if obs_trace.enabled():
        obs_metrics.observe(PARALLEL_CHUNK_WALL_S, chunk.duration_s)
    return value


def parallel_map(
    fn: Callable,
    tasks: Sequence[Any],
    n_jobs: Optional[int] = None,
    on_result: Optional[Callable[[int, Any], None]] = None,
    stats: Optional[RunStats] = None,
) -> List[Any]:
    """Ordered ``[fn(t) for t in tasks]``, on a thread pool when ``n_jobs > 1``.

    With one job (or at most one task) everything runs inline on the
    calling thread — no pool — which is also the reference execution the
    pooled path must match bitwise.  ``stats`` records how the call ran.

    ``on_result(index, result)`` fires in task order on the calling
    thread as each result is consumed (pooled or inline); chunked loops
    use it to stream progress events to the user's callback.
    """
    results: List[Any] = []
    with task_stream(fn, tasks, n_jobs=n_jobs, stats=stats) as stream:
        for index, value in enumerate(stream):
            if on_result is not None:
                on_result(index, value)
            results.append(value)
    return results


@contextmanager
def task_stream(
    fn: Callable,
    tasks: Sequence[Any],
    n_jobs: Optional[int] = None,
    stats: Optional[RunStats] = None,
):
    """Ordered lazy result stream with clean early exit.

    Usage::

        with task_stream(fn, tasks, n_jobs=4) as results:
            for result in results:
                if bad(result):
                    break   # remaining tasks are cancelled, workers joined

    Serial (``n_jobs=1``) streams evaluate tasks lazily, so breaking out
    skips the remaining work exactly like the pooled version cancels it.
    Pooled tasks carry their trace spans and chunk timings back to the
    caller.
    """
    jobs = resolve_jobs(n_jobs)
    if jobs <= 1 or len(tasks) <= 1:
        if stats is not None:
            stats.executor, stats.jobs = "inline", 1
        yield (_run_inline(fn, task) for task in tasks)
        return
    if stats is not None:
        stats.executor, stats.jobs = "thread", jobs
    with ThreadPool(jobs) as pool:
        if obs_trace.enabled():
            yield (
                _adopt(traced)
                for traced in pool.imap(partial(_traced_task, fn), tasks)
            )
        else:
            yield pool.imap(fn, tasks)
