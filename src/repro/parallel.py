"""Pooled execution layer for embarrassingly parallel workloads.

The paper's simulation task is dominated by two embarrassingly parallel
loops: stochastic noise trajectories (arrays Sec. II, decision diagrams
ref. [13]) and random-stimuli equivalence checking (Sec. IV).  This
module is the one seam they all share:

- :func:`resolve_jobs` — worker-count policy (explicit ``n_jobs``
  argument, else the ``REPRO_JOBS`` environment variable, else one job,
  which runs inline);
- :func:`resolve_executor` — executor policy (explicit ``executor``
  argument, else the ``REPRO_EXECUTOR`` environment variable, else
  worker processes).  ``"process"`` is a spawn-context
  ``ProcessPoolExecutor``; ``"thread"`` runs chunks on an in-process
  thread pool — zero pickling, zero shared-memory traffic, and real
  concurrency wherever numpy releases the GIL (the BLAS-heavy batched
  kernels), at the cost of sharing the GIL on pure-Python work;
- :func:`spawn_seeds` / :func:`chunk_sizes` — deterministic work
  splitting.  Chunk boundaries and per-chunk RNG streams
  (``numpy.random.SeedSequence.spawn``) depend only on the task size and
  the seed, never on the worker count *or the executor*, so a seeded run
  is bitwise reproducible at any ``n_jobs`` on either executor;
- :class:`ProcessPool` / :class:`ThreadPool` — context-manager pools
  that always drain cleanly: a crashing task, a ``KeyboardInterrupt``,
  or an abandoned result iterator cancels the remaining work and joins
  every worker before control leaves the ``with`` block;
- :func:`parallel_map` / :func:`task_stream` — the two call shapes the
  library uses (eager ordered map; lazy ordered stream with early exit).

Process-pool task functions must be module-level (picklable by
reference) and task payloads must pickle; circuits, noise models,
budgets, and ``SeedSequence`` objects all do.  The pool uses the
``spawn`` start method everywhere — ``fork`` is unsafe once numpy's
threadpools exist.  Thread-pool tasks have no such constraint.

Large result arrays skip the pickle pipe entirely: when the
shared-memory plane (:mod:`repro.parallel_shm`) is enabled — the
default wherever ``multiprocessing.shared_memory`` works — a pooled
task's result is scanned for arrays at or above the size threshold,
each is copied once into a named segment, and only the small
:class:`~repro.parallel_shm.ShmArray` handles are pickled back.  The
parent attaches zero-copy views and unlinks the names immediately; the
pool teardown path sweeps the run's leftover segments on *every* exit,
so a worker killed mid-chunk or a ``KeyboardInterrupt`` in the parent
cannot leak ``/dev/shm`` entries.  ``REPRO_SHM=0`` opts out; results
are bitwise identical either way.

Resource budgets compose: callers hand workers a *share* of their
:class:`~repro.resources.ResourceBudget` via
:meth:`~repro.resources.ResourceBudget.share` (memory is divided across
workers that allocate concurrently; the wall-clock deadline propagates
as-is because workers run side by side).  A
:class:`~repro.resources.ResourceExhausted` raised inside a worker
pickles back to the parent with its structured context intact and
surfaces after the pool has been drained, so the registry dispatcher's
fallback chain sees exactly the error a serial run would have produced.

Observability composes here too: when tracing
(:mod:`repro.obs.trace`) is enabled in the parent, each pooled task runs
inside its own trace session in the worker and ships its spans and
metric snapshot back alongside the result; the parent adopts the spans
under its current span (worker span ids embed the worker pid, so they
never collide), merges the metrics, and records every chunk's wall time
in the ``parallel.chunk.wall_s`` histogram and the run's shm traffic in
``parallel.shm.bytes``/``parallel.shm.segments``.  Independent of
tracing, every pooled call can fill a :class:`RunStats` — the executor
that ran and the shm byte counts — which callers report in result
metadata.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from contextlib import contextmanager
from functools import partial
from multiprocessing import get_context
from typing import Any, Callable, Iterator, List, Optional, Sequence

import numpy as np

from . import parallel_shm
from .obs import metrics as obs_metrics
from .obs import trace as obs_trace
from .obs.metrics import (
    PARALLEL_CHUNK_WALL_S,
    PARALLEL_SHM_BYTES,
    PARALLEL_SHM_SEGMENTS,
)

JOBS_ENV_VAR = "REPRO_JOBS"
"""Environment variable supplying a default worker count.

Set e.g. ``REPRO_JOBS=2`` to run every parallel-capable loop in the
library (trajectories, random stimuli, ``simulate_many``) on two worker
processes without touching call sites; an explicit ``n_jobs=`` argument
always wins.  ``0`` or a negative value means "all available cores".
"""

EXECUTOR_ENV_VAR = "REPRO_EXECUTOR"
"""Environment variable supplying a default executor kind.

``process`` (the default) runs chunks on a spawn-safe process pool;
``thread`` runs them on an in-process thread pool with zero
serialization.  An explicit ``executor=`` argument always wins.
"""

EXECUTORS = ("process", "thread")

DEFAULT_CHUNKS = 8
"""Default number of work chunks a parallel loop is split into.

Fixed (rather than derived from the worker count or measured speed) so
that chunk boundaries — and therefore per-chunk RNG streams and merge
order — depend only on the task size: a seeded run is identical at every
``n_jobs``, on either executor, in every process.
"""


def resolve_jobs(n_jobs: Optional[int] = None) -> int:
    """Concrete worker count: ``None`` -> ``REPRO_JOBS`` -> 1; ``<= 0`` -> all cores."""
    if n_jobs is None:
        n_jobs = os.environ.get(JOBS_ENV_VAR, "").strip() or 1
    n_jobs = int(n_jobs)
    if n_jobs <= 0:
        return os.cpu_count() or 1
    return n_jobs


def resolve_executor(executor: Optional[str] = None) -> str:
    """Concrete executor kind: explicit -> ``REPRO_EXECUTOR`` -> ``process``."""
    if executor is None:
        executor = (
            os.environ.get(EXECUTOR_ENV_VAR, "").strip().lower() or "process"
        )
    executor = str(executor).lower()
    if executor not in EXECUTORS:
        raise ValueError(
            f"unknown executor '{executor}'; choose from {EXECUTORS}"
        )
    return executor


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
    (pool teardown here, shard managers in
    :mod:`repro.service.remote.cluster`): ask politely with
    ``terminate()`` (SIGTERM), wait up to ``timeout_s``, then ``kill()``
    (SIGKILL) and wait again so the child can never linger as a zombie.
    Duck-typed over both ``subprocess.Popen`` (``poll``/``wait``) and
    ``multiprocessing.Process`` (``is_alive``/``join``); already-dead
    children are still waited on once to reap their exit status.
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
    the executor that actually ran, its worker count, and the
    shared-memory traffic.  Collecting stats never perturbs results.
    """

    __slots__ = ("executor", "jobs", "shm_bytes", "shm_segments")

    def __init__(self) -> None:
        self.executor: Optional[str] = None
        self.jobs: int = 1
        self.shm_bytes: int = 0
        self.shm_segments: int = 0


class ProcessPool:
    """A spawn-context process pool that always drains cleanly.

    Use as a context manager::

        with ProcessPool(4) as pool:
            results = pool.map(fn, tasks)

    On *any* exit — normal completion, a task exception, or a
    ``KeyboardInterrupt`` in the parent — pending tasks are cancelled
    and every worker process is joined before ``__exit__`` returns, so
    no child processes leak.  On a hard abort (``BaseException`` that is
    not an ``Exception``, e.g. ``KeyboardInterrupt``) still-running
    workers are terminated rather than waited for.
    """

    def __init__(self, n_jobs: int) -> None:
        self.n_jobs = max(1, int(n_jobs))
        self._executor: Optional[ProcessPoolExecutor] = None
        self._futures: List[Any] = []

    def __enter__(self) -> "ProcessPool":
        self._executor = ProcessPoolExecutor(
            max_workers=self.n_jobs, mp_context=get_context("spawn")
        )
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        executor, self._executor = self._executor, None
        futures, self._futures = self._futures, []
        if executor is None:
            return False
        try:
            for future in futures:
                future.cancel()
            if exc_type is not None and not (
                isinstance(exc_type, type) and issubclass(exc_type, Exception)
            ):
                # Hard abort (KeyboardInterrupt/SystemExit): don't wait for
                # running tasks — kill the workers outright.
                for process in getattr(executor, "_processes", {}).values():
                    process.terminate()
            executor.shutdown(wait=True, cancel_futures=True)
        finally:
            del executor
        return False

    def _require_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            raise RuntimeError("ProcessPool used outside its context manager")
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


class ThreadPool:
    """Thread-pool twin of :class:`ProcessPool` — same interface, no pickling.

    Tasks run in this process, so payloads and results cross no
    serialization boundary at all (the zero-copy limit).  Worth it
    whenever the chunk work releases the GIL — the batched trajectory
    kernel and TN slice contractions spend their time inside numpy's
    BLAS calls, which do — and always cheaper to start than a spawned
    process pool.
    """

    def __init__(self, n_jobs: int) -> None:
        self.n_jobs = max(1, int(n_jobs))
        self._executor: Optional[ThreadPoolExecutor] = None
        self._futures: List[Any] = []

    def __enter__(self) -> "ThreadPool":
        self._executor = ThreadPoolExecutor(
            max_workers=self.n_jobs, thread_name_prefix="repro-pool"
        )
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        executor, self._executor = self._executor, None
        futures, self._futures = self._futures, []
        if executor is None:
            return False
        for future in futures:
            future.cancel()
        executor.shutdown(wait=True, cancel_futures=True)
        return False

    def _require_executor(self) -> ThreadPoolExecutor:
        if self._executor is None:
            raise RuntimeError("ThreadPool used outside its context manager")
        return self._executor

    def submit(self, fn: Callable, *args: Any) -> Any:
        """Submit one ``fn(*args)`` call; the future is tracked for cleanup."""
        future = self._require_executor().submit(fn, *args)
        self._futures.append(future)
        return future

    def submit_all(self, fn: Callable, tasks: Sequence[Any]) -> List[Any]:
        executor = self._require_executor()
        futures = [executor.submit(fn, task) for task in tasks]
        self._futures.extend(futures)
        return futures

    def imap(self, fn: Callable, tasks: Sequence[Any]) -> Iterator[Any]:
        for future in self.submit_all(fn, tasks):
            yield future.result()

    def map(self, fn: Callable, tasks: Sequence[Any]) -> List[Any]:
        return list(self.imap(fn, tasks))


def _make_pool(executor: str, jobs: int):
    if executor == "thread":
        return ThreadPool(jobs)
    return ProcessPool(jobs)


class _TaskResult:
    """Envelope a pooled task sends back: payload + measurements.

    ``value`` is the task's result, possibly shm-encoded
    (:func:`repro.parallel_shm.encode_result`); ``report`` the worker's
    trace session report when the parent had tracing on; ``duration_s``
    the task's wall time on the worker's clock, which the parent records
    in the ``parallel.chunk.wall_s`` histogram when tracing.
    """

    __slots__ = ("value", "report", "duration_s")

    def __init__(
        self, value: Any, report: Optional[dict], duration_s: float
    ) -> None:
        self.value = value
        self.report = report
        self.duration_s = duration_s


def _pooled_task(
    fn: Callable,
    token: Optional[str],
    threshold: int,
    traced: bool,
    task: Any,
) -> "_TaskResult":
    """Run one pooled task (worker side of the process pool).

    Wrapped around the task function with ``functools.partial`` so it
    stays picklable by reference.  Three concerns compose here:

    - the task runs inside its own trace session when the parent has
      tracing enabled, and ships spans + metrics back in the envelope;
    - its wall time is measured unconditionally;
    - with a run ``token``, large result arrays are moved into shared
      memory (:func:`repro.parallel_shm.encode_result`) and the token is
      installed as the worker's active token while the task runs, so
      any segments the task itself publishes are swept by the parent's
      teardown if this worker dies before delivering them.
    """
    previous = parallel_shm.set_current_token(token)
    try:
        if traced:
            from .obs import trace_session

            with trace_session() as session:
                chunk = obs_trace.timed_span(
                    "parallel.chunk", fn=getattr(fn, "__name__", str(fn))
                )
                try:
                    value = fn(task)
                finally:
                    chunk.finish()
            report = session.report()
            duration = chunk.duration_s
        else:
            chunk = obs_trace.timed_span("parallel.chunk")
            try:
                value = fn(task)
            finally:
                chunk.finish()
            report = None
            duration = chunk.duration_s
        if token is not None:
            value = parallel_shm.encode_result(value, token, threshold)
        return _TaskResult(value, report, duration)
    finally:
        parallel_shm.set_current_token(previous)


def _threaded_task(fn: Callable, traced: bool, task: Any) -> "_TaskResult":
    """Thread-pool twin of :func:`_pooled_task`: no token, no encoding.

    Trace sessions are thread-local, so the worker thread records into
    its own session and the envelope carries the report back to the
    parent thread exactly like the process path — span ids share the
    parent's pid but draw from one process-wide atomic counter, so they
    never collide.
    """
    if traced:
        from .obs import trace_session

        with trace_session() as session:
            chunk = obs_trace.timed_span(
                "parallel.chunk", fn=getattr(fn, "__name__", str(fn))
            )
            try:
                value = fn(task)
            finally:
                chunk.finish()
        return _TaskResult(value, session.report(), chunk.duration_s)
    chunk = obs_trace.timed_span("parallel.chunk")
    try:
        value = fn(task)
    finally:
        chunk.finish()
    return _TaskResult(value, None, chunk.duration_s)


def _consume(
    raw: Any, traced: bool, stats: Optional[RunStats]
) -> Any:
    """Unwrap a task envelope on the parent side.

    Adopts the worker's trace spans and metrics (when traced), folds the
    chunk duration and shm traffic into ``stats``, and decodes any
    shared-memory handles into zero-copy arrays.
    """
    if not isinstance(raw, _TaskResult):
        return raw
    if traced and raw.report is not None and obs_trace.enabled():
        obs_trace.current_recorder().adopt(
            raw.report.get("spans", ()), obs_trace.current_span_id()
        )
        obs_metrics.merge_snapshot(raw.report.get("metrics"))
    if obs_trace.enabled():
        obs_metrics.observe(PARALLEL_CHUNK_WALL_S, raw.duration_s)
    value = raw.value
    if isinstance(value, parallel_shm._Encoded):
        transfer = parallel_shm.TransferStats()
        value = parallel_shm.decode_result(value, transfer)
        if obs_trace.enabled():
            obs_metrics.counter_add(PARALLEL_SHM_BYTES, transfer.shm_bytes)
            obs_metrics.counter_add(
                PARALLEL_SHM_SEGMENTS, transfer.segments
            )
        if stats is not None:
            stats.shm_bytes += transfer.shm_bytes
            stats.shm_segments += transfer.segments
    return value


def _run_inline(fn: Callable, task: Any) -> Any:
    """Serial-path twin of the pooled wrappers: same span, no pool."""
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


def _use_shm(executor: str, shm: Optional[bool]) -> bool:
    """Shm transfer policy for one pooled call.

    Threads share an address space — results are handed over as live
    objects — so the plane only ever engages on the process executor.
    ``shm=None`` defers to the environment policy
    (:func:`repro.parallel_shm.enabled`).
    """
    if executor != "process":
        return False
    if shm is None:
        return parallel_shm.enabled()
    return bool(shm) and parallel_shm.available()


def parallel_map(
    fn: Callable,
    tasks: Sequence[Any],
    n_jobs: Optional[int] = None,
    on_result: Optional[Callable[[int, Any], None]] = None,
    executor: Optional[str] = None,
    shm: Optional[bool] = None,
    stats: Optional[RunStats] = None,
) -> List[Any]:
    """Ordered ``[fn(t) for t in tasks]``, on a pool when ``n_jobs > 1``.

    With one job (or at most one task) everything runs inline in this
    process — no pool, no pickling — which is also the reference
    execution the parallel paths must match bitwise.  ``executor``
    selects worker processes (default) or threads; ``shm`` overrides
    the shared-memory transfer policy for this call (process executor
    only); ``stats`` records the executor and shm traffic of the call.

    ``on_result(index, result)`` fires in task order as each result is
    consumed (pooled or inline); chunked loops use it to stream progress
    events from the parent process, where the user's callback lives.
    """
    jobs = resolve_jobs(n_jobs)
    kind = resolve_executor(executor)
    results: List[Any] = []
    if jobs <= 1 or len(tasks) <= 1:
        if stats is not None:
            stats.executor, stats.jobs = "inline", 1
        for index, task in enumerate(tasks):
            value = _run_inline(fn, task)
            if on_result is not None:
                on_result(index, value)
            results.append(value)
        return results
    traced = obs_trace.enabled()
    if stats is not None:
        stats.executor, stats.jobs = kind, jobs
    if kind == "thread":
        wrapped = partial(_threaded_task, fn, traced)
        with ThreadPool(jobs) as pool:
            for index, raw in enumerate(pool.imap(wrapped, tasks)):
                value = _consume(raw, traced, stats)
                if on_result is not None:
                    on_result(index, value)
                results.append(value)
        return results
    token = parallel_shm.new_token() if _use_shm(kind, shm) else None
    wrapped = partial(_pooled_task, fn, token, parallel_shm.min_bytes(), traced)
    if token is not None:
        parallel_shm.track_token(token)
    try:
        with ProcessPool(jobs) as pool:
            for index, raw in enumerate(pool.imap(wrapped, tasks)):
                value = _consume(raw, traced, stats)
                if on_result is not None:
                    on_result(index, value)
                results.append(value)
    finally:
        if token is not None:
            # Sweep leftovers on every exit: a worker killed mid-chunk
            # created segments whose handles never arrived; a
            # KeyboardInterrupt abandoned undelivered results.  Either
            # way the names carry this run's token and die here.
            parallel_shm.release_token(token)
    return results


@contextmanager
def task_stream(
    fn: Callable,
    tasks: Sequence[Any],
    n_jobs: Optional[int] = None,
    executor: Optional[str] = None,
    shm: Optional[bool] = None,
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
    Like :func:`parallel_map`, pooled tasks carry their trace spans,
    chunk timings, and shared-memory payloads back to the parent.
    """
    jobs = resolve_jobs(n_jobs)
    kind = resolve_executor(executor)
    if jobs <= 1 or len(tasks) <= 1:
        if stats is not None:
            stats.executor, stats.jobs = "inline", 1
        yield (_run_inline(fn, task) for task in tasks)
        return
    traced = obs_trace.enabled()
    if stats is not None:
        stats.executor, stats.jobs = kind, jobs
    if kind == "thread":
        wrapped = partial(_threaded_task, fn, traced)
        with ThreadPool(jobs) as pool:
            yield (
                _consume(raw, traced, stats)
                for raw in pool.imap(wrapped, tasks)
            )
        return
    token = parallel_shm.new_token() if _use_shm(kind, shm) else None
    wrapped = partial(_pooled_task, fn, token, parallel_shm.min_bytes(), traced)
    if token is not None:
        parallel_shm.track_token(token)
    try:
        with ProcessPool(jobs) as pool:
            yield (
                _consume(raw, traced, stats)
                for raw in pool.imap(wrapped, tasks)
            )
    finally:
        if token is not None:
            parallel_shm.release_token(token)
