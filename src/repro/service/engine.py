"""Asyncio job engine: submit/await/cancel simulations as a service.

The front door of :mod:`repro.service`::

    async with SimulationService(max_workers=4) as service:
        result = await service.simulate(circuit, backend="auto", seed=7)

        handle = await service.submit(circuit, task="sample",
                                      task_args={"shots": 100})
        async for event in service.events(handle):
            ...                        # live ProgressEvents
        outcome = await service.result(handle)

Everything composes from primitives that already exist: jobs run on the
library's own :class:`~repro.parallel.ThreadPool`; progress streaming and
cancellation reuse the ``progress=`` callback plumbing
(:mod:`repro.obs.progress`) — the engine installs a hook that fans
events out to async subscribers and raises
:class:`~repro.obs.progress.CancelledError` at the next gate-loop
checkpoint once a job is cancelled; per-tenant fairness comes from
:class:`~repro.service.queue.PriorityJobQueue` and
:class:`~repro.service.queue.TenantQuota` (a tenant's budget ceiling is
intersected into each of its jobs); result dedupe comes from the
content-addressed cache (:mod:`repro.service.cache`).

Jobs run on threads of this process: live progress events, prompt
cooperative cancellation, and no serialization.  The durable JSON form
(:meth:`~repro.service.jobs.JobSpec.to_json`) is what crosses process
boundaries — every request a shard (:mod:`repro.service.remote`)
serves is rebuilt from it.

Cancellation always yields a :class:`JobResult` whose ``partial``
field carries the last observed progress (kind, done, total) — the
promised "partial result" for an aborted run.
"""

from __future__ import annotations

import asyncio
import threading
from dataclasses import dataclass
from dataclasses import replace as _dc_replace
from functools import partial
from typing import Any, AsyncIterator, Dict, List, Optional

from ..circuits.circuit import QuantumCircuit
from ..obs import metrics as obs_metrics
from ..obs.progress import CancelledError, ProgressEvent
from ..parallel import ThreadPool
from . import cache as service_cache
from .jobs import JobBatch, JobSpec, validate_task_args
from .queue import PriorityJobQueue, TenantQuota, split_warm

QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

_TASK_CAPABILITY = {
    "simulate": "full_state",
    "sample": "sample",
    "expectation": "expectation",
    "single_amplitude": "single_amplitude",
}


def execute_job(job: JobSpec, progress: Optional[Any] = None) -> Any:
    """Run one job through the matching :mod:`repro.core` facade.

    Returns the facade's richest shape: a
    :class:`~repro.core.backend.SimulationResult` for ``simulate``, a
    ``(value, metadata)`` pair for the other tasks.
    """
    from ..core import backend as core_backend

    kwargs = job.options.as_dict()
    if progress is not None:
        kwargs["progress"] = progress
    task_args = job.task_args
    if job.task == "simulate":
        return core_backend.simulate(job.circuit, backend=job.backend, **kwargs)
    if job.task == "sample":
        seed = kwargs.pop("seed", 0)
        return core_backend.sample(
            job.circuit,
            int(task_args["shots"]),
            backend=job.backend,
            seed=seed,
            with_metadata=True,
            **kwargs,
        )
    if job.task == "expectation":
        return core_backend.expectation(
            job.circuit,
            task_args["pauli"],
            backend=job.backend,
            with_metadata=True,
            **kwargs,
        )
    if job.task == "single_amplitude":
        return core_backend.single_amplitude(
            job.circuit,
            int(task_args["basis_index"]),
            backend=job.backend,
            with_metadata=True,
            **kwargs,
        )
    raise ValueError(f"unknown task {job.task!r}")


def result_metadata(value: Any) -> Dict[str, Any]:
    """The metadata dict of any shape :func:`execute_job` returns."""
    if hasattr(value, "metadata"):
        return value.metadata
    if isinstance(value, tuple) and len(value) == 2:
        return value[1]
    return {}


def _cache_lookup(job: JobSpec) -> Optional[Any]:
    """Service-level warm-cache check for one job.

    The engine always installs an internal progress hook, which makes
    the dispatcher skip its own lookup — so the engine checks first,
    with the exact key the dispatcher would store under.
    """
    if job.options.trace:
        return None
    cache = service_cache.active_cache(job.options)
    if cache is None:
        return None
    key = service_cache.request_key(
        job.circuit,
        job.backend,
        _TASK_CAPABILITY[job.task],
        job.options,
        _cache_extra(job),
    )
    if key is None:
        return None
    hit = cache.get(key)
    if hit is None:
        return None
    value, meta, backend_name = hit
    meta["cache"] = {"hit": True, "key": key}
    if job.task == "simulate":
        from ..core.backend import SimulationResult

        return SimulationResult(backend_name, value, meta)
    return value, meta


def _cache_extra(job: JobSpec) -> Optional[Dict[str, Any]]:
    if job.task == "sample":
        return {"shots": int(job.task_args["shots"])}
    if job.task == "expectation":
        return {"pauli": str(job.task_args["pauli"])}
    if job.task == "single_amplitude":
        return {"basis_index": int(job.task_args["basis_index"])}
    return None


def _run_job(job: JobSpec, emit: Any) -> Any:
    """Worker body: warm-cache check, then a hooked facade run."""
    hit = _cache_lookup(job)
    if hit is not None:
        return hit
    return execute_job(job, progress=emit)


@dataclass
class JobResult:
    """Terminal outcome of one job (``await service.result(handle)``).

    ``status`` is :data:`DONE`, :data:`FAILED`, or :data:`CANCELLED`;
    ``value`` is the facade result on success; ``error`` the raised
    exception on failure; ``partial`` the last observed progress
    (``{"kind", "done", "total"}``) for cancelled — and failed — runs;
    ``cache_hit`` whether the value came from the result cache.
    """

    job_id: str
    status: str
    value: Any = None
    error: Optional[BaseException] = None
    partial: Optional[Dict[str, Any]] = None
    cache_hit: bool = False


class JobHandle:
    """Live view of one submitted job."""

    def __init__(self, job: JobSpec, future: "asyncio.Future") -> None:
        self.job = job
        self.status = QUEUED
        self.future = future
        self.cancel_event = threading.Event()
        self.last_event: Optional[ProgressEvent] = None
        self.subscribers: List["asyncio.Queue"] = []

    @property
    def job_id(self) -> str:
        return self.job.job_id

    @property
    def tenant(self) -> str:
        return self.job.tenant

    def partial_progress(self) -> Optional[Dict[str, Any]]:
        event = self.last_event
        if event is None:
            return None
        return {"kind": event.kind, "done": event.done, "total": event.total}


class SimulationService:
    """Async facade running jobs on a thread pool with quotas + cache.

    Use as an async context manager (or call :meth:`start`/:meth:`stop`).
    ``max_workers`` bounds concurrently running jobs; ``quotas`` maps
    tenant names to :class:`~repro.service.queue.TenantQuota`.
    """

    def __init__(
        self,
        max_workers: int = 2,
        quotas: Optional[Dict[str, TenantQuota]] = None,
        probe_cache: bool = True,
    ) -> None:
        self.max_workers = max(1, int(max_workers))
        self.probe_cache = bool(probe_cache)
        self._queue = PriorityJobQueue(quotas)
        self._handles: Dict[str, JobHandle] = {}
        self._pool: Optional[Any] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._running = 0

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> "SimulationService":
        if self._pool is not None:
            return self
        self._loop = asyncio.get_running_loop()
        self._pool = ThreadPool(self.max_workers)
        self._pool.__enter__()
        return self

    async def stop(self) -> None:
        """Cancel queued jobs, wait out running ones, release the pool."""
        if self._pool is None:
            return
        for handle in list(self._handles.values()):
            if handle.status == QUEUED:
                await self.cancel(handle)
        pending = [
            handle.future
            for handle in self._handles.values()
            if not handle.future.done()
        ]
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
        pool, self._pool = self._pool, None
        pool.__exit__(None, None, None)

    async def __aenter__(self) -> "SimulationService":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> bool:
        await self.stop()
        return False

    # -- submission ----------------------------------------------------------

    async def submit(
        self,
        circuit: Optional[QuantumCircuit] = None,
        *,
        job: Optional[JobSpec] = None,
        task: str = "simulate",
        backend: str = "auto",
        task_args: Optional[Dict[str, Any]] = None,
        tenant: str = "",
        priority: int = 0,
        probe_cache: Optional[bool] = None,
        **options: Any,
    ) -> JobHandle:
        """Queue one job; returns immediately with its :class:`JobHandle`.

        Accepts either a ``circuit`` plus facade-style keyword options,
        or a pre-built ``job=`` :class:`~repro.service.jobs.JobSpec`.
        Raises :class:`~repro.service.queue.QuotaExceeded` when the
        tenant's ``max_pending`` admission quota is full.

        Warm submissions short-circuit: unless cache probing is off
        (service-wide ``probe_cache=False`` or per-call override), the
        result cache is consulted *here*, and a hit returns an
        already-resolved handle — the job never enters the queue, never
        occupies a worker slot, and never charges the tenant's quotas.
        """
        if self._pool is None:
            raise RuntimeError("service not started (use 'async with')")
        if job is None:
            if circuit is None:
                raise TypeError("submit needs a circuit or a job=JobSpec")
            from ..core.options import SimOptions

            job = JobSpec(
                circuit=circuit,
                task=task,
                backend=backend,
                options=SimOptions.from_kwargs(**options),
                task_args=dict(task_args or {}),
                tenant=tenant,
                priority=priority,
            )
        validate_task_args(job.task, job.task_args)
        quota = self._queue.quota_for(job.tenant)
        effective = quota.effective_budget(job.options.budget)
        if effective is not job.options.budget:
            job = _dc_replace(
                job, options=_dc_replace(job.options, budget=effective)
            )
        probe = self.probe_cache if probe_cache is None else bool(probe_cache)
        if probe:
            hit = _cache_lookup(job)
            if hit is not None:
                return self._serve_warm(job, hit)
        handle = JobHandle(job, self._loop.create_future())
        self._handles[job.job_id] = handle
        try:
            self._queue.push(handle, job.priority, job.tenant)
        except BaseException:
            # A rejected admission must not leave an orphan handle whose
            # future nobody will ever resolve (stop() waits on those).
            del self._handles[job.job_id]
            raise
        self._pump()
        return handle

    def _serve_warm(self, job: JobSpec, hit: Any) -> JobHandle:
        """Resolve a cache hit on the spot, without queue or worker slot."""
        handle = JobHandle(job, self._loop.create_future())
        handle.status = DONE
        self._handles[job.job_id] = handle
        obs_metrics.counter_add(obs_metrics.SERVICE_JOBS_COMPLETED)
        obs_metrics.counter_add(obs_metrics.SERVICE_WARM_SERVED)
        handle.future.set_result(
            JobResult(job.job_id, DONE, value=hit, cache_hit=True)
        )
        return handle

    async def submit_batch(
        self,
        batch: JobBatch,
        *,
        probe_cache: Optional[bool] = None,
    ) -> List[JobHandle]:
        """Submit a :class:`~repro.service.jobs.JobBatch`, hits first.

        Cache-aware batch scheduling: the whole batch is probed against
        the result cache up front (:func:`~repro.service.queue.split_warm`),
        every warm job is served *immediately* with an already-resolved
        handle, and only then are the misses admitted to the queue — in
        their original batch order.  A hit-heavy batch therefore
        completes its hits without waiting behind (or occupying) a
        single worker slot.  Returns one handle per job, in batch order.
        A quota rejection on a cold job propagates after the earlier
        jobs (warm and cold) have been submitted, matching per-job
        ``submit`` semantics.
        """
        if self._pool is None:
            raise RuntimeError("service not started (use 'async with')")
        probe = self.probe_cache if probe_cache is None else bool(probe_cache)
        pairs = split_warm(
            batch.jobs, _cache_lookup if probe else lambda job: None
        )
        handles: List[Optional[JobHandle]] = [None] * len(pairs)
        for index, (job, hit) in enumerate(pairs):
            if hit is not None:
                handles[index] = self._serve_warm(job, hit)
        for index, (job, hit) in enumerate(pairs):
            if hit is None:
                handles[index] = await self.submit(job=job, probe_cache=False)
        return handles

    # -- scheduling ----------------------------------------------------------

    def _pump(self) -> None:
        """Dispatch queued jobs while worker slots and quotas allow."""
        while self._running < self.max_workers:
            handle = self._queue.pop_eligible()
            if handle is None:
                return
            self._dispatch(handle)

    def _dispatch(self, handle: JobHandle) -> None:
        handle.status = RUNNING
        self._running += 1
        raw_future = self._pool.submit(
            _run_job, handle.job, self._make_hook(handle)
        )
        wrapped = asyncio.wrap_future(raw_future, loop=self._loop)
        wrapped.add_done_callback(partial(self._on_done, handle))

    def _make_hook(self, handle: JobHandle) -> Any:
        """The progress callback a job runs under.

        Called from the worker thread at every gate-loop/trajectory
        checkpoint: records the latest event, invokes the job's own
        ``progress`` callback (if it supplied one — its exceptions
        cancel, exactly as outside the service), fans the event out to
        async subscribers through the loop, and turns a cancel request
        into a :class:`~repro.obs.progress.CancelledError` raised
        *inside* the simulation — the same cooperative path a user
        callback uses.
        """
        loop = self._loop
        user_callback = handle.job.options.progress

        def hook(event: ProgressEvent) -> None:
            handle.last_event = event
            if user_callback is not None:
                user_callback(event)
            for queue in list(handle.subscribers):
                loop.call_soon_threadsafe(queue.put_nowait, event)
            if handle.cancel_event.is_set():
                raise CancelledError(
                    f"job {handle.job_id} cancelled"
                )

        return hook

    def _on_done(self, handle: JobHandle, wrapped: "asyncio.Future") -> None:
        self._running -= 1
        self._queue.job_finished(handle.tenant)
        try:
            value = wrapped.result()
        except (CancelledError, asyncio.CancelledError):
            handle.status = CANCELLED
            obs_metrics.counter_add(obs_metrics.SERVICE_JOBS_FAILED)
            outcome = JobResult(
                handle.job_id,
                CANCELLED,
                partial=handle.partial_progress(),
            )
        except BaseException as exc:
            handle.status = FAILED
            obs_metrics.counter_add(obs_metrics.SERVICE_JOBS_FAILED)
            outcome = JobResult(
                handle.job_id,
                FAILED,
                error=exc,
                partial=handle.partial_progress(),
            )
        else:
            handle.status = DONE
            obs_metrics.counter_add(obs_metrics.SERVICE_JOBS_COMPLETED)
            meta = result_metadata(value)
            outcome = JobResult(
                handle.job_id,
                DONE,
                value=value,
                cache_hit=bool(meta.get("cache", {}).get("hit")),
            )
        if not handle.future.done():
            handle.future.set_result(outcome)
        self._finish_streams(handle)
        self._pump()

    def _finish_streams(self, handle: JobHandle) -> None:
        for queue in list(handle.subscribers):
            queue.put_nowait(None)
        handle.subscribers.clear()

    # -- consumption ---------------------------------------------------------

    async def result(self, handle: JobHandle) -> JobResult:
        """Wait for a job's terminal :class:`JobResult` (never raises)."""
        return await handle.future

    async def cancel(self, handle: JobHandle) -> bool:
        """Request cancellation; ``True`` if the job will not complete.

        Queued jobs are withdrawn immediately.  Running jobs stop
        cooperatively at their next progress checkpoint.
        """
        handle.cancel_event.set()
        if handle.status == QUEUED and self._queue.remove(handle):
            handle.status = CANCELLED
            obs_metrics.counter_add(obs_metrics.SERVICE_JOBS_FAILED)
            if not handle.future.done():
                handle.future.set_result(
                    JobResult(
                        handle.job_id,
                        CANCELLED,
                        partial=handle.partial_progress(),
                    )
                )
            self._finish_streams(handle)
            self._pump()
            return True
        if handle.status == RUNNING:
            return True
        return handle.status == CANCELLED

    async def events(self, handle: JobHandle) -> AsyncIterator[ProgressEvent]:
        """Async stream of a job's :class:`ProgressEvent`s until terminal."""
        if handle.future.done():
            return
        queue: "asyncio.Queue" = asyncio.Queue()
        handle.subscribers.append(queue)
        try:
            while True:
                event = await queue.get()
                if event is None:
                    return
                yield event
        finally:
            if queue in handle.subscribers:
                handle.subscribers.remove(queue)

    async def simulate(
        self,
        circuit: QuantumCircuit,
        backend: str = "auto",
        **options: Any,
    ) -> Any:
        """Submit-and-await sugar for one full-state simulation.

        Returns the :class:`~repro.core.backend.SimulationResult`;
        re-raises the job's exception on failure and
        :class:`~repro.obs.progress.CancelledError` on cancellation.
        """
        handle = await self.submit(circuit, backend=backend, **options)
        outcome = await self.result(handle)
        if outcome.status == DONE:
            return outcome.value
        if outcome.status == CANCELLED:
            raise CancelledError(
                f"job {outcome.job_id} cancelled "
                f"(partial progress: {outcome.partial})"
            )
        raise outcome.error

    # -- introspection -------------------------------------------------------

    def handle(self, job_id: str) -> Optional[JobHandle]:
        return self._handles.get(job_id)

    def queue_depth(self) -> int:
        return self._queue.depth()


__all__ = [
    "CANCELLED",
    "DONE",
    "FAILED",
    "JobHandle",
    "JobResult",
    "QUEUED",
    "RUNNING",
    "SimulationService",
    "execute_job",
    "result_metadata",
]
