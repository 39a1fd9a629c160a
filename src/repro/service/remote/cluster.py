"""Cluster scheduler: cache-affinity routing with fault-tolerant RPC.

The client half of the distributed serving tier.  A
:class:`ClusterScheduler` holds a set of shard addresses and routes each
:class:`~repro.service.jobs.JobSpec` by consistent-hashing the job's
*result-cache content key* (the same key
:mod:`repro.service.cache` stores results under).  Identical work
therefore lands on the same shard run after run, so a resubmitted batch
is answered from that shard's warm cache without executing anything —
cache affinity is the scheduling policy, not an optimization pass.

Failure semantics, in escalation order:

1. **Retry** — a transport failure (refused/reset connection, request
   timeout, corrupt frame) retries the same shard up to ``retries``
   times with exponential backoff and jitter.  Application-level
   failures (the job itself raised) are deterministic and are returned
   immediately, never retried.
2. **Failover** — a shard that exhausts its retries is marked failed;
   after ``evict_after`` consecutive failed requests it is evicted from
   the ring and the job fails over to the next shard on the ring.
3. **Local fallback** — with no healthy shard left, the scheduler
   degrades to in-process execution through
   :func:`~repro.service.engine.execute_job`, so a dead cluster slows
   answers down rather than losing them.

A background probe pings evicted shards every ``probe_interval_s`` and
readmits them on a successful heartbeat.  Every routed job carries its
full attempt chain in ``metadata["cluster"]`` for audit, and the RPC
layer feeds ``cluster.rpc.latency_s`` / ``cluster.retries`` /
``cluster.failovers`` / ``cluster.local_fallbacks`` in
:mod:`repro.obs.metrics`.

:class:`ShardProcess` and :class:`LocalCluster` spawn real shard worker
processes (``python -m repro.service.remote.shard``) for tests,
benchmarks, and the ``REPRO_SHARDS`` CI profile.
"""

from __future__ import annotations

import asyncio
import bisect
import hashlib
import os
import random
import subprocess
import sys
import tempfile
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ...obs import metrics as obs_metrics
from .. import cache as service_cache
from ..engine import (
    DONE,
    FAILED,
    JobResult,
    _cache_extra,
    _cache_lookup,
    _TASK_CAPABILITY,
    execute_job,
    result_metadata,
)
from ..jobs import JobBatch, JobSpec
from . import wire
from .shard import decode_job_result

SHARDS_ENV_VAR = "REPRO_SHARDS"
"""Cluster sizing/addressing knob.

An integer ``N`` asks test/CI harnesses to stand up ``N`` local shard
processes; a comma-separated list of ``tcp://host:port`` /
``unix:///path`` addresses points at an existing fleet.
"""

DEFAULT_VNODES = 64


def routing_key(job: JobSpec) -> str:
    """The consistent-hash key for a job: its cache content key.

    Every job that can cross the wire has one — traced and
    progress-streaming runs included, because the key leaves out the
    result-invariant options.  A job with an explicit contraction
    ``plan`` has neither a key nor a wire form, so it raises
    ``TypeError``.
    """
    key = service_cache.request_key(
        job.circuit,
        job.backend,
        _TASK_CAPABILITY[job.task],
        job.options,
        _cache_extra(job),
    )
    if key is None:
        raise TypeError(
            "a job with an explicit contraction plan= has no routing key; "
            "drop plan= to submit it to a cluster"
        )
    return key


def parse_address(address: str) -> Tuple[str, Any]:
    """Split ``tcp://host:port`` / ``unix:///path`` into (scheme, target)."""
    if address.startswith("unix://"):
        return "unix", address[len("unix://"):]
    if address.startswith("tcp://"):
        rest = address[len("tcp://"):]
        host, _, port = rest.rpartition(":")
        if not host or not port.isdigit():
            raise ValueError(f"malformed shard address {address!r}")
        return "tcp", (host, int(port))
    raise ValueError(
        f"shard address {address!r} must start with tcp:// or unix://"
    )


def shard_addresses(env: Optional[str] = None) -> Optional[List[str]]:
    """Addresses from ``REPRO_SHARDS``, or ``None`` if it is a count/unset."""
    spec = os.environ.get(SHARDS_ENV_VAR, "") if env is None else env
    spec = spec.strip()
    if not spec or "://" not in spec:
        return None
    return [part.strip() for part in spec.split(",") if part.strip()]


def shard_count(env: Optional[str] = None) -> int:
    """Shard count from ``REPRO_SHARDS`` (0 = distributed serving off)."""
    spec = os.environ.get(SHARDS_ENV_VAR, "") if env is None else env
    spec = spec.strip()
    if not spec:
        return 0
    if "://" in spec:
        return len(shard_addresses(spec) or ())
    try:
        return max(0, int(spec))
    except ValueError:
        return 0


class HashRing:
    """Consistent-hash ring with virtual nodes over shard addresses."""

    def __init__(
        self, addresses: Sequence[str], vnodes: int = DEFAULT_VNODES
    ) -> None:
        self.vnodes = int(vnodes)
        self._points: List[Tuple[int, str]] = []
        for address in addresses:
            for i in range(self.vnodes):
                token = hashlib.sha256(
                    f"{address}#{i}".encode("utf-8")
                ).digest()
                self._points.append(
                    (int.from_bytes(token[:8], "big"), address)
                )
        self._points.sort()
        self._keys = [point for point, _ in self._points]

    def __len__(self) -> int:
        return len({address for _, address in self._points})

    def preference(self, key: str) -> List[str]:
        """All distinct shards, in ring order from ``key``'s position.

        The first entry is the primary (cache-owning) shard; the rest is
        the failover order, so every job has a deterministic full
        itinerary.
        """
        if not self._points:
            return []
        token = hashlib.sha256(key.encode("utf-8")).digest()
        start = bisect.bisect(
            self._keys, int.from_bytes(token[:8], "big")
        ) % len(self._points)
        seen: List[str] = []
        for offset in range(len(self._points)):
            _, address = self._points[(start + offset) % len(self._points)]
            if address not in seen:
                seen.append(address)
        return seen

    def route(self, key: str) -> Optional[str]:
        order = self.preference(key)
        return order[0] if order else None


class ShardState:
    """Client-side view of one shard's health."""

    __slots__ = ("address", "healthy", "failures", "heartbeat", "routed")

    def __init__(self, address: str) -> None:
        self.address = address
        self.healthy = True
        self.failures = 0
        self.heartbeat: Optional[Dict[str, Any]] = None
        self.routed = 0


class ClusterScheduler:
    """Route jobs across shards with retry, failover, and local fallback."""

    def __init__(
        self,
        addresses: Sequence[str],
        *,
        timeout_s: float = 60.0,
        connect_timeout_s: float = 5.0,
        retries: int = 2,
        backoff_s: float = 0.05,
        backoff_max_s: float = 1.0,
        jitter: float = 0.25,
        evict_after: int = 2,
        probe_interval_s: float = 0.25,
        local_fallback: bool = True,
        vnodes: int = DEFAULT_VNODES,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.shards: Dict[str, ShardState] = {
            address: ShardState(address) for address in addresses
        }
        self.timeout_s = float(timeout_s)
        self.connect_timeout_s = float(connect_timeout_s)
        self.retries = int(retries)
        self.backoff_s = float(backoff_s)
        self.backoff_max_s = float(backoff_max_s)
        self.jitter = float(jitter)
        self.evict_after = int(evict_after)
        self.probe_interval_s = float(probe_interval_s)
        self.local_fallback = bool(local_fallback)
        self.vnodes = int(vnodes)
        self._rng = rng or random.Random()
        self._frame_id = 0
        self._probe_task: Optional[asyncio.Task] = None
        self.local_fallbacks = 0
        self.failovers = 0
        self.retries_done = 0

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> "ClusterScheduler":
        if self._probe_task is None and self.shards:
            self._probe_task = asyncio.create_task(self._probe_loop())
        return self

    async def stop(self) -> None:
        task, self._probe_task = self._probe_task, None
        if task is not None:
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass

    async def __aenter__(self) -> "ClusterScheduler":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> bool:
        await self.stop()
        return False

    # -- introspection -------------------------------------------------------

    def healthy_addresses(self) -> List[str]:
        return [s.address for s in self.shards.values() if s.healthy]

    def ring(self) -> HashRing:
        return HashRing(self.healthy_addresses(), vnodes=self.vnodes)

    def stats(self) -> Dict[str, Any]:
        return {
            "shards": {
                state.address: {
                    "healthy": state.healthy,
                    "failures": state.failures,
                    "routed": state.routed,
                    "heartbeat": state.heartbeat,
                }
                for state in self.shards.values()
            },
            "retries": self.retries_done,
            "failovers": self.failovers,
            "local_fallbacks": self.local_fallbacks,
        }

    # -- health --------------------------------------------------------------

    async def ping(self, address: str) -> Optional[Dict[str, Any]]:
        """One heartbeat round trip; ``None`` if the shard is unreachable."""
        try:
            frame = await asyncio.wait_for(
                self._request(address, self._make_request("ping")),
                timeout=self.connect_timeout_s + self.timeout_s,
            )
        except _TRANSPORT_ERRORS:
            return None
        except asyncio.TimeoutError:
            return None
        if frame.get("kind") != wire.HEARTBEAT:
            return None
        return frame.get("shard")

    async def _probe_loop(self) -> None:
        while True:
            await asyncio.sleep(self.probe_interval_s)
            for state in list(self.shards.values()):
                if state.healthy:
                    continue
                beat = await self.ping(state.address)
                if beat is not None:
                    state.healthy = True
                    state.failures = 0
                    state.heartbeat = beat
                    obs_metrics.counter_add(
                        obs_metrics.CLUSTER_SHARD_READMISSIONS
                    )

    def _note_failure(self, state: ShardState) -> None:
        state.failures += 1
        if state.healthy and state.failures >= self.evict_after:
            state.healthy = False
            obs_metrics.counter_add(obs_metrics.CLUSTER_SHARD_EVICTIONS)

    def _note_success(self, state: ShardState) -> None:
        state.failures = 0
        state.healthy = True
        state.routed += 1

    # -- transport -----------------------------------------------------------

    def _make_request(self, op: str, **payload: Any) -> Dict[str, Any]:
        self._frame_id += 1
        return wire.make_frame(
            wire.REQUEST, id=self._frame_id, op=op, **payload
        )

    async def _request(
        self,
        address: str,
        frame: Dict[str, Any],
        on_event: Optional[Callable[[Dict[str, Any]], None]] = None,
    ) -> Dict[str, Any]:
        """One request/response round trip on a fresh connection.

        Raises a transport error (ConnectionError/OSError/CorruptFrame/
        TimeoutError) for anything that justifies a retry; returns the
        terminal response/heartbeat frame otherwise.
        """
        scheme, target = parse_address(address)
        if scheme == "unix":
            opener = asyncio.open_unix_connection(target)
        else:
            opener = asyncio.open_connection(*target)
        reader, writer = await asyncio.wait_for(
            opener, timeout=self.connect_timeout_s
        )
        try:
            await wire.write_frame(writer, frame)
            while True:
                reply = await wire.read_frame(reader)
                if reply is None:
                    raise ConnectionResetError(
                        f"shard {address} closed the connection mid-request"
                    )
                kind = reply.get("kind")
                if kind == wire.EVENT:
                    if on_event is not None:
                        on_event(reply.get("event") or {})
                    continue
                if kind in (wire.RESPONSE, wire.HEARTBEAT):
                    return reply
                raise wire.ProtocolError(
                    f"unexpected frame kind {kind!r} from shard"
                )
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    def _backoff(self, attempt: int) -> float:
        base = min(self.backoff_max_s, self.backoff_s * (2.0 ** attempt))
        return base * (1.0 + self.jitter * self._rng.random())

    # -- scheduling ----------------------------------------------------------

    async def submit(
        self,
        job: JobSpec,
        *,
        stream: bool = False,
        on_event: Optional[Callable[[Dict[str, Any]], None]] = None,
    ) -> JobResult:
        """Execute one job on the cluster; never raises for job failures.

        The returned :class:`~repro.service.engine.JobResult` matches
        what the local :class:`~repro.service.engine.SimulationService`
        would produce for the same job, with the routing audit injected
        as ``metadata["cluster"]`` on successful results.
        """
        key = routing_key(job)
        attempts: List[Dict[str, Any]] = []
        request = self._make_request(
            "submit", job=job.to_dict(), stream=bool(stream)
        )
        itinerary = self.ring().preference(key)
        for rank, address in enumerate(itinerary):
            state = self.shards[address]
            if not state.healthy:
                continue
            if rank > 0:
                self.failovers += 1
                obs_metrics.counter_add(obs_metrics.CLUSTER_FAILOVERS)
            outcome = await self._submit_to_shard(
                state, request, attempts, on_event
            )
            if outcome is not None:
                self._finish(outcome, key, address, attempts)
                return outcome
        return await self._run_local(job, key, attempts)

    async def _submit_to_shard(
        self,
        state: ShardState,
        request: Dict[str, Any],
        attempts: List[Dict[str, Any]],
        on_event: Optional[Callable[[Dict[str, Any]], None]],
    ) -> Optional[JobResult]:
        """Try one shard with retry/backoff; ``None`` means move on."""
        for attempt in range(self.retries + 1):
            started = time.monotonic()
            try:
                reply = await asyncio.wait_for(
                    self._request(state.address, request, on_event),
                    timeout=self.timeout_s,
                )
            except (asyncio.TimeoutError, *_TRANSPORT_ERRORS) as exc:
                obs_metrics.observe(
                    obs_metrics.CLUSTER_RPC_LATENCY_S,
                    time.monotonic() - started,
                )
                attempts.append(
                    {
                        "shard": state.address,
                        "attempt": attempt,
                        "outcome": f"{type(exc).__name__}: {exc}",
                    }
                )
                self._note_failure(state)
                if not state.healthy:
                    return None
                if attempt < self.retries:
                    self.retries_done += 1
                    obs_metrics.counter_add(obs_metrics.CLUSTER_RETRIES)
                    await asyncio.sleep(self._backoff(attempt))
                continue
            obs_metrics.observe(
                obs_metrics.CLUSTER_RPC_LATENCY_S,
                time.monotonic() - started,
            )
            if not reply.get("ok", False):
                # The shard answered: this is a deterministic
                # application-level refusal, not a transport fault.
                error = reply.get("error")
                attempts.append(
                    {
                        "shard": state.address,
                        "attempt": attempt,
                        "outcome": "error",
                    }
                )
                self._note_success(state)
                return JobResult(
                    job_id=str(request.get("job", {}).get("job_id", "")),
                    status=FAILED,
                    error=(
                        wire.decode_exception(error)
                        if error is not None
                        else wire.RemoteExecutionError("shard refused job")
                    ),
                )
            attempts.append(
                {
                    "shard": state.address,
                    "attempt": attempt,
                    "outcome": "ok",
                }
            )
            self._note_success(state)
            return decode_job_result(reply["result"])
        return None

    def _finish(
        self,
        outcome: JobResult,
        key: str,
        address: str,
        attempts: List[Dict[str, Any]],
    ) -> None:
        if outcome.value is not None:
            meta = result_metadata(outcome.value)
            if isinstance(meta, dict):
                meta["cluster"] = {
                    "key": key,
                    "shard": address,
                    "cache_hit": bool(outcome.cache_hit),
                    "attempts": attempts,
                }

    async def _run_local(
        self,
        job: JobSpec,
        key: str,
        attempts: List[Dict[str, Any]],
    ) -> JobResult:
        """Graceful degradation: no healthy shard, execute in-process."""
        self.local_fallbacks += 1
        obs_metrics.counter_add(obs_metrics.CLUSTER_LOCAL_FALLBACKS)
        attempts.append({"shard": None, "outcome": "local"})
        hit = _cache_lookup(job)
        cache_hit = hit is not None
        try:
            if hit is not None:
                value = hit
            else:
                value = await asyncio.to_thread(execute_job, job)
        except BaseException as exc:  # noqa: BLE001 - job errors are data
            return JobResult(job_id=job.job_id, status=FAILED, error=exc)
        outcome = JobResult(
            job_id=job.job_id, status=DONE, value=value, cache_hit=cache_hit
        )
        self._finish(outcome, key, "local", attempts)
        return outcome

    async def submit_batch(
        self, batch: JobBatch, *, stream: bool = False
    ) -> List[JobResult]:
        """Execute a whole batch concurrently, results in batch order."""
        return list(
            await asyncio.gather(
                *(self.submit(job, stream=stream) for job in batch.jobs)
            )
        )

    async def shutdown_shards(self) -> None:
        """Ask every reachable shard to stop serving (best effort)."""
        for state in self.shards.values():
            try:
                await asyncio.wait_for(
                    self._request(
                        state.address, self._make_request("shutdown")
                    ),
                    timeout=self.connect_timeout_s,
                )
            except (asyncio.TimeoutError, *_TRANSPORT_ERRORS):
                continue


_TRANSPORT_ERRORS = (
    ConnectionError,
    BrokenPipeError,
    OSError,
    EOFError,
    wire.CorruptFrame,
    wire.ProtocolError,
)


class ShardProcess:
    """One shard worker subprocess (``python -m repro.service.remote.shard``)."""

    def __init__(
        self,
        *,
        unix_path: Optional[str] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        max_workers: int = 2,
        env: Optional[Dict[str, str]] = None,
        ready_timeout_s: float = 30.0,
    ) -> None:
        self.unix_path = unix_path
        self.host = host
        self.port = int(port)
        self.max_workers = int(max_workers)
        self.extra_env = dict(env or {})
        self.ready_timeout_s = float(ready_timeout_s)
        self.proc: Optional[subprocess.Popen] = None
        self.address: Optional[str] = None

    def start(self) -> "ShardProcess":
        if self.proc is not None:
            return self
        argv = [
            sys.executable,
            "-m",
            "repro.service.remote.shard",
            "--workers",
            str(self.max_workers),
        ]
        if self.unix_path is not None:
            argv += ["--unix", self.unix_path]
        else:
            argv += ["--host", self.host, "--port", str(self.port)]
        env = dict(os.environ)
        # The child must resolve the same `repro` package as this
        # process, wherever the test/bench harness put it.
        package_root = os.path.dirname(
            os.path.dirname(os.path.dirname(os.path.dirname(
                os.path.abspath(__file__)
            )))
        )
        existing = env.get("PYTHONPATH", "")
        env["PYTHONPATH"] = (
            package_root + os.pathsep + existing if existing else package_root
        )
        env.update(self.extra_env)
        self.proc = subprocess.Popen(
            argv,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=env,
            text=True,
        )
        deadline = time.monotonic() + self.ready_timeout_s
        line = ""
        while time.monotonic() < deadline:
            line = self.proc.stdout.readline()
            if line.startswith("READY "):
                self.address = line[len("READY "):].strip()
                return self
            if not line and self.proc.poll() is not None:
                break
        self.stop()
        raise RuntimeError(
            f"shard process did not become ready (last output {line!r})"
        )

    @property
    def pid(self) -> Optional[int]:
        return self.proc.pid if self.proc is not None else None

    def alive(self) -> bool:
        return self.proc is not None and self.proc.poll() is None

    def kill(self) -> None:
        """SIGKILL immediately (fault tests); still call :meth:`stop` after."""
        if self.proc is not None:
            try:
                self.proc.kill()
            except OSError:
                pass

    def stop(self) -> None:
        proc, self.proc = self.proc, None
        if proc is not None:
            if proc.stdout is not None:
                proc.stdout.close()
            from ...parallel import reap_process

            reap_process(proc)
        if self.unix_path is not None:
            try:
                os.unlink(self.unix_path)
            except OSError:
                pass

    def __enter__(self) -> "ShardProcess":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop()
        return False


class LocalCluster:
    """N local shard processes plus a scheduler wired to them.

    Each shard gets its **own** result-cache directory (under a private
    temp dir), so warm hits only happen when routing actually lands on
    the shard that computed the result — the property the affinity
    benchmark measures.  Pass ``shared_cache=True`` for a fleet that
    shares one disk cache instead (the cross-process coherence setup).
    """

    def __init__(
        self,
        n_shards: Optional[int] = None,
        *,
        max_workers: int = 2,
        cache: bool = True,
        shared_cache: bool = False,
        shard_env: Optional[Dict[str, str]] = None,
        scheduler_kwargs: Optional[Dict[str, Any]] = None,
    ) -> None:
        # Default fleet size honors the REPRO_SHARDS CI/test profile.
        self.n_shards = (
            int(n_shards) if n_shards is not None else (shard_count() or 2)
        )
        self.max_workers = int(max_workers)
        self.cache = bool(cache)
        self.shared_cache = bool(shared_cache)
        self.shard_env = dict(shard_env or {})
        self.scheduler_kwargs = dict(scheduler_kwargs or {})
        self.tmpdir: Optional[tempfile.TemporaryDirectory] = None
        self.processes: List[ShardProcess] = []
        self.scheduler: Optional[ClusterScheduler] = None

    def start_processes(self) -> List[ShardProcess]:
        if self.processes:
            return self.processes
        self.tmpdir = tempfile.TemporaryDirectory(prefix="repro-cluster-")
        root = self.tmpdir.name
        for i in range(self.n_shards):
            env = dict(self.shard_env)
            if self.cache:
                env.setdefault("REPRO_CACHE", "1")
                cache_dir = (
                    os.path.join(root, "cache-shared")
                    if self.shared_cache
                    else os.path.join(root, f"cache-{i}")
                )
                env.setdefault("REPRO_CACHE_DIR", cache_dir)
            proc = ShardProcess(
                unix_path=os.path.join(root, f"shard-{i}.sock"),
                max_workers=self.max_workers,
                env=env,
            )
            proc.start()
            self.processes.append(proc)
        return self.processes

    async def start(self) -> ClusterScheduler:
        await asyncio.to_thread(self.start_processes)
        self.scheduler = ClusterScheduler(
            [proc.address for proc in self.processes],
            **self.scheduler_kwargs,
        )
        await self.scheduler.start()
        return self.scheduler

    async def stop(self) -> None:
        scheduler, self.scheduler = self.scheduler, None
        if scheduler is not None:
            await scheduler.stop()
        await asyncio.to_thread(self.stop_processes)

    def stop_processes(self) -> None:
        processes, self.processes = self.processes, []
        for proc in processes:
            proc.stop()
        tmpdir, self.tmpdir = self.tmpdir, None
        if tmpdir is not None:
            tmpdir.cleanup()

    async def __aenter__(self) -> ClusterScheduler:
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> bool:
        await self.stop()
        return False


__all__ = [
    "SHARDS_ENV_VAR",
    "ClusterScheduler",
    "HashRing",
    "LocalCluster",
    "ShardProcess",
    "ShardState",
    "parse_address",
    "routing_key",
    "shard_addresses",
    "shard_count",
]
