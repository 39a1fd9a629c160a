"""Shard worker: an asyncio socket server around one SimulationService.

A shard is the unit of the distributed fleet — one process, one
:class:`~repro.service.engine.SimulationService` (so quotas, budget
intersection, the result cache, priority scheduling, and progress
streaming all apply exactly as in-process), and one asyncio server
speaking the :mod:`~repro.service.remote.wire` frame protocol over TCP
or a Unix socket.

Per connection, the shard multiplexes: every request frame carries an
``id``, each ``submit`` runs as its own asyncio task, and all frames the
shard sends back (events, responses, heartbeats) echo the request's
``id`` under a per-connection write lock.  A ``submit`` with
``stream=true`` forwards the job's live
:class:`~repro.obs.progress.ProgressEvent` stream as ``event`` frames
before the terminal ``response``; ``ping`` answers with a ``heartbeat``
carrying the shard's load (inflight jobs, queue depth), its result-cache
stats (the cluster scheduler's cache-affinity diagnostics), pid, and
uptime.  A client that disconnects mid-job gets its outstanding jobs
cancelled through the service's cooperative-cancellation path, so an
abandoned connection never strands a worker slot.

Run standalone (the form :class:`~repro.service.remote.cluster.ShardProcess`
spawns)::

    python -m repro.service.remote.shard --port 0        # TCP, OS port
    python -m repro.service.remote.shard --unix /tmp/s1  # Unix socket

The process prints ``READY <address>`` on stdout once listening.  Fault
injection (``REPRO_FAULTS``) hooks the frame read/write paths — see
:mod:`repro.service.remote.faults`.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import time
from typing import Any, Dict, Optional

from ...obs import metrics as obs_metrics
from .. import cache as service_cache
from ..engine import FAILED, JobResult, SimulationService
from ..jobs import JobSpec
from ..queue import TenantQuota
from . import faults as faults_mod
from . import wire


def encode_job_result(outcome: JobResult) -> Dict[str, Any]:
    """Wire form of one terminal :class:`~repro.service.engine.JobResult`."""
    data: Dict[str, Any] = {
        "job_id": outcome.job_id,
        "status": outcome.status,
        "cache_hit": bool(outcome.cache_hit),
    }
    if outcome.value is not None:
        data["value"] = wire.encode_value(outcome.value, strict=False)
    if outcome.error is not None:
        data["error"] = wire.encode_exception(outcome.error)
    if outcome.partial is not None:
        data["partial"] = wire.encode_value(outcome.partial, strict=False)
    return data


def decode_job_result(data: Dict[str, Any]) -> JobResult:
    """Rebuild a :class:`~repro.service.engine.JobResult` from the wire."""
    error = data.get("error")
    partial = data.get("partial")
    return JobResult(
        job_id=data.get("job_id", ""),
        status=data.get("status", FAILED),
        value=wire.decode_value(data["value"]) if "value" in data else None,
        error=wire.decode_exception(error) if error is not None else None,
        partial=wire.decode_value(partial) if partial is not None else None,
        cache_hit=bool(data.get("cache_hit")),
    )


class ShardServer:
    """One shard: a frame-protocol server over a :class:`SimulationService`."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        unix_path: Optional[str] = None,
        max_workers: int = 2,
        quotas: Optional[Dict[str, TenantQuota]] = None,
        faults: Optional[faults_mod.FaultPlan] = None,
    ) -> None:
        self.host = host
        self.port = int(port)
        self.unix_path = unix_path
        self.max_workers = int(max_workers)
        self.quotas = quotas
        self._faults = faults
        self._service: Optional[SimulationService] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._started_at = 0.0
        self.inflight = 0
        self.served = 0

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> "ShardServer":
        if self._server is not None:
            return self
        if self._faults is None:
            self._faults = faults_mod.active()
        self._service = SimulationService(
            max_workers=self.max_workers,
            quotas=self.quotas,
        )
        await self._service.start()
        if self.unix_path is not None:
            # A stale socket file from a SIGKILLed predecessor must not
            # block the bind; connect attempts to it would fail anyway.
            try:
                os.unlink(self.unix_path)
            except OSError:
                pass
            self._server = await asyncio.start_unix_server(
                self._handle_connection, path=self.unix_path
            )
        else:
            self._server = await asyncio.start_server(
                self._handle_connection, self.host, self.port
            )
            self.port = self._server.sockets[0].getsockname()[1]
        self._started_at = time.monotonic()
        return self

    async def stop(self) -> None:
        server, self._server = self._server, None
        if server is not None:
            server.close()
            await server.wait_closed()
        service, self._service = self._service, None
        if service is not None:
            await service.stop()
        if self.unix_path is not None:
            try:
                os.unlink(self.unix_path)
            except OSError:
                pass

    async def __aenter__(self) -> "ShardServer":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> bool:
        await self.stop()
        return False

    async def serve_forever(self) -> None:
        if self._server is None:
            raise RuntimeError("shard not started")
        await self._server.serve_forever()

    @property
    def address(self) -> str:
        if self.unix_path is not None:
            return f"unix://{self.unix_path}"
        return f"tcp://{self.host}:{self.port}"

    # -- introspection -------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """The heartbeat payload: load, cache stats, identity."""
        cache_stats: Optional[Dict[str, int]] = None
        cache_enabled = service_cache.env_enabled()
        if cache_enabled:
            cache_stats = service_cache.default_cache().stats()
        return {
            "pid": os.getpid(),
            "address": self.address,
            "inflight": self.inflight,
            "served": self.served,
            "queue_depth": (
                self._service.queue_depth() if self._service else 0
            ),
            "max_workers": self.max_workers,
            "cache_enabled": cache_enabled,
            "cache": cache_stats,
            "uptime_s": (
                time.monotonic() - self._started_at
                if self._started_at
                else 0.0
            ),
        }

    # -- protocol ------------------------------------------------------------

    async def _handle_connection(
        self,
        reader: "asyncio.StreamReader",
        writer: "asyncio.StreamWriter",
    ) -> None:
        write_lock = asyncio.Lock()
        tasks: set = set()
        try:
            while True:
                try:
                    frame = await wire.read_frame(reader)
                except wire.WireError:
                    # An unparseable inbound frame desynchronizes the
                    # stream; the only safe recovery is to drop the
                    # connection (the client treats it as transport
                    # failure and retries).
                    break
                if frame is None:
                    break
                self._faults.note_request()
                task = asyncio.create_task(
                    self._serve_frame(frame, writer, write_lock)
                )
                tasks.add(task)
                task.add_done_callback(tasks.discard)
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass
        finally:
            # The peer is gone: stop its jobs (cooperatively) rather
            # than letting abandoned work hold worker slots.
            for task in tasks:
                task.cancel()
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _send(
        self,
        writer: "asyncio.StreamWriter",
        lock: "asyncio.Lock",
        frame: Dict[str, Any],
    ) -> None:
        async with lock:
            await wire.write_frame(writer, frame, faults=self._faults)

    async def _serve_frame(
        self,
        frame: Dict[str, Any],
        writer: "asyncio.StreamWriter",
        lock: "asyncio.Lock",
    ) -> None:
        frame_id = frame.get("id")
        try:
            if frame.get("kind") != wire.REQUEST:
                raise wire.ProtocolError(
                    f"shard expects request frames, got {frame.get('kind')!r}"
                )
            op = frame.get("op")
            if op == "ping":
                await self._send(
                    writer,
                    lock,
                    wire.make_frame(
                        wire.HEARTBEAT, id=frame_id, shard=self.snapshot()
                    ),
                )
                return
            if op == "submit":
                await self._serve_submit(frame, writer, lock)
                return
            if op == "shutdown":
                await self._send(
                    writer,
                    lock,
                    wire.make_frame(wire.RESPONSE, id=frame_id, ok=True),
                )
                asyncio.get_event_loop().call_soon(
                    lambda: asyncio.ensure_future(self.stop())
                )
                return
            raise wire.ProtocolError(f"unknown request op {op!r}")
        except asyncio.CancelledError:
            raise
        except BaseException as exc:
            try:
                await self._send(
                    writer,
                    lock,
                    wire.make_frame(
                        wire.RESPONSE,
                        id=frame_id,
                        ok=False,
                        error=wire.encode_exception(exc),
                    ),
                )
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _serve_submit(
        self,
        frame: Dict[str, Any],
        writer: "asyncio.StreamWriter",
        lock: "asyncio.Lock",
    ) -> None:
        frame_id = frame.get("id")
        job = JobSpec.from_dict(frame["job"])
        stream = bool(frame.get("stream"))
        handle = await self._service.submit(job=job)
        self.inflight += 1
        obs_metrics.gauge_max(obs_metrics.SHARD_INFLIGHT, self.inflight)
        forwarder: Optional[asyncio.Task] = None
        if stream and not handle.future.done():
            forwarder = asyncio.create_task(
                self._forward_events(handle, frame_id, writer, lock)
            )
        try:
            outcome = await self._service.result(handle)
        except asyncio.CancelledError:
            # Connection teardown: withdraw/cancel the job cooperatively.
            await self._service.cancel(handle)
            raise
        finally:
            self.inflight -= 1
            self.served += 1
            if forwarder is not None:
                await asyncio.wait({forwarder})
        await self._send(
            writer,
            lock,
            wire.make_frame(
                wire.RESPONSE,
                id=frame_id,
                ok=True,
                result=encode_job_result(outcome),
            ),
        )

    async def _forward_events(
        self,
        handle: Any,
        frame_id: Any,
        writer: "asyncio.StreamWriter",
        lock: "asyncio.Lock",
    ) -> None:
        forwarded = 0
        try:
            async for event in self._service.events(handle):
                forwarded += 1
                await self._send(
                    writer,
                    lock,
                    wire.make_frame(
                        wire.EVENT,
                        id=frame_id,
                        event={
                            "kind": event.kind,
                            "done": event.done,
                            "total": event.total,
                        },
                    ),
                )
            # A fast job can finish before this subscription attaches;
            # a streamed submit still gets its terminal progress event.
            if forwarded == 0 and handle.last_event is not None:
                event = handle.last_event
                await self._send(
                    writer,
                    lock,
                    wire.make_frame(
                        wire.EVENT,
                        id=frame_id,
                        event={
                            "kind": event.kind,
                            "done": event.done,
                            "total": event.total,
                        },
                    ),
                )
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass


async def _run_shard(args: argparse.Namespace) -> None:
    server = ShardServer(
        host=args.host,
        port=args.port,
        unix_path=args.unix,
        max_workers=args.workers,
    )
    await server.start()
    print(f"READY {server.address}", flush=True)
    try:
        await server.serve_forever()
    except asyncio.CancelledError:
        pass
    finally:
        await server.stop()


def main(argv: Optional[list] = None) -> None:
    parser = argparse.ArgumentParser(
        description="Run one repro simulation shard."
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=0, help="TCP port (0 = OS-assigned)"
    )
    parser.add_argument(
        "--unix", default=None, help="serve on this Unix socket path instead"
    )
    parser.add_argument("--workers", type=int, default=2)
    args = parser.parse_args(argv)
    try:
        asyncio.run(_run_shard(args))
    except KeyboardInterrupt:
        pass


if __name__ == "__main__":
    main()


__all__ = [
    "ShardServer",
    "decode_job_result",
    "encode_job_result",
    "main",
]
