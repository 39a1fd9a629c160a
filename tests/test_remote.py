"""Distributed shard serving: routing, fault tolerance, exactness.

Three layers of coverage:

- **In-process** :class:`ShardServer` tests (no subprocess): protocol
  round trips over a real unix socket, event streaming, error frames.
- **Pure** scheduling-policy tests: consistent-hash ring determinism
  and stability, routing-key/cache-key agreement, address parsing,
  fault-spec parsing.
- **Real cluster** tests: 2 shard worker *processes* behind a
  :class:`ClusterScheduler`, executing mixed batches bitwise-identically
  to local execution, and recovering from each injected fault —
  SIGKILL mid-job, corrupt frame, dropped response (timeout), and slow
  network — with the attempt chain audited in ``metadata["cluster"]``
  and no leaked processes or sockets afterwards.
"""

import asyncio
import os

import numpy as np
import pytest

from repro.circuits.circuit import QuantumCircuit
from repro.service.engine import DONE, FAILED, execute_job, result_metadata
from repro.service.jobs import JobBatch, JobSpec
from repro.service.remote import faults as faults_mod
from repro.service.remote import wire
from repro.service.remote.cluster import (
    ClusterScheduler,
    HashRing,
    LocalCluster,
    ShardProcess,
    parse_address,
    routing_key,
    shard_addresses,
    shard_count,
)
from repro.service.remote.shard import ShardServer


def run(coro):
    return asyncio.run(coro)


def ghz(n):
    circuit = QuantumCircuit(n)
    circuit.h(0)
    for i in range(n - 1):
        circuit.cx(i, i + 1)
    return circuit


def mixed_batch():
    jobs = []
    for n in (2, 3, 4):
        jobs.append(JobSpec(ghz(n), task="simulate", backend="arrays"))
        jobs.append(
            JobSpec(
                ghz(n),
                task="expectation",
                backend="arrays",
                task_args={"pauli": "Z" * n},
            )
        )
        jobs.append(
            JobSpec(
                ghz(n),
                task="single_amplitude",
                backend="arrays",
                task_args={"basis_index": 0},
            )
        )
    return JobBatch(jobs)


def jobs_routed_to(addresses, per_shard):
    """Build jobs whose ring primary is each address, ``per_shard`` apiece.

    Socket paths (and so the ring) differ per test run, so tests that
    need "some work on shard A, some on shard B" construct it from the
    actual ring instead of hoping the hash spreads a fixed batch.
    """
    ring = HashRing(addresses)
    buckets = {address: [] for address in addresses}
    theta = 0.0
    while any(len(jobs) < per_shard for jobs in buckets.values()):
        circuit = ghz(3)
        circuit.rz(theta, 0)
        job = JobSpec(circuit, task="simulate", backend="arrays")
        owner = ring.route(routing_key(job))
        if len(buckets[owner]) < per_shard:
            buckets[owner].append(job)
        theta += 0.001
    return buckets


def assert_same_value(remote_value, local_value):
    """Remote and local results must agree bitwise."""
    if hasattr(local_value, "state"):
        assert remote_value.state.dtype == local_value.state.dtype
        assert remote_value.state.tobytes() == local_value.state.tobytes()
    else:
        left, right = remote_value[0], local_value[0]
        if isinstance(left, np.ndarray):
            assert left.tobytes() == right.tobytes()
        else:
            assert left == right


def assert_no_process(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return
    except PermissionError:
        pass
    pytest.fail(f"process {pid} is still alive")


# ---------------------------------------------------------------------------
# In-process shard server
# ---------------------------------------------------------------------------


class TestShardServer:
    def test_ping_reports_load_and_cache(self, tmp_path):
        async def scenario():
            async with ShardServer(
                unix_path=str(tmp_path / "s.sock")
            ) as server:
                scheduler = ClusterScheduler([server.address])
                beat = await scheduler.ping(server.address)
                assert beat is not None
                assert beat["pid"] == os.getpid()
                assert beat["inflight"] == 0
                assert "queue_depth" in beat and "cache_enabled" in beat

        run(scenario())

    def test_submit_roundtrip_bitwise(self, tmp_path):
        job = JobSpec(ghz(3), task="simulate", backend="arrays")
        local = execute_job(job)

        async def scenario():
            async with ShardServer(
                unix_path=str(tmp_path / "s.sock")
            ) as server:
                async with ClusterScheduler([server.address]) as scheduler:
                    return await scheduler.submit(job)

        outcome = run(scenario())
        assert outcome.status == DONE and outcome.error is None
        assert_same_value(outcome.value, local)
        audit = result_metadata(outcome.value)["cluster"]
        assert audit["attempts"][-1]["outcome"] == "ok"
        assert audit["shard"].startswith("unix://")

    def test_event_streaming(self, tmp_path):
        job = JobSpec(ghz(3), task="simulate", backend="arrays")
        events = []

        async def scenario():
            async with ShardServer(
                unix_path=str(tmp_path / "s.sock")
            ) as server:
                async with ClusterScheduler([server.address]) as scheduler:
                    return await scheduler.submit(
                        job, stream=True, on_event=events.append
                    )

        outcome = run(scenario())
        assert outcome.status == DONE
        assert events, "no progress events were streamed"
        assert events[-1]["done"] == events[-1]["total"]

    def test_job_failure_is_returned_not_raised(self, tmp_path):
        # A stabilizer-only backend refuses a non-Clifford circuit
        # deterministically: that is an application error, not a fault.
        circuit = QuantumCircuit(2)
        circuit.h(0)
        circuit.t(0)
        job = JobSpec(circuit, task="simulate", backend="stab")

        async def scenario():
            async with ShardServer(
                unix_path=str(tmp_path / "s.sock")
            ) as server:
                async with ClusterScheduler([server.address]) as scheduler:
                    return await scheduler.submit(job)

        outcome = run(scenario())
        assert outcome.status == FAILED
        assert outcome.error is not None

    def test_unknown_op_gets_error_response(self, tmp_path):
        async def scenario():
            async with ShardServer(
                unix_path=str(tmp_path / "s.sock")
            ) as server:
                _, target = parse_address(server.address)
                reader, writer = await asyncio.open_unix_connection(target)
                await wire.write_frame(
                    writer, wire.make_frame(wire.REQUEST, id=1, op="nope")
                )
                reply = await wire.read_frame(reader)
                writer.close()
                await writer.wait_closed()
                return reply

        reply = run(scenario())
        assert reply["ok"] is False
        assert "nope" in reply["error"]["message"]

    def test_corrupt_inbound_frame_drops_connection(self, tmp_path):
        async def scenario():
            async with ShardServer(
                unix_path=str(tmp_path / "s.sock")
            ) as server:
                _, target = parse_address(server.address)
                reader, writer = await asyncio.open_unix_connection(target)
                data = wire.encode_frame(
                    wire.make_frame(wire.REQUEST, id=1, op="ping")
                )
                writer.write(faults_mod.corrupt_bytes(data))
                await writer.drain()
                reply = await wire.read_frame(reader)
                writer.close()
                await writer.wait_closed()
                # The shard must still serve fresh connections.
                scheduler = ClusterScheduler([server.address])
                beat = await scheduler.ping(server.address)
                return reply, beat

        reply, beat = run(scenario())
        assert reply is None  # connection closed, nothing decoded
        assert beat is not None


# ---------------------------------------------------------------------------
# Scheduling policy (pure)
# ---------------------------------------------------------------------------


class TestHashRing:
    ADDRESSES = [f"tcp://127.0.0.1:{9000 + i}" for i in range(4)]

    def test_deterministic_and_complete(self):
        ring = HashRing(self.ADDRESSES)
        for key in ("a", "b", "c"):
            order = ring.preference(key)
            assert sorted(order) == sorted(self.ADDRESSES)
            assert order == HashRing(self.ADDRESSES).preference(key)

    def test_keys_spread_across_shards(self):
        ring = HashRing(self.ADDRESSES)
        owners = {ring.route(f"key-{i}") for i in range(200)}
        assert owners == set(self.ADDRESSES)

    def test_removal_only_moves_orphaned_keys(self):
        ring = HashRing(self.ADDRESSES)
        keys = [f"key-{i}" for i in range(200)]
        before = {key: ring.route(key) for key in keys}
        removed = self.ADDRESSES[0]
        shrunk = HashRing([a for a in self.ADDRESSES if a != removed])
        for key in keys:
            if before[key] != removed:
                assert shrunk.route(key) == before[key]

    def test_empty_ring(self):
        assert HashRing([]).route("anything") is None
        assert HashRing([]).preference("anything") == []


class TestRouting:
    def test_routing_key_is_cache_key(self):
        from repro.service import request_key
        from repro.service.engine import _cache_extra, _TASK_CAPABILITY

        job = JobSpec(ghz(3), task="simulate", backend="arrays")
        assert routing_key(job) == request_key(
            job.circuit,
            job.backend,
            _TASK_CAPABILITY[job.task],
            job.options,
            _cache_extra(job),
        )

    def test_identical_work_routes_identically(self):
        job_a = JobSpec(ghz(3), task="simulate", backend="arrays")
        job_b = JobSpec(ghz(3), task="simulate", backend="arrays")
        assert job_a.job_id != job_b.job_id
        assert routing_key(job_a) == routing_key(job_b)

    def test_uncacheable_jobs_still_route_deterministically(self, monkeypatch):
        from repro.service import cache as service_cache

        # A job the result cache cannot key must still route
        # deterministically, through the hash of its canonical JSON.
        monkeypatch.setattr(service_cache, "request_key", lambda *a: None)
        job_a = JobSpec(ghz(3), backend="arrays")
        job_b = JobSpec(ghz(3), backend="arrays")
        key = routing_key(job_a)
        assert key.startswith("route:")
        assert key == routing_key(job_b)

    def test_parse_address(self):
        assert parse_address("tcp://10.0.0.1:8123") == (
            "tcp",
            ("10.0.0.1", 8123),
        )
        assert parse_address("unix:///tmp/x.sock") == ("unix", "/tmp/x.sock")
        with pytest.raises(ValueError):
            parse_address("http://nope")
        with pytest.raises(ValueError):
            parse_address("tcp://hostonly")

    def test_shards_env_parsing(self):
        assert shard_count("") == 0
        assert shard_count("3") == 3
        assert shard_count("not-a-number") == 0
        assert shard_addresses("2") is None
        listed = "tcp://a:1, unix:///b.sock"
        assert shard_addresses(listed) == ["tcp://a:1", "unix:///b.sock"]
        assert shard_count(listed) == 2


class TestFaultSpec:
    def test_parse_full_spec(self):
        plan = faults_mod.parse_faults(
            "kill_after=3, corrupt_first=1, drop_first=2, delay_s=0.5"
        )
        assert plan.kill_after == 3
        assert plan.corrupt_first == 1
        assert plan.drop_first == 2
        assert plan.delay_s == 0.5
        assert not plan.is_noop

    def test_empty_spec_is_noop(self):
        assert faults_mod.parse_faults("").is_noop

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            faults_mod.parse_faults("explode=1")

    def test_malformed_entry_rejected(self):
        with pytest.raises(ValueError):
            faults_mod.parse_faults("kill_after")

    def test_corrupt_bytes_preserves_header(self):
        data = wire.encode_frame(wire.make_frame(wire.REQUEST, id=1, op="p"))
        mangled = faults_mod.corrupt_bytes(data)
        assert mangled[:8] == data[:8]
        assert mangled != data


# ---------------------------------------------------------------------------
# Real 2-shard cluster
# ---------------------------------------------------------------------------


class TestCluster:
    def test_batch_bitwise_and_cache_affinity(self):
        """The tentpole acceptance: a mixed batch over 2 real shard
        processes is bitwise identical to local execution, and a
        resubmission routes back to the cache-owning shards as pure
        warm hits."""
        batch = mixed_batch()

        async def scenario():
            async with LocalCluster(2) as scheduler:
                addresses = list(scheduler.shards)
                # Guarantee both shards own some of the work, whatever
                # this run's socket paths hash to.
                routed = jobs_routed_to(addresses, 2)
                jobs = batch.jobs + [
                    job for owned in routed.values() for job in owned
                ]
                results = await scheduler.submit_batch(JobBatch(jobs))
                resubmit = JobBatch(
                    [
                        JobSpec(
                            job.circuit,
                            task=job.task,
                            backend=job.backend,
                            task_args=dict(job.task_args),
                        )
                        for job in jobs
                    ]
                )
                again = await scheduler.submit_batch(resubmit)
                return jobs, routed, results, again, scheduler.stats()

        jobs, routed, results, again, stats = run(scenario())
        by_id = dict(zip([job.job_id for job in jobs], results))
        for outcome, job in zip(results, jobs):
            assert outcome.status == DONE, outcome.error
            assert_same_value(outcome.value, execute_job(job))
            audit = result_metadata(outcome.value)["cluster"]
            assert audit["attempts"][-1]["outcome"] == "ok"
        # Routing honored the ring: each targeted job landed on the
        # shard that owns its key.
        for address, owned in routed.items():
            for job in owned:
                audit = result_metadata(by_id[job.job_id].value)["cluster"]
                assert audit["shard"] == address
        # Affinity: identical work re-routes to the shard that cached
        # it, so >= 90% of the resubmitted jobs are warm hits.
        warm = sum(1 for outcome in again if outcome.cache_hit)
        assert warm >= 0.9 * len(again)
        for first, second in zip(results, again):
            assert_same_value(second.value, first.value)
            first_shard = result_metadata(first.value)["cluster"]["shard"]
            second_shard = result_metadata(second.value)["cluster"]["shard"]
            assert first_shard == second_shard
        assert stats["local_fallbacks"] == 0

    def test_shard_sigkill_mid_batch_loses_no_jobs(self, tmp_path):
        """Kill one shard after it accepts its second request: every job
        still completes (failover to the surviving shard), the recovery
        is audited, and nothing leaks."""
        victim = ShardProcess(
            unix_path=str(tmp_path / "victim.sock"),
            env={"REPRO_FAULTS": "kill_after=2,kill_delay_s=0.0"},
        ).start()
        survivor = ShardProcess(
            unix_path=str(tmp_path / "survivor.sock")
        ).start()
        victim_pid, survivor_pid = victim.pid, survivor.pid
        routed = jobs_routed_to([victim.address, survivor.address], 4)
        jobs = routed[victim.address] + routed[survivor.address]
        local = [execute_job(job) for job in jobs]

        async def scenario():
            async with ClusterScheduler(
                [victim.address, survivor.address],
                retries=1,
                evict_after=1,
                timeout_s=30.0,
                backoff_s=0.02,
            ) as scheduler:
                results = await scheduler.submit_batch(JobBatch(jobs))
                return results, scheduler.stats()

        try:
            results, stats = run(scenario())
        finally:
            victim.stop()
            survivor.stop()
        assert not victim.alive() and not survivor.alive()
        assert_no_process(victim_pid)
        assert_no_process(survivor_pid)
        assert not os.path.exists(str(tmp_path / "victim.sock"))
        recovered = 0
        for outcome, reference in zip(results, local):
            assert outcome.status == DONE, outcome.error
            assert_same_value(outcome.value, reference)
            audit = result_metadata(outcome.value)["cluster"]
            if len(audit["attempts"]) > 1:
                recovered += 1
                # Recovery ends on the shard that stayed alive.
                assert audit["shard"].endswith("survivor.sock")
                assert audit["attempts"][-1]["outcome"] == "ok"
        assert recovered >= 1, "the kill never hit an in-flight job"
        assert stats["failovers"] >= 1
        assert stats["shards"][victim.address]["healthy"] is False
        assert stats["local_fallbacks"] == 0

    def test_corrupt_frame_retries_then_succeeds(self, tmp_path):
        shard = ShardProcess(
            unix_path=str(tmp_path / "s.sock"),
            env={"REPRO_FAULTS": "corrupt_first=1"},
        ).start()
        job = JobSpec(ghz(3), task="simulate", backend="arrays")
        local = execute_job(job)

        async def scenario():
            async with ClusterScheduler(
                [shard.address], retries=2, evict_after=3, backoff_s=0.02
            ) as scheduler:
                outcome = await scheduler.submit(job)
                return outcome, scheduler.stats()

        try:
            outcome, stats = run(scenario())
        finally:
            shard.stop()
        assert outcome.status == DONE, outcome.error
        assert_same_value(outcome.value, local)
        audit = result_metadata(outcome.value)["cluster"]
        assert len(audit["attempts"]) >= 2
        assert "CorruptFrame" in audit["attempts"][0]["outcome"]
        assert audit["attempts"][-1]["outcome"] == "ok"
        assert stats["retries"] >= 1

    def test_dropped_response_times_out_then_recovers(self, tmp_path):
        shard = ShardProcess(
            unix_path=str(tmp_path / "s.sock"),
            env={"REPRO_FAULTS": "drop_first=1"},
        ).start()
        job = JobSpec(ghz(2), task="simulate", backend="arrays")

        async def scenario():
            async with ClusterScheduler(
                [shard.address],
                retries=2,
                evict_after=3,
                timeout_s=2.0,
                backoff_s=0.02,
            ) as scheduler:
                return await scheduler.submit(job)

        try:
            outcome = run(scenario())
        finally:
            shard.stop()
        assert outcome.status == DONE, outcome.error
        audit = result_metadata(outcome.value)["cluster"]
        assert len(audit["attempts"]) >= 2
        assert "TimeoutError" in audit["attempts"][0]["outcome"]

    def test_slow_network_times_out_and_falls_back_local(self, tmp_path):
        shard = ShardProcess(
            unix_path=str(tmp_path / "s.sock"),
            env={"REPRO_FAULTS": "delay_s=5"},
        ).start()
        job = JobSpec(ghz(3), task="simulate", backend="arrays")
        local = execute_job(job)

        async def scenario():
            async with ClusterScheduler(
                [shard.address],
                retries=0,
                evict_after=1,
                timeout_s=0.5,
                backoff_s=0.02,
            ) as scheduler:
                outcome = await scheduler.submit(job)
                return outcome, scheduler.stats()

        try:
            outcome, stats = run(scenario())
        finally:
            shard.stop()
        assert outcome.status == DONE, outcome.error
        assert_same_value(outcome.value, local)
        audit = result_metadata(outcome.value)["cluster"]
        assert audit["shard"] == "local"
        assert audit["attempts"][-1]["outcome"] == "local"
        assert stats["local_fallbacks"] == 1

    def test_dead_shard_evicted_then_readmitted(self, tmp_path):
        path = str(tmp_path / "s.sock")
        shard = ShardProcess(unix_path=path).start()
        address = shard.address
        job = JobSpec(ghz(2), task="simulate", backend="arrays")

        async def scenario():
            async with ClusterScheduler(
                [address],
                retries=0,
                evict_after=1,
                connect_timeout_s=0.5,
                probe_interval_s=0.1,
                backoff_s=0.02,
            ) as scheduler:
                shard.kill()
                shard.stop()
                outcome = await scheduler.submit(job)
                assert result_metadata(outcome.value)["cluster"][
                    "shard"
                ] == "local"
                assert scheduler.shards[address].healthy is False
                # Bring a replacement up on the same address; the
                # health probe must readmit it.
                replacement = ShardProcess(unix_path=path)
                await asyncio.to_thread(replacement.start)
                try:
                    for _ in range(50):
                        if scheduler.shards[address].healthy:
                            break
                        await asyncio.sleep(0.1)
                    assert scheduler.shards[address].healthy is True
                    second = await scheduler.submit(job)
                    assert (
                        result_metadata(second.value)["cluster"]["shard"]
                        == address
                    )
                finally:
                    await asyncio.to_thread(replacement.stop)

        run(scenario())

    def test_no_shards_configured_runs_local(self):
        job = JobSpec(ghz(3), task="simulate", backend="arrays")
        local = execute_job(job)

        async def scenario():
            async with ClusterScheduler([]) as scheduler:
                return await scheduler.submit(job)

        outcome = run(scenario())
        assert outcome.status == DONE
        assert_same_value(outcome.value, local)
        assert result_metadata(outcome.value)["cluster"]["shard"] == "local"
