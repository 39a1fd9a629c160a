"""Service tier: job format, result cache, key soundness, async engine.

Covers the simulation-as-a-service stack end to end: the durable JSON
job format round-trips bitwise; the content-addressed result cache
hits/misses/evicts/recovers correctly and never changes which bits a
request produces; the key provably excludes exactly the
result-invariant scheduling knobs (hypothesis audit); and the asyncio
engine schedules by priority, enforces tenant quotas, streams progress,
and returns partial results on cancellation.
"""

import asyncio
import glob
import os
import threading
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

import repro
from repro.circuits import library, random_circuits
from repro.circuits.circuit import Operation, QuantumCircuit
from repro.circuits.gates import Gate
from repro.core import (
    ResourceBudget,
    ResourceExhausted,
    SimulationResult,
    expectation,
    sample,
    simulate,
    simulate_many,
    single_amplitude,
)
from repro.core.options import RESULT_INVARIANT_FIELDS, SimOptions
from repro.service import (
    JobBatch,
    JobSpec,
    PriorityJobQueue,
    QuotaExceeded,
    ResultCache,
    SimulationService,
    TenantQuota,
    circuit_from_dict,
    circuit_to_dict,
    default_cache,
    request_key,
    reset_default_cache,
)
from repro.service.jobs import gate_from_dict, gate_to_dict, validate_task_args
from tests.conftest import random_unitary
from tests.strategies import seeds, small_circuits


@pytest.fixture(autouse=True)
def fresh_cache(tmp_path, monkeypatch):
    """Every test gets a pristine cache directory and a neutral policy.

    The suite may run under the CI service profile (``REPRO_CACHE=1``
    process-wide); this module tests both polarities explicitly, so it
    pins the env per test instead of inheriting it.
    """
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    monkeypatch.delenv("REPRO_CACHE_MAX_BYTES", raising=False)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "results"))
    reset_default_cache()
    yield
    reset_default_cache()


def run(coro):
    return asyncio.run(coro)


def assert_bitwise_equal(a: SimulationResult, b: SimulationResult):
    assert a.state.dtype == b.state.dtype
    assert a.state.shape == b.state.shape
    assert a.state.tobytes() == b.state.tobytes()


# ---------------------------------------------------------------------------
# Durable job format
# ---------------------------------------------------------------------------


class TestJobFormat:
    def test_jobspec_json_roundtrip_simulates_bitwise(self):
        circuit = library.hardware_efficient_ansatz(
            3, 2, list(np.linspace(0.1, 2.9, 18))
        )
        job = JobSpec(
            circuit=circuit,
            task="simulate",
            backend="arrays",
            options=SimOptions.from_kwargs(seed=11, fusion=True),
            tenant="acme",
            priority=3,
        )
        back = JobSpec.from_json(job.to_json())
        assert back.job_id == job.job_id
        assert back.task == "simulate"
        assert back.backend == "arrays"
        assert back.tenant == "acme"
        assert back.priority == 3
        assert back.options.seed == 11
        assert back.options.fusion is True
        a = simulate(circuit, backend="arrays", seed=11, fusion=True)
        b = simulate(back.circuit, backend="arrays", seed=11, fusion=True)
        assert_bitwise_equal(a, b)

    def test_measurement_and_condition_roundtrip(self):
        circuit = QuantumCircuit(2, name="feedforward")
        circuit.h(0)
        circuit.measure(0, 0)
        from repro.circuits import gates as g

        circuit.append(Operation(g.X, [1], condition=(0, 1)))
        data = circuit_to_dict(circuit)
        back = circuit_from_dict(data)
        assert back.num_clbits == circuit.num_clbits
        assert len(back.operations) == len(circuit.operations)
        assert back.operations[1].clbits == circuit.operations[1].clbits
        assert back.operations[2].condition == (0, 1)

    def test_raw_matrix_gate_roundtrip_exact(self):
        matrix = random_unitary(2, seed=17)
        gate = Gate("custom_u", 1, matrix)
        back = gate_from_dict(gate_to_dict(gate))
        assert back.name == "custom_u"
        assert back.matrix.dtype == np.complex128
        assert np.array_equal(back.matrix, np.asarray(matrix, dtype=np.complex128))

    def test_controls_serialize_as_sorted_set(self):
        circuit = QuantumCircuit(3)
        circuit.h(0)
        op_a = Operation(circuit.operations[0].gate, [2], controls=[1, 0])
        op_b = Operation(circuit.operations[0].gate, [2], controls=[0, 1])
        from repro.service.jobs import operation_to_dict

        assert operation_to_dict(op_a) == operation_to_dict(op_b)

    def test_batch_shard_and_roundtrip(self):
        jobs = [
            JobSpec(circuit=library.bell_pair(), backend="arrays", priority=i)
            for i in range(5)
        ]
        batch = JobBatch(jobs=jobs)
        back = JobBatch.from_json(batch.to_json())
        assert [j.job_id for j in back.jobs] == [j.job_id for j in jobs]
        shards = batch.shard(2)
        assert [len(s.jobs) for s in shards] == [3, 2]
        sharded_ids = {j.job_id for s in shards for j in s.jobs}
        assert sharded_ids == {j.job_id for j in jobs}

    def test_version_mismatch_rejected(self):
        job = JobSpec(circuit=library.bell_pair())
        data = job.to_dict()
        data["version"] = 999
        with pytest.raises(ValueError, match="version"):
            JobSpec.from_dict(data)

    def test_unknown_task_rejected(self):
        with pytest.raises(ValueError, match="unknown task"):
            JobSpec(circuit=library.bell_pair(), task="teleport")

    def test_validate_task_args(self):
        validate_task_args("simulate", {})
        validate_task_args("sample", {"shots": 8})
        for task, key in (
            ("sample", "shots"),
            ("expectation", "pauli"),
            ("single_amplitude", "basis_index"),
        ):
            with pytest.raises(ValueError, match=key):
                validate_task_args(task, {})

    def test_canonical_options_drop_scheduling_knobs(self):
        options = SimOptions.from_kwargs(seed=3, n_jobs=8, trace=True)
        data = options.canonical_dict()
        assert set(data) & set(RESULT_INVARIANT_FIELDS) == set()
        back = SimOptions.from_canonical(data)
        assert back.seed == 3
        assert back.n_jobs is None

    def test_plan_has_no_canonical_form(self):
        options = SimOptions.from_kwargs(plan=object())
        with pytest.raises(TypeError, match="plan"):
            options.canonical_dict()
        with pytest.raises(TypeError):
            JobSpec(circuit=library.bell_pair(), options=options).to_json()


# ---------------------------------------------------------------------------
# Request keys
# ---------------------------------------------------------------------------


class TestRequestKey:
    CIRCUIT = library.qft(3)

    def test_every_result_invariant_field_shares_the_key(self):
        alternates = {
            "n_jobs": 4,
            "trace": True,
            "progress": lambda event: None,
            "cache": True,
        }
        # The sweep must cover the exclusion list exactly: adding a field
        # to RESULT_INVARIANT_FIELDS without auditing it here is an error.
        assert set(alternates) == set(RESULT_INVARIANT_FIELDS)
        base = request_key(
            self.CIRCUIT, "arrays", "full_state", SimOptions.from_kwargs(seed=5)
        )
        assert base is not None
        for name, value in alternates.items():
            options = SimOptions.from_kwargs(seed=5, **{name: value})
            assert (
                request_key(self.CIRCUIT, "arrays", "full_state", options) == base
            ), f"scheduling knob {name!r} must not change the cache key"

    def test_key_is_pinned(self):
        """The key format is frozen: a change to SimOptions that leaves
        the result-relevant fields alone must not move stored entries."""
        options = SimOptions.from_kwargs(
            seed=7, n_jobs=2, budget=None, accuracy=None
        )
        assert request_key(
            self.CIRCUIT, "arrays", "full_state", options, None
        ) == "551b290c0a99d64717914ea8d4f3cffc1b290add83393e293601db854d781b8a"

    def test_result_relevant_fields_change_the_key(self):
        base = request_key(
            self.CIRCUIT, "arrays", "full_state", SimOptions.from_kwargs(seed=5)
        )
        variants = {
            "seed": 6,
            "method": "gather",
            "fusion": True,
            "max_fused_qubits": 3,
            "optimization_level": 1,
            "max_bond": 2,
            "cutoff": 1e-6,
            "track_peak": True,
            "budget": ResourceBudget(max_memory_bytes=1 << 30),
        }
        for name, value in variants.items():
            kwargs = {"seed": 5, name: value}
            options = SimOptions.from_kwargs(**kwargs)
            assert (
                request_key(self.CIRCUIT, "arrays", "full_state", options) != base
            ), f"result-relevant option {name!r} must change the cache key"

    def test_name_and_measurements_do_not_change_the_key(self):
        options = SimOptions.from_kwargs(seed=1)
        base = request_key(self.CIRCUIT, "arrays", "full_state", options)
        renamed = self.CIRCUIT.copy()
        renamed.name = "a-different-name"
        assert request_key(renamed, "arrays", "full_state", options) == base
        measured = self.CIRCUIT.copy()
        measured.measure_all()
        assert request_key(measured, "arrays", "full_state", options) == base

    def test_backend_task_and_extra_are_part_of_the_key(self):
        options = SimOptions.from_kwargs(seed=1)
        base = request_key(self.CIRCUIT, "arrays", "full_state", options)
        assert request_key(self.CIRCUIT, "dd", "full_state", options) != base
        assert request_key(self.CIRCUIT, "arrays", "sample", options) != base
        with_shots = request_key(
            self.CIRCUIT, "arrays", "sample", options, {"shots": 8}
        )
        assert with_shots != request_key(
            self.CIRCUIT, "arrays", "sample", options, {"shots": 16}
        )

    def test_uncacheable_requests_have_no_key(self):
        assert (
            request_key(
                self.CIRCUIT,
                "tn",
                "full_state",
                SimOptions.from_kwargs(plan=object()),
            )
            is None
        )


# ---------------------------------------------------------------------------
# ResultCache mechanics
# ---------------------------------------------------------------------------


class TestResultCache:
    def _triple(self, seed=0):
        rng = np.random.default_rng(seed)
        state = rng.normal(size=8) + 1j * rng.normal(size=8)
        meta = {
            "num_qubits": 3,
            "shape": (2, 2, 2),
            "norm": np.float64(1.25),
            "nested": {"x": [1, 2]},
        }
        return state, meta, "arrays"

    def test_roundtrip_preserves_types_exactly(self, tmp_path):
        cache = ResultCache(directory=str(tmp_path / "c"))
        state, meta, backend = self._triple()
        cache.put("k", state, meta, backend)
        value, got_meta, got_backend = cache.get("k")
        assert got_backend == "arrays"
        assert value.dtype == state.dtype
        assert np.array_equal(value, state)
        assert isinstance(got_meta["shape"], tuple)
        assert isinstance(got_meta["norm"], np.float64)
        assert got_meta["nested"] == {"x": [1, 2]}
        assert cache.stats()["hits"] == 1 and cache.stats()["stores"] == 1

    def test_hits_return_fresh_copies(self, tmp_path):
        cache = ResultCache(directory=str(tmp_path / "c"))
        state, meta, backend = self._triple()
        cache.put("k", state, meta, backend)
        first, first_meta, _ = cache.get("k")
        first[:] = 0
        first_meta["nested"]["x"].append(99)
        second, second_meta, _ = cache.get("k")
        assert np.array_equal(second, state)
        assert second_meta["nested"] == {"x": [1, 2]}

    def test_put_strips_report_and_cache_annotations(self, tmp_path):
        cache = ResultCache(directory=str(tmp_path / "c"))
        state, meta, backend = self._triple()
        meta["report"] = {"spans": []}
        meta["cache"] = {"hit": True}
        cache.put("k", state, meta, backend)
        _, got_meta, _ = cache.get("k")
        assert "report" not in got_meta and "cache" not in got_meta

    def test_persistence_across_instances(self, tmp_path):
        directory = str(tmp_path / "c")
        writer = ResultCache(directory=directory)
        state, meta, backend = self._triple()
        writer.put("k", state, meta, backend)
        reader = ResultCache(directory=directory, memory_entries=0)
        value, _, got_backend = reader.get("k")
        assert np.array_equal(value, state) and got_backend == "arrays"

    def test_corrupt_entry_recovers_to_miss(self, tmp_path):
        directory = str(tmp_path / "c")
        writer = ResultCache(directory=directory)
        state, meta, backend = self._triple()
        writer.put("k", state, meta, backend)
        (path,) = glob.glob(os.path.join(directory, "*.res"))
        with open(path, "wb") as handle:
            handle.write(b"not a pickle")
        reader = ResultCache(directory=directory, memory_entries=0)
        assert reader.get("k") is None
        stats = reader.stats()
        assert stats["corrupt"] == 1 and stats["misses"] == 1
        assert not os.path.exists(path)
        # The slot is reusable after recovery.
        reader.put("k", state, meta, backend)
        assert reader.get("k") is not None

    def test_disk_lru_eviction_under_byte_bound(self, tmp_path):
        directory = str(tmp_path / "c")
        state, meta, backend = self._triple()
        blob_size = os.path.getsize(
            self._sized_entry(directory, "probe", state, meta, backend)
        )
        cache = ResultCache(
            directory=directory,
            max_bytes=int(blob_size * 3.5),
            memory_entries=0,
        )
        cache.clear()
        for index in range(6):
            cache.put(f"k{index}", state, meta, backend)
            time.sleep(0.01)  # distinct mtimes so LRU order is unambiguous
        remaining = {
            os.path.basename(p)
            for p in glob.glob(os.path.join(directory, "*.res"))
        }
        assert cache.stats()["evictions"] >= 1
        assert len(remaining) <= 3
        assert "k5.res" in remaining  # newest survives
        assert "k0.res" not in remaining  # oldest goes first

    def _sized_entry(self, directory, key, state, meta, backend):
        probe = ResultCache(directory=directory, memory_entries=0)
        probe.put(key, state, meta, backend)
        return os.path.join(directory, key + ".res")

    def test_memory_only_cache(self):
        cache = ResultCache(directory=None)
        state, meta, backend = self._triple()
        cache.put("k", state, meta, backend)
        value, _, _ = cache.get("k")
        assert np.array_equal(value, state)
        assert cache.get("missing") is None

    def test_memory_tier_is_bounded(self, tmp_path):
        cache = ResultCache(directory=str(tmp_path / "c"), memory_entries=2)
        state, meta, backend = self._triple()
        for index in range(4):
            cache.put(f"k{index}", state, meta, backend)
        assert cache.stats()["memory_entries"] == 2


# ---------------------------------------------------------------------------
# Dispatcher integration
# ---------------------------------------------------------------------------


class TestCacheIntegration:
    def test_warm_hit_is_bitwise_and_skips_dispatch(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "1")
        circuit = library.qft(3)
        cold = simulate(circuit, backend="arrays", seed=9)
        assert "cache" not in cold.metadata
        assert default_cache().stats()["stores"] == 1
        with repro.trace_session() as session:
            warm = simulate(circuit, backend="arrays", seed=9, trace=False)
            report = session.report()
        assert warm.metadata["cache"]["hit"] is True
        assert_bitwise_equal(cold, warm)
        assert warm.backend == cold.backend
        span_names = [span["name"] for span in report["spans"]]
        assert "dispatch.attempt" not in span_names
        assert report["metrics"]["counters"].get("service.cache.hits") == 1.0
        assert default_cache().stats()["hits"] == 1

    def test_cache_off_is_todays_behavior(self):
        circuit = library.bell_pair()
        first = simulate(circuit, backend="arrays", seed=1)
        second = simulate(circuit, backend="arrays", seed=1)
        assert "cache" not in first.metadata and "cache" not in second.metadata
        stats = default_cache().stats()
        assert stats["stores"] == 0 and stats["hits"] == 0 and stats["misses"] == 0
        assert_bitwise_equal(first, second)

    def test_cache_false_option_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "1")
        circuit = library.bell_pair()
        simulate(circuit, backend="arrays", seed=1, cache=False)
        simulate(circuit, backend="arrays", seed=1, cache=False)
        assert default_cache().stats()["stores"] == 0

    def test_cache_true_option_overrides_unset_env(self):
        circuit = library.bell_pair()
        cold = simulate(circuit, backend="arrays", seed=1, cache=True)
        warm = simulate(circuit, backend="arrays", seed=1, cache=True)
        assert default_cache().stats()["stores"] == 1
        assert warm.metadata["cache"]["hit"] is True
        assert_bitwise_equal(cold, warm)

    def test_sample_warm_hit_identical_counts(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "1")
        circuit = library.ghz_state(3)
        cold_counts, cold_meta = sample(
            circuit, 64, backend="arrays", seed=3, with_metadata=True
        )
        warm_counts, warm_meta = sample(
            circuit, 64, backend="arrays", seed=3, with_metadata=True
        )
        assert warm_counts == cold_counts
        assert "cache" not in cold_meta
        assert warm_meta["cache"]["hit"] is True
        # Different shots is a different request.
        sample(circuit, 32, backend="arrays", seed=3)
        assert default_cache().stats()["stores"] == 2

    def test_expectation_and_amplitude_warm_hits(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "1")
        circuit = library.qft(3)
        cold_e, _ = expectation(circuit, "ZIZ", backend="arrays", with_metadata=True)
        warm_e, meta_e = expectation(
            circuit, "ZIZ", backend="arrays", with_metadata=True
        )
        assert warm_e == cold_e and meta_e["cache"]["hit"] is True
        cold_a, _ = single_amplitude(circuit, 3, backend="tn", with_metadata=True)
        warm_a, meta_a = single_amplitude(
            circuit, 3, backend="tn", with_metadata=True
        )
        assert warm_a == cold_a and meta_a["cache"]["hit"] is True

    def test_traced_request_probes_the_cache(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "1")
        circuit = library.qft(3)
        first = simulate(circuit, backend="arrays", seed=2, trace=True)
        assert "report" in first.metadata and "cache" not in first.metadata
        second = simulate(circuit, backend="arrays", seed=2, trace=True)
        assert second.metadata["cache"]["hit"] is True
        assert_bitwise_equal(first, second)
        (probe,) = second.metadata["report"]["spans"]
        assert probe["name"] == "cache.probe"
        assert probe["attributes"]["hit"] is True
        stats = default_cache().stats()
        assert stats["stores"] == 1 and stats["hits"] == 1

    def test_progress_bypasses_lookup_but_stores(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "1")
        circuit = library.qft(3)
        cold = simulate(circuit, backend="arrays", seed=2)
        events = []
        live = simulate(
            circuit, backend="arrays", seed=2, progress=events.append
        )
        assert events, "a progress-carrying run must execute and stream"
        assert "cache" not in live.metadata
        assert_bitwise_equal(cold, live)
        assert default_cache().stats()["hits"] == 0

    def test_corrupt_disk_entry_reexecutes_correctly(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "1")
        circuit = library.qft(3)
        cold = simulate(circuit, backend="arrays", seed=7)
        directory = os.environ["REPRO_CACHE_DIR"]
        (path,) = glob.glob(os.path.join(directory, "*.res"))
        with open(path, "wb") as handle:
            handle.write(b"garbage")
        reset_default_cache()  # drop the memory tier; force the disk read
        fresh = simulate(circuit, backend="arrays", seed=7)
        assert "cache" not in fresh.metadata
        assert default_cache().stats()["corrupt"] == 1
        assert_bitwise_equal(cold, fresh)

    def test_method_auto_is_rejected_before_any_cache_traffic(
        self, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE", "1")
        circuit = library.bell_pair()
        with pytest.raises(ValueError, match="einsum.*gather"):
            simulate(circuit, backend="arrays", seed=1, method="auto")
        with pytest.raises(ValueError, match="einsum.*gather"):
            SimOptions(method="auto")
        stats = default_cache().stats()
        assert stats["stores"] == 0 and stats["hits"] == 0


# ---------------------------------------------------------------------------
# Key-soundness audit (hypothesis)
# ---------------------------------------------------------------------------


class TestKeySoundness:
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(circuit=small_circuits(max_qubits=3, max_gates=10), seed=seeds())
    def test_equal_keys_imply_bitwise_equal_results(self, circuit, seed):
        """Two requests with the same key are interchangeable, per backend."""
        plain = SimOptions.from_kwargs(seed=seed)
        scheduled = SimOptions.from_kwargs(seed=seed, n_jobs=4, cache=False)
        renamed = circuit_from_dict(circuit_to_dict(circuit))
        renamed.name = "other-name"
        for backend in ("arrays", "dd", "mps"):
            base_key = request_key(circuit, backend, "full_state", plain)
            assert request_key(circuit, backend, "full_state", scheduled) == base_key
            assert request_key(renamed, backend, "full_state", plain) == base_key
            a = simulate(circuit, backend=backend, seed=seed)
            b = simulate(
                renamed,
                backend=backend,
                seed=seed,
                n_jobs=4,
                cache=False,
            )
            assert_bitwise_equal(a, b)

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(circuit=small_circuits(max_qubits=3, max_gates=10), seed=seeds())
    def test_observation_knobs_cannot_change_bits(self, circuit, seed):
        """trace/progress observe a run; they may never steer its bits."""
        base = simulate(circuit, backend="arrays", seed=seed)
        traced = simulate(circuit, backend="arrays", seed=seed, trace=True)
        streamed = simulate(
            circuit, backend="arrays", seed=seed, progress=lambda event: None
        )
        assert_bitwise_equal(base, traced)
        assert_bitwise_equal(base, streamed)

    @settings(
        max_examples=5,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(circuit=small_circuits(max_qubits=3, max_gates=10), seed=seeds())
    def test_batch_scheduling_knobs_cannot_change_bits(self, circuit, seed):
        """n_jobs picks workers, not results (the exclusion's basis)."""
        circuits = [circuit] * 3
        serial = simulate_many(circuits, backend="arrays", seed=seed)
        threaded = simulate_many(circuits, backend="arrays", seed=seed, n_jobs=2)
        for a, b in zip(serial, threaded):
            assert_bitwise_equal(a, b)


# ---------------------------------------------------------------------------
# Priority queue + quotas (sync unit tests)
# ---------------------------------------------------------------------------


class _Item:
    def __init__(self, label, tenant=""):
        self.label = label
        self.tenant = tenant


class TestPriorityJobQueue:
    def test_priority_then_fifo_order(self):
        queue = PriorityJobQueue()
        queue.push(_Item("slow"), 5)
        queue.push(_Item("fast"), 1)
        queue.push(_Item("fast-2"), 1)
        order = [queue.pop_eligible().label for _ in range(3)]
        assert order == ["fast", "fast-2", "slow"]

    def test_remove_withdraws_queued_item(self):
        queue = PriorityJobQueue()
        keep, drop = _Item("keep"), _Item("drop")
        queue.push(keep, 0)
        queue.push(drop, 0)
        assert queue.remove(drop) is True
        assert queue.remove(drop) is False
        assert queue.depth() == 1
        assert queue.pop_eligible() is keep
        assert queue.pop_eligible() is None

    def test_max_concurrent_skips_in_place(self):
        queue = PriorityJobQueue({"t": TenantQuota(max_concurrent=1)})
        first, second, other = _Item("a", "t"), _Item("b", "t"), _Item("c", "o")
        queue.push(first, 0, "t")
        queue.push(second, 0, "t")
        queue.push(other, 1, "o")
        assert queue.pop_eligible() is first
        # Tenant saturated: its next job is skipped, other tenants flow past.
        assert queue.pop_eligible() is other
        queue.job_finished("o")
        assert queue.pop_eligible() is None
        queue.job_finished("t")
        assert queue.pop_eligible() is second

    def test_max_pending_admission_control(self):
        queue = PriorityJobQueue({"t": TenantQuota(max_pending=1)})
        queue.push(_Item("a", "t"), 0, "t")
        with pytest.raises(QuotaExceeded) as excinfo:
            queue.push(_Item("b", "t"), 0, "t")
        assert excinfo.value.tenant == "t"
        queue.push(_Item("c", "o"), 0, "o")  # other tenants unaffected

    def test_effective_budget_intersection(self):
        quota = TenantQuota(
            budget=ResourceBudget(max_memory_bytes=100, max_seconds=10)
        )
        tightened = quota.effective_budget(ResourceBudget(max_memory_bytes=50))
        assert tightened.max_memory_bytes == 50
        assert tightened.max_seconds == 10
        assert quota.effective_budget(None).max_memory_bytes == 100
        # A job can only tighten its tenant's ceiling, never escape it.
        loose = quota.effective_budget(ResourceBudget(max_memory_bytes=10**9))
        assert loose.max_memory_bytes == 100


# ---------------------------------------------------------------------------
# Async engine
# ---------------------------------------------------------------------------


class TestSimulationService:
    def test_simulate_matches_direct_call_bitwise(self):
        circuit = library.qft(3)

        async def go():
            async with SimulationService(max_workers=2) as service:
                return await service.simulate(circuit, backend="arrays", seed=4)

        result = run(go())
        assert isinstance(result, SimulationResult)
        assert_bitwise_equal(result, simulate(circuit, backend="arrays", seed=4))

    def test_submit_result_for_every_task(self):
        circuit = library.ghz_state(3)

        async def go():
            async with SimulationService(max_workers=2) as service:
                handles = [
                    await service.submit(
                        circuit, task="sample", task_args={"shots": 32},
                        backend="arrays", seed=2,
                    ),
                    await service.submit(
                        circuit, task="expectation", task_args={"pauli": "ZZI"},
                        backend="arrays",
                    ),
                    await service.submit(
                        circuit, task="single_amplitude",
                        task_args={"basis_index": 0}, backend="tn",
                    ),
                ]
                return [await service.result(h) for h in handles]

        outcomes = run(go())
        assert all(outcome.status == "done" for outcome in outcomes)
        counts, _ = outcomes[0].value
        assert counts == sample(circuit, 32, backend="arrays", seed=2)
        value, _ = outcomes[1].value
        assert value == expectation(circuit, "ZZI", backend="arrays")
        amplitude, _ = outcomes[2].value
        assert amplitude == single_amplitude(circuit, 0, backend="tn")

    def test_events_stream_is_monotonic_and_terminates(self):
        circuit = random_circuits.random_circuit(3, 60, seed=8)

        async def go():
            async with SimulationService(max_workers=1) as service:
                attached = threading.Event()
                handle = await service.submit(
                    circuit, backend="arrays", seed=1,
                    progress=lambda event: attached.wait(10),
                )
                got = []

                async def collect():
                    async for event in service.events(handle):
                        got.append(event)

                collector = asyncio.create_task(collect())
                await asyncio.sleep(0.05)  # let collect() attach its queue
                attached.set()
                await collector
                outcome = await service.result(handle)
                return got, outcome

        events, outcome = run(go())
        assert outcome.status == "done"
        assert len(events) >= 2
        dones = [event.done for event in events]
        assert dones == sorted(dones)
        assert events[-1].done == events[-1].total

    def test_cancel_running_job_returns_partial_progress(self):
        circuit = random_circuits.random_circuit(4, 120, seed=5)

        async def go():
            async with SimulationService(max_workers=1) as service:
                started, release = threading.Event(), threading.Event()

                def hold(event):
                    started.set()
                    if not release.wait(10):
                        raise RuntimeError("never released")

                handle = await service.submit(
                    circuit, backend="arrays", seed=3, progress=hold
                )
                loop = asyncio.get_running_loop()
                assert await loop.run_in_executor(None, started.wait, 10)
                assert await service.cancel(handle) is True
                release.set()
                return await service.result(handle)

        outcome = run(go())
        assert outcome.status == "cancelled"
        assert outcome.value is None and outcome.error is None
        assert outcome.partial is not None
        assert outcome.partial["kind"] == "gates"
        assert outcome.partial["done"] >= 1

    def test_cancel_queued_job_before_dispatch(self):
        async def go():
            async with SimulationService(max_workers=1) as service:
                release = threading.Event()
                blocker = await service.submit(
                    library.qft(3), backend="arrays",
                    progress=lambda event: release.wait(10),
                )
                queued = await service.submit(library.bell_pair(), backend="arrays")
                assert service.queue_depth() == 1
                cancelled = await service.cancel(queued)
                release.set()
                outcome = await service.result(queued)
                blocker_outcome = await service.result(blocker)
                return cancelled, outcome, blocker_outcome

        cancelled, outcome, blocker_outcome = run(go())
        assert cancelled is True
        assert outcome.status == "cancelled" and outcome.partial is None
        assert blocker_outcome.status == "done"

    def test_priority_orders_dispatch(self):
        starts = []

        def tracker(label):
            def callback(event):
                if label not in starts:
                    starts.append(label)

            return callback

        async def go():
            async with SimulationService(max_workers=1) as service:
                release = threading.Event()
                blocker = await service.submit(
                    library.qft(3), backend="arrays",
                    progress=lambda event: release.wait(10),
                )
                low = await service.submit(
                    library.bell_pair(), backend="arrays", seed=1,
                    priority=5, progress=tracker("low"),
                )
                high = await service.submit(
                    library.ghz_state(3), backend="arrays", seed=2,
                    priority=1, progress=tracker("high"),
                )
                release.set()
                for handle in (blocker, low, high):
                    outcome = await service.result(handle)
                    assert outcome.status == "done"

        run(go())
        assert starts == ["high", "low"]

    def test_tenant_max_pending_rejects_submission(self):
        async def go():
            quotas = {"acme": TenantQuota(max_pending=1)}
            async with SimulationService(max_workers=1, quotas=quotas) as service:
                release = threading.Event()
                blocker = await service.submit(
                    library.qft(3), backend="arrays",
                    progress=lambda event: release.wait(10),
                )
                first = await service.submit(
                    library.bell_pair(), backend="arrays", tenant="acme"
                )
                with pytest.raises(QuotaExceeded) as excinfo:
                    await service.submit(
                        library.bell_pair(), backend="arrays", tenant="acme"
                    )
                assert excinfo.value.tenant == "acme"
                release.set()
                for handle in (blocker, first):
                    assert (await service.result(handle)).status == "done"

        run(go())

    def test_tenant_max_concurrent_defers_excess_jobs(self):
        async def go():
            quotas = {"acme": TenantQuota(max_concurrent=1)}
            async with SimulationService(max_workers=2, quotas=quotas) as service:
                release = threading.Event()
                second_started = threading.Event()
                other_started = threading.Event()
                first = await service.submit(
                    library.qft(3), backend="arrays", tenant="acme",
                    progress=lambda event: release.wait(10),
                )
                second = await service.submit(
                    library.bell_pair(), backend="arrays", tenant="acme",
                    progress=lambda event: second_started.set(),
                )
                other = await service.submit(
                    library.ghz_state(3), backend="arrays", tenant="bravo",
                    progress=lambda event: other_started.set(),
                )
                loop = asyncio.get_running_loop()
                assert await loop.run_in_executor(None, other_started.wait, 10)
                # With acme's only slot held, its second job must still wait
                # even though a worker is now free.
                assert (await service.result(other)).status == "done"
                assert not second_started.is_set()
                release.set()
                for handle in (first, second):
                    assert (await service.result(handle)).status == "done"
                assert second_started.is_set()

        run(go())

    def test_tenant_budget_ceiling_fails_oversized_jobs(self):
        async def go():
            quotas = {
                "tiny": TenantQuota(budget=ResourceBudget(max_memory_bytes=16))
            }
            async with SimulationService(max_workers=1, quotas=quotas) as service:
                handle = await service.submit(
                    library.qft(3), backend="arrays", tenant="tiny"
                )
                assert handle.job.options.budget.max_memory_bytes == 16
                return await service.result(handle)

        outcome = run(go())
        assert outcome.status == "failed"
        assert isinstance(outcome.error, ResourceExhausted)

    def test_warm_cache_resubmission_skips_execution(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "1")
        circuit = library.qft(3)

        async def go():
            async with SimulationService(max_workers=1) as service:
                cold_handle = await service.submit(
                    circuit, backend="arrays", seed=6
                )
                cold = await service.result(cold_handle)
                warm_handle = await service.submit(
                    circuit, backend="arrays", seed=6
                )
                warm = await service.result(warm_handle)
                return cold, warm

        cold, warm = run(go())
        assert cold.status == "done" and warm.status == "done"
        assert cold.cache_hit is False and warm.cache_hit is True
        assert warm.value.metadata["cache"]["hit"] is True
        assert_bitwise_equal(cold.value, warm.value)
        assert default_cache().stats()["hits"] >= 1

    def test_submit_prebuilt_jobspec_and_introspection(self):
        job = JobSpec(
            circuit=library.bell_pair(),
            backend="arrays",
            options=SimOptions.from_kwargs(seed=9),
        )

        async def go():
            async with SimulationService(max_workers=1) as service:
                handle = await service.submit(job=job)
                assert service.handle(job.job_id) is handle
                outcome = await service.result(handle)
                assert service.queue_depth() == 0
                return outcome

        outcome = run(go())
        assert outcome.status == "done" and outcome.job_id == job.job_id

    def test_failed_job_surfaces_the_exception(self):
        async def go():
            async with SimulationService(max_workers=1) as service:
                handle = await service.submit(
                    library.qft(3), task="expectation",
                    task_args={"pauli": "Z"},  # wrong length for 3 qubits
                    backend="arrays",
                )
                outcome = await service.result(handle)
                assert outcome.status == "failed"
                assert isinstance(outcome.error, Exception)
                with pytest.raises(Exception):
                    await service.simulate(
                        library.qft(3), backend="stab"
                    )  # non-Clifford on the stabilizer backend

        run(go())

    def test_events_after_completion_yield_nothing(self):
        async def go():
            async with SimulationService(max_workers=1) as service:
                handle = await service.submit(library.bell_pair(), backend="arrays")
                await service.result(handle)
                return [event async for event in service.events(handle)]

        assert run(go()) == []


# ---------------------------------------------------------------------------
# Accuracy and the cache key
# ---------------------------------------------------------------------------


class TestAccuracyCacheKeys:
    """The approximate tier must never alias exact results in the cache."""

    CIRCUIT = library.qft(3)

    @pytest.fixture(autouse=True)
    def _no_env_accuracy(self, monkeypatch):
        # These tests compare explicit targets against the *unset*
        # default; the CI approx profile (REPRO_ACCURACY process-wide)
        # would shift the baseline key under every request.
        monkeypatch.delenv("REPRO_ACCURACY", raising=False)

    def _key(self, **kwargs):
        return request_key(
            self.CIRCUIT, "mps", "full_state", SimOptions.from_kwargs(**kwargs)
        )

    def test_distinct_targets_get_distinct_keys(self):
        exact = self._key()
        keyed = {
            target: self._key(accuracy=target) for target in (0.9, 0.99, 0.999)
        }
        assert len(set(keyed.values())) == len(keyed)
        assert exact not in keyed.values()

    def test_accuracy_mode_is_part_of_the_key(self):
        fallback = self._key(accuracy=0.9)
        eager = self._key(accuracy={"target": 0.9, "mode": "eager"})
        assert fallback != eager

    def test_accuracy_one_shares_the_exact_key(self):
        # accuracy=1.0 normalizes to the exact spec, so a pinned request
        # may serve (and be served by) cached exact results.
        assert self._key(accuracy=1.0) == self._key()

    def test_approximate_hit_roundtrips_certificate_through_disk(
        self, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE", "1")
        circuit = random_circuits.brickwork_circuit(5, 3, seed=24)
        accuracy = {"target": 0.9, "mode": "eager"}
        cold = simulate(circuit, backend="mps", accuracy=accuracy)
        estimate = cold.metadata["fidelity_estimate"]
        assert default_cache().stats()["stores"] == 1
        reset_default_cache()  # drop the memory tier; force the disk read
        warm = simulate(circuit, backend="mps", accuracy=accuracy)
        assert warm.metadata["cache"]["hit"] is True
        got = warm.metadata["fidelity_estimate"]
        assert isinstance(got, float)
        assert got.hex() == float(estimate).hex()  # bitwise round-trip
        assert warm.metadata["accuracy"] == cold.metadata["accuracy"]
        assert_bitwise_equal(cold, warm)

    def test_exact_and_approximate_results_never_alias(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "1")
        circuit = random_circuits.brickwork_circuit(5, 3, seed=24)
        exact = simulate(circuit, backend="mps")
        approx = simulate(
            circuit, backend="mps", accuracy={"target": 0.9, "mode": "eager"}
        )
        assert "cache" not in approx.metadata  # distinct key: no false hit
        assert default_cache().stats()["stores"] == 2
        warm_exact = simulate(circuit, backend="mps")
        assert warm_exact.metadata["cache"]["hit"] is True
        assert "fidelity_estimate" not in warm_exact.metadata
        assert_bitwise_equal(exact, warm_exact)


# ---------------------------------------------------------------------------
# Cache-aware batch scheduling (warm hits never occupy pool slots)
# ---------------------------------------------------------------------------


class TestWarmBatchScheduling:
    def _jobs(self, count=4):
        jobs = []
        for i in range(count):
            circuit = library.ghz_state(3)
            circuit.rz(0.01 * (i + 1), 0)
            jobs.append(JobSpec(circuit, task="simulate", backend="arrays"))
        return jobs

    def _clone(self, job):
        return JobSpec(
            job.circuit,
            task=job.task,
            backend=job.backend,
            task_args=dict(job.task_args),
            tenant=job.tenant,
            priority=job.priority,
        )

    def test_warm_batch_never_occupies_a_pool_slot(self, monkeypatch):
        """The regression the satellite demands: a hit-heavy batch is
        answered from the cache at submit time — no queue admission, no
        worker dispatch, no quota charge."""
        monkeypatch.setenv("REPRO_CACHE", "1")
        jobs = self._jobs()

        async def go():
            async with SimulationService(max_workers=1) as service:
                # Prewarm through the service itself.
                cold = await service.submit_batch(JobBatch(jobs))
                for handle in cold:
                    outcome = await service.result(handle)
                    assert outcome.status == "done"

            async with SimulationService(max_workers=1) as service:
                dispatches = []
                original = SimulationService._dispatch

                def counting_dispatch(self, handle):
                    dispatches.append(handle.job_id)
                    return original(self, handle)

                monkeypatch.setattr(
                    SimulationService, "_dispatch", counting_dispatch
                )
                warm = await service.submit_batch(
                    JobBatch([self._clone(job) for job in jobs])
                )
                outcomes = [await service.result(h) for h in warm]
                return dispatches, warm, outcomes

        dispatches, warm, outcomes = run(go())
        assert dispatches == []  # not one pool slot occupied
        for handle, outcome in zip(warm, outcomes):
            assert handle.status == "done"
            assert outcome.cache_hit is True
            assert outcome.error is None

    def test_mixed_batch_dispatches_only_the_misses(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "1")
        jobs = self._jobs(4)
        warm_jobs, cold_jobs = jobs[:2], jobs[2:]

        async def go():
            async with SimulationService(max_workers=1) as service:
                for job in warm_jobs:
                    await service.result(await service.submit(job=job))

            async with SimulationService(max_workers=1) as service:
                dispatches = []
                original = SimulationService._dispatch

                def counting_dispatch(self, handle):
                    dispatches.append(handle.job_id)
                    return original(self, handle)

                monkeypatch.setattr(
                    SimulationService, "_dispatch", counting_dispatch
                )
                batch = JobBatch(
                    [self._clone(job) for job in warm_jobs] + cold_jobs
                )
                handles = await service.submit_batch(batch)
                outcomes = [await service.result(h) for h in handles]
                return dispatches, outcomes

        dispatches, outcomes = run(go())
        assert sorted(dispatches) == sorted(j.job_id for j in cold_jobs)
        assert [o.cache_hit for o in outcomes] == [True, True, False, False]
        assert all(o.status == "done" for o in outcomes)

    def test_warm_hits_bypass_admission_quota(self, monkeypatch):
        """Warm service is free: a tenant at its pending limit can still
        be answered from the cache."""
        monkeypatch.setenv("REPRO_CACHE", "1")
        jobs = [
            JobSpec(job.circuit, task=job.task, backend=job.backend,
                    tenant="small")
            for job in self._jobs(3)
        ]
        quota = {"small": TenantQuota(max_pending=1)}

        async def go():
            async with SimulationService(max_workers=1) as service:
                for job in jobs:
                    await service.result(await service.submit(job=job))

            async with SimulationService(
                max_workers=1, quotas=quota
            ) as service:
                handles = await service.submit_batch(
                    JobBatch(
                        [
                            JobSpec(
                                j.circuit,
                                task=j.task,
                                backend=j.backend,
                                tenant="small",
                            )
                            for j in jobs
                        ]
                    )
                )
                return [await service.result(h) for h in handles]

        outcomes = run(go())
        assert len(outcomes) == 3  # > max_pending, yet all served
        assert all(o.cache_hit for o in outcomes)

    def test_probe_cache_false_preserves_old_path(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "1")
        job = self._jobs(1)[0]

        async def go():
            async with SimulationService(max_workers=1) as service:
                await service.result(await service.submit(job=job))
                dispatches = []
                original = SimulationService._dispatch

                def counting_dispatch(self, handle):
                    dispatches.append(handle.job_id)
                    return original(self, handle)

                monkeypatch.setattr(
                    SimulationService, "_dispatch", counting_dispatch
                )
                clone = self._clone(job)
                outcome = await service.result(
                    await service.submit(job=clone, probe_cache=False)
                )
                return dispatches, outcome

        dispatches, outcome = run(go())
        assert len(dispatches) == 1  # went through the pool
        # The dispatcher's own lookup still serves it warm.
        assert outcome.cache_hit is True

    def test_warm_and_cold_results_are_bitwise_equal(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "1")
        job = self._jobs(1)[0]

        async def go():
            async with SimulationService(max_workers=1) as service:
                first = await service.result(await service.submit(job=job))
                second = await service.result(
                    await service.submit(job=self._clone(job))
                )
                return first, second

        first, second = run(go())
        assert second.cache_hit is True
        assert_bitwise_equal(first.value, second.value)


# ---------------------------------------------------------------------------
# Cross-process cache coherence metrics
# ---------------------------------------------------------------------------


class TestCacheCoherence:
    def _store(self, tmp_path, token=None, key="k" * 64):
        from repro.service import cache as cache_mod

        cache = ResultCache(str(tmp_path))
        if token is not None:
            real = cache_mod.PROCESS_TOKEN
            cache_mod.PROCESS_TOKEN = token
            try:
                cache.put(key, np.arange(4), {"n": 1}, "arrays")
            finally:
                cache_mod.PROCESS_TOKEN = real
        else:
            cache.put(key, np.arange(4), {"n": 1}, "arrays")
        return key

    def test_own_disk_hit_is_not_remote(self, tmp_path):
        key = self._store(tmp_path)
        fresh = ResultCache(str(tmp_path))  # empty memory tier
        assert fresh.get(key) is not None
        stats = fresh.stats()
        assert stats["hits"] >= 1
        assert stats["remote_hits"] == 0

    def test_foreign_disk_hit_counts_as_remote(self, tmp_path):
        key = self._store(tmp_path, token="424242.deadbeef0000")
        reader = ResultCache(str(tmp_path))
        value, meta, backend = reader.get(key)
        assert np.array_equal(value, np.arange(4))
        stats = reader.stats()
        assert stats["remote_hits"] == 1
        assert stats["hits"] >= 1

    def test_memory_tier_hit_is_never_remote(self, tmp_path):
        key = self._store(tmp_path, token="424242.deadbeef0000")
        reader = ResultCache(str(tmp_path))
        assert reader.get(key) is not None  # disk -> remote
        assert reader.get(key) is not None  # memory tier now
        assert reader.stats()["remote_hits"] == 1

    def test_writer_identity_is_stamped(self, tmp_path):
        import pickle

        from repro.service import cache as cache_mod

        key = self._store(tmp_path)
        cache = ResultCache(str(tmp_path))
        path = cache._path(key)
        with open(path, "rb") as fh:
            entry = pickle.load(fh)
        assert entry["writer"] == cache_mod.PROCESS_TOKEN
        assert entry["writer_pid"] == os.getpid()

    def test_legacy_entry_without_writer_is_not_remote(self, tmp_path):
        import pickle

        key = self._store(tmp_path)
        cache = ResultCache(str(tmp_path))
        path = cache._path(key)
        with open(path, "rb") as fh:
            entry = pickle.load(fh)
        del entry["writer"]
        with open(path, "wb") as fh:
            pickle.dump(entry, fh)
        reader = ResultCache(str(tmp_path))
        assert reader.get(key) is not None
        assert reader.stats()["remote_hits"] == 0

    def test_stats_expose_remote_hits_key(self, tmp_path):
        assert "remote_hits" in ResultCache(str(tmp_path)).stats()
