"""Tests for the process-pool execution layer and its integrations.

The load-bearing properties:

- determinism by construction: chunk boundaries, per-chunk seeds, and
  merge order depend only on ``(total, seed)``, so seeded results are
  bitwise identical at any ``n_jobs``;
- pool hygiene: a crashing task, an abandoned stream, or a
  ``KeyboardInterrupt`` never leaks worker processes;
- budget composition: workers get a memory-divided share, structured
  :class:`ResourceExhausted` context survives pickling back to the
  parent.
"""

import hashlib
import multiprocessing as mp
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.arrays.density import DensityMatrixSimulator
from repro.arrays.noise import NoiseModel
from repro.arrays.trajectories import TrajectorySimulator
from repro.circuits import random_circuits
from repro.core import simulate_many
from repro.dd.noise_sim import NoisyDDSimulator
from repro.parallel import (
    JOBS_ENV_VAR,
    ProcessPool,
    chunk_sizes,
    parallel_map,
    resolve_jobs,
    spawn_seeds,
    task_stream,
)
from repro.resources import MemoryBudgetExceeded, ResourceBudget
from repro.verify.tn_check import check_equivalence_random_stimuli


def _no_leaked_children():
    return [p for p in mp.active_children() if p.is_alive()] == []


# -- deterministic work splitting ---------------------------------------------


class TestChunking:
    def test_chunk_sizes_cover_total(self):
        for total in (1, 7, 8, 9, 100, 1000):
            sizes = chunk_sizes(total)
            assert sum(sizes) == total
            assert max(sizes) - min(sizes) <= 1

    def test_chunk_sizes_ignore_worker_count(self):
        # No n_jobs parameter exists: the split is a function of the
        # total (and an explicit chunk count) alone.
        assert chunk_sizes(100) == chunk_sizes(100)
        assert chunk_sizes(100) == [13, 13, 13, 13, 12, 12, 12, 12]
        assert chunk_sizes(10, num_chunks=3) == [4, 3, 3]

    def test_chunk_sizes_edge_cases(self):
        assert chunk_sizes(0) == []
        assert chunk_sizes(3) == [1, 1, 1]
        assert chunk_sizes(3, num_chunks=0) == [3]

    def test_spawn_seeds_deterministic(self):
        a = spawn_seeds(42, 8)
        b = spawn_seeds(42, 8)
        assert [s.entropy for s in a] == [s.entropy for s in b]
        assert [s.spawn_key for s in a] == [s.spawn_key for s in b]
        streams = {np.random.default_rng(s).integers(2**31) for s in a}
        assert len(streams) == 8

    def test_resolve_jobs_policy(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV_VAR, raising=False)
        assert resolve_jobs(None) == 1
        assert resolve_jobs(3) == 3
        monkeypatch.setenv(JOBS_ENV_VAR, "2")
        assert resolve_jobs(None) == 2
        assert resolve_jobs(5) == 5  # explicit beats env
        assert resolve_jobs(0) >= 1  # "all cores"


# -- budget composition -------------------------------------------------------


class TestBudgetComposition:
    def test_share_divides_memory_only(self):
        budget = ResourceBudget(
            max_memory_bytes=1000,
            max_seconds=30.0,
            max_dd_nodes=500,
            max_bond_dim=16,
        )
        share = budget.share(4)
        assert share.max_memory_bytes == 250
        assert share.max_seconds == 30.0  # workers run concurrently
        assert share.max_dd_nodes == 500  # structural per-state cap
        assert share.max_bond_dim == 16

    def test_share_subtracts_elapsed_time(self):
        budget = ResourceBudget(max_seconds=10.0)
        assert budget.share(2, elapsed=4.0).max_seconds == pytest.approx(6.0)
        assert budget.share(2, elapsed=100.0).max_seconds > 0

    def test_resource_exhausted_pickles_with_context(self):
        import pickle

        exc = MemoryBudgetExceeded(
            "too big", backend="arrays", limit=100, observed=999
        )
        clone = pickle.loads(pickle.dumps(exc))
        assert type(clone) is MemoryBudgetExceeded
        assert clone.backend == "arrays"
        assert clone.limit == 100
        assert clone.observed == 999
        assert clone.resource == "memory"

    def test_worker_budget_trip_reaches_parent(self):
        noise = NoiseModel.uniform_depolarizing(0.01, 0.02)
        circuit = random_circuits.brickwork_circuit(6, 2, seed=1)
        sim = TrajectorySimulator(
            noise, seed=0, budget=ResourceBudget(max_memory_bytes=64)
        )
        with pytest.raises(MemoryBudgetExceeded) as info:
            sim.run(circuit, trajectories=32, n_jobs=2)
        assert info.value.backend == "arrays"
        assert info.value.limit is not None
        assert _no_leaked_children()


# -- determinism regressions: serial vs n_jobs > 1 ----------------------------


class TestTrajectoryDeterminism:
    def test_arrays_bitwise_identical_across_jobs(self):
        noise = NoiseModel.uniform_depolarizing(0.02, 0.05)
        circuit = random_circuits.brickwork_circuit(5, 3, seed=8)
        results = [
            TrajectorySimulator(noise, seed=11)
            .run(circuit, trajectories=64, n_jobs=jobs)
            .probs
            for jobs in (1, 2, 3)
        ]
        assert np.array_equal(results[0], results[1])
        assert np.array_equal(results[0], results[2])
        assert _no_leaked_children()

    def test_arrays_engine_matches_density_matrix_statistically(self):
        noise = NoiseModel.uniform_depolarizing(0.05, 0.0)
        circuit = random_circuits.brickwork_circuit(4, 2, seed=3)
        exact = DensityMatrixSimulator(noise).run(circuit).probabilities()
        engine = TrajectorySimulator(noise, seed=5).run(
            circuit, trajectories=600, n_jobs=1
        )
        assert np.max(np.abs(exact - engine.probs)) < 0.08
        assert engine.probs.sum() == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("engine", ["arrays", "dd"])
    def test_default_call_is_the_chunked_engine(self, engine, monkeypatch):
        """Without n_jobs/REPRO_JOBS, run() is the chunked engine inline:
        bitwise equal to n_jobs=1 and to n_jobs=2 on both executors."""
        monkeypatch.delenv(JOBS_ENV_VAR, raising=False)
        noise = NoiseModel.uniform_depolarizing(0.02, 0.04)
        circuit = random_circuits.brickwork_circuit(4, 2, seed=7)
        simulator = {"arrays": TrajectorySimulator, "dd": NoisyDDSimulator}[
            engine
        ]
        default = simulator(noise, seed=9).run(circuit, trajectories=12)
        assert default.metadata["executor"] == "inline"
        runs = [
            simulator(noise, seed=9).run(circuit, trajectories=12, **kwargs)
            for kwargs in (
                {"n_jobs": 1},
                {"n_jobs": 2, "executor": "thread"},
                {"n_jobs": 2, "executor": "process"},
            )
        ]
        for run in [default] + runs:
            assert run.metadata["chunks"] == min(12, 8)
            assert np.array_equal(run.probs, default.probs)
            if engine == "dd":
                assert run.mean_nodes == default.mean_nodes
                assert run.peak_nodes == default.peak_nodes
        few = simulator(noise, seed=9).run(circuit, trajectories=3)
        assert few.metadata["chunks"] == 3
        assert _no_leaked_children()

    def test_seeded_digest_is_stable_across_processes(self, tmp_path):
        """Two fresh processes sharing one cache home print the same
        digest, equal to this process's: a seeded result depends only on
        the circuit, noise model, seed, and trajectory count."""
        script = (
            "import hashlib\n"
            "from repro.arrays.noise import NoiseModel\n"
            "from repro.arrays.trajectories import TrajectorySimulator\n"
            "from repro.circuits import random_circuits\n"
            "noise = NoiseModel.uniform_depolarizing(0.02, 0.05)\n"
            "circuit = random_circuits.brickwork_circuit(5, 3, seed=8)\n"
            "result = TrajectorySimulator(noise, seed=11).run(\n"
            "    circuit, 256, n_jobs=2\n"
            ")\n"
            "print(result.metadata['chunks'],\n"
            "      hashlib.sha256(result.probs.tobytes()).hexdigest())\n"
        )
        import repro

        src_dir = os.path.dirname(os.path.dirname(repro.__file__))
        env = {
            key: value
            for key, value in os.environ.items()
            if not key.startswith("REPRO_")
        }
        env["XDG_CACHE_HOME"] = str(tmp_path / "cache-home")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src_dir, env.get("PYTHONPATH", "")) if p
        )
        outputs = [
            subprocess.run(
                [sys.executable, "-c", script],
                env=env,
                capture_output=True,
                text=True,
                timeout=120,
                check=True,
            ).stdout.split()
            for _ in range(2)
        ]
        noise = NoiseModel.uniform_depolarizing(0.02, 0.05)
        circuit = random_circuits.brickwork_circuit(5, 3, seed=8)
        local = TrajectorySimulator(noise, seed=11).run(circuit, 256, n_jobs=1)
        expected = ["8", hashlib.sha256(local.probs.tobytes()).hexdigest()]
        assert outputs == [expected, expected]

    def test_thread_and_process_executors_agree_bitwise(self):
        noise = NoiseModel.uniform_depolarizing(0.02, 0.05)
        circuit = random_circuits.random_circuit(3, 6, seed=5)
        threaded = TrajectorySimulator(noise, seed=11).run(
            circuit, trajectories=12, n_jobs=2, executor="thread"
        )
        pooled = TrajectorySimulator(noise, seed=11).run(
            circuit, trajectories=12, n_jobs=2, executor="process"
        )
        assert threaded.metadata["executor"] == "thread"
        assert pooled.metadata["executor"] == "process"
        assert (
            threaded.probabilities() == pooled.probabilities()
        ).all()

    def test_dd_bitwise_identical_across_jobs(self):
        noise = NoiseModel.uniform_depolarizing(0.02, 0.04)
        circuit = random_circuits.brickwork_circuit(4, 2, seed=7)
        a = NoisyDDSimulator(noise, seed=3).run(
            circuit, trajectories=24, n_jobs=1
        )
        b = NoisyDDSimulator(noise, seed=3).run(
            circuit, trajectories=24, n_jobs=2
        )
        assert np.array_equal(a.probs, b.probs)
        assert a.mean_nodes == b.mean_nodes
        assert a.peak_nodes == b.peak_nodes
        assert _no_leaked_children()

    def test_dd_sampling_identical_across_jobs(self):
        noise = NoiseModel.uniform_depolarizing(0.02, 0.04)
        circuit = random_circuits.brickwork_circuit(4, 2, seed=7)
        a = NoisyDDSimulator(noise, seed=4).run_sampling(
            circuit, 24, n_jobs=1
        )
        b = NoisyDDSimulator(noise, seed=4).run_sampling(
            circuit, 24, n_jobs=2
        )
        assert a == b
        assert sum(a.values()) == 24

    def test_env_var_routes_to_engine(self, monkeypatch):
        noise = NoiseModel.uniform_depolarizing(0.02, 0.02)
        circuit = random_circuits.brickwork_circuit(4, 2, seed=2)
        explicit = TrajectorySimulator(noise, seed=9).run(
            circuit, trajectories=20, n_jobs=1
        )
        monkeypatch.setenv(JOBS_ENV_VAR, "1")
        via_env = TrajectorySimulator(noise, seed=9).run(
            circuit, trajectories=20
        )
        assert np.array_equal(via_env.probs, explicit.probs)


class TestVerificationDeterminism:
    def test_verdicts_identical_serial_and_parallel(self):
        a = random_circuits.random_circuit(4, 10, seed=41)
        b = random_circuits.random_circuit(4, 10, seed=41)
        c = random_circuits.random_circuit(4, 10, seed=42)
        for pair, expected in (((a, b), True), ((a, c), False)):
            verdicts = {
                check_equivalence_random_stimuli(
                    *pair, num_stimuli=4, seed=6, n_jobs=jobs
                )
                for jobs in (None, 1, 2)
            }
            assert verdicts == {expected}
        assert _no_leaked_children()

    def test_facade_plumbs_n_jobs(self):
        from repro.verify import check_equivalence

        a = random_circuits.random_circuit(3, 8, seed=51)
        b = random_circuits.random_circuit(3, 8, seed=51)
        assert check_equivalence(
            a, b, method="tn_stimuli", num_stimuli=3, n_jobs=2
        )
        assert _no_leaked_children()


class TestSweepDeterminism:
    def test_simulate_many_order_independent_of_jobs(self):
        circuits = [
            random_circuits.random_circuit(3, 8, seed=s) for s in range(7)
        ]
        serial = simulate_many(circuits)
        pooled = simulate_many(circuits, n_jobs=2)
        for a, b in zip(serial, pooled):
            assert np.array_equal(a.state, b.state)
            assert a.metadata["batch"]["index"] == b.metadata["batch"]["index"]
        assert _no_leaked_children()


# -- pool hygiene -------------------------------------------------------------


def _square(x):
    return x * x


def _boom(x):
    if x == 3:
        raise RuntimeError("poisoned task")
    return x


def _interrupt(x):
    if x == 2:
        raise KeyboardInterrupt
    return x


def _pid(_):
    return os.getpid()


class TestPoolHygiene:
    def test_parallel_map_ordered(self):
        assert parallel_map(_square, list(range(10)), n_jobs=2) == [
            x * x for x in range(10)
        ]
        assert _no_leaked_children()

    def test_parallel_map_serial_inline(self):
        # jobs<=1 never spawns: the pid is this process for every task.
        assert set(parallel_map(_pid, [0, 1], n_jobs=1)) == {os.getpid()}

    def test_poisoned_task_propagates_without_leaking(self):
        with pytest.raises(RuntimeError, match="poisoned task"):
            parallel_map(_boom, list(range(8)), n_jobs=2)
        assert _no_leaked_children()

    def test_keyboard_interrupt_terminates_workers(self):
        with pytest.raises(KeyboardInterrupt):
            parallel_map(_interrupt, list(range(8)), n_jobs=2)
        assert _no_leaked_children()

    def test_task_stream_early_exit_cancels_remaining(self):
        consumed = []
        with task_stream(_square, list(range(50)), n_jobs=2) as results:
            for value in results:
                consumed.append(value)
                if len(consumed) == 3:
                    break
        assert consumed == [0, 1, 4]
        assert _no_leaked_children()

    def test_pool_outside_context_raises(self):
        pool = ProcessPool(2)
        with pytest.raises(RuntimeError, match="context manager"):
            pool.map(_square, [1, 2])
