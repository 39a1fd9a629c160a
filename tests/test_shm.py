"""Tests for the zero-copy shared-memory data plane.

The load-bearing properties:

- transparency: shm changes how result bytes travel, never which bytes —
  pickle-path and shm-path results are bitwise identical;
- cleanup: segments are unlinked exactly once on every exit path,
  including a worker SIGKILLed mid-chunk and an abandoned stream —
  ``/dev/shm`` never accumulates ``repro_shm`` entries;
- accounting: shm traffic shows up in ``RunStats`` and result metadata,
  and segment bytes are charged once against the parent's budget, not
  per worker.
"""

import os
import signal

import numpy as np
import pytest

from repro import parallel_shm
from repro.arrays.noise import NoiseModel
from repro.arrays.trajectories import TrajectorySimulator
from repro.circuits import random_circuits
from repro.parallel import RunStats, parallel_map, task_stream
from repro.parallel_shm import (
    ShmArray,
    decode_result,
    encode_result,
    leaked_segments,
    new_token,
    release_token,
    sweep_segments,
)
from repro.resources import ResourceBudget

pytestmark = pytest.mark.skipif(
    not parallel_shm.available(), reason="POSIX shared memory unavailable"
)


def _noisy_circuit(n=3, depth=6, seed=5):
    return random_circuits.random_circuit(n, depth, seed=seed)


def _noise():
    return NoiseModel.uniform_depolarizing(0.02, 0.05)


# -- the handle ---------------------------------------------------------------


class TestShmArray:
    def test_round_trip_copy(self):
        array = np.arange(24, dtype=np.complex128).reshape(4, 6)
        handle = ShmArray.create_from(array, token=new_token())
        out = handle.attach(copy=True)
        np.testing.assert_array_equal(out, array)
        assert out.dtype == array.dtype
        assert handle.name not in leaked_segments()

    def test_round_trip_view(self):
        array = np.linspace(0.0, 1.0, 64)
        handle = ShmArray.create_from(array, token=new_token())
        view = handle.attach()
        # attach() unlinked the name immediately; the view stays valid.
        assert handle.name not in leaked_segments()
        np.testing.assert_array_equal(view, array)

    def test_nbytes_matches_numpy(self):
        array = np.zeros((8, 8), dtype=np.complex128)
        handle = ShmArray.create_from(array, token=new_token())
        assert handle.nbytes == array.nbytes
        handle.attach(copy=True)

    def test_fan_out_attach_without_unlink(self):
        array = np.arange(32, dtype=np.float64)
        token = new_token()
        handle = ShmArray.create_from(array, token=token)
        first = handle.attach(copy=True, unlink=False)
        second = handle.attach(copy=True, unlink=False)
        np.testing.assert_array_equal(first, second)
        # Publisher keeps ownership until an explicit unlink.
        assert handle.name in leaked_segments(token)
        handle.unlink()
        assert leaked_segments(token) == []

    def test_unlink_idempotent(self):
        handle = ShmArray.create_from(np.ones(4), token=new_token())
        handle.unlink()
        handle.unlink()  # already gone: must not raise


# -- token sweeping -----------------------------------------------------------


class TestTokenSweep:
    def test_release_token_sweeps_undelivered_segments(self):
        token = new_token()
        for _ in range(3):
            ShmArray.create_from(np.zeros(128), token=token)
        assert len(leaked_segments(token)) == 3
        release_token(token)
        assert leaked_segments(token) == []

    def test_sweep_reports_removed_count(self):
        token = new_token()
        ShmArray.create_from(np.zeros(16), token=token)
        assert sweep_segments(token) == 1
        assert sweep_segments(token) == 0


# -- transfer encoding --------------------------------------------------------


class TestEncodeDecode:
    def test_large_arrays_become_handles(self):
        token = new_token()
        big = np.arange(1024, dtype=np.complex128)
        value = {"state": big, "count": 7, "nested": [big * 2, "text"]}
        encoded = encode_result(value, token, threshold=1024)
        assert isinstance(encoded, parallel_shm._Encoded)
        assert isinstance(encoded.payload["state"], ShmArray)
        assert isinstance(encoded.payload["nested"][0], ShmArray)
        assert encoded.segments == 2
        decoded = decode_result(encoded)
        np.testing.assert_array_equal(decoded["state"], big)
        np.testing.assert_array_equal(decoded["nested"][0], big * 2)
        assert decoded["count"] == 7
        assert decoded["nested"][1] == "text"
        assert leaked_segments(token) == []

    def test_small_arrays_pass_through(self):
        token = new_token()
        small = np.arange(4, dtype=np.float64)
        encoded = encode_result([small], token, threshold=1 << 20)
        # Nothing crossed the threshold: no envelope, no segments.
        assert not isinstance(encoded, parallel_shm._Encoded)
        assert leaked_segments(token) == []

    def test_shm_fields_protocol(self):
        class Carrier:
            _shm_fields_ = ("state",)

            def __init__(self, state):
                self.state = state

        token = new_token()
        array = np.arange(512, dtype=np.complex128)
        carrier = Carrier(array.copy())
        encoded = encode_result(carrier, token, threshold=512)
        assert isinstance(encoded, parallel_shm._Encoded)
        assert isinstance(encoded.payload.state, ShmArray)
        decoded = decode_result(encoded)
        np.testing.assert_array_equal(decoded.state, array)
        assert leaked_segments(token) == []


# -- pooled transfer ----------------------------------------------------------


def _big_partial(spec):
    """Worker returning a payload large enough to ride the shm plane."""
    seed, size = spec
    rng = np.random.default_rng(seed)
    return rng.standard_normal(size) + 1j * rng.standard_normal(size)


def _crash_after_publishing(spec):
    """Worker that creates a run-token segment, then dies uncleanly.

    The handle never reaches the parent — exactly the situation the
    teardown sweep exists for.
    """
    ShmArray.create_from(np.zeros(4096, dtype=np.complex128))
    os.kill(os.getpid(), signal.SIGKILL)


class TestPooledTransfer:
    def test_shm_and_pickle_paths_bitwise_identical(self, monkeypatch):
        monkeypatch.setenv(parallel_shm.SHM_MIN_BYTES_ENV_VAR, "1024")
        specs = [(s, 4096) for s in range(4)]
        via_shm = parallel_map(_big_partial, specs, n_jobs=2, shm=True)
        via_pickle = parallel_map(_big_partial, specs, n_jobs=2, shm=False)
        for a, b in zip(via_shm, via_pickle):
            assert (a == b).all()
        assert leaked_segments() == []

    def test_stats_record_shm_traffic(self, monkeypatch):
        monkeypatch.setenv(parallel_shm.SHM_MIN_BYTES_ENV_VAR, "1024")
        stats = RunStats()
        specs = [(s, 4096) for s in range(3)]
        parallel_map(_big_partial, specs, n_jobs=2, shm=True, stats=stats)
        assert stats.executor == "process"
        assert stats.shm_segments == 3
        assert stats.shm_bytes == 3 * 4096 * 16
        assert stats.jobs == 2

    def test_worker_killed_mid_chunk_leaks_nothing(self, monkeypatch):
        """Satellite regression: SIGKILL a worker after it published a
        segment whose handle never reaches the parent; the pool teardown
        sweep must still unlink it."""
        monkeypatch.setenv(parallel_shm.SHM_MIN_BYTES_ENV_VAR, "1024")
        before = leaked_segments()
        with pytest.raises(Exception):
            parallel_map(
                _crash_after_publishing, [0, 1], n_jobs=2, shm=True
            )
        assert leaked_segments() == before

    def test_abandoned_stream_leaks_nothing(self, monkeypatch):
        monkeypatch.setenv(parallel_shm.SHM_MIN_BYTES_ENV_VAR, "1024")
        specs = [(s, 4096) for s in range(6)]
        with task_stream(_big_partial, specs, n_jobs=2, shm=True) as results:
            next(iter(results))  # consume one, abandon the rest
        assert leaked_segments() == []

    def test_thread_executor_ignores_shm(self):
        specs = [(s, 256) for s in range(3)]
        stats = RunStats()
        results = parallel_map(
            _big_partial, specs, n_jobs=2, executor="thread",
            shm=True, stats=stats,
        )
        assert stats.executor == "thread"
        assert stats.shm_segments == 0
        reference = parallel_map(_big_partial, specs, n_jobs=1)
        for a, b in zip(results, reference):
            assert (a == b).all()


# -- budget + metadata accounting ---------------------------------------------


class TestAccounting:
    def test_share_reserves_shm_bytes_once(self):
        budget = ResourceBudget(max_memory_bytes=1000)
        plain = budget.share(4)
        reserved = budget.share(4, reserved=200)
        assert plain.max_memory_bytes == 250
        assert reserved.max_memory_bytes == 200
        # Reservation can never drive a share negative.
        floor = budget.share(4, reserved=10_000)
        assert floor.max_memory_bytes == 1

    def test_trajectory_metadata_reports_shm_bytes(self, monkeypatch):
        monkeypatch.setenv(parallel_shm.SHM_MIN_BYTES_ENV_VAR, "1")
        sim = TrajectorySimulator(_noise(), seed=3)
        result = sim.run(
            _noisy_circuit(), trajectories=8, n_jobs=2,
            executor="process", shm=True,
        )
        assert result.metadata["executor"] == "process"
        # Each chunk ships one (2**n,) float64 partial through shm.
        assert result.metadata["shm_bytes"] > 0
        assert result.metadata["shm_bytes"] % ((2**3) * 8) == 0
        assert leaked_segments() == []

    def test_trajectory_shm_matches_serial_bitwise(self, monkeypatch):
        monkeypatch.setenv(parallel_shm.SHM_MIN_BYTES_ENV_VAR, "1")
        circuit = _noisy_circuit()
        serial = TrajectorySimulator(_noise(), seed=9).run(
            circuit, trajectories=8, n_jobs=1
        )
        pooled = TrajectorySimulator(_noise(), seed=9).run(
            circuit, trajectories=8, n_jobs=2, executor="process", shm=True
        )
        assert (serial.probabilities() == pooled.probabilities()).all()


# -- stimulus input fan-out ---------------------------------------------------


class TestStimulusFanOut:
    """One shared stimulus table, N workers attaching read-only."""

    def test_shm_and_pickle_verdicts_identical(self):
        from repro.circuits import library
        from repro.verify import check_equivalence_random_stimuli

        a = library.qft(4)
        b = library.qft(4)
        serial = check_equivalence_random_stimuli(a, b, seed=11)
        pickled = check_equivalence_random_stimuli(
            a, b, seed=11, n_jobs=2, shm=False
        )
        fanned = check_equivalence_random_stimuli(
            a, b, seed=11, n_jobs=2, shm=True
        )
        assert serial is pickled is fanned is True
        assert leaked_segments() == []

    def test_fan_out_detects_inequivalence(self):
        from repro.circuits import library
        from repro.verify import check_equivalence_random_stimuli

        a = library.qft(4)
        c = library.ghz_state(4)
        assert not check_equivalence_random_stimuli(
            a, c, seed=11, n_jobs=2, shm=True
        )
        # Early-return path must still sweep the published table.
        assert leaked_segments() == []

    def test_slice_resolves_row(self):
        from repro.verify.tn_check import _StimulusSlice

        table = np.array(
            [[(0, 1), (2, 3)], [(4, 5), (6, 7)]], dtype=np.int64
        )
        token = new_token()
        handle = ShmArray.create_from(table, token=token)
        try:
            assert _StimulusSlice(handle, 0).resolve() == [(0, 1), (2, 3)]
            assert _StimulusSlice(handle, 1).resolve() == [(4, 5), (6, 7)]
        finally:
            release_token(token)
        assert leaked_segments(token) == []
