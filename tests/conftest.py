"""Shared fixtures: reference simulators and workload circuits."""

import os

import numpy as np
import pytest

from repro.arrays import StatevectorSimulator
from repro.circuits import library, random_circuits


@pytest.fixture(scope="session", autouse=True)
def _isolated_result_cache(tmp_path_factory):
    """Point the persistent result cache at a throwaway directory.

    The cache is off by default (``REPRO_CACHE`` unset), but the CI
    service profile runs the whole suite under ``REPRO_CACHE=1`` — and
    either way, nothing a test caches may land in (or be served from)
    the user's ``~/.cache/repro/results``.  An externally supplied
    ``REPRO_CACHE_DIR`` (the CI profile's mktemp) is respected.
    """
    from repro.service import reset_default_cache

    previous = os.environ.get("REPRO_CACHE_DIR")
    if not previous:
        path = tmp_path_factory.mktemp("result-cache")
        os.environ["REPRO_CACHE_DIR"] = str(path)
    reset_default_cache()
    yield
    if previous is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        os.environ["REPRO_CACHE_DIR"] = previous
    reset_default_cache()


@pytest.fixture(scope="session")
def sv_sim():
    return StatevectorSimulator(seed=7)


def workload_circuits():
    """Small circuits covering every gate family and algorithm class."""
    return [
        library.bell_pair(),
        library.ghz_state(4),
        library.w_state(4),
        library.qft(3),
        library.inverse_qft(3),
        library.deutsch_jozsa(3, balanced_mask=0b101),
        library.bernstein_vazirani(0b110, 3),
        library.grover(3, 5),
        library.phase_estimation(3, 0.375),
        library.cuccaro_adder(1),
        library.hidden_shift(4, 0b1010),
        library.hardware_efficient_ansatz(3, 2, list(np.linspace(0.1, 2.9, 18))),
        library.phase_polynomial_circuit(
            3, random_circuits.random_phase_polynomial_terms(3, 5, seed=11)
        ),
        library.qaoa_maxcut([(0, 1), (1, 2), (2, 0)], [0.4], [0.8]),
        library.quantum_volume_circuit(3, 2, seed=21),
        random_circuits.random_circuit(4, 6, seed=1),
        random_circuits.random_clifford_circuit(4, 25, seed=2),
        random_circuits.random_clifford_t_circuit(4, 25, seed=3),
        random_circuits.brickwork_circuit(4, 3, seed=4),
    ]


@pytest.fixture(params=workload_circuits(), ids=lambda c: c.name)
def workload(request):
    return request.param


def random_state(num_qubits: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    state = rng.normal(size=2**num_qubits) + 1j * rng.normal(size=2**num_qubits)
    return state / np.linalg.norm(state)


def random_unitary(dim: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    matrix = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(matrix)
    return q * (np.diag(r) / np.abs(np.diag(r)))
