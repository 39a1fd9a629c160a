"""Seeded op-list generation shared by the workloads.

An op is a JSON-able descriptor drawn from the workload seed alone; the
circuits it names are built from the package's circuit generators only
after the list is fixed, so the program under test never sees the seed.

Every seed must carry the same cost profile, or the run-to-run spread of
the end-to-end metrics would measure the seed rather than the program.
So the cost-setting sizes of a class (qubits, shots, sweep widths) are
its ``k`` quantile points over the stated range, in a seed-drawn order;
the seed draws everything else: circuit seeds, Pauli strings, basis
indices, noise strengths, which circuit gets which size, and the op
order.
"""

from __future__ import annotations

import math
from typing import List

import numpy as np

FAMILIES = ("ghz", "clifford", "clifford_t", "brickwork", "dense", "qft")
CLIFFORD_FAMILIES = ("ghz", "clifford")
TASK_CAPABILITY = {"simulate": "full_state", "sample": "sample",
                   "expectation": "expectation", "single_amplitude": "single_amplitude"}
"""Facade task -> the backend capability it needs (``repro.core.capabilities``)."""


def quantiles(k: int, low: float, high: float) -> List[float]:
    """The ``k`` stratum midpoints of ``[low, high)``."""
    return [low + (high - low) * (i + 0.5) / k for i in range(k)]


def quantile_ints(rng, k: int, low: int, high: int) -> List[int]:
    """Integer quantile points of ``[low, high]`` (inclusive), shuffled."""
    values = [min(high, int(math.floor(x))) for x in quantiles(k, low, high + 1)]
    rng.shuffle(values)
    return values


def log_quantile_ints(k: int, low: int, high: int) -> List[int]:
    """Ascending quantile points of a log-uniform law on ``[low, high]``."""
    return [int(round(math.exp(x))) for x in quantiles(k, math.log(low), math.log(high))]


def stratified(rng: np.random.Generator, k: int, low: float, high: float) -> List[float]:
    """``k`` draws in ``[low, high)``, one per equal stratum, shuffled."""
    width = (high - low) / k
    draws = [low + width * (i + rng.random()) for i in range(k)]
    rng.shuffle(draws)
    return draws


def seeds(rng, k: int) -> List[int]:
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=k)]


def pauli_string(rng, n: int) -> str:
    return "".join("IXYZ"[int(i)] for i in rng.integers(0, 4, size=n))


def circuit(family: str, n: int, cseed: int, depth: int = 0):
    """Build a circuit of one of the benchmark families."""
    from repro.circuits import library, random_circuits

    if family == "ghz":
        return library.ghz_state(n)
    if family == "clifford":
        return random_circuits.random_clifford_circuit(n, 10 * n, seed=cseed)
    if family == "clifford_t":
        return random_circuits.random_clifford_t_circuit(n, 8 * n, seed=cseed, t_prob=0.05)
    if family == "brickwork":
        return random_circuits.brickwork_circuit(n, depth or 2, seed=cseed)
    if family == "dense":
        return random_circuits.random_circuit(n, depth or 12, seed=cseed)
    if family == "qft":
        return library.qft(n)
    if family == "grover":
        return library.grover(n, cseed % (1 << n))
    if family == "adder":
        return library.cuccaro_adder((n - 2) // 2)
    if family == "qv":
        return library.quantum_volume_circuit(n, depth or n, seed=cseed)
    if family == "clifford_t_dense":
        return random_circuits.random_clifford_t_circuit(n, 8 * n, seed=cseed, t_prob=0.15)
    if family == "qaoa":
        rng = np.random.default_rng(cseed)
        edges = [(i, (i + 1) % n) for i in range(n)]
        gammas = [float(g) for g in rng.uniform(0, math.pi, size=2)]
        betas = [float(b) for b in rng.uniform(0, math.pi, size=2)]
        return library.qaoa_maxcut(edges, gammas, betas, num_qubits=n)
    raise ValueError(f"unknown family {family!r}")


def circuit_fingerprint(qc) -> list:
    """Plain description of a built circuit, for the op-list hash."""
    return [qc.num_qubits] + [
        [op.gate.name, list(op.targets), sorted(op.controls), [repr(p) for p in op.gate.params]]
        for op in qc.operations
    ]


def value_bytes(value) -> bytes:
    """Exact bytes of an output, for the per-class output digests."""
    if isinstance(value, np.ndarray):
        return np.ascontiguousarray(value).tobytes()
    if isinstance(value, dict):
        return repr(sorted(value.items())).encode()
    return repr(value).encode()
