"""The chunked trajectory engine inline and on worker pools.

Pytest benchmarks time the engine inline (``n_jobs=1`` — batched
kernels, no pool) and pooled on the workloads it was built for.  Running
the module as a script reproduces the headline measurement — a
1000-trajectory noisy brickwork simulation — and writes
``BENCH_parallel.json`` at the repository root:

    PYTHONPATH=src python benchmarks/bench_parallel.py [--quick]

The headline also certifies the engine's determinism contract: the
seeded ``n_jobs=1`` and ``n_jobs=4`` runs must be bitwise identical
(chunk boundaries, per-chunk seeds, and merge order do not depend on
the worker count).
"""

import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from _harness import time_call
from repro.arrays.noise import NoiseModel
from repro.arrays.trajectories import TrajectorySimulator
from repro.circuits import random_circuits
from repro.core import simulate_many


def _workload(num_qubits=8, depth=12, seed=7):
    circuit = random_circuits.brickwork_circuit(num_qubits, depth, seed=seed)
    noise = NoiseModel.uniform_depolarizing(0.01, 0.02)
    return circuit, noise


def test_trajectories_batched_engine(benchmark):
    circuit, noise = _workload(depth=4)
    benchmark(
        lambda: TrajectorySimulator(noise, seed=11).run(
            circuit, trajectories=100, n_jobs=1
        )
    )


def test_sweep_batched_dispatch(benchmark):
    circuits = [
        random_circuits.random_clifford_t_circuit(6, 30, seed=s)
        for s in range(8)
    ]
    benchmark(lambda: simulate_many(circuits, backend="auto", fusion=True))


@pytest.mark.parametrize("n_jobs", [2], ids=["jobs2"])
def test_trajectories_pooled(benchmark, n_jobs):
    circuit, noise = _workload(depth=4)
    benchmark(
        lambda: TrajectorySimulator(noise, seed=11).run(
            circuit, trajectories=200, n_jobs=n_jobs
        )
    )


def _time_once(fn) -> float:
    return time_call(fn, label="parallel_headline")


def run_headline(
    num_qubits: int = 8,
    depth: int = 12,
    trajectories: int = 1000,
):
    """The headline measurement, as a machine-readable record.

    Wall-clock seconds for the engine at ``n_jobs`` in {1, 2, 4} on the
    same seeded workload, plus the bitwise-identity certificate for the
    seeded outputs.  Pool timings include worker spawn — the engine pays
    it honestly.
    """
    circuit, noise = _workload(num_qubits, depth)

    def engine(jobs):
        return TrajectorySimulator(noise, seed=11).run(
            circuit, trajectories=trajectories, n_jobs=jobs
        )

    seconds = {}
    results = {}
    for jobs in (1, 2, 4):
        seconds[f"n_jobs={jobs}"] = _time_once(
            lambda j=jobs: results.setdefault(j, engine(j))
        )
    identical = bool(
        np.array_equal(results[1].probs, results[4].probs)
        and np.array_equal(results[1].probs, results[2].probs)
    )
    return {
        "workload": {
            "circuit": "brickwork",
            "num_qubits": num_qubits,
            "depth": depth,
            "noise": "depolarizing p1=0.01 p2=0.02",
            "trajectories": trajectories,
            "seed": 11,
        },
        "cpu_count": os.cpu_count(),
        "seconds": seconds,
        "outputs_identical_njobs_1_2_4": identical,
        "note": (
            "engine chunks are executed by the batched vectorized kernel "
            "(repro.arrays.batched); pooled timings include worker spawn"
        ),
    }


def main() -> None:
    quick = "--quick" in sys.argv
    if quick:
        # Smoke mode (CI): smaller workload, determinism contract only —
        # the checked-in artifact must keep the headline numbers.
        result = run_headline(num_qubits=6, depth=3, trajectories=120)
        print(json.dumps(result, indent=2))
        if not result["outputs_identical_njobs_1_2_4"]:
            raise SystemExit("FAIL: seeded engine outputs differ across n_jobs")
        return
    result = run_headline()
    out = Path(__file__).resolve().parent.parent / "BENCH_parallel.json"
    out.write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result, indent=2))
    if not result["outputs_identical_njobs_1_2_4"]:
        raise SystemExit("FAIL: seeded engine outputs differ across n_jobs")


if __name__ == "__main__":
    main()
