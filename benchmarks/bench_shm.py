"""Zero-copy shared-memory transfer and the two executors.

Two measurements back the PR-6 acceptance criteria, both written to
``BENCH_shm.json`` when the module runs as a script:

1. **Handoff**: moving a 24-qubit statevector (256 MiB of complex128)
   across the pool boundary.  The pickle path pays a serialize copy, the
   pipe traffic, and a deserialize copy; the shm path pays one copy into
   a named segment plus a ~100-byte handle.  Expected: >= 2x.
2. **Scaling**: the 1000-trajectory noisy brickwork headline from
   ``bench_parallel.py``, re-run inline and at ``n_jobs=4`` on the
   process executor (with and without shm) and the thread executor.
   Threads skip worker spawn and all serialization while the batched
   kernel holds the GIL released inside BLAS.

Both paths must stay bitwise identical to their baselines — shm changes
how bytes travel and the executor changes who computes them, never
which bytes come out.

    PYTHONPATH=src python benchmarks/bench_shm.py [--quick]
"""

import json
import os
import pickle
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from _harness import best_of, time_call
from repro import parallel_shm
from repro.arrays.noise import NoiseModel
from repro.arrays.trajectories import TrajectorySimulator
from repro.circuits import random_circuits
from repro.parallel_shm import ShmArray, new_token


def _statevector(num_qubits: int) -> np.ndarray:
    """A deterministic dense state without paying RNG cost at 2**24."""
    state = np.arange(1 << num_qubits, dtype=np.complex128)
    state += 0.5j
    return state


def _pickle_handoff(state: np.ndarray) -> np.ndarray:
    """The pool's pipe path: serialize, shuttle through a real OS pipe,
    deserialize.

    ``dumps``/``loads`` alone would flatter pickle — for a numpy array
    they are two straight memcpys.  What shm actually removes is the
    byte shuttle between processes, so this measures one: a writer
    thread feeds the pickle into an ``os.pipe`` while the consumer
    drains it, exactly the producer/consumer overlap the process pool's
    result pipe has.
    """
    read_fd, write_fd = os.pipe()
    data = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)

    def _writer():
        with os.fdopen(write_fd, "wb") as sink:
            sink.write(data)

    thread = threading.Thread(target=_writer)
    thread.start()
    chunks = []
    with os.fdopen(read_fd, "rb") as source:
        while True:
            chunk = source.read(1 << 20)
            if not chunk:
                break
            chunks.append(chunk)
    thread.join()
    return pickle.loads(b"".join(chunks))


def _shm_handoff(state: np.ndarray) -> np.ndarray:
    """The segment path: one copy in, zero-copy attach out."""
    handle = ShmArray.create_from(state, token=new_token())
    return handle.attach()


def _workload(num_qubits=8, depth=12, seed=7):
    circuit = random_circuits.brickwork_circuit(num_qubits, depth, seed=seed)
    noise = NoiseModel.uniform_depolarizing(0.01, 0.02)
    return circuit, noise


# -- pytest benchmarks --------------------------------------------------------


@pytest.mark.parametrize("path", ["pickle", "shm"])
def test_statevector_handoff(benchmark, path):
    if path == "shm" and not parallel_shm.available():
        pytest.skip("POSIX shared memory unavailable")
    state = _statevector(20)
    fn = _pickle_handoff if path == "pickle" else _shm_handoff
    out = benchmark(fn, state)
    assert (out == state).all()


def test_trajectories_thread_executor(benchmark):
    circuit, noise = _workload(depth=4)
    benchmark(
        lambda: TrajectorySimulator(noise, seed=11).run(
            circuit, trajectories=200, n_jobs=2, executor="thread"
        )
    )


# -- the headline record ------------------------------------------------------


def run_handoff(num_qubits: int = 24, repeats: int = 3):
    """Worker-to-parent transfer cost of one dense statevector."""
    state = _statevector(num_qubits)
    via_pickle, via_shm = None, None

    def pickle_once():
        nonlocal via_pickle
        via_pickle = _pickle_handoff(state)

    def shm_once():
        nonlocal via_shm
        via_shm = _shm_handoff(state)

    pickle_s = best_of(repeats, pickle_once, label="handoff_pickle")
    shm_s = best_of(repeats, shm_once, label="handoff_shm")
    return {
        "num_qubits": num_qubits,
        "payload_bytes": int(state.nbytes),
        "seconds": {"pickle": pickle_s, "shm": shm_s},
        "speedup_shm_vs_pickle": pickle_s / shm_s,
        "bitwise_identical": bool(
            (via_pickle == state).all() and (via_shm == state).all()
        ),
    }


def run_scaling(
    num_qubits: int = 8, depth: int = 12, trajectories: int = 1000
):
    """The trajectory headline workload on every executor/shm mode."""
    circuit, noise = _workload(num_qubits, depth)

    def engine(jobs, executor=None, shm=None):
        return TrajectorySimulator(noise, seed=11).run(
            circuit, trajectories=trajectories, n_jobs=jobs,
            executor=executor, shm=shm,
        )

    seconds = {}
    results = {}

    def record(key, **kwargs):
        seconds[key] = time_call(
            lambda: results.setdefault(key, engine(**kwargs)),
            label=f"scaling_{key}",
        )

    record("n_jobs=1", jobs=1)
    record("n_jobs=4 process", jobs=4, executor="process")
    record("n_jobs=4 process shm", jobs=4, executor="process", shm=True)
    record("n_jobs=4 thread", jobs=4, executor="thread")
    probs = [r.probabilities() for r in results.values()]
    identical = bool(
        all(np.array_equal(probs[0], p) for p in probs[1:])
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
        "seconds": seconds,
        "outputs_identical_all_modes": identical,
    }


def main() -> None:
    quick = "--quick" in sys.argv
    if quick:
        # Smoke mode (CI): small payload and workload; certify the
        # bitwise contracts, leave the checked-in headline untouched.
        record = {
            "handoff": run_handoff(num_qubits=20, repeats=2),
            "scaling": run_scaling(num_qubits=6, depth=3, trajectories=120),
        }
        print(json.dumps(record, indent=2))
        if not record["handoff"]["bitwise_identical"]:
            raise SystemExit("FAIL: handoff changed payload bytes")
        if not record["scaling"]["outputs_identical_all_modes"]:
            raise SystemExit(
                "FAIL: outputs differ across executor/shm modes"
            )
        return
    record = {
        "cpu_count": os.cpu_count(),
        "handoff": run_handoff(),
        "scaling": run_scaling(),
    }
    out = Path(__file__).resolve().parent.parent / "BENCH_shm.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(record, indent=2))
    handoff = record["handoff"]["speedup_shm_vs_pickle"]
    print(f"\nshm handoff speedup over pickle: {handoff:.2f}x")
    if not record["handoff"]["bitwise_identical"]:
        raise SystemExit("FAIL: handoff changed payload bytes")
    if not record["scaling"]["outputs_identical_all_modes"]:
        raise SystemExit("FAIL: outputs differ across executor/shm modes")
    if handoff < 2.0:
        raise SystemExit("FAIL: expected >= 2x shm handoff speedup")


if __name__ == "__main__":
    main()
