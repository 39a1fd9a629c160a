"""Grover search, simulated on every backend.

The workload from the paper's motivation: an oracle-based algorithm whose
classical simulation cost differs wildly between data structures.  Runs
Grover for a marked item, compares backends, and samples measurement
outcomes directly from the decision diagram (no 2^n vector involved).
"""

import time

from repro.circuits import library
from repro.core import BACKENDS, simulate
from repro.dd import DDSimulator


def main() -> None:
    num_qubits = 5
    marked = 19
    circuit = library.grover(num_qubits, marked)
    print(f"Grover search: {num_qubits} qubits, marked item {marked}, "
          f"{len(circuit)} gates\n")

    print(f"{'backend':10s} {'time':>9s}  {'P(marked)':>10s}")
    for backend in BACKENDS:
        start = time.perf_counter()
        result = simulate(circuit, backend=backend)
        elapsed = time.perf_counter() - start
        prob = result.probabilities()[marked]
        print(f"{backend:10s} {elapsed:8.4f}s  {prob:10.4f}")

    # Sampling without ever building the dense state (Sec. III).
    print("\nsampling 20 shots from the decision diagram:")
    state = DDSimulator().simulate_state(circuit)
    counts = state.sample_counts(20, seed=7)
    for bits, count in sorted(counts.items(), key=lambda kv: -kv[1]):
        star = "  <-- marked" if int(bits, 2) == marked else ""
        print(f"  {bits}: {count}{star}")
    print(f"\nDD size: {state.num_nodes()} nodes "
          f"(a dense state has {2**num_qubits} amplitudes)")


if __name__ == "__main__":
    main()
