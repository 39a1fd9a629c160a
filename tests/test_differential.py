"""Cross-backend differential harness.

The same seeded circuit is pushed through every capable registered
backend and the answers are compared: full states up to global phase,
expectation values and single amplitudes numerically, sampled counts
statistically against the reference distribution.  A disagreement
pinpoints the backend that diverged from the pack — the cheapest
regression net the registry design affords, and it keeps working as
backends are added.
"""

import numpy as np
import pytest

from repro.arrays.unitary import allclose_up_to_global_phase
from repro.circuits import library, random_circuits
from repro.core import (
    REGISTRY,
    analyze,
    expectation,
    sample,
    simulate,
    simulate_many,
    single_amplitude,
)
from repro.core import capabilities as cap

REFERENCE = "arrays"


def _capable(task, circuit):
    """Registered backends that can run ``task`` on this circuit."""
    features = analyze(circuit.without_measurements())
    names = []
    for name in REGISTRY.supporting(task):
        backend = REGISTRY.get(name)
        if backend.supports(cap.CLIFFORD_ONLY) and not features.is_clifford:
            continue
        names.append(name)
    return names


def _workloads():
    return [
        pytest.param(random_circuits.random_circuit(4, 12, seed=21), id="random"),
        pytest.param(
            random_circuits.random_clifford_circuit(4, 30, seed=22),
            id="clifford",
        ),
        pytest.param(
            random_circuits.random_clifford_t_circuit(4, 25, seed=23),
            id="clifford_t",
        ),
        pytest.param(
            random_circuits.brickwork_circuit(5, 3, seed=24), id="brickwork"
        ),
        pytest.param(library.qft(4), id="qft"),
        pytest.param(library.grover(3, 5), id="grover"),
    ]


@pytest.mark.parametrize("circuit", _workloads())
class TestDifferential:
    def test_states_agree(self, circuit):
        reference = simulate(circuit, backend=REFERENCE).state
        for name in _capable(cap.FULL_STATE, circuit):
            state = simulate(circuit, backend=name).state
            assert allclose_up_to_global_phase(state, reference, 1e-7), name

    def test_expectations_agree(self, circuit):
        pauli = "ZXZY"[: circuit.num_qubits].ljust(circuit.num_qubits, "Z")
        reference = expectation(circuit, pauli, backend=REFERENCE)
        for name in _capable(cap.EXPECTATION, circuit):
            value = expectation(circuit, pauli, backend=name)
            assert value == pytest.approx(reference, abs=1e-7), name

    def test_amplitudes_agree(self, circuit):
        reference = simulate(circuit, backend=REFERENCE).state
        indices = [0, 1, (1 << circuit.num_qubits) - 1]
        for name in _capable(cap.SINGLE_AMPLITUDE, circuit):
            for index in indices:
                amp = single_amplitude(circuit, index, backend=name)
                assert abs(amp) == pytest.approx(
                    abs(reference[index]), abs=1e-7
                ), (name, index)

    def test_counts_agree(self, circuit):
        shots = 3000
        probs = np.abs(simulate(circuit, backend=REFERENCE).state) ** 2
        keys = [format(i, f"0{circuit.num_qubits}b") for i in range(len(probs))]
        for name in _capable(cap.SAMPLE, circuit):
            counts = sample(circuit, shots, backend=name, seed=5)
            assert sum(counts.values()) == shots, name
            assert set(counts) <= set(keys), name
            # Every outcome, including the ones no shot hit: a sampler
            # that drops a likely outcome fails here.
            for bits, p in zip(keys, probs):
                assert abs(counts.get(bits, 0) / shots - p) < 0.06, (
                    name,
                    bits,
                )


def test_states_agree_under_tight_budget_with_fallback():
    """A budget that kills the dense backend must not change the answer.

    The dispatcher falls back to another capable backend; the fallback's
    state must still match an unbudgeted reference, and the audit trail
    must record the degradation.
    """
    circuit = random_circuits.random_circuit(6, 14, seed=31)
    reference = simulate(circuit, backend="arrays").state
    # An unstructured circuit blows past a tiny DD node cap; the dense
    # backend is unaffected by it.
    result = simulate(circuit, backend="dd", budget={"max_dd_nodes": 8})
    assert result.backend != "dd"
    chain = result.metadata["fallback_chain"]
    assert chain[0]["backend"] == "dd"
    assert chain[0]["status"] == "resource_exhausted"
    assert chain[-1]["status"] == "ok"
    assert allclose_up_to_global_phase(result.state, reference, 1e-7)


def test_sweep_agrees_with_singles_across_backends():
    """``simulate_many`` is a pure batching layer over ``simulate``."""
    circuits = [random_circuits.random_circuit(3, 8, seed=s) for s in range(5)]
    for name in ("arrays", "dd", "auto"):
        batch = simulate_many(circuits, backend=name, fusion=True)
        for circuit, result in zip(circuits, batch):
            single = simulate(circuit, backend=name, fusion=True)
            assert np.array_equal(result.state, single.state), name
            assert result.backend == single.backend
