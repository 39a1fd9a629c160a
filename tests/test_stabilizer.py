"""Tests for the stabilizer-tableau simulator against the array backend."""

import numpy as np
import pytest

from repro.arrays import StatevectorSimulator
from repro.arrays.measurement import expectation_value, pauli_string_matrix
from repro.circuits import library, random_circuits
from repro.circuits.circuit import QuantumCircuit
from repro.stab import NotCliffordError, StabilizerSimulator, StabilizerTableau


def _assert_stabilizes(circuit):
    """Every tableau stabilizer generator must fix the dense state."""
    tableau, _ = StabilizerSimulator().run(circuit.without_measurements())
    state = StatevectorSimulator().statevector(circuit.without_measurements())
    for sign, pauli in tableau.stabilizer_strings():
        matrix = pauli_string_matrix(pauli)
        assert np.allclose(matrix @ state, sign * state, atol=1e-9), (
            sign,
            pauli,
        )


def test_initial_state_stabilizers():
    tableau = StabilizerTableau(3)
    strings = tableau.stabilizer_strings()
    assert strings == [(1, "IIZ"), (1, "IZI"), (1, "ZII")]


def test_bell_state_stabilizers():
    tableau, _ = StabilizerSimulator().run(library.bell_pair())
    strings = dict((p, s) for s, p in tableau.stabilizer_strings())
    assert strings.get("XX") == 1
    assert strings.get("ZZ") == 1


@pytest.mark.parametrize("n", [2, 3, 5])
def test_ghz_stabilizes_dense_state(n):
    _assert_stabilizes(library.ghz_state(n))


@pytest.mark.parametrize("seed", range(10))
def test_random_clifford_stabilizes_dense_state(seed):
    circuit = random_circuits.random_clifford_circuit(4, 30, seed=seed)
    _assert_stabilizes(circuit)


def test_hidden_shift_is_clifford():
    _assert_stabilizes(library.hidden_shift(4, 0b1010))


def test_non_clifford_rejected():
    qc = QuantumCircuit(1)
    qc.t(0)
    with pytest.raises(NotCliffordError):
        StabilizerSimulator().run(qc)
    qc2 = QuantumCircuit(3)
    qc2.ccx(0, 1, 2)
    with pytest.raises(NotCliffordError):
        StabilizerSimulator().run(qc2)


def test_deterministic_measurement():
    qc = QuantumCircuit(2)
    qc.x(0)
    qc.measure(0, 0)
    qc.measure(1, 1)
    _, classical = StabilizerSimulator(seed=1).run(qc)
    assert classical == {0: 1, 1: 0}


def test_random_measurement_statistics():
    sim = StabilizerSimulator(seed=3)
    ones = 0
    for _ in range(200):
        qc = QuantumCircuit(1)
        qc.h(0)
        qc.measure(0, 0)
        _, classical = sim.run(qc)
        ones += classical[0]
    assert 60 < ones < 140


def test_ghz_measurement_correlation():
    sim = StabilizerSimulator(seed=5)
    for _ in range(20):
        qc = library.ghz_state(3)
        qc.measure_all()
        _, classical = sim.run(qc)
        bits = {classical[0], classical[1], classical[2]}
        assert len(bits) == 1  # perfectly correlated


def test_sample_counts_match_dense_distribution():
    cases = [(3, 20, 4, 500), (6, 60, 5, 4000), (10, 120, 6, 4000)]
    for num_qubits, num_gates, circuit_seed, shots in cases:
        circuit = random_circuits.random_clifford_circuit(
            num_qubits, num_gates, seed=circuit_seed
        )
        dense = StatevectorSimulator().statevector(circuit)
        probs = np.abs(dense) ** 2
        counts = StabilizerSimulator(seed=2).sample_counts(circuit, shots, seed=6)
        assert sum(counts.values()) == shots
        # every sampled outcome must have nonzero dense probability
        for bits, count in counts.items():
            index = int(bits, 2)
            assert probs[index] > 1e-9
        # and high-probability outcomes must appear
        support = {
            format(i, f"0{num_qubits}b")
            for i in range(1 << num_qubits)
            if probs[i] > 1e-9
        }
        assert set(counts) <= support
        # uniform over support (stabilizer states are flat on their support)
        expected = shots / len(support)
        for bits in support:
            assert abs(counts.get(bits, 0) - expected) < 6 * np.sqrt(expected) + 10
        # and jointly so: Pearson's statistic within 6 sigmas of its mean
        dof = len(support) - 1
        chi2 = sum(
            (counts.get(bits, 0) - expected) ** 2 / expected for bits in support
        )
        assert chi2 <= dof + 6 * np.sqrt(2 * max(dof, 1)) + 1, num_qubits


def test_expectation_z():
    tableau, _ = StabilizerSimulator().run(library.bell_pair())
    assert tableau.expectation_z(0) is None  # <Z> = 0 on a Bell qubit
    qc = QuantumCircuit(2)
    qc.x(1)
    tableau, _ = StabilizerSimulator().run(qc)
    assert tableau.expectation_z(1) == -1
    assert tableau.expectation_z(0) == 1


def test_expectation_z_matches_dense():
    circuit = random_circuits.random_clifford_circuit(4, 25, seed=11)
    tableau, _ = StabilizerSimulator().run(circuit)
    state = StatevectorSimulator().statevector(circuit)
    for q in range(4):
        pauli = "".join("Z" if i == q else "I" for i in reversed(range(4)))
        dense_value = expectation_value(state, pauli)
        tab_value = tableau.expectation_z(q)
        if tab_value is None:
            assert abs(dense_value) < 1e-9
        else:
            assert dense_value == pytest.approx(tab_value, abs=1e-9)


def test_tableau_copy_independent():
    tableau = StabilizerTableau(2)
    dup = tableau.copy()
    dup.h(0)
    assert not np.array_equal(tableau.x, dup.x)


def test_large_clifford_is_fast():
    """100 qubits, 1000 gates: trivial for the tableau (the ref. [11] point)."""
    circuit = random_circuits.random_clifford_circuit(100, 1000, seed=8)
    tableau, _ = StabilizerSimulator().run(circuit)
    assert tableau.num_qubits == 100
    strings = tableau.stabilizer_strings()
    assert len(strings) == 100
