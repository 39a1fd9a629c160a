"""Tests for numeric resynthesis: the canonical 2q template and the passes."""

import numpy as np
import pytest

from repro.arrays import allclose_up_to_global_phase, circuit_unitary
from repro.circuits import library, random_circuits
from repro.circuits.circuit import QuantumCircuit
from repro.compile import (
    BASIS_CX_RZ_RY,
    Collapse1qRuns,
    PassManager,
    Resynth2qBlocks,
    fused_matrix,
    synthesize_canonical,
    synthesize_two_qubit,
)
from repro.compile.resynth import _verified
from tests.conftest import random_unitary

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


def _canonical_matrix(c1, c2, c3):
    """Dense exp(i(c1 XX + c2 YY + c3 ZZ)) on (q0, q1), q0 least significant."""
    h = (
        c1 * np.kron(X, X) + c2 * np.kron(Y, Y) + c3 * np.kron(Z, Z)
    )
    values, vectors = np.linalg.eigh(h)
    return (vectors * np.exp(1j * values)) @ vectors.conj().T


def _ops_matrix(ops):
    return fused_matrix(ops, [0, 1])


def _cx_count(ops):
    return sum(1 for op in ops if op.is_unitary and len(op.qubits) >= 2)


class TestSynthesizeCanonical:
    @pytest.mark.parametrize(
        "coeffs, expected_cx",
        [
            ((0.0, 0.0, 0.0), 0),
            ((0.7, 0.0, 0.0), 2),
            ((0.0, 0.4, 0.0), 2),
            ((0.0, 0.0, -1.1), 2),
            ((0.3, -0.2, 0.5), 3),
        ],
    )
    def test_exact_including_phase(self, coeffs, expected_cx):
        ops = synthesize_canonical(*coeffs, 0, 1)
        assert _cx_count(ops) == expected_cx
        # Exact equality, not just up-to-phase: the template is used as
        # a drop-in factor inside larger decompositions.
        rebuilt = (
            np.eye(4, dtype=complex) if not ops else _ops_matrix(list(ops))
        )
        assert np.allclose(rebuilt, _canonical_matrix(*coeffs), atol=1e-10)

    def test_random_coefficients_exact(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            c1, c2, c3 = rng.uniform(-np.pi / 4, np.pi / 4, size=3)
            ops = synthesize_canonical(c1, c2, c3, 0, 1)
            assert np.allclose(
                _ops_matrix(list(ops)),
                _canonical_matrix(c1, c2, c3),
                atol=1e-10,
            )

    def test_qubit_order_swapped(self):
        # The interaction is symmetric under qubit exchange; emitting on
        # (1, 0) must still build the same matrix on wires {0, 1}.
        ops = synthesize_canonical(0.3, -0.2, 0.5, 1, 0)
        assert np.allclose(
            _ops_matrix(list(ops)), _canonical_matrix(0.3, -0.2, 0.5),
            atol=1e-10,
        )


class TestSynthesizeTwoQubit:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_su4_at_most_three_cx(self, seed):
        target = random_unitary(4, seed)
        ops = synthesize_two_qubit(target, 0, 1)
        assert _cx_count(ops) <= 3
        phase = sum(
            op.gate.params[0] for op in ops if op.gate.num_qubits == 0
        )
        rebuilt = _ops_matrix(
            [op for op in ops if op.gate.num_qubits > 0]
        ) * np.exp(1j * phase)
        assert np.allclose(rebuilt, target, atol=1e-7)

    def test_basis_emission_stays_in_basis(self):
        ops = synthesize_two_qubit(
            random_unitary(4, 42), 0, 1, basis=BASIS_CX_RZ_RY
        )
        names = {
            op.name_with_controls()
            for op in ops
            if op.is_unitary and op.gate.num_qubits > 0
        }
        assert names <= set(BASIS_CX_RZ_RY)

    def test_local_unitary_needs_no_cx(self):
        target = np.kron(random_unitary(2, 1), random_unitary(2, 2))
        assert _cx_count(synthesize_two_qubit(target, 0, 1)) == 0

    def test_cnot_costs_one_cx(self):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        target = circuit_unitary(circuit)
        # CX has canonical coefficients (pi/4, 0, 0): 2 CX from the
        # template, but the block pass would reject that; the raw
        # synthesis may not beat the original single gate.
        assert _cx_count(synthesize_two_qubit(target, 0, 1)) <= 2


class TestCollapse1qRuns:
    def test_run_collapses_to_single_unitary(self):
        circuit = QuantumCircuit(1)
        for _ in range(3):
            circuit.h(0)
            circuit.t(0)
        out = PassManager().append(Collapse1qRuns()).run(circuit).circuit
        assert len(out) == 1
        assert out.operations[0].gate.name == "unitary1q"
        assert allclose_up_to_global_phase(
            circuit_unitary(circuit), circuit_unitary(out), tol=1e-9
        )

    def test_identity_run_removed(self):
        circuit = QuantumCircuit(1)
        circuit.h(0)
        circuit.h(0)
        out = PassManager().append(Collapse1qRuns()).run(circuit).circuit
        assert len(out) == 0

    def test_two_qubit_gate_fences_runs(self):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        circuit.cx(0, 1)
        circuit.h(0)
        out = PassManager().append(Collapse1qRuns()).run(circuit).circuit
        # No adjacent 1q pair on either side of the CX: nothing merges.
        assert out.operations == circuit.operations

    def test_basis_emission(self):
        circuit = QuantumCircuit(1)
        for _ in range(4):
            circuit.h(0)
            circuit.t(0)
            circuit.s(0)
        out = (
            PassManager()
            .append(Collapse1qRuns(BASIS_CX_RZ_RY))
            .run(circuit)
            .circuit
        )
        names = {op.name_with_controls() for op in out}
        assert names <= set(BASIS_CX_RZ_RY)
        assert len(out) <= 4  # euler_zyz: at most rz.ry.rz (+ gphase)
        assert allclose_up_to_global_phase(
            circuit_unitary(circuit), circuit_unitary(out), tol=1e-9
        )


class TestResynth2qBlocks:
    def _resynth(self, circuit, basis=None):
        return (
            PassManager().append(Resynth2qBlocks(basis)).run(circuit).circuit
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_equivalent_and_cx_monotone(self, seed):
        circuit = random_circuits.random_circuit(3, 30, seed=seed)
        out = self._resynth(circuit)
        assert out.two_qubit_gate_count() <= circuit.two_qubit_gate_count()
        assert allclose_up_to_global_phase(
            circuit_unitary(circuit), circuit_unitary(out), tol=1e-6
        )

    def test_acceptance_is_absolute(self):
        """A candidate within np.allclose's default rtol=1e-5 of its
        target, but 4e-6 off on one entry, is rejected."""
        ops = synthesize_two_qubit(random_unitary(4, 7), 0, 1)
        circuit = QuantumCircuit(2)
        circuit.operations = list(ops)
        exact = circuit_unitary(circuit)
        assert _verified(ops, exact, [0, 1])
        nudged = exact.copy()
        nudged[0, 0] += 4e-6
        assert np.allclose(nudged, exact, atol=1e-7)
        assert not _verified(ops, nudged, [0, 1])

    def test_level3_compile_does_not_drift(self):
        """Regression: with the relative tolerance, level 3 accepted a
        block 4.1e-6 off its target on this circuit and the compiled
        circuit drifted by 8.2e-6 from its input."""
        from repro.compile import compile_circuit

        circuit = random_circuits.random_clifford_t_circuit(
            4, 32, seed=1476467833, t_prob=0.15
        )
        out = compile_circuit(circuit, optimization_level=3, seed=810).circuit
        assert allclose_up_to_global_phase(
            circuit_unitary(circuit), circuit_unitary(out), tol=1e-9
        )

    def test_dense_cx_ladder_compresses(self):
        # Six alternating CX/rotation layers on one pair: any block of
        # 2q ops resynthesizes to at most 3 CX.
        circuit = QuantumCircuit(2)
        for k in range(6):
            circuit.cx(0, 1)
            circuit.rz(0.3 + 0.1 * k, 1)
            circuit.ry(0.2 * k, 0)
        out = self._resynth(circuit)
        assert out.two_qubit_gate_count() <= 3
        assert allclose_up_to_global_phase(
            circuit_unitary(circuit), circuit_unitary(out), tol=1e-6
        )

    def test_quantum_volume_blocks(self):
        from repro.compile import decompose_to_basis

        circuit = library.quantum_volume_circuit(4, 3, seed=5)
        lowered = decompose_to_basis(circuit, BASIS_CX_RZ_RY)
        out = self._resynth(lowered, basis=BASIS_CX_RZ_RY)
        names = {
            op.name_with_controls()
            for op in out
            if op.is_unitary and op.gate.num_qubits > 0
        }
        assert names <= set(BASIS_CX_RZ_RY)
        # The generic lowering pays ~6 CX per unitary2q block; the
        # Cartan resynthesis caps each block at 3.
        assert out.two_qubit_gate_count() < lowered.two_qubit_gate_count()
        assert out.two_qubit_gate_count() <= 3 * len(
            [op for op in circuit if len(op.qubits) == 2]
        )
        assert allclose_up_to_global_phase(
            circuit_unitary(circuit), circuit_unitary(out), tol=1e-6
        )

    def test_single_gates_left_alone(self):
        circuit = library.bell_pair()
        out = self._resynth(circuit)
        assert out.operations == circuit.operations

    def test_measurement_fences_blocks(self):
        circuit = QuantumCircuit(2, 1)
        circuit.cx(0, 1)
        circuit.measure(1, 0)
        circuit.cx(0, 1)
        out = self._resynth(circuit)
        # The two CX sit on opposite sides of a measurement: no block
        # spans it, nothing changes.
        assert out.operations == circuit.operations
