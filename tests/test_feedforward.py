"""Tests for classically-controlled (feed-forward) operations."""


import math

import numpy as np
import pytest

from repro.arrays import (
    DensityMatrixSimulator,
    NoiseModel,
    StatevectorSimulator,
    TrajectorySimulator,
    bit_flip,
    circuit_unitary,
    zero_state,
)
from repro.arrays.statevector import apply_operation
from repro.circuits import gates as g
from repro.circuits import library
from repro.circuits.circuit import Operation, QuantumCircuit
from repro.dd import DDSimulator, NoisyDDSimulator
from repro.tn import MPSSimulator


def _prepared_state(theta, phi):
    state = zero_state(1)
    apply_operation(state, Operation(g.ry(theta), [0]), 1)
    apply_operation(state, Operation(g.rz(phi), [0]), 1)
    return state


def _bob_state(full_state, classical):
    """Extract qubit 2's state given the collapsed measurement outcomes."""
    m0 = classical[0]
    m1 = classical[1]
    base = m0 | (m1 << 1)
    return np.array([full_state[base], full_state[base | 0b100]])


@pytest.mark.parametrize("seed", range(6))
def test_teleportation_statevector(seed):
    theta, phi = 0.7, -1.3
    circuit = library.teleportation(theta, phi)
    sim = StatevectorSimulator(seed=seed)
    result = sim.run(circuit)
    expected = _prepared_state(theta, phi)
    bob = _bob_state(result.state, result.classical_bits)
    # Compare up to global phase.
    overlap = abs(np.vdot(expected, bob))
    assert overlap == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("seed", range(4))
def test_teleportation_dd(seed):
    theta, phi = 1.9, 0.4
    circuit = library.teleportation(theta, phi)
    sim = DDSimulator(seed=seed)
    result = sim.run(circuit)
    expected = _prepared_state(theta, phi)
    bob = _bob_state(result.to_statevector(), result.classical_bits)
    assert abs(np.vdot(expected, bob)) == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("seed", range(4))
def test_teleportation_mps(seed):
    theta, phi = 0.3, 2.2
    circuit = library.teleportation(theta, phi)
    sim = MPSSimulator(seed=seed)
    result = sim.run(circuit)
    expected = _prepared_state(theta, phi)
    bob = _bob_state(result.to_statevector(), result.classical_bits)
    assert abs(np.vdot(expected, bob)) == pytest.approx(1.0, abs=1e-8)


def test_condition_skipped_when_bit_differs():
    qc = QuantumCircuit(2)
    qc.x(0)
    qc.measure(0, 0)           # always 1
    qc.conditional(g.X, [1], clbit=0, value=0)  # must NOT fire
    result = StatevectorSimulator(seed=1).run(qc)
    assert result.classical_bits[0] == 1
    assert abs(result.state[0b01]) == pytest.approx(1.0)


def test_condition_fires_when_bit_matches():
    qc = QuantumCircuit(2)
    qc.x(0)
    qc.measure(0, 0)
    qc.conditional(g.X, [1], clbit=0, value=1)  # must fire
    result = StatevectorSimulator(seed=1).run(qc)
    assert abs(result.state[0b11]) == pytest.approx(1.0)


def test_unmeasured_condition_defaults_to_zero():
    qc = QuantumCircuit(1)
    qc.conditional(g.X, [0], clbit=3, value=1)
    result = StatevectorSimulator().run(qc)
    # clbit 3 was never written: defaults to 0, so the X is skipped.
    assert abs(result.state[0]) == pytest.approx(1.0)
    assert qc.num_clbits == 4


def test_conditioned_circuit_has_no_unitary():
    qc = QuantumCircuit(1)
    qc.conditional(g.X, [0], clbit=0)
    with pytest.raises(ValueError):
        circuit_unitary(qc)


def test_without_measurements_strips_feedforward():
    circuit = library.teleportation()
    clean = circuit.without_measurements()
    assert all(op.condition is None for op in clean)
    assert all(not op.is_measurement for op in clean)


def test_condition_survives_remap_and_inverse():
    op = Operation(g.X, [0], condition=(2, 1))
    moved = op.remapped({0: 3})
    assert moved.condition == (2, 1)
    assert moved.inverse().condition == (2, 1)
    assert op != Operation(g.X, [0])
    assert "if c2==1" in repr(op)


# -- trajectory engines and the density simulator ------------------------------

TRAJECTORY_ENGINES = {"arrays": TrajectorySimulator, "dd": NoisyDDSimulator}


def _exact_teleportation_distribution(noise):
    """Exact output distribution of ``library.teleportation()`` under noise.

    Sums the four Bell-measurement branches: each projects the density
    matrix onto its outcome and runs, on that unnormalized branch, the
    corrections whose bit matches, each followed by its noise.  Every step
    is linear, so the branches add up to the exact mixture.
    """
    circuit = library.teleportation()
    split = next(i for i, op in enumerate(circuit.operations) if op.is_measurement)
    prefix = QuantumCircuit(3)
    for op in circuit.operations[:split]:
        prefix.append(op)
    rho = DensityMatrixSimulator(noise).run(prefix).rho
    corrections = [op for op in circuit.operations[split:] if op.condition is not None]
    total = np.zeros(8)
    for m0 in (0, 1):
        for m1 in (0, 1):
            keep = np.array([(i & 1) == m0 and (i >> 1) & 1 == m1 for i in range(8)])
            branch = rho * np.outer(keep, keep)
            bits = {0: m0, 1: m1}
            fired = QuantumCircuit(3)
            for op in corrections:
                clbit, value = op.condition
                if bits[clbit] == value:
                    fired.append(Operation(op.gate, op.targets, op.controls))
            total += DensityMatrixSimulator(noise).run(fired, branch).probabilities()
    return total


@pytest.mark.parametrize("noisy", [False, True], ids=["noiseless", "bit_flip"])
@pytest.mark.parametrize("engine", sorted(TRAJECTORY_ENGINES))
def test_teleportation_trajectories_match_exact_distribution(engine, noisy):
    """Both trajectory engines honour the feed-forward corrections.

    Each outcome's estimate is a mean of per-trajectory probabilities in
    [0, 1], so its standard error is at most sqrt(p (1 - p) / N); the bound
    is five of those plus 1/N.  Without the corrections, P(q2 = 1) would
    read about 0.5 instead of sin^2(0.3) = 0.087.
    """
    noise = NoiseModel(default_1q=bit_flip(0.05), default_2q=bit_flip(0.05)) if noisy else None
    exact = _exact_teleportation_distribution(noise)
    trajectories = 2000
    bound = 5 * np.sqrt(exact * (1 - exact) / trajectories) + 1 / trajectories
    simulator = TRAJECTORY_ENGINES[engine](noise, seed=3)
    probs = simulator.run(library.teleportation(), trajectories).probabilities()
    assert np.all(np.abs(probs - exact) <= bound)
    if not noisy:
        # Every noiseless trajectory ends with qubit 2 in the sent state.
        assert probs[4:].sum() == pytest.approx(math.sin(0.3) ** 2, abs=1e-9)


@pytest.mark.parametrize("engine", sorted(TRAJECTORY_ENGINES))
def test_conditioned_op_carries_its_noise_only_when_it_fires(engine):
    """Deterministic: only the identity that fires brings its certain flip."""
    qc = QuantumCircuit(4)
    qc.ry(math.pi, 0)
    qc.measure(0, 0)  # always 1
    qc.conditional(g.I, [1], clbit=0, value=1)  # fires: its noise flips q1
    qc.conditional(g.I, [2], clbit=0, value=0)  # skipped, and so is its noise
    qc.conditional(g.I, [3], clbit=5, value=1)  # unmeasured bit reads 0
    noise = NoiseModel(gate_errors={"id": bit_flip(1.0)})
    probs = TRAJECTORY_ENGINES[engine](noise, seed=1).run(qc, 16).probabilities()
    assert probs[0b0011] == pytest.approx(1.0, abs=1e-12)


def test_density_simulator_refuses_feedforward():
    with pytest.raises(ValueError, match="non-selective"):
        DensityMatrixSimulator().run(library.teleportation())
