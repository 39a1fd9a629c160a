"""Tests for Monte-Carlo trajectory noise simulation vs density matrices."""

import numpy as np
import pytest

from repro.arrays import (
    DensityMatrixSimulator,
    NoiseModel,
    StatevectorSimulator,
    TrajectorySimulator,
    amplitude_damping,
    bit_flip,
)
from repro.circuits import library
from repro.circuits.circuit import QuantumCircuit


def test_noiseless_trajectories_are_exact():
    circuit = library.ghz_state(3)
    result = TrajectorySimulator(None).run(circuit, trajectories=3)
    expected = np.abs(StatevectorSimulator().statevector(circuit)) ** 2
    assert np.allclose(result.probabilities(), expected, atol=1e-10)


def test_trajectories_converge_to_density_matrix():
    circuit = library.ghz_state(3)
    noise = NoiseModel.uniform_depolarizing(0.02, 0.05)
    dm_probs = DensityMatrixSimulator(noise).run(circuit).probabilities()
    traj = TrajectorySimulator(noise, seed=7).run(circuit, trajectories=800)
    # Monte-Carlo error ~ 1/sqrt(800) per bin.
    assert np.allclose(traj.probabilities(), dm_probs, atol=0.06)


def test_bit_flip_channel_statistics():
    noise = NoiseModel(gate_errors={"x": bit_flip(0.25)})
    qc = QuantumCircuit(1)
    qc.x(0)
    traj = TrajectorySimulator(noise, seed=1).run(qc, trajectories=1000)
    probs = traj.probabilities()
    # After X then 25% flip: P(|1>) = 0.75.
    assert probs[1] == pytest.approx(0.75, abs=0.05)


def test_amplitude_damping_bias():
    noise = NoiseModel(default_1q=amplitude_damping(0.3), default_2q=None)
    qc = QuantumCircuit(1)
    qc.x(0)
    dm = DensityMatrixSimulator(noise).run(qc).probabilities()
    traj = TrajectorySimulator(noise, seed=2).run(qc, trajectories=1500)
    assert traj.probabilities()[0] == pytest.approx(dm[0], abs=0.04)
    assert dm[0] == pytest.approx(0.3, abs=1e-9)


def test_trajectory_sampling():
    circuit = library.bell_pair()
    result = TrajectorySimulator(None).run(circuit, trajectories=1)
    counts = result.sample_counts(100, seed=3)
    assert set(counts) <= {"00", "11"}
    assert sum(counts.values()) == 100


def test_trajectories_with_measurement():
    qc = QuantumCircuit(1)
    qc.h(0)
    qc.measure(0)
    result = TrajectorySimulator(None, seed=4).run(qc, trajectories=300)
    probs = result.probabilities()
    # Each trajectory collapses to |0> or |1>; the average is ~50/50.
    assert probs[0] == pytest.approx(0.5, abs=0.1)


def _reference_sample_kraus_batched(states, channel, targets, num_qubits, rng):
    """The all-branches oracle: materializes K_i|psi_b> for every branch.

    Draws the same ``(batch,)`` vector of uniforms as
    :func:`repro.arrays.batched.sample_kraus_batched` and picks, column by
    column, the first branch whose cumulative weight reaches the draw —
    so the reduced-density-matrix sampler must choose the same branches
    and produce the same normalized states.
    """
    picks = rng.random(states.shape[1])
    for b in range(states.shape[1]):
        column = states[:, b].copy()
        candidates = [
            channel.apply_operator(column, index, targets, num_qubits=num_qubits)
            for index in range(len(channel.operators))
        ]
        weights = [float(np.real(np.vdot(c, c))) for c in candidates]
        pick = picks[b] * sum(weights)
        chosen = len(weights) - 1
        cumulative = 0.0
        for index, weight in enumerate(weights):
            cumulative += weight
            if pick <= cumulative:
                chosen = index
                break
        states[:, b] = candidates[chosen] / np.sqrt(max(weights[chosen], 1e-300))
    return states


@pytest.mark.parametrize("seed", [0, 1, 17])
def test_kraus_sampling_matches_reference_trajectories(seed, monkeypatch):
    """Seeded batched trajectories match the all-branches oracle."""
    from repro.arrays import batched
    from repro.arrays.noise import depolarizing, two_qubit_depolarizing

    noise = NoiseModel(
        gate_errors={"h": amplitude_damping(0.15)},
        default_1q=depolarizing(0.08),
        default_2q=two_qubit_depolarizing(0.1),
    )
    circuit = library.qft(4)
    new = batched.run_trajectory_batch(
        circuit, noise, 60, np.random.default_rng(seed)
    )
    monkeypatch.setattr(
        batched, "sample_kraus_batched", _reference_sample_kraus_batched
    )
    old = batched.run_trajectory_batch(
        circuit, noise, 60, np.random.default_rng(seed)
    )
    assert np.allclose(new, old, rtol=0, atol=1e-12)


def test_batched_branch_weights_match_materialized_branches():
    """For every column of a random batch, tr(K rho_b K^dag) equals
    ||K|psi_b>||^2, and sampling leaves every column normalized."""
    from repro.arrays.batched import (
        batched_branch_weights,
        batched_reduced_density_matrices,
        sample_kraus_batched,
    )
    from repro.arrays.noise import two_qubit_depolarizing

    rng = np.random.default_rng(5)
    states = rng.standard_normal((16, 6)) + 1j * rng.standard_normal((16, 6))
    states /= np.linalg.norm(states, axis=0)
    for channel, targets in (
        (two_qubit_depolarizing(0.2), [3, 1]),
        (amplitude_damping(0.3), [2]),
    ):
        rho = batched_reduced_density_matrices(states, targets, 4)
        weights = batched_branch_weights(rho, channel.operators)
        for b in range(states.shape[1]):
            for index in range(len(channel.operators)):
                branch = channel.apply_operator(
                    states[:, b], index, targets, num_qubits=4
                )
                assert weights[b, index] == pytest.approx(
                    float(np.real(np.vdot(branch, branch))), abs=1e-12
                )
        sample_kraus_batched(states, channel, targets, 4, rng)
        assert np.allclose(np.linalg.norm(states, axis=0), 1.0, atol=1e-12)


def test_branch_weights_match_materialized_branches():
    """tr(K rho K^dag) equals ||K|psi>||^2 for every operator."""
    from repro.arrays.noise import two_qubit_depolarizing

    rng = np.random.default_rng(3)
    state = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    state /= np.linalg.norm(state)
    channel = two_qubit_depolarizing(0.2)
    for targets in ([0, 1], [3, 1], [2, 0]):
        weights = channel.branch_weights(state, targets, num_qubits=4)
        for index, weight in enumerate(weights):
            branch = channel.apply_operator(state, index, targets, num_qubits=4)
            assert weight == pytest.approx(
                float(np.real(np.vdot(branch, branch))), abs=1e-12
            )
        assert sum(weights) == pytest.approx(1.0, abs=1e-9)
