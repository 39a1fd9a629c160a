"""Tests for noise-aware decision-diagram simulation (paper ref. [13])."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.arrays import (
    DensityMatrixSimulator,
    NoiseModel,
    amplitude_damping,
    bit_flip,
    depolarizing,
    phase_damping,
    two_qubit_depolarizing,
)
from repro.circuits import library, random_circuits
from repro.circuits.circuit import QuantumCircuit
from repro.dd import DDPackage, NoisyDDSimulator, noise_sim

# One noise model per way a branch is drawn: mixed-unitary channels draw
# from constant weights, the damping channels weigh every Kraus branch.
NOISE_MODELS = {
    "depolarizing+amplitude_damping": lambda: NoiseModel(
        default_1q=depolarizing(0.03), default_2q=amplitude_damping(0.12)
    ),
    "uniform_depolarizing": lambda: NoiseModel.uniform_depolarizing(0.02, 0.05),
    "phase_damping+bit_flip": lambda: NoiseModel(
        default_1q=phase_damping(0.1), default_2q=bit_flip(0.05)
    ),
    "depolarizing+two_qubit_depolarizing": lambda: NoiseModel(
        default_1q=depolarizing(0.03), default_2q=two_qubit_depolarizing(0.06)
    ),
}
PINNED_CIRCUITS = {
    "brickwork4": lambda: random_circuits.brickwork_circuit(4, 3, seed=11),
    "brickwork5": lambda: random_circuits.brickwork_circuit(5, 3, seed=12),
    "ghz6": lambda: library.ghz_state(6),
}
PINNED = json.loads(
    (Path(__file__).parent / "data" / "noisy_dd_pinned.json").read_text()
)


def test_noiseless_dd_trajectories_exact():
    circuit = library.ghz_state(4)
    result = NoisyDDSimulator(None).run(circuit, trajectories=2)
    expected = np.zeros(16)
    expected[0] = expected[15] = 0.5
    assert np.allclose(result.probabilities(), expected, atol=1e-10)


@pytest.mark.parametrize("model", sorted(NOISE_MODELS))
def test_dd_trajectories_match_density_matrix(model):
    circuit = library.ghz_state(3)
    noise = NOISE_MODELS[model]()
    dm = DensityMatrixSimulator(noise).run(circuit).probabilities()
    dd = NoisyDDSimulator(noise, seed=5).run(circuit, trajectories=700)
    assert np.allclose(dd.probabilities(), dm, atol=0.06)


@pytest.mark.parametrize("circuit", sorted(PINNED_CIRCUITS))
@pytest.mark.parametrize("model", sorted(NOISE_MODELS))
def test_seeded_outputs_match_per_trajectory_packages(model, circuit):
    """Seeded outputs equal those of the engine that built a fresh package
    and fresh gate DDs per trajectory and weighed every Kraus branch.

    ``tests/data/noisy_dd_pinned.json`` holds that engine's outputs for
    exactly these calls.  Sharing a package and drawing mixed-unitary
    branches from constant weights only move the last bits of the
    probabilities; every branch choice, node count and sampled outcome
    is the same.
    """
    pinned = PINNED[f"{model}/{circuit}"]
    qc = PINNED_CIRCUITS[circuit]()
    result = NoisyDDSimulator(NOISE_MODELS[model](), seed=7).run(qc, trajectories=16)
    np.testing.assert_allclose(result.probs, pinned["probs"], rtol=0, atol=1e-12)
    assert result.mean_nodes == pinned["mean_nodes"]
    assert result.peak_nodes == pinned["peak_nodes"]
    counts = NoisyDDSimulator(NOISE_MODELS[model](), seed=9).run_sampling(qc, shots=24)
    assert counts == pinned["counts"]


def test_node_cap_starts_fresh_packages(monkeypatch):
    """Past the node cap a chunk's next trajectory gets a fresh package;
    results still agree with the density matrix."""
    created = []

    class CountingPackage(DDPackage):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            created.append(self)

    monkeypatch.setattr(noise_sim, "DDPackage", CountingPackage)
    circuit = library.ghz_state(3)
    noise = NoiseModel.uniform_depolarizing(0.02, 0.05)
    shared = NoisyDDSimulator(noise, seed=5).run(circuit, trajectories=700)
    assert len(created) == shared.metadata["chunks"] == 8

    created.clear()
    monkeypatch.setattr(noise_sim, "PACKAGE_NODE_CAP", 2)
    fresh = NoisyDDSimulator(noise, seed=5).run(circuit, trajectories=700)
    assert len(created) == 700
    dm = DensityMatrixSimulator(noise).run(circuit).probabilities()
    assert np.allclose(fresh.probabilities(), dm, atol=0.06)
    np.testing.assert_allclose(fresh.probs, shared.probs, rtol=0, atol=1e-12)
    assert (fresh.mean_nodes, fresh.peak_nodes) == (shared.mean_nodes, shared.peak_nodes)


def test_dd_trajectories_stay_compact_under_noise():
    """The point of DD-based noise simulation: Kraus branches of structured
    states are still structured, so diagrams stay near-linear."""
    circuit = library.ghz_state(12)
    noise = NoiseModel(default_1q=bit_flip(0.05), default_2q=bit_flip(0.05))
    result = NoisyDDSimulator(noise, seed=2).run(circuit, trajectories=15)
    assert result.peak_nodes <= 4 * 12
    assert result.mean_nodes <= 4 * 12


def test_dd_noisy_sampling_without_dense_state():
    circuit = library.ghz_state(20)  # 2^20 — never materialized
    noise = NoiseModel(default_1q=bit_flip(0.01), default_2q=bit_flip(0.02))
    counts = NoisyDDSimulator(noise, seed=3).run_sampling(circuit, shots=20)
    assert sum(counts.values()) == 20
    for bits in counts:
        assert len(bits) == 20


def test_bit_flip_statistics_on_dd():
    noise = NoiseModel(gate_errors={"x": bit_flip(0.3)})
    qc = QuantumCircuit(1)
    qc.x(0)
    result = NoisyDDSimulator(noise, seed=1).run(qc, trajectories=800)
    assert result.probabilities()[1] == pytest.approx(0.7, abs=0.05)


def test_channel_arity_mismatch_rejected():
    noise = NoiseModel(gate_errors={"ccx": two_qubit_depolarizing(0.1)})
    qc = QuantumCircuit(3)
    qc.ccx(0, 1, 2)
    with pytest.raises(ValueError):
        NoisyDDSimulator(noise).run(qc, trajectories=1)
    # The noise is analysed before any trajectory runs.
    with pytest.raises(ValueError):
        NoisyDDSimulator(noise).run(qc, trajectories=0)
    with pytest.raises(ValueError):
        NoisyDDSimulator(noise).run_sampling(qc, shots=0)
