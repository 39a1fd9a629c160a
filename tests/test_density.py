"""Tests for the density-matrix simulator and noise channels."""


import numpy as np
import pytest

from repro.arrays import (
    DensityMatrixSimulator,
    NoiseModel,
    StatevectorSimulator,
    amplitude_damping,
    bit_flip,
    density_from_statevector,
    depolarizing,
    phase_damping,
    phase_flip,
    two_qubit_depolarizing,
    zero_density,
)
from repro.arrays.density import apply_channel
from repro.arrays.noise import KrausChannel
from repro.circuits import library
from repro.circuits.circuit import QuantumCircuit


@pytest.fixture(scope="module")
def sv():
    return StatevectorSimulator(seed=0)


def test_noiseless_density_matches_statevector(workload, sv_sim):
    clean = workload.without_measurements()
    rho = DensityMatrixSimulator().run(clean).rho
    state = sv_sim.statevector(clean)
    assert np.allclose(rho, density_from_statevector(state), atol=1e-8)


def test_channels_are_trace_preserving():
    for channel in [
        bit_flip(0.1),
        phase_flip(0.2),
        depolarizing(0.3),
        amplitude_damping(0.25),
        phase_damping(0.15),
        two_qubit_depolarizing(0.1),
    ]:
        dim = 2**channel.num_qubits
        total = sum(k.conj().T @ k for k in channel.operators)
        assert np.allclose(total, np.eye(dim), atol=1e-10)


@pytest.mark.parametrize(
    "channel, weights",
    [
        (depolarizing(0.2), [0.85, 0.05, 0.05, 0.05]),
        (bit_flip(0.1), [0.9, 0.1]),
        (phase_flip(0.3), [0.7, 0.3]),
        (two_qubit_depolarizing(0.16), [0.85] + [0.01] * 15),
    ],
    ids=["depolarizing", "bit_flip", "phase_flip", "two_qubit_depolarizing"],
)
def test_mixed_unitary_channels_detected(channel, weights):
    assert channel.mixed_unitary
    np.testing.assert_allclose(channel.constant_weights, weights, rtol=0, atol=1e-12)
    assert channel.identity_branches == {0}
    dim = 2**channel.num_qubits
    for kraus, weight, unitary in zip(
        channel.operators, channel.constant_weights, channel.unitaries
    ):
        assert np.allclose(unitary.conj().T @ unitary, np.eye(dim), atol=1e-12)
        assert np.allclose(np.sqrt(weight) * unitary, kraus, atol=1e-12)


@pytest.mark.parametrize(
    "channel",
    [amplitude_damping(0.3), phase_damping(0.2)],
    ids=["amplitude_damping", "phase_damping"],
)
def test_damping_channels_are_not_mixed_unitary(channel):
    assert not channel.mixed_unitary
    assert channel.constant_weights == ()
    assert channel.unitaries == ()
    assert channel.identity_branches == frozenset()


def test_noise_locations_per_operation():
    flip = bit_flip(0.2)
    pair = two_qubit_depolarizing(0.1)
    noise = NoiseModel(gate_errors={"ccx": flip}, default_1q=flip, default_2q=pair)
    qc = QuantumCircuit(3)
    qc.h(2)
    qc.cx(0, 1)
    qc.ccx(0, 1, 2)
    qc.swap(0, 2)
    h, cx, ccx, swap = qc.operations
    assert noise.locations(h) == [(flip, (2,))]
    assert noise.locations(cx) == [(pair, (1, 0))]
    # One-qubit channels strike targets first, then controls.
    assert noise.locations(ccx) == [(flip, (2,)), (flip, (0,)), (flip, (1,))]
    assert noise.locations(swap) == [(pair, (0, 2))]
    assert NoiseModel(default_2q=pair).locations(h) == []
    with pytest.raises(ValueError, match="arity"):
        NoiseModel(default_2q=pair).locations(ccx)


def test_invalid_channel_rejected():
    with pytest.raises(ValueError):
        KrausChannel("broken", [np.eye(2) * 0.5])
    with pytest.raises(ValueError):
        KrausChannel("empty", [])


def test_bit_flip_action():
    rho = zero_density(1)
    apply_channel(rho, bit_flip(0.3), [0], 1)
    assert rho[0, 0] == pytest.approx(0.7)
    assert rho[1, 1] == pytest.approx(0.3)


def test_depolarizing_drives_to_maximally_mixed():
    rho = zero_density(1)
    apply_channel(rho, depolarizing(1.0), [0], 1)
    assert np.allclose(rho, np.eye(2) / 2, atol=1e-10)


def test_amplitude_damping_fixes_ground_state():
    rho = zero_density(1)
    apply_channel(rho, amplitude_damping(0.7), [0], 1)
    assert np.allclose(rho, zero_density(1), atol=1e-12)
    # And decays the excited state.
    excited = np.zeros((2, 2), dtype=complex)
    excited[1, 1] = 1.0
    apply_channel(excited, amplitude_damping(0.4), [0], 1)
    assert excited[1, 1] == pytest.approx(0.6)
    assert excited[0, 0] == pytest.approx(0.4)


def test_noise_reduces_purity_and_fidelity(sv_sim):
    circuit = library.ghz_state(3)
    noise = NoiseModel.uniform_depolarizing(0.01, 0.02)
    result = DensityMatrixSimulator(noise).run(circuit)
    ideal = sv_sim.statevector(circuit)
    assert result.purity() < 1.0
    fidelity = result.fidelity_with_state(ideal)
    assert 0.7 < fidelity < 1.0
    # Trace must remain 1 despite the noise.
    assert np.trace(result.rho).real == pytest.approx(1.0, abs=1e-9)


def test_more_noise_means_less_fidelity(sv_sim):
    circuit = library.ghz_state(3)
    ideal = sv_sim.statevector(circuit)
    fidelities = []
    for p in (0.001, 0.01, 0.05):
        noise = NoiseModel.uniform_depolarizing(p, 2 * p)
        result = DensityMatrixSimulator(noise).run(circuit)
        fidelities.append(result.fidelity_with_state(ideal))
    assert fidelities[0] > fidelities[1] > fidelities[2]


def test_gate_specific_noise_only_hits_that_gate():
    noise = NoiseModel(gate_errors={"cx": bit_flip(0.5)})
    only_h = QuantumCircuit(1)
    only_h.h(0)
    result = DensityMatrixSimulator(noise).run(only_h)
    assert result.purity() == pytest.approx(1.0, abs=1e-10)


def test_measurement_dephases():
    qc = QuantumCircuit(1)
    qc.h(0)
    qc.measure(0)
    result = DensityMatrixSimulator().run(qc)
    assert np.allclose(result.rho, np.eye(2) / 2, atol=1e-10)


def test_sample_counts_distribution():
    result = DensityMatrixSimulator().run(library.bell_pair())
    counts = result.sample_counts(200, seed=3)
    assert set(counts) <= {"00", "11"}
    assert sum(counts.values()) == 200


def test_channel_arity_mismatch_raises():
    noise = NoiseModel(gate_errors={"cx": two_qubit_depolarizing(0.1)})
    qc = QuantumCircuit(3)
    qc.cx(0, 1)
    # works: channel arity matches the two touched qubits
    DensityMatrixSimulator(noise).run(qc)
    bad = NoiseModel(gate_errors={"ccx": two_qubit_depolarizing(0.1)})
    qc3 = QuantumCircuit(3)
    qc3.ccx(0, 1, 2)
    with pytest.raises(ValueError):
        DensityMatrixSimulator(bad).run(qc3)
