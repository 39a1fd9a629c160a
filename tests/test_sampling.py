"""Shot sampling: the counting helper and every backend's sampler.

The structure-native samplers (stabilizer tableau, MPS, decision
diagram) draw all shots of a block together, one level at a time; the
dense samplers draw every shot in one ``rng.choice`` call.  Each is
checked against the exact distribution of the dense state, on every
outcome, not just the ones that appeared.
"""

import math

import numpy as np
import pytest

from repro.arrays.density import DensityMatrixResult
from repro.arrays.measurement import SAMPLE_BLOCK, count_outcomes, sample_counts
from repro.arrays.statevector import StatevectorSimulator
from repro.arrays.trajectories import TrajectoryResult
from repro.circuits import library, random_circuits
from repro.circuits.circuit import QuantumCircuit
from repro.dd import DDSimulator, NoisyDDResult
from repro.stab import StabilizerSimulator
from repro.tn import MPSSimulator


def _assert_matches_distribution(counts, probs, shots):
    """Every outcome's frequency within 5 binomial sigmas of its probability."""
    n = int(len(probs)).bit_length() - 1
    assert sum(counts.values()) == shots
    keys = [format(index, f"0{n}b") for index in range(len(probs))]
    assert set(counts) <= set(keys)
    for key, p in zip(keys, probs):
        got = counts.get(key, 0)
        if p < 1e-12:
            assert got == 0, key
        sigma = math.sqrt(p * (1 - p) / shots)
        assert abs(got / shots - p) <= 5 * sigma + 1 / shots, (key, got, p)


def _exact(circuit):
    return np.abs(StatevectorSimulator().statevector(circuit)) ** 2


class TestCountOutcomes:
    def test_indices_and_bit_rows_agree(self):
        indices = np.array([5, 0, 5, 3, 5])
        rows = (indices[:, None] >> np.arange(3)) & 1
        expected = {"101": 3, "000": 1, "011": 1}
        assert count_outcomes(indices, 3) == expected
        assert count_outcomes(rows, 3) == expected

    def test_rows_wider_than_a_machine_word(self):
        rows = np.zeros((3, 70), dtype=np.uint8)
        rows[0, 69] = 1
        assert count_outcomes(rows, 70) == {"1" + "0" * 69: 1, "0" * 70: 2}

    def test_zero_qubit_register_has_one_empty_key(self):
        assert count_outcomes(np.zeros((3, 0), dtype=np.uint8), 0) == {"": 3}
        empty = QuantumCircuit(0)
        assert StabilizerSimulator().sample_counts(empty, 5) == {"": 5}
        assert MPSSimulator().run(empty).sample_counts(5) == {"": 5}
        assert DDSimulator().run(empty).sample_counts(5) == {"": 5}

    def test_no_shots_no_counts(self):
        assert count_outcomes(np.zeros(0, dtype=np.int64), 2) == {}
        result = StabilizerSimulator().sample_counts(library.ghz_state(3), 0)
        assert result == {}


class TestStructureSamplers:
    def test_stab_ghz_100_keys_are_100_bits_wide(self):
        shots = 2000
        counts = StabilizerSimulator().sample_counts(
            library.ghz_state(100), shots, seed=3
        )
        assert set(counts) <= {"0" * 100, "1" * 100}
        assert sum(counts.values()) == shots
        sigma = math.sqrt(shots * 0.25)
        for key in ("0" * 100, "1" * 100):
            assert abs(counts.get(key, 0) - shots / 2) <= 5 * sigma

    def test_mps_brickwork_10_matches_exact_probabilities(self):
        circuit = random_circuits.brickwork_circuit(10, 4, seed=12)
        shots = 20000
        counts = MPSSimulator().run(circuit).sample_counts(shots, seed=4)
        _assert_matches_distribution(counts, _exact(circuit), shots)

    def test_dd_clifford_t_10_matches_exact_probabilities(self):
        circuit = random_circuits.random_clifford_t_circuit(10, 60, seed=13)
        shots = 20000
        counts = DDSimulator().run(circuit).sample_counts(shots, seed=4)
        _assert_matches_distribution(counts, _exact(circuit), shots)

    @pytest.mark.parametrize("backend", ["stab", "mps", "dd"])
    def test_shots_above_the_block_size(self, backend):
        circuit = random_circuits.random_clifford_circuit(5, 30, seed=14)
        shots = 2 * SAMPLE_BLOCK + 7
        if backend == "stab":
            counts = StabilizerSimulator().sample_counts(circuit, shots, seed=5)
        elif backend == "mps":
            counts = MPSSimulator().run(circuit).sample_counts(shots, seed=5)
        else:
            counts = DDSimulator().run(circuit).sample_counts(shots, seed=5)
        _assert_matches_distribution(counts, _exact(circuit), shots)


_PINNED_PROBS = np.array([0.05, 0.1, 0.15, 0.2, 0.02, 0.08, 0.3, 0.1])

# Counts computed by the per-shot counting loops these samplers used to
# have.  Their RNG use did not change when they moved to count_outcomes,
# so their bits must not either.
_PINNED_COUNTS = {
    "000": 28,
    "001": 48,
    "010": 57,
    "011": 85,
    "100": 8,
    "101": 28,
    "110": 113,
    "111": 33,
}


@pytest.mark.parametrize(
    "draw",
    [
        lambda: sample_counts(np.sqrt(_PINNED_PROBS).astype(complex), 400, seed=11),
        lambda: DensityMatrixResult(
            np.diag(_PINNED_PROBS).astype(complex)
        ).sample_counts(400, seed=11),
        lambda: TrajectoryResult(_PINNED_PROBS, 1).sample_counts(400, seed=11),
        lambda: NoisyDDResult(_PINNED_PROBS, 1, 1.0, 1).sample_counts(400, seed=11),
    ],
    ids=["arrays", "density", "trajectories", "noisy_dd"],
)
def test_dense_sampler_counts_are_pinned(draw):
    assert draw() == _PINNED_COUNTS
