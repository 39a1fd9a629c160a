"""Density-matrix simulation with optional noise (paper Sec. II substrate).

The density matrix is a dense ``2**n x 2**n`` array; unitaries act as
``rho -> U rho U^dagger`` and noise channels as Kraus sums.  Memory cost is
the square of the statevector simulator's — the practical limit drops to
roughly half the qubit count.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from ..circuits.circuit import Operation, QuantumCircuit
from . import kernels
from .measurement import sample_probabilities
from .noise import KrausChannel, NoiseModel
from .statevector import _gather_indices


def zero_density(num_qubits: int) -> np.ndarray:
    rho = np.zeros((2**num_qubits, 2**num_qubits), dtype=np.complex128)
    rho[0, 0] = 1.0
    return rho


def density_from_statevector(state: np.ndarray) -> np.ndarray:
    state = np.asarray(state, dtype=np.complex128)
    return np.outer(state, state.conj())


def _left_multiply(
    matrix: np.ndarray,
    small: np.ndarray,
    targets: Sequence[int],
    controls: Sequence[int],
    num_qubits: int,
    method: str = "einsum",
) -> np.ndarray:
    """``matrix <- Embed(small) @ matrix`` for an arbitrary small matrix.

    The fast path treats ``matrix`` as a batch of columns and runs the
    statevector kernels on the row index space; ``method="gather"`` keeps
    the legacy fancy-indexing path for A/B comparison.
    """
    if method == "einsum":
        return kernels.apply_matrix_fast(matrix, small, targets, controls, num_qubits)
    if len(targets) == 0:
        phase = small[0, 0]
        if controls:
            bases, _ = _gather_indices(num_qubits, [], controls)
            matrix[bases, :] *= phase
        else:
            matrix *= phase
        return matrix
    bases, offsets = _gather_indices(num_qubits, targets, controls)
    gather = bases[np.newaxis, :] + offsets[:, np.newaxis]
    rows = gather.reshape(-1)
    block = matrix[rows, :].reshape(len(offsets), len(bases), -1)
    block = np.einsum("ij,jkm->ikm", small, block)
    matrix[rows, :] = block.reshape(len(rows), -1)
    return matrix


def _conjugate_by(
    rho: np.ndarray,
    small: np.ndarray,
    targets: Sequence[int],
    controls: Sequence[int],
    num_qubits: int,
    method: str = "einsum",
) -> np.ndarray:
    """``rho -> Embed(small) rho Embed(small)^dagger`` (in place)."""
    _left_multiply(rho, small, targets, controls, num_qubits, method)
    # Right-multiply by the adjoint:  A K† = (K A†)†.
    temp = rho.conj().T.copy()
    _left_multiply(temp, small, targets, controls, num_qubits, method)
    rho[...] = temp.conj().T
    return rho


def apply_channel(
    rho: np.ndarray,
    channel: KrausChannel,
    targets: Sequence[int],
    num_qubits: int,
    method: str = "einsum",
) -> np.ndarray:
    """Apply ``sum_k K rho K^dagger`` on the given targets."""
    result = np.zeros_like(rho)
    for kraus in channel.operators:
        term = rho.copy()
        _conjugate_by(term, kraus, targets, (), num_qubits, method)
        result += term
    rho[...] = result
    return rho


class DensityMatrixResult:
    def __init__(self, rho: np.ndarray) -> None:
        self.rho = rho

    @property
    def num_qubits(self) -> int:
        return int(self.rho.shape[0]).bit_length() - 1

    def probabilities(self) -> np.ndarray:
        return np.real(np.diag(self.rho)).clip(min=0.0)

    def purity(self) -> float:
        return float(np.real(np.trace(self.rho @ self.rho)))

    def fidelity_with_state(self, state: np.ndarray) -> float:
        """``<psi| rho |psi>`` against a pure reference state."""
        return float(np.real(np.vdot(state, self.rho @ state)))

    def sample_counts(self, shots: int, seed: int = 0) -> Dict[str, int]:
        return sample_probabilities(self.probabilities(), shots, seed=seed)


class DensityMatrixSimulator:
    """Noise-aware mixed-state simulator."""

    def __init__(
        self,
        noise_model: Optional[NoiseModel] = None,
        method: str = "einsum",
    ) -> None:
        self.noise_model = noise_model
        self.method = method

    def run(
        self,
        circuit: QuantumCircuit,
        initial_rho: Optional[np.ndarray] = None,
    ) -> DensityMatrixResult:
        n = circuit.num_qubits
        if initial_rho is None:
            rho = zero_density(n)
        else:
            rho = np.array(initial_rho, dtype=np.complex128)
        for op in circuit.operations:
            if op.is_barrier:
                continue
            if op.is_measurement:
                self._dephase(rho, op.targets[0], n)
                continue
            matrix = op.gate.matrix
            _conjugate_by(rho, matrix, op.targets, op.controls, n, self.method)
            self._apply_noise(rho, op, n)
        return DensityMatrixResult(rho)

    def _apply_noise(self, rho: np.ndarray, op: Operation, num_qubits: int) -> None:
        if self.noise_model is None:
            return
        name = op.name_with_controls()
        channel = self.noise_model.channel_for(name, op.num_qubits)
        if channel is None:
            return
        if channel.num_qubits == 1:
            for q in op.qubits:
                apply_channel(rho, channel, [q], num_qubits, self.method)
        elif channel.num_qubits == len(op.qubits):
            apply_channel(rho, channel, list(op.qubits), num_qubits, self.method)
        else:
            raise ValueError(
                f"channel '{channel.name}' arity does not match op '{name}'"
            )

    @staticmethod
    def _dephase(rho: np.ndarray, qubit: int, num_qubits: int) -> None:
        """Non-selective measurement: zero the coherences across ``qubit``.

        Works on a reshape view exposing the qubit's bit on both the row
        and column index — no boolean mask allocation.
        """
        high = rho.shape[0] >> (qubit + 1)
        low = 1 << qubit
        view = rho.reshape(high, 2, low, high, 2, low)
        view[:, 0, :, :, 1, :] = 0.0
        view[:, 1, :, :, 0, :] = 0.0
