"""Independent numpy references the benchmark checks outputs against.

Nothing here calls a simulator of the package under test.  A circuit is
read only through its public data model (``Operation.gate.matrix``,
``targets``, ``controls``) and noise only through the Kraus operators of
the channels a ``NoiseModel`` attaches, so a bug in any backend, kernel
or fusion pass cannot leak into the reference it is compared with.

Conventions (shared with the package): basis index ``i`` holds qubit
``k``'s bit at position ``k``; a gate's local matrix has its first
target as the least significant bit; Pauli strings and bitstrings put
qubit ``n-1`` first.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

_PAULI = {
    "I": np.eye(2, dtype=np.complex128),
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}


def apply_matrix(
    block: np.ndarray,
    num_qubits: int,
    matrix: np.ndarray,
    targets: Sequence[int],
    controls: Sequence[int] = (),
) -> np.ndarray:
    """``block <- Embed(matrix) @ block`` for a ``(2**n, batch)`` array.

    The controlled subspace is selected by fixing each control axis to 1;
    the local matrix then contracts with the target axes of that view.
    """
    n = num_qubits
    batch = block.shape[1]
    psi = block.reshape((2,) * n + (batch,))
    index = [slice(None)] * (n + 1)
    fixed = {n - 1 - c for c in controls}
    for axis in fixed:
        index[axis] = 1
    view = psi[tuple(index)]
    remaining = [axis for axis in range(n + 1) if axis not in fixed]
    k = len(targets)
    if k == 0:
        psi[tuple(index)] = matrix[0, 0] * view
        return block
    # Row axes of the reshaped local matrix run from the most significant
    # target (targets[k-1]) down to targets[0].
    target_axes = [remaining.index(n - 1 - t) for t in reversed(targets)]
    local = np.asarray(matrix, dtype=np.complex128).reshape((2,) * (2 * k))
    out = np.tensordot(local, view, axes=(list(range(k, 2 * k)), target_axes))
    psi[tuple(index)] = np.moveaxis(out, list(range(k)), target_axes)
    return block


def _unitary_ops(circuit):
    for op in circuit.operations:
        if op.is_barrier or op.is_measurement:
            continue
        yield op


def statevector(circuit) -> np.ndarray:
    """Output state of ``circuit`` on ``|0...0>`` (measurements ignored)."""
    n = circuit.num_qubits
    state = np.zeros((1 << n, 1), dtype=np.complex128)
    state[0, 0] = 1.0
    for op in _unitary_ops(circuit):
        apply_matrix(state, n, op.gate.matrix, op.targets, op.controls)
    return state[:, 0]


def unitary_columns(circuit, columns: Sequence[int], num_qubits: Optional[int] = None) -> np.ndarray:
    """Columns ``C|j>`` for the basis inputs ``j`` in ``columns``."""
    n = circuit.num_qubits if num_qubits is None else num_qubits
    block = np.zeros((1 << n, len(columns)), dtype=np.complex128)
    for position, column in enumerate(columns):
        block[column, position] = 1.0
    for op in _unitary_ops(circuit):
        apply_matrix(block, n, op.gate.matrix, op.targets, op.controls)
    return block


def unitary(circuit) -> np.ndarray:
    return unitary_columns(circuit, range(1 << circuit.num_qubits))


def expectation(state: np.ndarray, pauli: str) -> float:
    """``<psi|P|psi>`` with the Pauli string applied factor by factor."""
    n = len(pauli)
    work = np.array(state, dtype=np.complex128).reshape(-1, 1)
    for position, letter in enumerate(pauli):
        if letter != "I":
            apply_matrix(work, n, _PAULI[letter], [n - 1 - position])
    return float(np.vdot(state, work[:, 0]).real)


def _conjugate(rho: np.ndarray, n: int, matrix, targets, controls=()) -> np.ndarray:
    """``K rho K^dagger`` on a copy of ``rho``."""
    left = apply_matrix(rho.copy(), n, matrix, targets, controls)
    right = apply_matrix(left.conj().T.copy(), n, matrix, targets, controls)
    return right.conj().T


def density_matrix(circuit, noise_model) -> np.ndarray:
    """Exact mixed state of a noisy circuit, channel by channel.

    After every unitary operation, the channel the noise model attaches to
    it acts on each touched qubit (one-qubit channel) or on all of them
    (channel of matching arity) — the documented ``NoiseModel`` contract.
    """
    n = circuit.num_qubits
    rho = np.zeros((1 << n, 1 << n), dtype=np.complex128)
    rho[0, 0] = 1.0
    for op in _unitary_ops(circuit):
        rho = _conjugate(rho, n, op.gate.matrix, op.targets, op.controls)
        channel = None
        if noise_model is not None:
            channel = noise_model.channel_for(op.name_with_controls(), op.num_qubits)
        if channel is None:
            continue
        arity = int(channel.operators[0].shape[0]).bit_length() - 1
        groups = [[q] for q in op.qubits] if arity == 1 else [list(op.qubits)]
        for group in groups:
            rho = sum(_conjugate(rho, n, kraus, group) for kraus in channel.operators)
    return rho


def probabilities(state: np.ndarray) -> np.ndarray:
    return np.abs(state) ** 2
