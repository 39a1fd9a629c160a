"""Measurement, sampling, and observable utilities for dense states."""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np

_PAULIS = {
    "I": np.eye(2, dtype=np.complex128),
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}


def probabilities(state: np.ndarray) -> np.ndarray:
    """Born-rule outcome distribution over computational basis states."""
    return np.abs(state) ** 2


SAMPLE_BLOCK = 1024
"""Shots that the structure-native samplers (stab, MPS, DD) draw together.

Their per-level work holds one row per shot (a bond vector, a node index,
a row of random bits), so drawing in blocks bounds that working memory
whatever the shot count.  The block size fixes how the RNG stream is
consumed: seeded counts depend on it."""


def count_outcomes(outcomes: np.ndarray, num_qubits: int) -> Dict[str, int]:
    """Histogram of sampled outcomes as ``{bitstring: count}``.

    ``outcomes`` holds basis-state indices (1-D integers), bit rows (2-D,
    column ``q`` = qubit ``q``, any register width) or rows packed by
    :func:`_pack_rows`.  Keys put qubit ``num_qubits - 1`` first and are
    formatted once per distinct outcome.
    """
    outcomes = np.asarray(outcomes)
    if outcomes.ndim == 2:
        outcomes = _pack_rows(outcomes)
    distinct, tally = np.unique(outcomes, return_counts=True)
    if distinct.dtype.kind == "V":
        bits = np.unpackbits(
            distinct.view(np.uint8).reshape(len(distinct), distinct.itemsize),
            axis=1,
            count=num_qubits,
            bitorder="little",
        )
        chars = bits[:, ::-1] + ord("0")
        keys = [row.tobytes().decode("ascii") for row in chars]
    else:
        keys = [format(int(index), f"0{num_qubits}b") for index in distinct]
    return {key: int(count) for key, count in zip(keys, tally)}


def _pack_rows(rows: np.ndarray) -> np.ndarray:
    """0/1 rows as one opaque byte-string key each (bits packed, qubit 0 first).

    ``np.unique`` sorts these keys as bytes, several times faster than
    comparing rows column by column with ``axis=0``.
    """
    packed = np.packbits(rows.astype(np.uint8), axis=1, bitorder="little")
    if not packed.shape[1]:  # a zero-qubit register: one empty key per row
        packed = np.zeros((len(rows), 1), dtype=np.uint8)
    return packed.view(np.dtype((np.void, packed.shape[1]))).reshape(-1)


def sample_in_blocks(
    draw: Callable[[int], np.ndarray], shots: int, num_qubits: int
) -> Dict[str, int]:
    """Counts of ``shots`` bit rows drawn ``SAMPLE_BLOCK`` at a time.

    ``draw(size)`` returns a ``(size, num_qubits)`` array of 0/1 rows.
    Only the packed rows (``num_qubits / 8`` bytes a shot) outlive a block.
    """
    blocks = [
        _pack_rows(draw(min(SAMPLE_BLOCK, shots - start)))
        for start in range(0, shots, SAMPLE_BLOCK)
    ]
    if not blocks:
        return {}
    return count_outcomes(np.concatenate(blocks), num_qubits)


def sample_probabilities(
    probs: np.ndarray, shots: int, seed: int = 0
) -> Dict[str, int]:
    """Draw ``shots`` outcomes of an unnormalised distribution in one call."""
    rng = np.random.default_rng(seed)
    outcomes = rng.choice(len(probs), size=shots, p=probs / probs.sum())
    return count_outcomes(outcomes, int(len(probs)).bit_length() - 1)


def sample_counts(state: np.ndarray, shots: int, seed: int = 0) -> Dict[str, int]:
    """Sample measurement outcomes; keys are bitstrings, qubit n-1 first."""
    return sample_probabilities(probabilities(state), shots, seed=seed)


def marginal_probability(state: np.ndarray, qubit: int, outcome: int) -> float:
    """Probability that measuring ``qubit`` yields ``outcome``.

    Computed on a reshape view of the state (the amplitudes with the
    qubit's bit equal to ``outcome`` form a strided slice) — no index
    array is allocated.
    """
    view = state.reshape(-1, 2, 1 << qubit)[:, outcome, :]
    return float(np.sum(np.abs(view) ** 2))


def pauli_string_matrix(pauli: str) -> np.ndarray:
    """Dense matrix of a Pauli string; leftmost character = highest qubit."""
    matrix = np.array([[1.0 + 0j]])
    for ch in pauli:
        if ch not in _PAULIS:
            raise ValueError(f"invalid Pauli character {ch!r}")
        matrix = np.kron(matrix, _PAULIS[ch])
    return matrix


def expectation_value(state: np.ndarray, pauli: str) -> float:
    """Expectation value <psi| P |psi> of a Pauli string observable.

    Applied qubit-by-qubit, so memory stays at one extra statevector.
    """
    num_qubits = int(len(state)).bit_length() - 1
    if len(pauli) != num_qubits:
        raise ValueError(f"Pauli string length {len(pauli)} != {num_qubits} qubits")
    work = state.copy()
    tensor = work.reshape((2,) * num_qubits)
    for pos, ch in enumerate(pauli):
        if ch == "I":
            continue
        qubit = num_qubits - 1 - pos
        axis = num_qubits - 1 - qubit
        tensor = np.moveaxis(
            np.tensordot(_PAULIS[ch], tensor, axes=([1], [axis])), 0, axis
        )
    value = np.vdot(state, tensor.reshape(-1))
    return float(value.real)


def fidelity(state_a: np.ndarray, state_b: np.ndarray) -> float:
    """``|<a|b>|^2`` for pure states."""
    return float(np.abs(np.vdot(state_a, state_b)) ** 2)
