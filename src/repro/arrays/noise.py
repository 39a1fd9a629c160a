"""Kraus-operator noise channels and noise models.

Supports the density-matrix simulation of noisy circuits referenced by the
paper (noise-aware simulation, reference [13]).
"""

from __future__ import annotations

import math
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from ..circuits.circuit import Operation
from . import kernels


_MIXED_UNITARY_ATOL = 1e-12
"""How close every ``K_i^dagger K_i`` must be to ``c_i * I`` (and a
unitary to ``I``) for the constant-weight analysis to apply."""


class KrausChannel:
    """A completely-positive trace-preserving map given by Kraus operators.

    The trace check forms every ``K_i^dagger K_i``; the same pass records
    whether the channel is *mixed-unitary*, i.e. every
    ``K_i^dagger K_i = c_i * I`` with ``c_i > 0`` (depolarizing, bit flip,
    phase flip, two-qubit depolarizing).  Such a channel applies the
    unitary ``U_i = K_i / sqrt(c_i)`` with a probability ``c_i`` that does
    not depend on the state, so a trajectory engine can draw its branch
    without weighing the state.  For those channels ``constant_weights``
    holds the ``c_i``, ``unitaries`` the ``U_i``, and
    ``identity_branches`` the indices whose ``U_i`` is the identity; for
    every other channel ``mixed_unitary`` is false and the three are
    empty.
    """

    def __init__(self, name: str, operators: Sequence[np.ndarray]) -> None:
        self.name = name
        self.operators: List[np.ndarray] = [
            np.asarray(k, dtype=np.complex128) for k in operators
        ]
        if not self.operators:
            raise ValueError("channel needs at least one Kraus operator")
        dim = self.operators[0].shape[0]
        identity = np.eye(dim)
        total = np.zeros((dim, dim), dtype=np.complex128)
        weights: List[float] = []
        for k in self.operators:
            if k.shape != (dim, dim):
                raise ValueError("Kraus operators must share one square shape")
            gram = k.conj().T @ k
            total += gram
            weight = float(np.real(np.trace(gram))) / dim
            if weight > 0 and np.allclose(
                gram, weight * identity, rtol=0.0, atol=_MIXED_UNITARY_ATOL
            ):
                weights.append(weight)
        if not np.allclose(total, identity, atol=1e-9):
            raise ValueError(f"channel '{name}' is not trace preserving")
        self.mixed_unitary = len(weights) == len(self.operators)
        self.constant_weights: Tuple[float, ...] = ()
        self.unitaries: Tuple[np.ndarray, ...] = ()
        self.identity_branches: FrozenSet[int] = frozenset()
        if self.mixed_unitary:
            self.constant_weights = tuple(weights)
            self.unitaries = tuple(
                k / math.sqrt(c) for k, c in zip(self.operators, weights)
            )
            self.identity_branches = frozenset(
                i
                for i, u in enumerate(self.unitaries)
                if np.allclose(u, identity, rtol=0.0, atol=_MIXED_UNITARY_ATOL)
            )

    @property
    def num_qubits(self) -> int:
        return int(self.operators[0].shape[0]).bit_length() - 1

    def apply_operator(
        self,
        state: np.ndarray,
        index: int,
        targets: Sequence[int],
        num_qubits: Optional[int] = None,
    ) -> np.ndarray:
        """``K_index |state>`` on a copy of ``state``, via the fast kernels.

        Kraus operators are generally non-unitary, which the kernels
        support (diagonal damping operators hit the elementwise path).
        """
        work = state.copy()
        return kernels.apply_matrix_fast(
            work, self.operators[index], targets, num_qubits=num_qubits
        )

    def branch_weights(
        self,
        state: np.ndarray,
        targets: Sequence[int],
        num_qubits: Optional[int] = None,
    ) -> List[float]:
        """Born weights ``||K_i |state>||^2`` of every branch.

        Computed from the reduced density matrix of the target qubits —
        ``tr(K_i rho_T K_i^dagger)`` — so no ``K_i |state>`` is ever
        materialized: one ``O(2**n)`` reduction, then ``O(4**k)`` work per
        operator, instead of a full-state copy per operator.
        """
        rho = reduced_density_matrix(state, targets, num_qubits)
        return [
            float(np.real(np.einsum("ab,bc,ac->", k, rho, k.conj())))
            for k in self.operators
        ]

    def __repr__(self) -> str:
        return f"KrausChannel({self.name}, {len(self.operators)} ops)"


def reduced_density_matrix(
    state: np.ndarray,
    targets: Sequence[int],
    num_qubits: Optional[int] = None,
) -> np.ndarray:
    """Reduced density matrix of ``targets``, tracing out the other qubits.

    Index convention matches the gate kernels: bit ``i`` of the returned
    matrix's row index corresponds to ``targets[i]``.
    """
    if num_qubits is None:
        num_qubits = int(state.shape[0]).bit_length() - 1
    k = len(targets)
    tensor = state.reshape((2,) * num_qubits)
    # Qubit q lives on axis n-1-q; the row index is big-endian in targets.
    front = [num_qubits - 1 - t for t in reversed(targets)]
    rest = [axis for axis in range(num_qubits) if axis not in front]
    matrix = tensor.transpose(front + rest).reshape(1 << k, -1)
    return matrix @ matrix.conj().T


def bit_flip(p: float) -> KrausChannel:
    """Flips the qubit (X error) with probability ``p``."""
    return KrausChannel(
        "bit_flip",
        [
            math.sqrt(1 - p) * np.eye(2),
            math.sqrt(p) * np.array([[0, 1], [1, 0]]),
        ],
    )


def phase_flip(p: float) -> KrausChannel:
    """Applies a Z error with probability ``p``."""
    return KrausChannel(
        "phase_flip",
        [
            math.sqrt(1 - p) * np.eye(2),
            math.sqrt(p) * np.diag([1, -1]),
        ],
    )


def depolarizing(p: float) -> KrausChannel:
    """Replaces the qubit state by the maximally mixed state with prob ``p``."""
    return KrausChannel(
        "depolarizing",
        [
            math.sqrt(1 - 3 * p / 4) * np.eye(2),
            math.sqrt(p / 4) * np.array([[0, 1], [1, 0]]),
            math.sqrt(p / 4) * np.array([[0, -1j], [1j, 0]]),
            math.sqrt(p / 4) * np.diag([1, -1]),
        ],
    )


def amplitude_damping(gamma: float) -> KrausChannel:
    """Energy relaxation towards |0> with damping rate ``gamma``."""
    return KrausChannel(
        "amplitude_damping",
        [
            np.array([[1, 0], [0, math.sqrt(1 - gamma)]]),
            np.array([[0, math.sqrt(gamma)], [0, 0]]),
        ],
    )


def phase_damping(lam: float) -> KrausChannel:
    """Pure dephasing with rate ``lam``."""
    return KrausChannel(
        "phase_damping",
        [
            np.array([[1, 0], [0, math.sqrt(1 - lam)]]),
            np.array([[0, 0], [0, math.sqrt(lam)]]),
        ],
    )


def two_qubit_depolarizing(p: float) -> KrausChannel:
    """Two-qubit depolarizing channel (16 Pauli Kraus terms)."""
    paulis = [
        np.eye(2),
        np.array([[0, 1], [1, 0]]),
        np.array([[0, -1j], [1j, 0]]),
        np.diag([1, -1]),
    ]
    operators = []
    for i, a in enumerate(paulis):
        for j, b in enumerate(paulis):
            weight = math.sqrt(1 - 15 * p / 16) if (i, j) == (0, 0) else math.sqrt(p / 16)
            operators.append(weight * np.kron(a, b))
    return KrausChannel("two_qubit_depolarizing", operators)


class NoiseModel:
    """Attaches channels to gate applications.

    ``gate_errors`` maps a gate display name (``"cx"``, ``"h"``, ...) to a
    single-qubit channel applied to every qubit the gate touches after the
    gate.  ``default_1q``/``default_2q`` cover unlisted gates.
    """

    def __init__(
        self,
        gate_errors: Optional[Dict[str, KrausChannel]] = None,
        default_1q: Optional[KrausChannel] = None,
        default_2q: Optional[KrausChannel] = None,
    ) -> None:
        self.gate_errors = dict(gate_errors or {})
        self.default_1q = default_1q
        self.default_2q = default_2q

    def channel_for(self, op_name: str, num_qubits: int) -> Optional[KrausChannel]:
        if op_name in self.gate_errors:
            return self.gate_errors[op_name]
        if num_qubits == 1:
            return self.default_1q
        if num_qubits >= 2:
            return self.default_2q
        return None

    def locations(
        self, op: Operation
    ) -> List[Tuple[KrausChannel, Tuple[int, ...]]]:
        """Where noise strikes after ``op``: ``[(channel, targets), ...]``.

        A one-qubit channel acts on each qubit of the op in turn (targets,
        then controls); a channel of the op's arity acts once on all of
        them.  Engines apply (or draw) the locations in this order.
        Raises ``ValueError`` when the channel fits neither case.
        """
        name = op.name_with_controls()
        channel = self.channel_for(name, op.num_qubits)
        if channel is None:
            return []
        if channel.num_qubits == 1:
            return [(channel, (q,)) for q in op.qubits]
        if channel.num_qubits == op.num_qubits:
            return [(channel, op.qubits)]
        raise ValueError(
            f"channel '{channel.name}' arity does not match op '{name}'"
        )

    @staticmethod
    def uniform_depolarizing(p1: float, p2: float) -> "NoiseModel":
        """Depolarizing noise: ``p1`` after 1q gates, ``p2`` after 2q gates."""
        return NoiseModel(default_1q=depolarizing(p1), default_2q=depolarizing(p2))
