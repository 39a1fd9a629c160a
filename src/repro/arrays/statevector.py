"""Dense array-based statevector simulation (paper Sec. II).

States are 1-D numpy arrays of length ``2**n``.  Two gate-application
methods are available:

- ``"einsum"`` (default) — the reshape/slice kernels in
  :mod:`repro.arrays.kernels`: the state is viewed as a rank-``n`` tensor
  and gates act on views of it, with specialized diagonal/permutation/
  controlled fast paths and no index-matrix allocation;
- ``"gather"`` — the legacy path that materializes a ``(2**k, 2**(n-k))``
  int64 gather matrix per gate and round-trips through fancy indexing,
  kept for A/B comparison (see ``benchmarks/bench_kernels.py``).

Memory and time still grow exponentially with the qubit count — this is
exactly the behaviour benchmarked in ``bench_array_scaling``.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..circuits.circuit import Operation, QuantumCircuit
from ..obs import metrics as obs_metrics
from ..obs.progress import GATE_EVENT_INTERVAL, ProgressReporter
from ..resources import ResourceBudget
from . import kernels

METHODS = ("einsum", "gather")

_DEADLINE_CHECK_INTERVAL = 16
"""Operations between wall-clock budget checks in the gate loop."""


def zero_state(num_qubits: int) -> np.ndarray:
    """The all-zeros computational basis state |0...0>."""
    state = np.zeros(2**num_qubits, dtype=np.complex128)
    state[0] = 1.0
    return state


def basis_state(num_qubits: int, index: int) -> np.ndarray:
    """The computational basis state |index>."""
    if not 0 <= index < 2**num_qubits:
        raise ValueError(f"basis index {index} out of range")
    state = np.zeros(2**num_qubits, dtype=np.complex128)
    state[index] = 1.0
    return state


def _gather_indices(
    num_qubits: int, targets: Sequence[int], controls: Sequence[int]
) -> Tuple[np.ndarray, np.ndarray]:
    """Index machinery for applying a gate.

    Returns ``(bases, offsets)``: ``bases`` enumerates every basis index with
    all target bits 0 and all control bits 1; ``offsets[j]`` shifts a base to
    the group member with target bits spelling ``j`` (target 0 = least
    significant bit of ``j``).
    """
    dim = 1 << num_qubits
    target_mask = 0
    for t in targets:
        target_mask |= 1 << t
    control_mask = 0
    for c in controls:
        control_mask |= 1 << c
    indices = np.arange(dim, dtype=np.intp)
    selector = ((indices & target_mask) == 0) & (
        (indices & control_mask) == control_mask
    )
    bases = indices[selector]
    k = len(targets)
    offsets = np.zeros(1 << k, dtype=np.intp)
    for j in range(1 << k):
        off = 0
        for i, t in enumerate(targets):
            if (j >> i) & 1:
                off |= 1 << t
        offsets[j] = off
    return bases, offsets


def apply_operation(
    state: np.ndarray,
    op: Operation,
    num_qubits: Optional[int] = None,
    method: str = "einsum",
) -> np.ndarray:
    """Apply a unitary operation to ``state`` in place and return it."""
    if num_qubits is None:
        num_qubits = _infer_qubits(state)
    if not op.is_unitary:
        raise ValueError(f"cannot apply non-unitary op '{op.gate.name}' here")
    if method == "einsum":
        return kernels.apply_operation_fast(state, op, num_qubits)
    if method != "gather":
        raise ValueError(f"unknown method '{method}'; choose from {METHODS}")
    matrix = op.gate.matrix
    if op.gate.num_qubits == 0:
        # Global phase: controls turn it into a (multi-)controlled phase.
        phase = matrix[0, 0]
        if op.controls:
            bases, _ = _gather_indices(num_qubits, [], op.controls)
            state[bases] *= phase
        else:
            state *= phase
        return state
    bases, offsets = _gather_indices(num_qubits, op.targets, op.controls)
    gather = bases[np.newaxis, :] + offsets[:, np.newaxis]
    state[gather] = matrix @ state[gather]
    return state


def apply_matrix(
    state: np.ndarray,
    matrix: np.ndarray,
    targets: Sequence[int],
    controls: Sequence[int] = (),
    num_qubits: Optional[int] = None,
    method: str = "einsum",
) -> np.ndarray:
    """Apply an arbitrary small matrix to ``state`` in place."""
    if num_qubits is None:
        num_qubits = _infer_qubits(state)
    if method == "einsum":
        return kernels.apply_matrix_fast(state, matrix, targets, controls, num_qubits)
    if method != "gather":
        raise ValueError(f"unknown method '{method}'; choose from {METHODS}")
    bases, offsets = _gather_indices(num_qubits, targets, controls)
    gather = bases[np.newaxis, :] + offsets[:, np.newaxis]
    state[gather] = matrix @ state[gather]
    return state


def _infer_qubits(state: np.ndarray) -> int:
    num_qubits = int(state.shape[0]).bit_length() - 1
    if 1 << num_qubits != state.shape[0]:
        raise ValueError(f"state length {state.shape[0]} is not a power of two")
    return num_qubits


class StatevectorResult:
    """Final state plus any classical measurement record."""

    def __init__(self, state: np.ndarray, classical_bits: Dict[int, int]) -> None:
        self.state = state
        self.classical_bits = classical_bits

    @property
    def num_qubits(self) -> int:
        return _infer_qubits(self.state)

    def probabilities(self) -> np.ndarray:
        return np.abs(self.state) ** 2

    def amplitude(self, index: int) -> complex:
        return complex(self.state[index])

    def sample_counts(self, shots: int, seed: int = 0) -> Dict[str, int]:
        from .measurement import sample_counts

        return sample_counts(self.state, shots, seed=seed)


class StatevectorSimulator:
    """Schrödinger-style full statevector simulator.

    ``method`` selects the gate-application kernels (``"einsum"`` fast
    path or the legacy ``"gather"`` path).  With ``fusion=True``, runs of
    adjacent gates acting on at most ``max_fused_qubits`` qubits are
    merged into single unitaries before simulation (see
    :mod:`repro.compile.fusion`).

    ``budget`` (a :class:`~repro.resources.ResourceBudget`) is enforced
    before and during simulation: the dense ``2**n`` allocation is
    estimated up front against ``max_memory_bytes``, and the gate loop
    checks ``max_seconds`` periodically.  A tripped budget raises
    :class:`~repro.resources.ResourceExhausted`.

    ``progress`` (a callable receiving
    :class:`~repro.obs.progress.ProgressEvent`) streams throttled
    ``"gates"`` events from the gate loop; raising from the callback
    cancels the run at the same checkpoints the deadline uses.
    """

    def __init__(
        self,
        seed: int = 0,
        method: str = "einsum",
        fusion: bool = False,
        max_fused_qubits: int = 2,
        budget: Optional[ResourceBudget] = None,
        progress: Optional[callable] = None,
    ) -> None:
        if method not in METHODS:
            raise ValueError(
                f"unknown method '{method}'; choose from {METHODS}"
            )
        self._rng = np.random.default_rng(seed)
        self.method = method
        self.fusion = fusion
        self.max_fused_qubits = max_fused_qubits
        self.budget = budget
        self.progress = progress

    def run(
        self,
        circuit: QuantumCircuit,
        initial_state: Optional[np.ndarray] = None,
    ) -> StatevectorResult:
        """Execute ``circuit``; mid-circuit measurements collapse the state."""
        n = circuit.num_qubits
        deadline = None
        if self.budget is not None:
            # The state is one 2**n complex128 array; kernels work on
            # views, so that array is the dominant allocation.
            self.budget.check_memory(
                16 << n, backend="arrays", what=f"dense {n}-qubit state"
            )
            deadline = self.budget.deadline()
        if self.fusion:
            from ..compile.fusion import fuse_gates

            circuit = fuse_gates(circuit, max_fused_qubits=self.max_fused_qubits)
        if initial_state is None:
            state = zero_state(n)
        else:
            state = np.array(initial_state, dtype=np.complex128)
            if state.shape != (2**n,):
                raise ValueError("initial state dimension mismatch")
        classical: Dict[int, int] = {}
        reporter = ProgressReporter.maybe(
            self.progress,
            "gates",
            total=len(circuit.operations),
            backend="arrays",
            every=GATE_EVENT_INTERVAL,
        )
        for position, op in enumerate(circuit.operations):
            if deadline is not None and position % _DEADLINE_CHECK_INTERVAL == 0:
                deadline.check(backend="arrays", context="gate loop")
            if reporter is not None:
                reporter.step()
            if op.is_barrier:
                continue
            if op.is_measurement:
                outcome, state = measure_qubit(state, op.targets[0], self._rng, n)
                if op.clbits:
                    classical[op.clbits[0]] = outcome
                continue
            if op.condition is not None:
                clbit, value = op.condition
                if classical.get(clbit, 0) != value:
                    continue
            apply_operation(state, op, n, method=self.method)
        if reporter is not None:
            reporter.close()
        obs_metrics.counter_add("arrays.gate.count", len(circuit.operations))
        obs_metrics.gauge_max("arrays.state.bytes", int(state.nbytes))
        return StatevectorResult(state, classical)

    def statevector(self, circuit: QuantumCircuit) -> np.ndarray:
        """Final statevector of a measurement-free circuit."""
        return self.run(circuit.without_measurements()).state


def measure_qubit(
    state: np.ndarray,
    qubit: int,
    rng: np.random.Generator,
    num_qubits: Optional[int] = None,
) -> Tuple[int, np.ndarray]:
    """Projectively measure one qubit; returns ``(outcome, collapsed state)``.

    The one-probability comes from a reshape view of the state — no
    ``np.arange`` index array is allocated.
    """
    if num_qubits is None:
        num_qubits = _infer_qubits(state)
    prob_one = kernels.probability_of_one(state, qubit, num_qubits)
    outcome = 1 if rng.random() < prob_one else 0
    if outcome == 1:
        norm = np.sqrt(prob_one)
    else:
        norm = np.sqrt(max(1.0 - prob_one, 1e-300))
    state = kernels.collapse_qubit(state, qubit, outcome, norm, num_qubits)
    return outcome, state
