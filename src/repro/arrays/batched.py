"""Batched (vectorized) stochastic-trajectory execution.

This is the chunk executor behind ``TrajectorySimulator.run``: a whole
chunk of Monte-Carlo trajectories is simulated *simultaneously*
as one ``(2**n, batch)`` array — the state axis leads and the batch axis
trails, which is exactly the layout the gate kernels in
:mod:`repro.arrays.kernels` already support ("any number of trailing
batch axes").  One gate application, one noise-sampling step, or one
measurement collapse then costs a single set of numpy calls for the
whole chunk instead of ``batch`` Python-level round trips, which is
where the single-core speedup of the parallel engine comes from; worker
processes multiply it on multi-core machines.

Randomness is drawn from one ``numpy.random.Generator`` per chunk in a
fixed order (one vector of uniforms per stochastic event, batch-indexed),
so chunk results are a pure function of ``(circuit, noise model, chunk
size, chunk seed)`` — the deterministic-merge property the parallel
engine relies on.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..circuits.circuit import Operation, QuantumCircuit
from ..obs import metrics as obs_metrics
from ..resources import ResourceBudget
from . import kernels
from .noise import KrausChannel, NoiseModel

_DEADLINE_CHECK_INTERVAL = 16
"""Operations between wall-clock budget checks in the batched gate loop."""


def zero_states(num_qubits: int, batch: int) -> np.ndarray:
    """``batch`` copies of |0...0> as a ``(2**n, batch)`` array."""
    states = np.zeros((2**num_qubits, batch), dtype=np.complex128)
    states[0, :] = 1.0
    return states


def batched_probability_of_one(
    states: np.ndarray, qubit: int, num_qubits: int
) -> np.ndarray:
    """Per-trajectory ``P(qubit = 1)`` for a ``(2**n, batch)`` stack."""
    batch = states.shape[1]
    view = states.reshape(-1, 2, 1 << qubit, batch)
    return np.sum(np.abs(view[:, 1, :, :]) ** 2, axis=(0, 1))


def batched_collapse(
    states: np.ndarray,
    qubit: int,
    outcomes: np.ndarray,
    norms: np.ndarray,
) -> np.ndarray:
    """Zero each trajectory's discarded branch in place and renormalize.

    ``outcomes`` is a ``(batch,)`` 0/1 integer array, ``norms`` the
    corresponding ``(batch,)`` branch norms.
    """
    batch = states.shape[1]
    view = states.reshape(-1, 2, 1 << qubit, batch)
    view[:, 0, :, :] *= outcomes == 0
    view[:, 1, :, :] *= outcomes == 1
    states /= norms
    return states


def batched_reduced_density_matrices(
    states: np.ndarray, targets: Sequence[int], num_qubits: int
) -> np.ndarray:
    """Per-trajectory reduced density matrices, shape ``(batch, 2**k, 2**k)``.

    Index convention matches :func:`repro.arrays.noise.reduced_density_matrix`:
    bit ``i`` of a row index corresponds to ``targets[i]``.
    """
    k = len(targets)
    batch = states.shape[1]
    tensor = states.reshape((2,) * num_qubits + (batch,))
    front = [num_qubits - 1 - t for t in reversed(targets)]
    rest = [axis for axis in range(num_qubits) if axis not in front]
    matrix = tensor.transpose(front + rest + [num_qubits]).reshape(
        1 << k, -1, batch
    )
    return np.einsum("irb,jrb->bij", matrix, matrix.conj())


def batched_branch_weights(
    rho: np.ndarray, operators: List[np.ndarray]
) -> np.ndarray:
    """Born weights ``tr(K_i rho_t K_i^dagger)``, shape ``(batch, num_ops)``."""
    stack = np.stack(operators)
    return np.real(np.einsum("kab,nbc,kac->nk", stack, rho, stack.conj()))


def sample_kraus_batched(
    states: np.ndarray,
    channel: KrausChannel,
    targets: Sequence[int],
    num_qubits: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Pick and apply one Kraus branch per trajectory, in place.

    Branch weights come from the reduced density matrices (no
    ``K_i |psi>`` materialized per branch), the uniform draw is scaled
    by ``tr(rho)``, and only the chosen operator is applied — grouped
    over trajectories that picked the same branch.  One ``(batch,)``
    vector of uniforms is consumed per call.
    """
    batch = states.shape[1]
    rho = batched_reduced_density_matrices(states, targets, num_qubits)
    totals = np.real(np.trace(rho, axis1=1, axis2=2))
    weights = batched_branch_weights(rho, channel.operators)
    picks = rng.random(batch) * totals
    cumulative = np.cumsum(weights, axis=1)
    chosen = np.minimum(
        np.sum(cumulative < picks[:, None], axis=1),
        len(channel.operators) - 1,
    )
    for index in np.unique(chosen):
        mask = chosen == index
        sub = states[:, mask]
        kernels.apply_matrix_fast(
            sub, channel.operators[index], targets, (), num_qubits
        )
        norms = np.sqrt(
            np.maximum(np.sum(np.abs(sub) ** 2, axis=0), 1e-300)
        )
        states[:, mask] = sub / norms
    return states


def _apply_noise_batched(
    states: np.ndarray,
    op: Operation,
    noise_model: Optional[NoiseModel],
    num_qubits: int,
    rng: np.random.Generator,
) -> None:
    if noise_model is None:
        return
    channel = noise_model.channel_for(op.name_with_controls(), op.num_qubits)
    if channel is None:
        return
    if channel.num_qubits == 1:
        for q in op.qubits:
            sample_kraus_batched(states, channel, [q], num_qubits, rng)
    elif channel.num_qubits == len(op.qubits):
        sample_kraus_batched(states, channel, list(op.qubits), num_qubits, rng)
    else:
        raise ValueError(
            f"channel '{channel.name}' arity does not match the operation"
        )


def run_trajectory_batch(
    circuit: QuantumCircuit,
    noise_model: Optional[NoiseModel],
    batch: int,
    rng: np.random.Generator,
    budget: Optional[ResourceBudget] = None,
) -> np.ndarray:
    """Simulate ``batch`` stochastic trajectories at once.

    Returns the final ``(2**n, batch)`` state stack.  Mid-circuit
    measurements collapse each trajectory independently (one uniform per
    trajectory per measurement); noisy locations sample one Kraus branch
    per trajectory.  A :class:`~repro.resources.ResourceBudget` guards
    the ``16 * batch * 2**n``-byte stack up front and the gate loop's
    wall clock.
    """
    n = circuit.num_qubits
    deadline = None
    if budget is not None:
        budget.check_memory(
            (16 * batch) << n,
            backend="arrays",
            what=f"{batch}-trajectory batch of dense {n}-qubit states",
        )
        deadline = budget.deadline()
    states = zero_states(n, batch)
    obs_metrics.gauge_max(obs_metrics.TRAJ_BATCH_BYTES, states.nbytes)
    for position, op in enumerate(circuit.operations):
        if deadline is not None and position % _DEADLINE_CHECK_INTERVAL == 0:
            deadline.check(backend="arrays", context="trajectory batch")
        if op.is_barrier:
            continue
        if op.is_measurement:
            qubit = op.targets[0]
            prob_one = batched_probability_of_one(states, qubit, n)
            outcomes = (rng.random(batch) < prob_one).astype(np.int64)
            norms = np.sqrt(
                np.where(
                    outcomes == 1,
                    np.maximum(prob_one, 1e-300),
                    np.maximum(1.0 - prob_one, 1e-300),
                )
            )
            batched_collapse(states, qubit, outcomes, norms)
            continue
        kernels.apply_operation_fast(states, op, n)
        _apply_noise_batched(states, op, noise_model, n, rng)
    return states


def trajectory_chunk_probabilities(
    circuit: QuantumCircuit,
    noise_model: Optional[NoiseModel],
    batch: int,
    seed_seq: np.random.SeedSequence,
    budget: Optional[ResourceBudget] = None,
) -> np.ndarray:
    """Sum of ``|amplitude|**2`` over one chunk of trajectories.

    This is the unit of work the parallel engine distributes: the
    returned ``(2**n,)`` partial is merged (in chunk order) by
    ``TrajectorySimulator.run``.
    """
    rng = np.random.default_rng(seed_seq)
    states = run_trajectory_batch(circuit, noise_model, batch, rng, budget)
    return np.sum(np.abs(states) ** 2, axis=1)
