"""Tensor-network equivalence checking (paper Sec. IV flavour).

Two complementary checks:

- :func:`hilbert_schmidt_overlap`: contract the closed network
  ``Tr(A^dagger B)`` — exact, one scalar, no full unitary ever built.
- :func:`check_equivalence_random_stimuli`: run both circuits on random
  computational basis states and compare output amplitudes on random
  outputs; cheap, probabilistic (one-sided error).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

import numpy as np

from .. import parallel_shm
from ..circuits.circuit import QuantumCircuit
from ..obs import trace as obs_trace
from ..obs.progress import ProgressReporter
from ..parallel import resolve_jobs, task_stream
from ..parallel_shm import ShmArray
from ..resources import ResourceBudget
from ..tn.circuit_tn import amplitude
from ..tn.network import TensorNetwork


def hilbert_schmidt_overlap(
    circuit_a: QuantumCircuit,
    circuit_b: QuantumCircuit,
    budget: Optional[ResourceBudget] = None,
) -> complex:
    """``Tr(A^dagger B) / 2^n`` via a single closed tensor network.

    The value has modulus 1 iff the circuits are equivalent up to global
    phase.
    """
    if circuit_a.num_qubits != circuit_b.num_qubits:
        raise ValueError("circuits act on different register sizes")
    n = circuit_a.num_qubits
    net_b, out_b = circuit_to_network_unitary(circuit_b)
    net_a, out_a = circuit_to_network_unitary(circuit_a)
    network = TensorNetwork()
    rename_b = {}
    for tensor in net_b.tensors:
        network.add(tensor.relabeled({i: f"B_{i}" for i in tensor.indices}))
    for tensor in net_a.tensors:
        network.add(
            tensor.relabeled({i: f"A_{i}" for i in tensor.indices}).conj()
        )
    # Glue: A's outputs to B's outputs, A's inputs to B's inputs.
    for q in range(n):
        network.add(
            _identity_bridge(f"A_{out_a[0][q]}", f"B_{out_b[0][q]}")
        )
        network.add(
            _identity_bridge(f"A_{out_a[1][q]}", f"B_{out_b[1][q]}")
        )
    value = network.contract_all(budget=budget).scalar()
    return value / (2**n)


def _identity_bridge(left: str, right: str):
    from ..tn.tensor import Tensor

    return Tensor(np.eye(2, dtype=np.complex128), [left, right])


def circuit_to_network_unitary(circuit: QuantumCircuit):
    """Network of the circuit's *unitary* (open inputs and outputs).

    Returns ``(network, (output_indices, input_indices))``.
    """
    from ..tn.circuit_tn import operation_tensor

    n = circuit.num_qubits
    network = TensorNetwork()
    wire = {}
    counter = {}
    input_indices = []
    for q in range(n):
        index = f"q{q}_in"
        wire[q] = index
        counter[q] = 0
        input_indices.append(index)
    for op in circuit.operations:
        if op.is_barrier:
            continue
        if op.is_measurement:
            raise ValueError("measurement-free circuit required")
        if op.gate.num_qubits == 0 and not op.controls:
            from ..tn.tensor import Tensor

            network.add(Tensor(np.asarray(op.gate.matrix[0, 0]), []))
            continue
        qubits = list(op.targets) + list(op.controls)
        wire_in = {q: wire[q] for q in qubits}
        wire_out = {}
        for q in qubits:
            counter[q] += 1
            wire_out[q] = f"q{q}_{counter[q]}"
        network.add(operation_tensor(op, wire_in, wire_out))
        for q in qubits:
            wire[q] = wire_out[q]
    output_indices = [wire[q] for q in range(n)]
    # Idle qubits: identity bridge so inputs and outputs stay distinct.
    for q in range(n):
        if output_indices[q] == input_indices[q]:
            out_name = f"q{q}_out"
            network.add(_identity_bridge(input_indices[q], out_name))
            output_indices[q] = out_name
    return network, (output_indices, input_indices)


def check_equivalence_tn(
    circuit_a: QuantumCircuit,
    circuit_b: QuantumCircuit,
    tol: float = 1e-8,
    budget: Optional[ResourceBudget] = None,
) -> bool:
    """Exact equivalence up to global phase via the trace overlap.

    With a ``budget``, the closed network's plan cost model is checked
    before contracting (see :meth:`TensorNetwork.contract_all`).
    """
    overlap = hilbert_schmidt_overlap(
        circuit_a.without_measurements(),
        circuit_b.without_measurements(),
        budget=budget,
    )
    return abs(abs(overlap) - 1.0) <= tol


@dataclass(frozen=True)
class _StimulusSlice:
    """One stimulus's row of a shared pre-generated stimulus table.

    Input fan-out: the parent publishes the whole ``(num_stimuli,
    amplitudes, 2)`` table as a *single* shared-memory segment and every
    task pickles only this tiny handle-plus-row marker.  Workers attach
    with ``unlink=False`` — many readers of one segment — so the
    publisher keeps ownership and sweeps the name when the pool drains.
    """

    handle: ShmArray
    row: int

    def resolve(self) -> List[Tuple[int, int]]:
        table = self.handle.attach(unlink=False)
        return [(int(i), int(o)) for i, o in table[self.row]]


def _stimulus_worker(
    spec: Tuple[
        QuantumCircuit,
        QuantumCircuit,
        Union[List[Tuple[int, int]], _StimulusSlice],
        Optional[ResourceBudget],
    ],
) -> List[Tuple[complex, complex]]:
    """Module-level (picklable) stimulus task: amplitude pairs only.

    Workers perform the expensive tensor-network contractions; *all*
    verdict logic — tolerance comparisons and the global-phase estimate,
    which depends on the order pairs are seen in — stays in the parent so
    the verdict is identical at any ``n_jobs``.
    """
    circuit_a, circuit_b, pairs, budget = spec
    if isinstance(pairs, _StimulusSlice):
        pairs = pairs.resolve()
    results: List[Tuple[complex, complex]] = []
    with obs_trace.span("verify.stimulus", pairs=len(pairs)):
        for basis_in, basis_out in pairs:
            amp_a = amplitude(
                circuit_a, basis_out, initial_bits=basis_in, budget=budget
            )
            amp_b = amplitude(
                circuit_b, basis_out, initial_bits=basis_in, budget=budget
            )
            results.append((amp_a, amp_b))
    return results


def check_equivalence_random_stimuli(
    circuit_a: QuantumCircuit,
    circuit_b: QuantumCircuit,
    num_stimuli: int = 8,
    amplitudes_per_stimulus: int = 4,
    seed: int = 0,
    tol: float = 1e-8,
    budget: Optional[ResourceBudget] = None,
    n_jobs: Optional[int] = None,
    progress: Optional[callable] = None,
    executor: Optional[str] = None,
    shm: Optional[bool] = None,
) -> bool:
    """Probabilistic check: compare single amplitudes on random basis inputs.

    Each (input basis state, output basis state) pair is evaluated as one
    capped tensor-network contraction per circuit; global-phase alignment is
    estimated from the first non-negligible amplitude pair.

    With ``n_jobs`` (or ``REPRO_JOBS`` in the environment) the stimuli are
    pre-generated — same RNG draw order as the serial loop — and their
    contractions run on a pool, one stimulus per task (``executor``
    selects worker processes or in-process threads; ``shm`` overrides
    the shared-memory transfer policy).  Where the shm policy allows,
    the pre-generated stimulus table is *fanned out* through a single
    shared segment that every worker attaches read-only
    (``attach(unlink=False)``) instead of pickling a pair list per
    task.  The parent consumes results in stimulus order
    and applies the serial verdict logic verbatim, so the verdict is
    deterministic and identical to a serial run; the first
    counterexample stops consumption and the pool cancels the remaining
    stimuli.  Workers inherit ``budget.share(n_jobs)``.
    """
    if circuit_a.num_qubits != circuit_b.num_qubits:
        return False
    n = circuit_a.num_qubits
    rng = np.random.default_rng(seed)
    a_clean = circuit_a.without_measurements()
    b_clean = circuit_b.without_measurements()
    # Pre-generate every stimulus with the same draw order the serial
    # loop used (basis_in, then this stimulus's basis_outs), so seeded
    # stimuli are identical with and without parallelism.
    stimuli: List[List[Tuple[int, int]]] = []
    for _ in range(num_stimuli):
        basis_in = int(rng.integers(0, 2**n))
        stimuli.append(
            [
                (basis_in, int(rng.integers(0, 2**n)))
                for _ in range(amplitudes_per_stimulus)
            ]
        )
    jobs = resolve_jobs(n_jobs)
    worker_budget = (
        budget.share(jobs) if budget is not None and jobs > 1 else budget
    )
    # Input fan-out: publish the pre-generated stimulus table once and
    # hand every worker the same segment (attach(unlink=False)) instead
    # of pickling a pair list per task.  Bitwise identical to the pickle
    # path — shm changes how the stimuli travel, never their values.
    fanout_token: Optional[str] = None
    if (
        jobs > 1
        and shm is not False
        and n < 63  # basis states must fit the int64 table
        and parallel_shm.available()
        and (shm is True or parallel_shm.enabled())
    ):
        table = np.asarray(stimuli, dtype=np.int64)
        fanout_token = parallel_shm.new_token()
        parallel_shm.track_token(fanout_token)
        handle = ShmArray.create_from(table, fanout_token)
        specs = [
            (a_clean, b_clean, _StimulusSlice(handle, row), worker_budget)
            for row in range(num_stimuli)
        ]
    else:
        specs = [
            (a_clean, b_clean, pairs, worker_budget) for pairs in stimuli
        ]
    phase: Optional[complex] = None
    reporter = ProgressReporter.maybe(
        progress, "stimuli", total=num_stimuli, backend="tn"
    )
    try:
        with task_stream(
            _stimulus_worker, specs, n_jobs=jobs, executor=executor, shm=shm
        ) as results:
            for pair_results in results:
                for amp_a, amp_b in pair_results:
                    if abs(amp_a) <= tol and abs(amp_b) <= tol:
                        continue
                    if abs(amp_a) <= tol or abs(amp_b) <= tol:
                        return False
                    if phase is None:
                        phase = amp_a / amp_b
                        if abs(abs(phase) - 1.0) > 1e-6:
                            return False
                    if abs(amp_a - phase * amp_b) > 1e-6:
                        return False
                if reporter is not None:
                    reporter.step()
    finally:
        if fanout_token is not None:
            parallel_shm.release_token(fanout_token)
    if reporter is not None:
        reporter.close()
    return True
