"""Tensor-network contraction backend (paper Sec. IV).

Shines on amplitude/expectation queries where the full state never needs
to exist; no native sampling (sampling a general TN requires repeated
conditioned contractions, which the library does not implement).

In the approximate tier (``options.accuracy`` set), a contraction whose
peak intermediate exceeds the memory budget is retried with bond slicing
(:meth:`TensorNetwork.slices_to_fit`): the sliced contractions are summed
exactly, so the result is bit-for-bit a full contraction and the fidelity
estimate is exactly 1.0 — slicing trades peak memory for time, not
accuracy.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ...circuits.circuit import QuantumCircuit
from ...obs import metrics as obs_metrics
from ...parallel import resolve_jobs
from ...resources import MemoryBudgetExceeded
from ...tn.circuit_tn import (
    amplitude_network,
    circuit_to_network,
    expectation_network,
)
from ...tn.network import TensorNetwork
from ...tn.tensor import Tensor
from .. import capabilities as cap
from ..options import SimOptions
from .base import Backend, Metadata


class TNBackend(Backend):
    """General tensor-network contraction with optional planning."""

    name = "tn"
    capabilities = frozenset(
        {cap.FULL_STATE, cap.EXPECTATION, cap.SINGLE_AMPLITUDE}
    )

    def _meta(self, circuit: QuantumCircuit, options: SimOptions) -> Metadata:
        # One tensor per unitary op plus one |0> cap per qubit.
        tensors = circuit.num_unitary_ops() + circuit.num_qubits
        obs_metrics.gauge_max("tn.network.tensors", tensors)
        return {
            "network_tensors": tensors,
            "planned": options.plan is not None,
        }

    def _contract(
        self, network: TensorNetwork, options: SimOptions
    ) -> Tuple[Tensor, Optional[dict]]:
        """Contract, retrying with bond slicing in the approximate tier.

        Returns ``(tensor, slicing_info)`` where ``slicing_info`` is
        ``None`` for a plain contraction.  Outside the approximate tier
        (or without a budget) a memory refusal propagates unchanged.
        """
        try:
            return network.contract_all(options.plan, budget=options.budget), None
        except MemoryBudgetExceeded:
            if options.accuracy is None or options.budget is None:
                raise
            indices, plan = network.slices_to_fit(
                plan=options.plan, budget=options.budget
            )
            dims = network.index_dimensions()
            num_slices = 1
            for name in indices:
                num_slices *= dims[name]
            result = network.contract_sliced(
                indices,
                plan=plan,
                budget=options.budget,
                n_jobs=options.n_jobs,
                executor=options.executor,
            )
            # Slice contraction *and* the final summation parallelize
            # over this worker count (elementwise-chunked summation is
            # order-preserving, so the count never changes the bits).
            jobs = resolve_jobs(options.n_jobs)
            return result, {
                "sliced_bonds": list(indices),
                "slices": num_slices,
                "slice_jobs": jobs,
            }

    def _note_approx(
        self, meta: Metadata, sliced: Optional[dict], options: SimOptions
    ) -> None:
        if options.accuracy is None:
            return
        # Slicing is exact: the certified fidelity bound is exactly 1.
        meta["fidelity_estimate"] = 1.0
        if sliced is not None:
            meta["approximation"] = {
                "target": options.accuracy.target,
                **sliced,
            }

    def statevector(
        self, circuit: QuantumCircuit, options: SimOptions
    ) -> Tuple[np.ndarray, Metadata]:
        network, outputs = circuit_to_network(circuit)
        result, sliced = self._contract(network, options)
        # Order axes most-significant qubit first, then flatten.
        order = [outputs[q] for q in range(circuit.num_qubits - 1, -1, -1)]
        if result.rank == 0:
            state = np.asarray([result.scalar()], dtype=np.complex128)
        else:
            state = result.transpose_to(order).data.reshape(-1)
        meta = self._meta(circuit, options)
        meta["memory_bytes"] = int(state.nbytes)
        self._note_approx(meta, sliced, options)
        return state, meta

    def expectation(
        self, circuit: QuantumCircuit, pauli: str, options: SimOptions
    ) -> Tuple[float, Metadata]:
        network = expectation_network(circuit, pauli)
        result, sliced = self._contract(network, options)
        meta = self._meta(circuit, options)
        self._note_approx(meta, sliced, options)
        return float(result.scalar().real), meta

    def amplitude(
        self, circuit: QuantumCircuit, basis_index: int, options: SimOptions
    ) -> Tuple[complex, Metadata]:
        network = amplitude_network(circuit, basis_index)
        result, sliced = self._contract(network, options)
        meta = self._meta(circuit, options)
        self._note_approx(meta, sliced, options)
        return complex(result.scalar()), meta
