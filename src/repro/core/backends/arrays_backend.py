"""Dense array (Schrödinger) backend: exact, exponential memory."""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from ...arrays.measurement import expectation_value, sample_counts
from ...arrays.statevector import StatevectorSimulator
from ...circuits.circuit import QuantumCircuit
from .. import capabilities as cap
from ..options import SimOptions
from .base import Backend, Metadata


class ArraysBackend(Backend):
    """Full 2**n statevector simulation (paper Sec. II)."""

    name = "arrays"
    capabilities = frozenset(
        {cap.FULL_STATE, cap.SAMPLE, cap.EXPECTATION, cap.SINGLE_AMPLITUDE, cap.NOISE}
    )

    def _run(self, circuit: QuantumCircuit, options: SimOptions) -> np.ndarray:
        sim = StatevectorSimulator(
            seed=options.seed,
            method=options.method,
            budget=options.budget,
            progress=options.progress,
        )
        return sim.statevector(circuit)

    def _meta(self, state: np.ndarray, options: SimOptions) -> Metadata:
        return {"method": options.method, "memory_bytes": int(state.nbytes)}

    def statevector(
        self, circuit: QuantumCircuit, options: SimOptions
    ) -> Tuple[np.ndarray, Metadata]:
        state = self._run(circuit, options)
        return state, self._meta(state, options)

    def sample(
        self, circuit: QuantumCircuit, shots: int, options: SimOptions
    ) -> Tuple[Dict[str, int], Metadata]:
        state = self._run(circuit, options)
        counts = sample_counts(state, shots, seed=options.seed)
        return counts, self._meta(state, options)

    def expectation(
        self, circuit: QuantumCircuit, pauli: str, options: SimOptions
    ) -> Tuple[float, Metadata]:
        state = self._run(circuit, options)
        return expectation_value(state, pauli), self._meta(state, options)

    def amplitude(
        self, circuit: QuantumCircuit, basis_index: int, options: SimOptions
    ) -> Tuple[complex, Metadata]:
        state = self._run(circuit, options)
        return complex(state[basis_index]), self._meta(state, options)
