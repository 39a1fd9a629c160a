"""High-level matrix decision diagram wrapper."""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..circuits.circuit import QuantumCircuit
from .node import Edge
from .package import DDPackage
from .vector import VectorDD


class MatrixDD:
    """A unitary (or general linear map) represented as a decision diagram."""

    def __init__(self, package: DDPackage, edge: Edge, num_qubits: int) -> None:
        self.package = package
        self.edge = edge
        self.num_qubits = num_qubits

    @classmethod
    def identity(cls, num_qubits: int, package: Optional[DDPackage] = None) -> "MatrixDD":
        package = package or DDPackage()
        return cls(package, package.identity_edge(num_qubits), num_qubits)

    @classmethod
    def from_circuit(
        cls, circuit: QuantumCircuit, package: Optional[DDPackage] = None
    ) -> "MatrixDD":
        """Build the circuit's full functionality as one matrix DD."""
        package = package or DDPackage()
        n = circuit.num_qubits
        edge = package.identity_edge(n)
        for op in circuit.operations:
            if op.is_barrier:
                continue
            if op.is_measurement:
                raise ValueError("circuit with measurements has no matrix DD")
            gate = package.gate_edge(op, n)
            edge = package.mm_multiply(gate, edge)
        return cls(package, edge, n)

    @classmethod
    def from_matrix(
        cls, matrix: np.ndarray, package: Optional[DDPackage] = None
    ) -> "MatrixDD":
        package = package or DDPackage()
        num_qubits = int(matrix.shape[0]).bit_length() - 1
        return cls(package, package.from_matrix(matrix), num_qubits)

    def to_matrix(self) -> np.ndarray:
        return self.package.to_matrix(self.edge, self.num_qubits)

    def entry(self, row: int, col: int) -> complex:
        return self.package.matrix_entry(self.edge, row, col)

    def apply(self, vector: VectorDD) -> VectorDD:
        if vector.package is not self.package:
            raise ValueError("operands belong to different DD packages")
        edge = self.package.mv_multiply(self.edge, vector.edge)
        return VectorDD(self.package, edge, self.num_qubits)

    def compose(self, other: "MatrixDD") -> "MatrixDD":
        """``self @ other`` (apply ``other`` first)."""
        if other.package is not self.package:
            raise ValueError("operands belong to different DD packages")
        edge = self.package.mm_multiply(self.edge, other.edge)
        return MatrixDD(self.package, edge, self.num_qubits)

    def adjoint(self) -> "MatrixDD":
        return MatrixDD(
            self.package,
            self.package.conjugate_transpose(self.edge),
            self.num_qubits,
        )

    def is_identity(self, up_to_phase: bool = True) -> bool:
        return self.package.is_identity(self.edge, self.num_qubits, up_to_phase)

    def num_nodes(self) -> int:
        return self.package.count_nodes(self.edge)

    def __repr__(self) -> str:
        return f"MatrixDD({self.num_qubits} qubits, {self.num_nodes()} nodes)"
