"""Quantum circuit intermediate representation.

A :class:`QuantumCircuit` is an ordered list of :class:`Operation` objects
over ``num_qubits`` qubits.  Every backend in this library (arrays, decision
diagrams, tensor networks, ZX-calculus) consumes this IR.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from . import gates as g
from .gates import Gate


class Operation:
    """A gate application: ``gate`` on ``targets``, conditioned on ``controls``.

    ``controls`` are positive controls (the gate fires when every control
    qubit is |1>).  ``clbits`` is only used by measure operations.
    ``condition`` makes the operation classically controlled: a
    ``(clbit, value)`` pair — the gate fires only when the classical bit
    holds ``value`` at execution time (teleportation-style feed-forward).
    """

    __slots__ = ("gate", "targets", "controls", "clbits", "condition")

    def __init__(
        self,
        gate: Gate,
        targets: Sequence[int],
        controls: Sequence[int] = (),
        clbits: Sequence[int] = (),
        condition: Optional[Tuple[int, int]] = None,
    ) -> None:
        self.gate = gate
        self.targets: Tuple[int, ...] = tuple(targets)
        self.controls: Tuple[int, ...] = tuple(controls)
        self.clbits: Tuple[int, ...] = tuple(clbits)
        self.condition = condition
        if gate.has_matrix and len(self.targets) != gate.num_qubits:
            raise ValueError(
                f"gate '{gate.name}' acts on {gate.num_qubits} qubits, "
                f"got targets {self.targets}"
            )
        all_qubits = self.targets + self.controls
        if len(set(all_qubits)) != len(all_qubits):
            raise ValueError(f"duplicate qubits in operation: {all_qubits}")

    @property
    def qubits(self) -> Tuple[int, ...]:
        """All qubits touched by this operation (targets then controls)."""
        return self.targets + self.controls

    @property
    def num_qubits(self) -> int:
        return len(self.qubits)

    @property
    def is_measurement(self) -> bool:
        return self.gate.name == "measure"

    @property
    def is_barrier(self) -> bool:
        return self.gate.name == "barrier"

    @property
    def is_unitary(self) -> bool:
        return self.gate.has_matrix

    def inverse(self) -> "Operation":
        if not self.is_unitary:
            raise ValueError(f"operation '{self.gate.name}' is not invertible")
        return Operation(
            self.gate.inverse(), self.targets, self.controls,
            condition=self.condition,
        )

    def remapped(self, mapping: Dict[int, int]) -> "Operation":
        """Return a copy with qubits renamed through ``mapping``."""
        return Operation(
            self.gate,
            [mapping[q] for q in self.targets],
            [mapping[q] for q in self.controls],
            self.clbits,
            condition=self.condition,
        )

    def name_with_controls(self) -> str:
        """Display name, e.g. ``cx`` for a controlled ``x``."""
        return "c" * len(self.controls) + self.gate.name

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Operation):
            return NotImplemented
        return (
            self.gate == other.gate
            and self.targets == other.targets
            and set(self.controls) == set(other.controls)
            and self.clbits == other.clbits
            and self.condition == other.condition
        )

    def __hash__(self) -> int:
        return hash(
            (
                self.gate,
                self.targets,
                frozenset(self.controls),
                self.clbits,
                self.condition,
            )
        )

    def __repr__(self) -> str:
        parts = [f"{self.gate!r} targets={self.targets}"]
        if self.controls:
            parts.append(f"controls={self.controls}")
        if self.clbits:
            parts.append(f"clbits={self.clbits}")
        if self.condition is not None:
            parts.append(f"if c{self.condition[0]}=={self.condition[1]}")
        return f"Operation({', '.join(parts)})"


class QuantumCircuit:
    """An ordered sequence of operations over a fixed qubit register."""

    def __init__(self, num_qubits: int, name: str = "circuit") -> None:
        if num_qubits < 0:
            raise ValueError("num_qubits must be non-negative")
        self.num_qubits = num_qubits
        self.name = name
        self.operations: List[Operation] = []
        self.num_clbits = 0

    # -- construction -------------------------------------------------------

    def append(self, op: Operation) -> "QuantumCircuit":
        for q in op.qubits:
            if not 0 <= q < self.num_qubits:
                raise ValueError(
                    f"qubit {q} out of range for {self.num_qubits}-qubit circuit"
                )
        self.operations.append(op)
        return self

    def add_gate(
        self,
        gate: Gate,
        targets: Sequence[int],
        controls: Sequence[int] = (),
    ) -> "QuantumCircuit":
        return self.append(Operation(gate, targets, controls))

    def conditional(
        self,
        gate: Gate,
        targets: Sequence[int],
        clbit: int,
        value: int = 1,
        controls: Sequence[int] = (),
    ) -> "QuantumCircuit":
        """Append a classically-controlled gate (feed-forward)."""
        self.num_clbits = max(self.num_clbits, clbit + 1)
        return self.append(
            Operation(gate, targets, controls, condition=(clbit, value))
        )

    # Single-qubit fixed gates.

    def i(self, q: int) -> "QuantumCircuit":
        return self.add_gate(g.I, [q])

    def x(self, q: int) -> "QuantumCircuit":
        return self.add_gate(g.X, [q])

    def y(self, q: int) -> "QuantumCircuit":
        return self.add_gate(g.Y, [q])

    def z(self, q: int) -> "QuantumCircuit":
        return self.add_gate(g.Z, [q])

    def h(self, q: int) -> "QuantumCircuit":
        return self.add_gate(g.H, [q])

    def s(self, q: int) -> "QuantumCircuit":
        return self.add_gate(g.S, [q])

    def sdg(self, q: int) -> "QuantumCircuit":
        return self.add_gate(g.SDG, [q])

    def t(self, q: int) -> "QuantumCircuit":
        return self.add_gate(g.T, [q])

    def tdg(self, q: int) -> "QuantumCircuit":
        return self.add_gate(g.TDG, [q])

    def sx(self, q: int) -> "QuantumCircuit":
        return self.add_gate(g.SX, [q])

    def sxdg(self, q: int) -> "QuantumCircuit":
        return self.add_gate(g.SXDG, [q])

    # Single-qubit parameterized gates.

    def rx(self, theta: float, q: int) -> "QuantumCircuit":
        return self.add_gate(g.rx(theta), [q])

    def ry(self, theta: float, q: int) -> "QuantumCircuit":
        return self.add_gate(g.ry(theta), [q])

    def rz(self, theta: float, q: int) -> "QuantumCircuit":
        return self.add_gate(g.rz(theta), [q])

    def p(self, lam: float, q: int) -> "QuantumCircuit":
        return self.add_gate(g.p(lam), [q])

    def u(self, theta: float, phi: float, lam: float, q: int) -> "QuantumCircuit":
        return self.add_gate(g.u(theta, phi, lam), [q])

    # Controlled gates.

    def cx(self, control: int, target: int) -> "QuantumCircuit":
        return self.add_gate(g.X, [target], [control])

    def cy(self, control: int, target: int) -> "QuantumCircuit":
        return self.add_gate(g.Y, [target], [control])

    def cz(self, control: int, target: int) -> "QuantumCircuit":
        return self.add_gate(g.Z, [target], [control])

    def ch(self, control: int, target: int) -> "QuantumCircuit":
        return self.add_gate(g.H, [target], [control])

    def cs(self, control: int, target: int) -> "QuantumCircuit":
        return self.add_gate(g.S, [target], [control])

    def cp(self, lam: float, control: int, target: int) -> "QuantumCircuit":
        return self.add_gate(g.p(lam), [target], [control])

    def crx(self, theta: float, control: int, target: int) -> "QuantumCircuit":
        return self.add_gate(g.rx(theta), [target], [control])

    def cry(self, theta: float, control: int, target: int) -> "QuantumCircuit":
        return self.add_gate(g.ry(theta), [target], [control])

    def crz(self, theta: float, control: int, target: int) -> "QuantumCircuit":
        return self.add_gate(g.rz(theta), [target], [control])

    def ccx(self, c1: int, c2: int, target: int) -> "QuantumCircuit":
        return self.add_gate(g.X, [target], [c1, c2])

    def ccz(self, c1: int, c2: int, target: int) -> "QuantumCircuit":
        return self.add_gate(g.Z, [target], [c1, c2])

    def mcx(self, controls: Sequence[int], target: int) -> "QuantumCircuit":
        return self.add_gate(g.X, [target], controls)

    def mcz(self, controls: Sequence[int], target: int) -> "QuantumCircuit":
        return self.add_gate(g.Z, [target], controls)

    def mcp(self, lam: float, controls: Sequence[int], target: int) -> "QuantumCircuit":
        return self.add_gate(g.p(lam), [target], controls)

    # Two-qubit gates.

    def swap(self, a: int, b: int) -> "QuantumCircuit":
        return self.add_gate(g.SWAP, [a, b])

    def iswap(self, a: int, b: int) -> "QuantumCircuit":
        return self.add_gate(g.ISWAP, [a, b])

    def cswap(self, control: int, a: int, b: int) -> "QuantumCircuit":
        return self.add_gate(g.SWAP, [a, b], [control])

    def rxx(self, theta: float, a: int, b: int) -> "QuantumCircuit":
        return self.add_gate(g.rxx(theta), [a, b])

    def ryy(self, theta: float, a: int, b: int) -> "QuantumCircuit":
        return self.add_gate(g.ryy(theta), [a, b])

    def rzz(self, theta: float, a: int, b: int) -> "QuantumCircuit":
        return self.add_gate(g.rzz(theta), [a, b])

    def gphase(self, alpha: float) -> "QuantumCircuit":
        return self.add_gate(g.gphase(alpha), [])

    # Pseudo-operations.

    def barrier(self, *qubits: int) -> "QuantumCircuit":
        return self.append(Operation(g.BARRIER, [], list(qubits) if qubits else []))

    def measure(self, qubit: int, clbit: Optional[int] = None) -> "QuantumCircuit":
        if clbit is None:
            clbit = qubit
        self.num_clbits = max(self.num_clbits, clbit + 1)
        return self.append(Operation(g.MEASURE, [qubit], clbits=[clbit]))

    def measure_all(self) -> "QuantumCircuit":
        for q in range(self.num_qubits):
            self.measure(q, q)
        return self

    # -- combination --------------------------------------------------------

    def compose(
        self, other: "QuantumCircuit", qubits: Optional[Sequence[int]] = None
    ) -> "QuantumCircuit":
        """Append ``other``'s operations in place; optional qubit relabeling."""
        if qubits is None:
            if other.num_qubits > self.num_qubits:
                raise ValueError("composed circuit has more qubits than target")
            mapping = {q: q for q in range(other.num_qubits)}
        else:
            if len(qubits) != other.num_qubits:
                raise ValueError("qubit mapping length mismatch")
            mapping = {i: q for i, q in enumerate(qubits)}
        for op in other.operations:
            self.append(op.remapped(mapping))
        self.num_clbits = max(self.num_clbits, other.num_clbits)
        return self

    def inverse(self) -> "QuantumCircuit":
        """The adjoint circuit (reversed order, inverted gates)."""
        inv = QuantumCircuit(self.num_qubits, name=self.name + "_dg")
        for op in reversed(self.operations):
            if op.is_barrier:
                inv.append(op)
            else:
                inv.append(op.inverse())
        return inv

    def copy(self) -> "QuantumCircuit":
        dup = QuantumCircuit(self.num_qubits, name=self.name)
        dup.operations = list(self.operations)
        dup.num_clbits = self.num_clbits
        return dup

    def remapped(self, mapping: Dict[int, int], num_qubits: Optional[int] = None) -> "QuantumCircuit":
        """Return a copy with all qubits renamed through ``mapping``."""
        out = QuantumCircuit(num_qubits or self.num_qubits, name=self.name)
        for op in self.operations:
            out.append(op.remapped(mapping))
        out.num_clbits = self.num_clbits
        return out

    def without_measurements(self) -> "QuantumCircuit":
        """Copy without measurements, barriers, and feed-forward operations.

        Classically-conditioned gates depend on measurement outcomes, so
        they are dropped along with the measurements themselves.
        """
        out = QuantumCircuit(self.num_qubits, name=self.name)
        out.operations = [
            op
            for op in self.operations
            if not (op.is_measurement or op.is_barrier)
            and op.condition is None
        ]
        return out

    # -- inspection ---------------------------------------------------------

    def __iter__(self) -> Iterator[Operation]:
        return iter(self.operations)

    def __len__(self) -> int:
        return len(self.operations)

    def count_ops(self) -> Dict[str, int]:
        """Histogram of operation display names (``cx``, ``h``, ...)."""
        counts: Dict[str, int] = {}
        for op in self.operations:
            key = op.name_with_controls()
            counts[key] = counts.get(key, 0) + 1
        return counts

    def num_unitary_ops(self) -> int:
        return sum(1 for op in self.operations if op.is_unitary)

    def two_qubit_gate_count(self) -> int:
        """Number of unitary operations touching two or more qubits."""
        return sum(1 for op in self.operations if op.is_unitary and op.num_qubits >= 2)

    def t_count(self) -> int:
        """Number of T/T-dagger gates (uncontrolled)."""
        return sum(
            1
            for op in self.operations
            if op.gate.name in ("t", "tdg") and not op.controls
        )

    def depth(self) -> int:
        """Circuit depth over unitary operations (barriers force layering)."""
        level: Dict[int, int] = {q: 0 for q in range(self.num_qubits)}
        depth = 0
        for op in self.operations:
            if op.is_barrier:
                qubits: Iterable[int] = op.qubits if op.qubits else range(self.num_qubits)
                top = max((level[q] for q in qubits), default=0)
                for q in qubits:
                    level[q] = top
                continue
            qubits = op.qubits
            if not qubits:
                # Zero-qubit operations (global phase) occupy no wire.
                continue
            layer = max(level[q] for q in qubits) + 1
            for q in qubits:
                level[q] = layer
            depth = max(depth, layer)
        return depth

    def __repr__(self) -> str:
        return (
            f"QuantumCircuit(name={self.name!r}, qubits={self.num_qubits}, "
            f"ops={len(self.operations)})"
        )

    def draw(self) -> str:
        """A plain-text summary listing of the circuit."""
        lines = [f"{self.name}: {self.num_qubits} qubits, {len(self)} ops"]
        for idx, op in enumerate(self.operations):
            label = op.name_with_controls()
            if op.gate.params:
                label += "(" + ", ".join(f"{p:.4g}" for p in op.gate.params) + ")"
            wires = ", ".join(
                [f"c{q}" for q in op.controls] + [f"q{q}" for q in op.targets]
            )
            lines.append(f"  {idx:4d}: {label} {wires}")
        return "\n".join(lines)
