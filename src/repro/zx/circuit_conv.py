"""Circuit <-> ZX-diagram translation (paper Sec. V, Fig. 3a).

Any quantum circuit can be interpreted as a ZX-diagram: Z-rotations become
green spiders, X-rotations red spiders, Hadamards become Hadamard wires, CX
is a green-red pair, CZ a green-green pair with a Hadamard wire.  Gates
outside this native family are lowered through the decomposition pipeline
first, so the conversion is total over the library's IR.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict

from ..circuits import gates as g
from ..circuits.circuit import Operation, QuantumCircuit
from .diagram import EdgeType, Phase, VertexType, ZXDiagram

# Gate name -> (spider colour, phase in units of pi) for plain phase gates.
_PHASE_GATES = {
    "z": (VertexType.Z, Fraction(1)),
    "s": (VertexType.Z, Fraction(1, 2)),
    "sdg": (VertexType.Z, Fraction(-1, 2)),
    "t": (VertexType.Z, Fraction(1, 4)),
    "tdg": (VertexType.Z, Fraction(-1, 4)),
    "x": (VertexType.X, Fraction(1)),
    "sx": (VertexType.X, Fraction(1, 2)),
    "sxdg": (VertexType.X, Fraction(-1, 2)),
}


class _Builder:
    """Accumulates spiders row by row while tracking each qubit's open wire."""

    def __init__(self, num_qubits: int) -> None:
        self.diagram = ZXDiagram()
        self.num_qubits = num_qubits
        self.wire: Dict[int, int] = {}
        self.wire_hadamard: Dict[int, bool] = {}
        self.row = 1.0
        for q in range(num_qubits):
            v = self.diagram.add_vertex(VertexType.BOUNDARY, 0, qubit=q, row=0.0)
            self.diagram.inputs.append(v)
            self.wire[q] = v
            self.wire_hadamard[q] = False

    def spider(self, q: int, ty: VertexType, phase: Phase) -> int:
        v = self.diagram.add_vertex(ty, phase, qubit=q, row=self.row)
        edge = EdgeType.HADAMARD if self.wire_hadamard[q] else EdgeType.SIMPLE
        self.diagram.add_edge(self.wire[q], v, edge)
        self.wire[q] = v
        self.wire_hadamard[q] = False
        self.row += 1.0
        return v

    def hadamard(self, q: int) -> None:
        self.wire_hadamard[q] = not self.wire_hadamard[q]

    def finish(self) -> ZXDiagram:
        for q in range(self.num_qubits):
            v = self.diagram.add_vertex(
                VertexType.BOUNDARY, 0, qubit=q, row=self.row
            )
            edge = EdgeType.HADAMARD if self.wire_hadamard[q] else EdgeType.SIMPLE
            self.diagram.add_edge(self.wire[q], v, edge)
            self.diagram.outputs.append(v)
        return self.diagram


def circuit_to_zx(circuit: QuantumCircuit) -> ZXDiagram:
    """Translate a measurement-free circuit into a ZX-diagram.

    The diagram's linear map equals the circuit's unitary up to a global
    scalar (verified by the test suite via dense tensor evaluation).
    """
    builder = _Builder(circuit.num_qubits)
    for op in circuit.operations:
        if op.is_barrier:
            continue
        if op.is_measurement:
            raise ValueError("cannot convert measurements to a ZX-diagram")
        _emit(builder, op)
    return builder.finish()


def _emit(builder: _Builder, op: Operation) -> None:
    name = op.gate.name
    controls = op.controls
    if not controls:
        if name == "h":
            builder.hadamard(op.targets[0])
            return
        if name == "id" or (op.gate.num_qubits == 0 and not op.gate.params):
            return
        if name == "gphase":
            return  # global scalar: dropped under up-to-scalar semantics
        if name in _PHASE_GATES and len(op.targets) == 1:
            ty, frac = _PHASE_GATES[name]
            builder.spider(op.targets[0], ty, Phase(frac))
            return
        if name in ("rz", "p", "u1") and len(op.targets) == 1:
            builder.spider(
                op.targets[0], VertexType.Z, Phase.from_radians(op.gate.params[0])
            )
            return
        if name == "rx" and len(op.targets) == 1:
            builder.spider(
                op.targets[0], VertexType.X, Phase.from_radians(op.gate.params[0])
            )
            return
        if name == "ry" and len(op.targets) == 1:
            # Ry(theta) = S . Rx(theta) . Sdg  (matrix order; circuit order
            # is sdg, rx, s)
            q = op.targets[0]
            builder.spider(q, VertexType.Z, Phase(Fraction(-1, 2)))
            builder.spider(q, VertexType.X, Phase.from_radians(op.gate.params[0]))
            builder.spider(q, VertexType.Z, Phase(Fraction(1, 2)))
            return
        if name == "swap" and len(op.targets) == 2:
            a, b = op.targets
            _emit(builder, Operation(g.X, [b], [a]))
            _emit(builder, Operation(g.X, [a], [b]))
            _emit(builder, Operation(g.X, [b], [a]))
            return
    if len(controls) == 1 and name == "x":
        control, target = controls[0], op.targets[0]
        cv = builder.spider(control, VertexType.Z, Phase(0))
        tv = builder.spider(target, VertexType.X, Phase(0))
        builder.diagram.add_edge(cv, tv, EdgeType.SIMPLE)
        return
    if len(controls) == 1 and name == "z":
        control, target = controls[0], op.targets[0]
        cv = builder.spider(control, VertexType.Z, Phase(0))
        tv = builder.spider(target, VertexType.Z, Phase(0))
        builder.diagram.add_edge(cv, tv, EdgeType.HADAMARD)
        return
    if len(controls) == 1 and name in ("p", "rz", "u1"):
        # Controlled phase: standard CX/RZ ladder keeps everything native.
        lam = op.gate.params[0]
        control, target = controls[0], op.targets[0]
        _emit(builder, Operation(g.p(lam / 2), [control]))
        _emit(builder, Operation(g.p(lam / 2), [target]))
        _emit(builder, Operation(g.X, [target], [control]))
        _emit(builder, Operation(g.p(-lam / 2), [target]))
        _emit(builder, Operation(g.X, [target], [control]))
        return
    # Fallback: lower through the compiler and emit the pieces.
    from ..compile.decompositions import (
        decompose_controlled_single_qubit,
        decompose_multi_controlled,
        decompose_single_qubit,
        decompose_two_qubit_named,
    )

    if len(controls) >= 2:
        pieces = decompose_multi_controlled(op)
    elif len(controls) == 1 and len(op.targets) == 1:
        pieces = decompose_controlled_single_qubit(op)
    elif not controls and len(op.targets) == 1:
        pieces = decompose_single_qubit(
            op.gate.matrix, op.targets[0], frozenset({"rz", "ry"})
        )
    elif not controls and len(op.targets) == 2:
        pieces = decompose_two_qubit_named(op)
    else:
        from ..compile.decompositions import decompose_to_two_qubit

        shim = QuantumCircuit(max(op.qubits) + 1)
        shim.append(op)
        pieces = list(decompose_to_two_qubit(shim).operations)
    for piece in pieces:
        _emit(builder, piece)
