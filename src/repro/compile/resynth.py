"""Numeric resynthesis passes: 1q-run collapse and 2q-block resynthesis.

Peephole rewrites (:mod:`repro.compile.optimize`) only see algebraic
patterns — named inverse pairs, same-axis rotations.  These passes work
*numerically* instead:

- :class:`Collapse1qRuns` multiplies every maximal run of single-qubit
  gates on a wire into one 2x2 unitary and re-emits it through the
  Euler-angle decomposition (at most three basis rotations plus a
  ``gphase``), regardless of how the run was originally spelled;
- :class:`Resynth2qBlocks` collects maximal two-qubit blocks (the gate
  fusion grouping restricted to two-qubit support), Cartan-decomposes
  the 4x4 block unitary, and re-emits it through a 3-CX canonical
  circuit — or 2/0 CX when interaction coefficients vanish — keeping
  the result only when it actually lowers the CX count.

The canonical interaction ``N = exp(i(c1 XX + c2 YY + c3 ZZ))`` is
synthesized *exactly* (global phase included) as, in circuit order::

    sdg(t); cx(c,t); s(t)                # CY(c,t)
    s(c); rz(-2 c3, t); rx(2 c2, c)
    h(t); cx(c,t); h(t)                  # CZ(c,t)
    rx(-2 c1, c)
    cx(c,t)

which follows from conjugating the three commuting interaction terms
through CX — ``CX (X⊗I) CX = X⊗X``, ``CX (I⊗Z) CX = Z⊗Z``,
``CX (Y⊗Y) CX = -(X⊗Z)`` — so a single CX turns the two-qubit
exponential into single-qubit exponentials sandwiched by one CZ and one
CY.  Every emitted block is verified numerically against the target
unitary, entry by entry to :data:`_VERIFY_TOL` with no relative slack; a
mismatch falls back to the existing rxx/ryy/rzz lowering in
:func:`repro.compile.kak.decompose_two_qubit_unitary`, which must pass
the same check, and a block neither candidate reproduces is kept as is.
"""

from __future__ import annotations

import cmath
from typing import Dict, List, Optional, Set

import numpy as np

from ..circuits import gates as g
from ..circuits.circuit import Operation, QuantumCircuit
from .decompositions import decompose_single_qubit
from .fusion import fused_matrix
from .kak import kak_decompose
from .passes import STRUCTURAL
from .passmanager import PropertySet, TransformationPass

_COEFF_TOL = 1e-12

_VERIFY_TOL = 1e-9
"""Largest entry-wise deviation a resynthesized block may have from its
target (global phase included).  Absolute, so a block is never accepted
for being close *relative* to a large entry: the drift of a compiled
circuit is bounded by the sum of its accepted blocks' deviations."""


def _u1q(matrix: np.ndarray, qubit: int) -> Operation:
    return Operation(g.Gate("unitary1q", 1, matrix), [qubit])


def synthesize_canonical(
    c1: float, c2: float, c3: float, qc: int, qt: int
) -> List[Operation]:
    """Exact circuit for ``exp(i(c1 XX + c2 YY + c3 ZZ))`` on ``(qc, qt)``.

    0 CX when all coefficients vanish, 2 CX when exactly one is
    non-zero, 3 CX otherwise.  The result equals the exponential as a
    matrix — global phase included — so it can replace a canonical
    factor inside a larger decomposition without a phase correction.
    """
    cx = lambda: Operation(g.X, [qt], [qc])
    live = [abs(c) > _COEFF_TOL for c in (c1, c2, c3)]
    if not any(live):
        return []
    if live == [True, False, False]:
        # CX e^{i c1 X_c} CX = e^{i c1 XX};  e^{i a X} = Rx(-2a).
        return [cx(), Operation(g.rx(-2 * c1), [qc]), cx()]
    if live == [False, False, True]:
        # CX e^{i c3 Z_t} CX = e^{i c3 ZZ};  e^{i a Z} = Rz(-2a).
        return [cx(), Operation(g.rz(-2 * c3), [qt]), cx()]
    if live == [False, True, False]:
        # (S⊗S) e^{i c2 XX} (S†⊗S†) = e^{i c2 YY}.
        return [
            Operation(g.SDG, [qc]),
            Operation(g.SDG, [qt]),
            cx(),
            Operation(g.rx(-2 * c2), [qc]),
            cx(),
            Operation(g.S, [qc]),
            Operation(g.S, [qt]),
        ]
    return [
        # CY(qc, qt) = (I⊗S) CX (I⊗S†)
        Operation(g.SDG, [qt]),
        cx(),
        Operation(g.S, [qt]),
        Operation(g.S, [qc]),
        Operation(g.rz(-2 * c3), [qt]),
        Operation(g.rx(2 * c2), [qc]),
        # CZ(qc, qt) = (I⊗H) CX (I⊗H)
        Operation(g.H, [qt]),
        cx(),
        Operation(g.H, [qt]),
        Operation(g.rx(-2 * c1), [qc]),
        cx(),
    ]


def _collapse_1q_segments(
    ops: List[Operation], basis: Optional[frozenset]
) -> List[Operation]:
    """Merge consecutive single-qubit ops per wire; re-emit in ``basis``.

    ``basis=None`` emits one raw ``unitary1q`` per merged run (the form
    simulation backends consume directly); otherwise each run lowers
    through :func:`~repro.compile.decompositions.decompose_single_qubit`.
    Runs whose re-emission is not shorter keep their original spelling.
    """
    emitted: List = []
    active: Dict[int, Optional[List[Operation]]] = {}

    def close(q: int) -> None:
        active[q] = None

    for op in ops:
        if (
            op.is_unitary
            and not op.controls
            and op.condition is None
            and op.gate.num_qubits == 1
        ):
            q = op.targets[0]
            run = active.get(q)
            if run is not None:
                run.append(op)
                continue
            run = [op]
            active[q] = run
            emitted.append((q, run))
            continue
        if op.is_barrier:
            for q in op.qubits if op.qubits else list(active):
                close(q)
        else:
            for q in op.qubits:
                close(q)
        emitted.append(op)

    out: List[Operation] = []
    for item in emitted:
        if not isinstance(item, tuple):
            out.append(item)
            continue
        q, run = item
        if len(run) == 1:
            out.append(run[0])
            continue
        matrix = np.eye(2, dtype=np.complex128)
        for op in run:
            matrix = op.gate.matrix @ matrix
        if basis is None:
            candidate = (
                [] if g.Gate("unitary1q", 1, matrix).is_identity()
                else [_u1q(matrix, q)]
            )
        else:
            candidate = decompose_single_qubit(matrix, q, basis)
        if len(candidate) < len(run):
            out.extend(candidate)
        else:
            out.extend(run)
    return out


def synthesize_two_qubit(
    matrix: np.ndarray,
    qubit_low: int,
    qubit_high: int,
    basis: Optional[frozenset] = None,
) -> List[Operation]:
    """Resynthesize a 4x4 unitary with at most 3 CX gates.

    ``matrix`` follows the library convention (``qubit_low`` less
    significant).  The Cartan decomposition supplies the local factors
    and interaction coefficients; :func:`synthesize_canonical` emits the
    interaction with 0/2/3 CX; local runs collapse through the Euler
    decomposition (or stay as raw ``unitary1q`` gates with
    ``basis=None``).  The global phase is kept exact via ``gphase``.
    """
    decomposition = kak_decompose(matrix)
    c1, c2, c3 = decomposition.coefficients
    ops: List[Operation] = [
        _u1q(decomposition.b1, qubit_high),
        _u1q(decomposition.b2, qubit_low),
    ]
    ops.extend(synthesize_canonical(c1, c2, c3, qubit_low, qubit_high))
    ops.append(_u1q(decomposition.a1, qubit_high))
    ops.append(_u1q(decomposition.a2, qubit_low))
    angle = cmath.phase(decomposition.phase)
    if abs(angle) > 1e-12:
        ops.append(Operation(g.gphase(angle), []))
    ops = _collapse_1q_segments(ops, None)
    if basis is None:
        return ops
    # The template's fixed gates (s/sdg/h/rx, and cx under a cz basis)
    # are not basis gates: lower the whole candidate, then merge the
    # rotation chains the lowering leaves behind.
    from .decompositions import decompose_to_basis

    shim = QuantumCircuit(max(qubit_low, qubit_high) + 1)
    shim.operations = ops
    return _collapse_1q_segments(
        list(decompose_to_basis(shim, basis).operations), basis
    )


def _block_matrix(ops: List[Operation], support: List[int]) -> np.ndarray:
    return fused_matrix(ops, support)


def _verified(
    candidate: List[Operation],
    target: np.ndarray,
    support: List[int],
) -> bool:
    """Numeric safety net: the candidate must reproduce ``target`` exactly.

    Exactly means every entry within :data:`_VERIFY_TOL` (rtol 0).
    """
    local = {q: i for i, q in enumerate(support)}
    rebuilt = np.eye(len(target), dtype=np.complex128)
    phase = 0.0
    for op in candidate:
        if op.gate.num_qubits == 0:
            phase += op.gate.params[0]
            continue
        rebuilt = _block_matrix(
            [op.remapped(local)], list(range(len(support)))
        ) @ rebuilt
    rebuilt = rebuilt * cmath.exp(1j * phase)
    return bool(np.max(np.abs(rebuilt - target)) <= _VERIFY_TOL)


class Collapse1qRuns(TransformationPass):
    """Numerically collapse single-qubit runs via the Euler decomposition."""

    preserves = STRUCTURAL

    def __init__(self, basis: Optional[frozenset] = None) -> None:
        self.basis = basis

    def run(
        self, circuit: QuantumCircuit, properties: PropertySet
    ) -> QuantumCircuit:
        out = circuit.copy()
        out.operations = _collapse_1q_segments(
            list(circuit.operations), self.basis
        )
        return out


class Resynth2qBlocks(TransformationPass):
    """Resynthesize two-qubit blocks through the Cartan decomposition.

    Blocks are collected with the gate-fusion forward scan capped at
    two-qubit support; each multi-gate block is replaced by its 3-CX
    (or better) synthesis **only when that lowers the CX count** — or
    matches it with strictly fewer total operations — so the pass is
    monotone in both metrics.  Emitted gates stay inside ``basis`` when
    one is given (``cx``/``rz``/``ry``-style bases); ``basis=None``
    emits raw ``unitary1q`` locals for simulation pipelines.
    """

    preserves = STRUCTURAL

    def __init__(self, basis: Optional[frozenset] = None) -> None:
        self.basis = basis

    def run(
        self, circuit: QuantumCircuit, properties: PropertySet
    ) -> QuantumCircuit:
        emitted: List = []
        active: Dict[int, Optional[_Block]] = {}

        def fence(qubits) -> None:
            for q in qubits:
                active[q] = None

        for op in circuit.operations:
            if op.is_barrier:
                fence(op.qubits if op.qubits else list(active))
                emitted.append(op)
                continue
            if (
                op.is_measurement
                or op.condition is not None
                or not op.is_unitary
            ):
                fence(op.qubits)
                emitted.append(op)
                continue
            qubits = op.qubits
            if not qubits:
                emitted.append(op)
                continue
            owners = {active[q] for q in qubits if q in active}
            if len(owners) == 1:
                block = next(iter(owners))
                if (
                    block is not None
                    and len(block.support | set(qubits)) <= 2
                ):
                    block.ops.append(op)
                    block.support.update(qubits)
                    for q in qubits:
                        active[q] = block
                    continue
            if len(qubits) > 2:
                fence(qubits)
                emitted.append(op)
                continue
            block = _Block(op)
            emitted.append(block)
            for q in qubits:
                active[q] = block

        out = circuit.copy()
        ops: List[Operation] = []
        for item in emitted:
            if not isinstance(item, _Block):
                ops.append(item)
                continue
            ops.extend(self._emit(item))
        out.operations = ops
        return out

    def _emit(self, block: "_Block") -> List[Operation]:
        if len(block.ops) == 1 or len(block.support) != 2:
            return block.ops
        support = sorted(block.support)
        target = _block_matrix(block.ops, support)
        try:
            candidate = synthesize_two_qubit(
                target, support[0], support[1], basis=self.basis
            )
        except (RuntimeError, ValueError):
            return block.ops
        if not _verified(candidate, target, support):
            from .kak import decompose_two_qubit_unitary

            candidate = decompose_two_qubit_unitary(
                target, support[0], support[1]
            )
            if self.basis is not None:
                from .decompositions import decompose_to_basis

                shim = QuantumCircuit(max(support) + 1)
                shim.operations = candidate
                candidate = list(
                    decompose_to_basis(shim, self.basis).operations
                )
            if not _verified(candidate, target, support):
                return block.ops
        old_cx = sum(
            1 for op in block.ops if op.is_unitary and len(op.qubits) >= 2
        )
        new_cx = sum(
            1 for op in candidate if op.is_unitary and len(op.qubits) >= 2
        )
        if new_cx < old_cx or (
            new_cx == old_cx and len(candidate) < len(block.ops)
        ):
            return candidate
        return block.ops


class _Block:
    """An open two-qubit-support run (fusion-style grouping)."""

    __slots__ = ("ops", "support")

    def __init__(self, op: Operation) -> None:
        self.ops: List[Operation] = [op]
        self.support: Set[int] = set(op.qubits)
