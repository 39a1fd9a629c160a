"""Circuit extraction from graph-like ZX-diagrams (paper Sec. V, ref. [38]).

Rewrites a reduced diagram back into a circuit by peeling structure off the
output side: spider phases become phase gates, Hadamard edges between
frontier spiders become CZs, and Gaussian elimination over GF(2) of the
frontier biadjacency matrix yields the CNOTs that make a frontier spider
advance.  Works for the gadget-free diagrams produced by
:func:`repro.zx.simplify.clifford_simp`; diagrams containing phase gadgets
(from ``full_reduce``) may raise :class:`ExtractionError`.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ..circuits.circuit import QuantumCircuit
from .diagram import EdgeType, VertexType, ZXDiagram
from .rules import check_pivot, pivot
from .simplify import to_graph_like


class ExtractionError(RuntimeError):
    """The diagram has no circuit structure this extractor can recover."""


def _detach_output(diagram: ZXDiagram, output: int) -> None:
    """Give ``output`` a private frontier spider via identity insertion.

    All output edges are simple at this point; the inserted pair of Hadamard
    edges composes to a plain wire, so semantics are untouched.
    """
    ((w, ty),) = list(diagram.edges[output].items())
    if ty != EdgeType.SIMPLE:
        raise ExtractionError("output edges must be normalized to simple first")
    qubit = diagram.qubit_of.get(output, 0.0)
    va = diagram.add_vertex(VertexType.Z, 0, qubit=qubit)
    vb = diagram.add_vertex(VertexType.Z, 0, qubit=qubit)
    diagram.remove_edge(output, w)
    diagram.add_edge(w, va, EdgeType.HADAMARD)
    diagram.add_edge(va, vb, EdgeType.HADAMARD)
    diagram.add_edge(vb, output, EdgeType.SIMPLE)


def extract_circuit(diagram: ZXDiagram) -> QuantumCircuit:
    """Extract an equivalent circuit (up to global phase) from a diagram.

    The input is not modified.  Raises :class:`ExtractionError` when the
    frontier stops making progress (phase gadgets / non-unitary diagrams).
    """
    d = diagram.copy()
    to_graph_like(d)
    n = len(d.outputs)
    if len(d.inputs) != n:
        raise ExtractionError("extraction needs equal input/output arity")
    gates: List[Tuple] = []  # peeled output-side first; reversed at the end

    inputs = set(d.inputs)
    # Give every input a private identity chain so the frontier only ever
    # reaches inputs through fresh spiders: guarantees every edge touched by
    # a Gaussian row operation is a Hadamard edge (two H identity spiders
    # compose to a plain wire, so semantics are untouched).
    for i in list(d.inputs):
        ((w, ty),) = list(d.edges[i].items())
        va = d.add_vertex(VertexType.Z, 0, qubit=d.qubit_of.get(i, 0.0))
        vb = d.add_vertex(VertexType.Z, 0, qubit=d.qubit_of.get(i, 0.0))
        d.remove_edge(i, w)
        d.add_edge(w, va, EdgeType.HADAMARD)
        d.add_edge(va, vb, EdgeType.HADAMARD)
        d.add_edge(vb, i, ty)
    # Normalize output edges to simple, peeling H boxes as gates.
    for q, o in enumerate(d.outputs):
        ((w, ty),) = list(d.edges[o].items())
        if ty == EdgeType.HADAMARD:
            gates.append(("h", q))
            d.edges[o][w] = EdgeType.SIMPLE
            d.edges[w][o] = EdgeType.SIMPLE
    # Every output needs its own non-boundary frontier spider.
    used: set = set()
    for q, o in enumerate(d.outputs):
        ((w, _),) = list(d.edges[o].items())
        if w in inputs or w in used:
            _detach_output(d, o)
            ((w, _),) = list(d.edges[o].items())
        used.add(w)
    frontier: List[int] = []
    for o in d.outputs:
        ((w, _),) = list(d.edges[o].items())
        frontier.append(w)

    output_of = {v: q for q, v in enumerate(frontier)}

    def refresh_output_map() -> None:
        output_of.clear()
        for q, v in enumerate(frontier):
            output_of[v] = q

    max_iterations = 10 * (d.num_vertices() + n) + 100
    for _ in range(max_iterations):
        progress = False
        # 1. Peel frontier phases as phase gates.
        for q, v in enumerate(frontier):
            phase = d.phases[v]
            if not phase.is_zero:
                gates.append(("p", q, phase.to_radians()))
                d.set_phase(v, 0)
                progress = True
        # 2. Peel frontier-frontier Hadamard edges as CZ gates.
        for q1 in range(n):
            for q2 in range(q1 + 1, n):
                u, v = frontier[q1], frontier[q2]
                ty = d.edge_type(u, v)
                if ty is None:
                    continue
                if ty != EdgeType.HADAMARD:
                    raise ExtractionError("simple edge between frontier spiders")
                gates.append(("cz", q1, q2))
                d.remove_edge(u, v)
                progress = True
        # 3. Advance frontier spiders that touch exactly one interior spider.
        frontier_set = set(frontier)
        advanced = False
        for q in range(n):
            v = frontier[q]
            spider_nbrs = []
            input_nbrs = []
            for w, ty in d.edges[v].items():
                if w == d.outputs[q]:
                    continue
                if w in inputs:
                    input_nbrs.append(w)
                else:
                    spider_nbrs.append((w, ty))
            if len(spider_nbrs) == 1 and not input_nbrs:
                w, ty = spider_nbrs[0]
                if w in frontier_set:
                    raise ExtractionError("advancement into another frontier wire")
                if ty != EdgeType.HADAMARD:
                    raise ExtractionError("non-Hadamard interior edge")
                gates.append(("h", q))
                o = d.outputs[q]
                d.remove_vertex(v)
                d.add_edge(w, o, EdgeType.SIMPLE)
                frontier[q] = w
                frontier_set.discard(v)
                frontier_set.add(w)
                advanced = True
        if advanced:
            refresh_output_map()
            continue
        if progress:
            continue
        # 4. All wires whose frontier touches only inputs are done.
        pending = [
            q
            for q in range(n)
            if any(
                w not in inputs and w != d.outputs[q]
                for w in d.edges[frontier[q]]
            )
        ]
        if not pending:
            break
        # 5. Gaussian elimination over the frontier biadjacency matrix.
        if not _eliminate(d, frontier, pending, inputs, gates):
            # 6. Stuck: usually a phase gadget blocks every row.  Pivot a
            #    gadget hub against a frontier spider (after giving that
            #    spider a private identity chain so it becomes interior);
            #    this absorbs the gadget and unblocks the elimination.
            if _pivot_gadget_at_frontier(d, frontier, inputs):
                refresh_output_map()
                continue
            # 7. Last resort: the row operations may have re-enabled interior
            #    simplifications (local complementation / pivot); those never
            #    touch boundary-adjacent spiders, so the frontier stays valid.
            if _interior_shake(d):
                continue
            raise ExtractionError(
                "no extraction progress (phase gadgets or non-circuit diagram)"
            )
    else:
        raise ExtractionError("extraction did not terminate")

    # Final permutation: each frontier spider must see exactly one input.
    perm: List[int] = []
    input_position = {v: i for i, v in enumerate(d.inputs)}
    for q in range(n):
        v = frontier[q]
        nbrs = [(w, ty) for w, ty in d.edges[v].items() if w != d.outputs[q]]
        if len(nbrs) != 1 or nbrs[0][0] not in inputs:
            raise ExtractionError("frontier did not land on the inputs")
        w, ty = nbrs[0]
        if ty == EdgeType.HADAMARD:
            gates.append(("h", q))
        perm.append(input_position[w])

    swaps: List[Tuple[str, int, int]] = []
    current = list(range(n))
    for q in range(n):
        if current[q] == perm[q]:
            continue
        j = current.index(perm[q])
        swaps.append(("swap", q, j))
        current[q], current[j] = current[j], current[q]

    circuit = QuantumCircuit(n, name="extracted")
    for item in swaps + list(reversed(gates)):
        kind = item[0]
        if kind == "h":
            circuit.h(item[1])
        elif kind == "p":
            circuit.p(item[2], item[1])
        elif kind == "cz":
            circuit.cz(item[1], item[2])
        elif kind == "cnot":
            circuit.cx(item[1], item[2])
        elif kind == "swap":
            circuit.swap(item[1], item[2])
        else:  # pragma: no cover
            raise AssertionError(f"unknown extraction gate {item}")
    return circuit


def _is_gadget_hub(d: ZXDiagram, v: int) -> bool:
    """A phase-free interior spider carrying a degree-1 (leaf) neighbour."""
    if d.is_boundary(v) or d.types[v] != VertexType.Z:
        return False
    if not d.phases[v].is_zero:
        return False
    if any(d.is_boundary(w) for w in d.neighbors(v)):
        return False
    return any(d.degree(w) == 1 for w in d.neighbors(v))


def _pivot_gadget_at_frontier(
    d: ZXDiagram, frontier: List[int], inputs: set
) -> bool:
    """Absorb one frontier-adjacent phase gadget by pivoting its hub.

    The frontier spider first gets a private Hadamard identity chain to its
    output so it becomes interior; the pivot then removes the (Pauli) pair
    and reconnects the gadget leaf as an ordinary spider.  Returns True when
    a pivot was applied.
    """
    for q, v in enumerate(frontier):
        if not d.phases[v].is_zero:
            continue
        for h in list(d.edges[v]):
            if h in inputs or d.is_boundary(h):
                continue
            if d.edge_type(v, h) != EdgeType.HADAMARD:
                continue
            if not _is_gadget_hub(d, h):
                continue
            # Detach v from its output through two H identity spiders.
            # v may touch an input boundary as well (step 4 leaves such
            # spiders on the frontier), so name the output explicitly.
            o = d.outputs[q]
            if d.edge_type(v, o) != EdgeType.SIMPLE:
                continue
            qubit = d.qubit_of.get(o, 0.0)
            va = d.add_vertex(VertexType.Z, 0, qubit=qubit)
            vb = d.add_vertex(VertexType.Z, 0, qubit=qubit)
            d.remove_edge(v, o)
            d.add_edge(v, va, EdgeType.HADAMARD)
            d.add_edge(va, vb, EdgeType.HADAMARD)
            d.add_edge(vb, o, EdgeType.SIMPLE)
            frontier[q] = vb
            if check_pivot(d, v, h):
                pivot(d, v, h)
                return True
            # Pivot preconditions unexpectedly failed: undo the detachment.
            d.remove_vertex(va)
            d.remove_vertex(vb)
            d.add_edge(v, o, EdgeType.SIMPLE)
            frontier[q] = v
    return False


def _interior_shake(d: ZXDiagram) -> bool:
    """Apply one interior local complementation or pivot, if any exists.

    Row operations during extraction change the interior graph, which can
    re-enable the Duncan-et-al. simplifications; one application strictly
    removes interior spiders, so repeated shakes terminate.
    """
    from .rules import check_local_complementation, local_complementation

    for v in list(d.vertices()):
        if v in d.types and check_local_complementation(d, v):
            if any(d.degree(w) == 1 for w in d.neighbors(v)):
                continue  # keep phase gadgets intact
            local_complementation(d, v)
            return True
    for u, v, ty in d.edge_list():
        if ty != EdgeType.HADAMARD:
            continue
        if u not in d.types or v not in d.types:
            continue
        if any(d.degree(w) == 1 for w in d.neighbors(u)):
            continue
        if any(d.degree(w) == 1 for w in d.neighbors(v)):
            continue
        if check_pivot(d, u, v):
            pivot(d, u, v)
            return True
    return False


def _row_add(
    d: ZXDiagram, frontier: List[int], source_q: int, target_q: int,
    gates: List[Tuple],
) -> None:
    """XOR frontier row ``source`` into row ``target`` by emitting a CNOT.

    The peeled gate is ``CNOT(control=target_q, target=source_q)`` — i.e.
    postfixing that CNOT makes the *target* row's Hadamard-neighbourhood
    absorb the source row's (calibrated against dense semantics in tests).
    """
    u = frontier[source_q]
    v = frontier[target_q]
    if d.edge_type(u, v) is not None:
        raise ExtractionError("row operation between connected frontier spiders")
    gates.append(("cnot", target_q, source_q))
    for w, ty in list(d.edges[u].items()):
        if w == d.outputs[source_q]:
            continue
        if ty != EdgeType.HADAMARD:
            raise ExtractionError("row operation over a non-Hadamard edge")
        d.add_edge_smart(v, w, EdgeType.HADAMARD)


def _eliminate(
    d: ZXDiagram,
    frontier: List[int],
    pending: Sequence[int],
    inputs: set,
    gates: List[Tuple],
) -> bool:
    """Gauss-eliminate the pending-rows biadjacency; returns True on progress.

    Progress means some row ends with exactly one interior-spider neighbour
    (and no input edges), which step 3 of the main loop can then advance.
    """
    columns: List[int] = []
    column_index: Dict[int, int] = {}
    rows: Dict[int, int] = {}
    for q in pending:
        v = frontier[q]
        bits = 0
        for w in d.edges[v]:
            if w == d.outputs[q] or w in inputs:
                continue
            if w not in column_index:
                column_index[w] = len(columns)
                columns.append(w)
            bits |= 1 << column_index[w]
        rows[q] = bits

    # Standard GF(2) forward elimination with full back-substitution.
    order = list(pending)
    pivot_rows: List[int] = []
    col = 0
    for col in range(len(columns)):
        pivot = None
        for q in order:
            if q in pivot_rows:
                continue
            if (rows[q] >> col) & 1:
                pivot = q
                break
        if pivot is None:
            continue
        pivot_rows.append(pivot)
        for q in order:
            if q != pivot and (rows[q] >> col) & 1:
                _row_add(d, frontier, pivot, q, gates)
                rows[q] ^= rows[pivot]

    # Progress check: some pending row now has spider-degree 1 and no inputs.
    for q in pending:
        v = frontier[q]
        spider_count = 0
        input_count = 0
        for w in d.edges[v]:
            if w == d.outputs[q]:
                continue
            if w in inputs:
                input_count += 1
            else:
                spider_count += 1
        if spider_count == 1 and input_count == 0:
            return True
        if spider_count == 0:
            return True  # wire finished (or will error out informatively)
    return False
