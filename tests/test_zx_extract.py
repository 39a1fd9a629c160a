"""Tests for circuit extraction from reduced ZX-diagrams."""

from fractions import Fraction

import pytest

from repro.arrays import allclose_up_to_global_phase, circuit_unitary
from repro.circuits import library, random_circuits
from repro.circuits.circuit import QuantumCircuit
from repro.zx import (
    ExtractionError,
    circuit_to_zx,
    clifford_simp,
    extract_circuit,
    full_reduce,
)


def _assert_roundtrip(circuit, simp=clifford_simp):
    reference = circuit_unitary(circuit.without_measurements())
    diagram = circuit_to_zx(circuit.without_measurements())
    simp(diagram)
    extracted = extract_circuit(diagram)
    assert allclose_up_to_global_phase(
        reference, circuit_unitary(extracted), tol=1e-7
    )
    return extracted


def test_extract_identity_wires():
    qc = QuantumCircuit(2)  # empty circuit: bare wires
    extracted = _assert_roundtrip(qc)
    assert extracted.num_qubits == 2


def test_extract_single_gates():
    for build in (
        lambda c: c.h(0),
        lambda c: c.s(1),
        lambda c: c.cx(0, 1),
        lambda c: c.cz(1, 0),
        lambda c: c.swap(0, 1),
    ):
        qc = QuantumCircuit(2)
        build(qc)
        _assert_roundtrip(qc)


def test_extract_unreduced_diagram():
    # Extraction must also work straight after conversion (no simplification).
    qc = library.bell_pair()
    _assert_roundtrip(qc, simp=lambda d: None)


@pytest.mark.parametrize("seed", range(8))
def test_extract_random_clifford(seed):
    circuit = random_circuits.random_clifford_circuit(4, 35, seed=seed)
    _assert_roundtrip(circuit)


@pytest.mark.parametrize("seed", range(6))
def test_extract_random_clifford_t(seed):
    circuit = random_circuits.random_clifford_t_circuit(3, 25, seed=seed)
    _assert_roundtrip(circuit)


@pytest.mark.parametrize(
    "make",
    [
        lambda: library.qft(3),
        lambda: library.qft(4),
        lambda: library.ghz_state(4),
        lambda: library.w_state(3),
        lambda: library.grover(3, 5),
        lambda: library.hidden_shift(4, 9),
    ],
    ids=["qft3", "qft4", "ghz4", "w3", "grover3", "hiddenshift4"],
)
def test_extract_library_circuits(make):
    _assert_roundtrip(make())


def test_extract_after_full_reduce_when_gadget_free():
    # Clifford circuits never leave gadgets; full_reduce extraction works.
    circuit = random_circuits.random_clifford_circuit(4, 40, seed=3)
    _assert_roundtrip(circuit, simp=full_reduce)


@pytest.mark.parametrize(
    "make",
    [
        lambda: library.qft(3),
        lambda: library.qft(4),
        lambda: library.grover(3, 5),
        lambda: library.cuccaro_adder(2),
        lambda: library.w_state(4),
    ],
    ids=["qft3", "qft4", "grover3", "adder2", "w4"],
)
def test_extract_after_full_reduce_with_gadgets(make):
    """Frontier gadget pivots let full_reduce'd diagrams extract."""
    _assert_roundtrip(make(), simp=full_reduce)


def test_stuck_gadget_raises_cleanly():
    """Input-anchored gadgets are out of scope: must raise, never be wrong."""
    circuit = random_circuits.random_clifford_t_circuit(4, 40, seed=1)
    diagram = circuit_to_zx(circuit)
    full_reduce(diagram)
    try:
        extracted = extract_circuit(diagram)
    except ExtractionError:
        return  # acceptable: documented limitation
    assert allclose_up_to_global_phase(
        circuit_unitary(circuit), circuit_unitary(extracted), tol=1e-6
    )


def test_gadget_pivot_skips_frontier_spider_touching_an_input():
    """A frontier spider wired to its output, an input and a gadget hub
    has two boundary neighbours: the pivot step must pick the output,
    find the pivot blocked by the input, and leave the diagram as it was
    (it once raised ``ValueError: too many values to unpack``)."""
    from repro.zx import EdgeType, VertexType, ZXDiagram
    from repro.zx.extract import _pivot_gadget_at_frontier

    d = ZXDiagram()
    i = d.add_vertex(VertexType.BOUNDARY)
    o = d.add_vertex(VertexType.BOUNDARY)
    v = d.add_vertex(VertexType.Z)
    hub = d.add_vertex(VertexType.Z)
    leaf = d.add_vertex(VertexType.Z, Fraction(1, 4))
    d.add_edge(v, o, EdgeType.SIMPLE)
    d.add_edge(v, i, EdgeType.HADAMARD)
    d.add_edge(v, hub, EdgeType.HADAMARD)
    d.add_edge(hub, leaf, EdgeType.HADAMARD)
    d.inputs = [i]
    d.outputs = [o]
    before = {u: dict(d.edges[u]) for u in d.vertices()}
    frontier = [v]
    assert _pivot_gadget_at_frontier(d, frontier, {i}) is False
    assert frontier == [v]
    assert {u: dict(d.edges[u]) for u in d.vertices()} == before


def test_extract_arity_mismatch():
    from repro.zx import ZXDiagram, VertexType

    d = ZXDiagram()
    i = d.add_vertex(VertexType.BOUNDARY)
    o1 = d.add_vertex(VertexType.BOUNDARY)
    o2 = d.add_vertex(VertexType.BOUNDARY)
    s = d.add_vertex(VertexType.Z)
    d.add_edge(i, s)
    d.add_edge(s, o1)
    d.add_edge(s, o2)
    d.inputs = [i]
    d.outputs = [o1, o2]
    with pytest.raises(ExtractionError):
        extract_circuit(d)


def test_extraction_does_not_mutate_input():
    circuit = library.qft(3)
    diagram = circuit_to_zx(circuit)
    clifford_simp(diagram)
    spiders = len(diagram.spiders())
    extract_circuit(diagram)
    assert len(diagram.spiders()) == spiders


def test_extracted_gate_set_is_native():
    circuit = random_circuits.random_clifford_t_circuit(3, 20, seed=2)
    diagram = circuit_to_zx(circuit)
    clifford_simp(diagram)
    extracted = extract_circuit(diagram)
    allowed = {"h", "p", "cz", "cx", "swap"}
    assert {op.name_with_controls() for op in extracted} <= allowed
