"""Unit tests for the decision-diagram package core."""

import hashlib

import numpy as np
import pytest

from repro.arrays import operation_unitary
from repro.circuits import gates as g
from repro.circuits import library, random_circuits
from repro.circuits.circuit import Operation
from repro.dd import DDPackage, DDSimulator, MatrixDD
from repro.dd.complex_table import ComplexTable
from repro.verify.dd_check import peak_nodes_alternating
from tests.conftest import random_state, random_unitary


@pytest.fixture()
def pkg():
    return DDPackage()


# -- complex table -----------------------------------------------------------


def test_complex_table_interns_close_values():
    table = ComplexTable(tolerance=1e-10)
    a = table.lookup(0.5 + 0.5j)
    b = table.lookup(0.5 + 0.5j + 1e-12)
    assert a is b
    c = table.lookup(0.5 + 0.5j + 1e-6)
    assert c is not a


def test_complex_table_exact_constants():
    table = ComplexTable()
    assert table.lookup(0j) == 0
    assert table.lookup(1 + 0j) == 1
    assert table.lookup(1 + 1e-12 + 0j) == 1


# -- vector construction ------------------------------------------------------


def test_zero_state_roundtrip(pkg):
    for n in (1, 2, 5):
        edge = pkg.zero_state_edge(n)
        vec = pkg.to_statevector(edge, n)
        expected = np.zeros(2**n)
        expected[0] = 1
        assert np.allclose(vec, expected)
        assert pkg.count_nodes(edge) == n


def test_basis_state_roundtrip(pkg):
    for index in range(8):
        edge = pkg.basis_state_edge(3, index)
        vec = pkg.to_statevector(edge, 3)
        assert vec[index] == pytest.approx(1.0)
        assert np.sum(np.abs(vec)) == pytest.approx(1.0)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
def test_statevector_roundtrip_random(pkg, n):
    state = random_state(n, seed=n)
    edge = pkg.from_statevector(state)
    back = pkg.to_statevector(edge, n)
    assert np.allclose(back, state, atol=1e-9)


def test_canonicity_same_vector_same_node(pkg):
    state = random_state(3, seed=5)
    e1 = pkg.from_statevector(state)
    e2 = pkg.from_statevector(state.copy())
    assert e1.node is e2.node
    assert abs(e1.weight - e2.weight) < 1e-12


def test_structured_state_sharing(pkg):
    # Product state |+>^n has exactly n nodes: maximal sharing.
    plus = np.ones(16) / 4.0
    edge = pkg.from_statevector(plus)
    assert pkg.count_nodes(edge) == 4
    # GHZ has 2 nodes per level below the top.
    ghz = np.zeros(16)
    ghz[0] = ghz[15] = 1 / np.sqrt(2)
    edge = pkg.from_statevector(ghz)
    assert pkg.count_nodes(edge) == 2 * 4 - 1


def test_amplitude_path_walk(pkg):
    state = random_state(4, seed=9)
    edge = pkg.from_statevector(state)
    for index in (0, 3, 7, 15, 10):
        assert pkg.amplitude(edge, index) == pytest.approx(
            complex(state[index]), abs=1e-9
        )


# -- matrix construction ------------------------------------------------------


def test_identity_edge(pkg):
    edge = pkg.identity_edge(3)
    assert np.allclose(pkg.to_matrix(edge, 3), np.eye(8))
    assert pkg.count_nodes(edge) == 3
    assert pkg.is_identity(edge, 3)


def test_from_matrix_roundtrip(pkg):
    unitary = random_unitary(8, seed=2)
    edge = pkg.from_matrix(unitary)
    assert np.allclose(pkg.to_matrix(edge, 3), unitary, atol=1e-9)


def test_matrix_entry(pkg):
    unitary = random_unitary(4, seed=3)
    edge = pkg.from_matrix(unitary)
    for r in range(4):
        for c in range(4):
            assert pkg.matrix_entry(edge, r, c) == pytest.approx(
                complex(unitary[r, c]), abs=1e-9
            )


@pytest.mark.parametrize(
    "op,n",
    [
        (Operation(g.H, [0]), 2),
        (Operation(g.H, [1]), 2),
        (Operation(g.X, [0], [1]), 2),
        (Operation(g.X, [1], [0]), 2),
        (Operation(g.X, [1], [0, 2]), 3),
        (Operation(g.X, [0], [1, 2]), 3),
        (Operation(g.Z, [2], [0]), 3),
        (Operation(g.SWAP, [0, 2]), 3),
        (Operation(g.rzz(0.7), [0, 2]), 3),
        (Operation(g.p(0.5), [1], [2]), 4),
        (Operation(g.gphase(0.9), []), 2),
        (Operation(g.gphase(0.9), [], [1]), 2),
        (Operation(g.SWAP, [0, 2], [1]), 3),
    ],
    ids=lambda x: repr(x) if isinstance(x, Operation) else str(x),
)
def test_gate_edge_matches_dense(pkg, op, n):
    edge = pkg.gate_edge(op, n)
    assert np.allclose(pkg.to_matrix(edge, n), operation_unitary(op, n), atol=1e-9)


def test_gate_edge_linear_size(pkg):
    # A CX embedded in many qubits keeps the DD linear in n.
    n = 20
    op = Operation(g.X, [0], [n - 1])
    edge = pkg.gate_edge(op, n)
    assert pkg.count_nodes(edge) <= 3 * n


# -- algebra -------------------------------------------------------------------


def test_add_vectors(pkg):
    a = random_state(3, seed=1)
    b = random_state(3, seed=2)
    ea = pkg.from_statevector(a)
    eb = pkg.from_statevector(b)
    result = pkg.add(ea, eb)
    assert np.allclose(pkg.to_statevector(result, 3), a + b, atol=1e-9)


def test_add_with_zero(pkg):
    a = random_state(2, seed=3)
    ea = pkg.from_statevector(a)
    from repro.dd.package import ZERO_EDGE

    assert pkg.add(ea, ZERO_EDGE) is ea
    assert pkg.add(ZERO_EDGE, ea) is ea


def test_add_cancellation(pkg):
    a = random_state(2, seed=4)
    ea = pkg.from_statevector(a)
    eneg = pkg.from_statevector(-a)
    result = pkg.add(ea, eneg)
    assert np.allclose(pkg.to_statevector(result, 2) if result.weight != 0 else np.zeros(4), 0, atol=1e-9)


def test_mv_multiply_matches_numpy(pkg):
    unitary = random_unitary(8, seed=5)
    state = random_state(3, seed=6)
    em = pkg.from_matrix(unitary)
    ev = pkg.from_statevector(state)
    result = pkg.mv_multiply(em, ev)
    assert np.allclose(pkg.to_statevector(result, 3), unitary @ state, atol=1e-9)


def test_mm_multiply_matches_numpy(pkg):
    a = random_unitary(8, seed=7)
    b = random_unitary(8, seed=8)
    ea = pkg.from_matrix(a)
    eb = pkg.from_matrix(b)
    result = pkg.mm_multiply(ea, eb)
    assert np.allclose(pkg.to_matrix(result, 3), a @ b, atol=1e-8)


def test_conjugate_transpose(pkg):
    unitary = random_unitary(8, seed=9)
    edge = pkg.from_matrix(unitary)
    adj = pkg.conjugate_transpose(edge)
    assert np.allclose(pkg.to_matrix(adj, 3), unitary.conj().T, atol=1e-9)
    # U† U = I exercised through DD algebra alone:
    product = pkg.mm_multiply(adj, edge)
    assert pkg.is_identity(product, 3)


def test_inner_product(pkg):
    a = random_state(3, seed=10)
    b = random_state(3, seed=11)
    ea = pkg.from_statevector(a)
    eb = pkg.from_statevector(b)
    assert pkg.inner_product(ea, eb) == pytest.approx(np.vdot(a, b), abs=1e-9)
    assert pkg.inner_product(ea, ea) == pytest.approx(1.0, abs=1e-9)


def test_norm(pkg):
    state = random_state(4, seed=12) * 2.0  # unnormalized on purpose
    edge = pkg.from_statevector(state)
    assert pkg.norm(edge) == pytest.approx(np.linalg.norm(state), abs=1e-9)


# -- measurement ---------------------------------------------------------------


def test_measure_probability(pkg):
    state = random_state(3, seed=13)
    edge = pkg.from_statevector(state)
    for qubit in range(3):
        expected = sum(
            abs(state[i]) ** 2 for i in range(8) if (i >> qubit) & 1
        )
        assert pkg.measure_probability(edge, qubit, 1) == pytest.approx(
            expected, abs=1e-9
        )
        assert pkg.measure_probability(edge, qubit, 0) == pytest.approx(
            1 - expected, abs=1e-9
        )


def test_sampling_distribution(pkg):
    state = np.zeros(4)
    state[0b01] = np.sqrt(0.25)
    state[0b10] = np.sqrt(0.75)
    edge = pkg.from_statevector(state)
    counts = pkg.sample(edge, 2, 1000, seed=5)
    assert set(counts) <= {"01", "10"}
    assert abs(counts.get("10", 0) - 750) < 80


# -- housekeeping ----------------------------------------------------------------


def test_unique_table_reuse(pkg):
    before = pkg.unique_table_size
    pkg.zero_state_edge(4)
    mid = pkg.unique_table_size
    pkg.zero_state_edge(4)
    assert pkg.unique_table_size == mid
    assert mid > before


def test_reset_clears_tables(pkg):
    pkg.zero_state_edge(3)
    pkg.reset()
    assert pkg.unique_table_size == 0


# -- bounded operation caches ----------------------------------------------------


def test_cache_stats_counts_hits_and_misses():
    pkg = DDPackage()
    from repro.dd import DDSimulator

    circuit = library.ghz_state(6)
    DDSimulator(package=pkg).simulate_state(circuit)
    stats = pkg.cache_stats()
    assert set(stats) == {"add", "mv", "mm", "ct", "ip", "gate"}
    for counters in stats.values():
        assert {"entries", "hits", "misses", "clears"} <= set(counters)
    assert stats["mv"]["misses"] > 0
    assert stats["mv"]["entries"] <= pkg.max_cache_entries


def test_cache_overflow_clears_and_stays_correct():
    """A tiny cache bound forces clears without changing results."""
    from repro.dd import DDSimulator

    circuit = library.qft(5)
    reference = DDSimulator(package=DDPackage()).statevector(circuit)
    small = DDPackage(max_cache_entries=8)
    state = DDSimulator(package=small).statevector(circuit)
    np.testing.assert_allclose(state, reference, atol=1e-10)
    stats = small.cache_stats()
    assert any(counters["clears"] > 0 for counters in stats.values())
    for name in ("add", "mv", "mm"):
        assert stats[name]["entries"] <= 8


def test_cache_stats_reset():
    from repro.dd import DDSimulator

    pkg = DDPackage()
    DDSimulator(package=pkg).simulate_state(library.ghz_state(4))
    pkg.reset()
    stats = pkg.cache_stats()
    for counters in stats.values():
        assert counters["hits"] == 0
        assert counters["misses"] == 0
        assert counters["entries"] == 0


def test_max_cache_entries_validation():
    with pytest.raises(ValueError):
        DDPackage(max_cache_entries=0)


# -- gate-DD memo -------------------------------------------------------------


def test_gate_edge_memo_returns_identical_edge(pkg):
    first = pkg.gate_edge(Operation(g.rz(0.3), [1], [2]), 4)
    again = pkg.gate_edge(Operation(g.rz(0.3), [1], [2]), 4)
    assert again is first
    stats = pkg.cache_stats()["gate"]
    assert (stats["entries"], stats["hits"], stats["misses"]) == (1, 1, 1)
    # Targets, controls and the register size are part of the key.
    assert pkg.gate_edge(Operation(g.rz(0.3), [2], [1]), 4).node is not first.node
    assert pkg.gate_edge(Operation(g.rz(0.3), [1], [2]), 5).node is not first.node
    assert pkg.cache_stats()["gate"]["entries"] == 3


def test_gate_memo_emptied_by_clear_caches_and_reset(pkg):
    op = Operation(g.H, [0], [2])
    first = pkg.gate_edge(op, 3)
    pkg.clear_caches()
    assert pkg.cache_stats()["gate"]["entries"] == 0
    # A rebuild interns the same node with the same canonical weight.
    assert pkg.gate_edge(op, 3) == first
    pkg.reset()
    assert pkg.cache_stats()["gate"] == {
        "entries": 0, "hits": 0, "misses": 0, "clears": 0
    }
    rebuilt = pkg.gate_edge(op, 3)
    np.testing.assert_array_equal(pkg.to_matrix(rebuilt, 3), operation_unitary(op, 3))


def test_gate_memo_bounded_by_max_cache_entries():
    pkg = DDPackage(max_cache_entries=4)
    for k in range(20):
        pkg.gate_edge(Operation(g.rz(0.1 * k), [k % 3]), 3)
        assert pkg.cache_stats()["gate"]["entries"] <= 4
    assert pkg.cache_stats()["gate"]["clears"] > 0


PINNED_DD_CIRCUITS = {
    "adder": lambda: library.cuccaro_adder(2),
    "brickwork6": lambda: random_circuits.brickwork_circuit(6, 4, seed=3),
    "clifford_t8": lambda: random_circuits.random_clifford_t_circuit(
        8, 64, seed=4, t_prob=0.1
    ),
    "ghz8": lambda: library.ghz_state(8),
    "grover4": lambda: library.grover(4, 5),
    "qft6": lambda: library.qft(6),
    "random5": lambda: random_circuits.random_circuit(5, 10, seed=5),
}
# sha256 prefixes of the simulated state and the circuit's matrix DD, and
# the peak of an alternating check against itself, all computed before
# gate DDs were memoized.
PINNED_DD_RESULTS = {
    "adder": ("91170c9662528fd3", "6460477ae96f3cf3", 10),
    "brickwork6": ("9e46f014ab090624", "4e5ff2c572e787a2", 7),
    "clifford_t8": ("910d888ed4a1e774", "f6b3fc1a526fab7e", 15),
    "ghz8": ("fd431e8530c02aaf", "e7a9ce8dc7d1b533", 9),
    "grover4": ("5066f7538b2d2492", "45c9fb01f58e7497", 7),
    "qft6": ("dca70eaf161f0bf0", "9c81daa9a7660d17", 21),
    "random5": ("40cc9566f1ab4e65", "c2f611be7333f282", 8),
}


@pytest.mark.parametrize("name", sorted(PINNED_DD_RESULTS))
def test_dd_results_bitwise_unchanged_by_gate_memo(name):
    def digest(array):
        return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()[:16]

    circuit = PINNED_DD_CIRCUITS[name]().without_measurements()
    state = DDSimulator().simulate_state(circuit).to_statevector()
    matrix = MatrixDD.from_circuit(circuit).to_matrix()
    verdict, peak = peak_nodes_alternating(circuit, circuit.copy())
    assert verdict
    assert (digest(state), digest(matrix), peak) == PINNED_DD_RESULTS[name]
