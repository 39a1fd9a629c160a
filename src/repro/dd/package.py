"""QMDD-style decision diagram package (paper Sec. III).

The package owns the unique table (structural sharing), the complex table
(canonical edge weights), and the operation caches.  Vectors are decomposed
recursively into halves, matrices into quadrants; equivalent sub-structures
are represented once, and common amplitude factors live on edge weights.

Main entry points:

- :meth:`DDPackage.zero_state_edge` / :meth:`from_statevector` — vector DDs,
- :meth:`DDPackage.identity_edge` / :meth:`gate_edge` — matrix DDs,
- :meth:`DDPackage.mv_multiply`, :meth:`mm_multiply`, :meth:`add` — algebra,
- :meth:`DDPackage.to_statevector`, :meth:`to_matrix`, :meth:`amplitude` —
  extraction.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..arrays.measurement import sample_in_blocks
from ..circuits.circuit import Operation
from ..resources import NodeBudgetExceeded
from .complex_table import ONE, ZERO, ComplexTable
from .node import TERMINAL, DDNode, Edge

ZERO_EDGE = Edge(TERMINAL, ZERO)
ONE_EDGE = Edge(TERMINAL, ONE)

BYTES_PER_NODE = 128
"""Rough per-node footprint (4 edge pointers + 4 complex weights + header).

Used both for the uniform ``memory_bytes`` metadata estimate and to turn
a :class:`~repro.resources.ResourceBudget` memory cap into a node cap.
"""


class DDPackage:
    """Shared tables and algorithms for vector and matrix decision diagrams.

    Operation caches (``add``, ``mv``, ``mm``, ``ct``, ``ip``) are bounded
    at ``max_cache_entries`` each; a cache that overflows is cleared
    wholesale (the cheap policy used by real DD packages — entries are
    re-derivable).  Hit/miss/clear counters are exposed via
    :meth:`cache_stats` so benchmarks can report cache effectiveness.

    ``max_nodes`` caps the unique table: interning a node that would grow
    the table past the cap raises
    :class:`~repro.resources.NodeBudgetExceeded`.  This is the DD
    backend's resource-budget checkpoint — diagram blow-up is detected at
    the node that crosses the line, not after memory is gone.
    """

    def __init__(
        self,
        tolerance: float = 1e-10,
        max_cache_entries: int = 1 << 18,
        max_nodes: Optional[int] = None,
    ) -> None:
        if max_cache_entries < 1:
            raise ValueError("max_cache_entries must be positive")
        if max_nodes is not None and max_nodes < 1:
            raise ValueError("max_nodes must be positive")
        self.ctable = ComplexTable(tolerance)
        self.max_cache_entries = max_cache_entries
        self.max_nodes = max_nodes
        self._unique: Dict[Tuple, DDNode] = {}
        self.unique_hits = 0
        self.unique_misses = 0
        self._add_cache: Dict[Tuple, Edge] = {}
        self._mv_cache: Dict[Tuple, Edge] = {}
        self._mm_cache: Dict[Tuple, Edge] = {}
        self._ct_cache: Dict[int, Edge] = {}
        self._ip_cache: Dict[Tuple[int, int], complex] = {}
        self._cache_counters: Dict[str, Dict[str, int]] = {
            name: {"hits": 0, "misses": 0, "clears": 0}
            for name in ("add", "mv", "mm", "ct", "ip")
        }

    # -- statistics ----------------------------------------------------------

    @property
    def unique_table_size(self) -> int:
        return len(self._unique)

    def unique_table_stats(self) -> Dict[str, int]:
        """Unique-table size plus interning hit/miss counters."""
        return {
            "entries": len(self._unique),
            "hits": self.unique_hits,
            "misses": self.unique_misses,
        }

    def _cache_put(self, name: str, cache: Dict, key, value) -> None:
        """Insert under the bound; clear wholesale on overflow."""
        if len(cache) >= self.max_cache_entries:
            cache.clear()
            self._cache_counters[name]["clears"] += 1
        cache[key] = value

    def _count(self, name: str, hit: bool) -> None:
        self._cache_counters[name]["hits" if hit else "misses"] += 1

    def cache_stats(self) -> Dict[str, Dict[str, int]]:
        """Per-cache entry counts and hit/miss/clear counters."""
        sizes = {
            "add": len(self._add_cache),
            "mv": len(self._mv_cache),
            "mm": len(self._mm_cache),
            "ct": len(self._ct_cache),
            "ip": len(self._ip_cache),
        }
        return {
            name: {"entries": sizes[name], **counters}
            for name, counters in self._cache_counters.items()
        }

    def clear_caches(self) -> None:
        """Drop operation caches (the unique table is kept)."""
        self._add_cache.clear()
        self._mv_cache.clear()
        self._mm_cache.clear()
        self._ct_cache.clear()
        self._ip_cache.clear()

    def reset(self) -> None:
        """Drop every table; invalidates all previously created diagrams."""
        self._unique.clear()
        self.unique_hits = 0
        self.unique_misses = 0
        self.clear_caches()
        for counters in self._cache_counters.values():
            counters["hits"] = counters["misses"] = counters["clears"] = 0
        self.ctable = ComplexTable(self.ctable.tolerance)

    # -- node construction ----------------------------------------------------

    def make_edge(self, node: DDNode, weight: complex) -> Edge:
        weight = self.ctable.lookup(complex(weight))
        if weight == 0:
            return ZERO_EDGE
        return Edge(node, weight)

    def make_node(self, var: int, edges: Tuple[Edge, ...]) -> Edge:
        """Normalize, intern, and return an edge to the node.

        Normalization divides all edge weights by the (leftmost) weight of
        largest magnitude, which moves onto the returned edge; this makes the
        representation canonical so equal sub-vectors share one node.
        """
        max_mag = 0.0
        for e in edges:
            mag = abs(e.weight)
            if mag > max_mag:
                max_mag = mag
        if max_mag == 0.0:
            return ZERO_EDGE
        tol = self.ctable.tolerance
        pivot_weight = None
        for e in edges:
            if abs(e.weight) >= max_mag - tol:
                pivot_weight = e.weight
                break
        assert pivot_weight is not None
        normalized: List[Edge] = []
        for e in edges:
            if e.weight == 0:
                normalized.append(ZERO_EDGE)
            elif e.weight is pivot_weight:
                normalized.append(Edge(e.node, ONE))
            else:
                normalized.append(self.make_edge(e.node, e.weight / pivot_weight))
        key = (var, tuple((id(e.node), e.weight) for e in normalized))
        node = self._unique.get(key)
        if node is not None:
            self.unique_hits += 1
        else:
            self.unique_misses += 1
            if (
                self.max_nodes is not None
                and len(self._unique) >= self.max_nodes
            ):
                raise NodeBudgetExceeded(
                    f"decision diagram grew past the node budget of "
                    f"{self.max_nodes} unique nodes",
                    backend="dd",
                    limit=self.max_nodes,
                    observed=len(self._unique) + 1,
                )
            node = DDNode(var, tuple(normalized))
            self._unique[key] = node
        return self.make_edge(node, pivot_weight)

    # -- vector constructors ---------------------------------------------------

    def zero_state_edge(self, num_qubits: int) -> Edge:
        """Vector DD of |0...0> — a single chain of nodes."""
        return self.basis_state_edge(num_qubits, 0)

    def basis_state_edge(self, num_qubits: int, index: int) -> Edge:
        edge = ONE_EDGE
        for level in range(num_qubits):
            if (index >> level) & 1:
                edge = self.make_node(level, (ZERO_EDGE, edge))
            else:
                edge = self.make_node(level, (edge, ZERO_EDGE))
        return edge

    def from_statevector(self, state: np.ndarray) -> Edge:
        state = np.asarray(state, dtype=np.complex128)
        num_qubits = int(len(state)).bit_length() - 1
        if 1 << num_qubits != len(state):
            raise ValueError("statevector length is not a power of two")

        def rec(offset: int, level: int) -> Edge:
            if level < 0:
                return self.make_edge(TERMINAL, complex(state[offset]))
            half = 1 << level
            low = rec(offset, level - 1)
            high = rec(offset + half, level - 1)
            return self.make_node(level, (low, high))

        return rec(0, num_qubits - 1)

    # -- matrix constructors ----------------------------------------------------

    def identity_edge(self, num_qubits: int) -> Edge:
        edge = ONE_EDGE
        for level in range(num_qubits):
            edge = self.make_node(level, (edge, ZERO_EDGE, ZERO_EDGE, edge))
        return edge

    def from_matrix(self, matrix: np.ndarray) -> Edge:
        matrix = np.asarray(matrix, dtype=np.complex128)
        dim = matrix.shape[0]
        num_qubits = int(dim).bit_length() - 1
        if matrix.shape != (dim, dim) or 1 << num_qubits != dim:
            raise ValueError("matrix must be square with power-of-two dimension")

        def rec(row: int, col: int, level: int) -> Edge:
            if level < 0:
                return self.make_edge(TERMINAL, complex(matrix[row, col]))
            half = 1 << level
            quadrants = tuple(
                rec(row + r * half, col + c * half, level - 1)
                for r in (0, 1)
                for c in (0, 1)
            )
            return self.make_node(level, quadrants)

        return rec(0, 0, num_qubits - 1)

    def gate_edge(self, op: Operation, num_qubits: int) -> Edge:
        """Matrix DD of an operation embedded into ``num_qubits`` qubits.

        Handles arbitrary targets and positive controls; size is linear in
        the qubit count (times the local gate dimension).
        """
        matrix = op.gate.matrix
        if op.gate.num_qubits == 0:
            # Global phase (possibly controlled).
            return self._phase_edge(complex(matrix[0, 0]), op.controls, num_qubits)
        targets = list(op.targets)
        target_pos = {q: i for i, q in enumerate(targets)}
        controls = frozenset(op.controls)
        none_bits: Tuple = tuple(None for _ in targets)
        memo: Dict[Tuple, Edge] = {}

        def rec(level: int, identity_mode: bool, tbits: Tuple) -> Edge:
            if level < 0:
                if identity_mode:
                    return ONE_EDGE
                row = 0
                col = 0
                for i, rc in enumerate(tbits):
                    row |= rc[0] << i
                    col |= rc[1] << i
                return self.make_edge(TERMINAL, complex(matrix[row, col]))
            key = (level, True, None) if identity_mode else (level, False, tbits)
            cached = memo.get(key)
            if cached is not None:
                return cached
            if identity_mode:
                sub = rec(level - 1, True, none_bits)
                result = self.make_node(level, (sub, ZERO_EDGE, ZERO_EDGE, sub))
            elif level in target_pos:
                idx = target_pos[level]
                quadrants = []
                for r in (0, 1):
                    for c in (0, 1):
                        assigned = tuple(
                            (r, c) if i == idx else rc for i, rc in enumerate(tbits)
                        )
                        quadrants.append(rec(level - 1, False, assigned))
                result = self.make_node(level, tuple(quadrants))
            elif level in controls:
                # control = 0 branch is the identity — unless an already
                # assigned target sits off-diagonal, which kills the branch.
                diagonal_ok = all(rc is None or rc[0] == rc[1] for rc in tbits)
                if diagonal_ok:
                    inactive = rec(level - 1, True, none_bits)
                else:
                    inactive = ZERO_EDGE
                active = rec(level - 1, False, tbits)
                result = self.make_node(level, (inactive, ZERO_EDGE, ZERO_EDGE, active))
            else:
                sub = rec(level - 1, identity_mode, tbits)
                result = self.make_node(level, (sub, ZERO_EDGE, ZERO_EDGE, sub))
            memo[key] = result
            return result

        return rec(num_qubits - 1, False, none_bits)

    def _phase_edge(
        self, phase: complex, controls: Sequence[int], num_qubits: int
    ) -> Edge:
        controls_set = frozenset(controls)
        edge = self.make_edge(TERMINAL, phase)
        identity = ONE_EDGE
        for level in range(num_qubits):
            if level in controls_set:
                edge = self.make_node(level, (identity, ZERO_EDGE, ZERO_EDGE, edge))
            else:
                edge = self.make_node(level, (edge, ZERO_EDGE, ZERO_EDGE, edge))
            identity = self.make_node(
                level, (identity, ZERO_EDGE, ZERO_EDGE, identity)
            )
        return edge

    # -- algebra ---------------------------------------------------------------

    def add(self, e1: Edge, e2: Edge) -> Edge:
        """Pointwise sum of two vector or matrix DDs."""
        if e1.weight == 0:
            return e2
        if e2.weight == 0:
            return e1
        if e1.node is e2.node:
            return self.make_edge(e1.node, e1.weight + e2.weight)
        if e1.node.is_terminal and e2.node.is_terminal:
            return self.make_edge(TERMINAL, e1.weight + e2.weight)
        ratio = self.ctable.lookup(e2.weight / e1.weight)
        key = (id(e1.node), id(e2.node), ratio)
        cached = self._add_cache.get(key)
        self._count("add", cached is not None)
        if cached is None:
            n1, n2 = e1.node, e2.node
            arity = len(n1.edges)
            children = []
            for i in range(arity):
                c1 = n1.edges[i]
                c2 = n2.edges[i]
                scaled = Edge(c2.node, c2.weight * ratio) if c2.weight != 0 else ZERO_EDGE
                children.append(self.add(c1, scaled))
            cached = self.make_node(n1.var, tuple(children))
            self._cache_put("add", self._add_cache, key, cached)
        return self.make_edge(cached.node, cached.weight * e1.weight)

    def mv_multiply(self, m: Edge, v: Edge) -> Edge:
        """Matrix-vector product: apply a matrix DD to a vector DD."""
        if m.weight == 0 or v.weight == 0:
            return ZERO_EDGE
        scale = m.weight * v.weight
        if m.node.is_terminal and v.node.is_terminal:
            return self.make_edge(TERMINAL, scale)
        key = (id(m.node), id(v.node))
        cached = self._mv_cache.get(key)
        self._count("mv", cached is not None)
        if cached is None:
            rows = []
            for r in (0, 1):
                acc = ZERO_EDGE
                for c in (0, 1):
                    me = m.node.edges[2 * r + c]
                    ve = v.node.edges[c]
                    if me.weight == 0 or ve.weight == 0:
                        continue
                    acc = self.add(acc, self.mv_multiply(me, ve))
                rows.append(acc)
            cached = self.make_node(m.node.var, tuple(rows))
            self._cache_put("mv", self._mv_cache, key, cached)
        return self.make_edge(cached.node, cached.weight * scale)

    def mm_multiply(self, m1: Edge, m2: Edge) -> Edge:
        """Matrix-matrix product of two matrix DDs."""
        if m1.weight == 0 or m2.weight == 0:
            return ZERO_EDGE
        scale = m1.weight * m2.weight
        if m1.node.is_terminal and m2.node.is_terminal:
            return self.make_edge(TERMINAL, scale)
        key = (id(m1.node), id(m2.node))
        cached = self._mm_cache.get(key)
        self._count("mm", cached is not None)
        if cached is None:
            quadrants = []
            for r in (0, 1):
                for c in (0, 1):
                    acc = ZERO_EDGE
                    for k in (0, 1):
                        a = m1.node.edges[2 * r + k]
                        b = m2.node.edges[2 * k + c]
                        if a.weight == 0 or b.weight == 0:
                            continue
                        acc = self.add(acc, self.mm_multiply(a, b))
                    quadrants.append(acc)
            cached = self.make_node(m1.node.var, tuple(quadrants))
            self._cache_put("mm", self._mm_cache, key, cached)
        return self.make_edge(cached.node, cached.weight * scale)

    def conjugate_transpose(self, m: Edge) -> Edge:
        """Adjoint of a matrix DD."""
        if m.weight == 0:
            return ZERO_EDGE
        if m.node.is_terminal:
            return self.make_edge(TERMINAL, m.weight.conjugate())
        cached = self._ct_cache.get(id(m.node))
        self._count("ct", cached is not None)
        if cached is None:
            n = m.node
            # transpose swaps the off-diagonal quadrants
            order = (0, 2, 1, 3)
            children = tuple(self.conjugate_transpose(n.edges[i]) for i in order)
            cached = self.make_node(n.var, children)
            self._cache_put("ct", self._ct_cache, id(m.node), cached)
        return self.make_edge(cached.node, cached.weight * m.weight.conjugate())

    def expectation(self, matrix: Edge, vector: Edge) -> complex:
        """``<v| M |v>`` computed entirely inside the DD algebra."""
        applied = self.mv_multiply(matrix, vector)
        return self.inner_product(vector, applied)

    def inner_product(self, a: Edge, b: Edge) -> complex:
        """Hermitian inner product <a|b> of two vector DDs."""
        if a.weight == 0 or b.weight == 0:
            return 0j
        scale = a.weight.conjugate() * b.weight
        if a.node.is_terminal and b.node.is_terminal:
            return scale
        key = (id(a.node), id(b.node))
        cached = self._ip_cache.get(key)
        self._count("ip", cached is not None)
        if cached is None:
            cached = 0j
            for c in (0, 1):
                cached += self.inner_product(a.node.edges[c], b.node.edges[c])
            self._cache_put("ip", self._ip_cache, key, cached)
        return cached * scale

    # -- extraction --------------------------------------------------------------

    def to_statevector(self, edge: Edge, num_qubits: Optional[int] = None) -> np.ndarray:
        if num_qubits is None:
            num_qubits = edge.node.var + 1
        memo: Dict[int, np.ndarray] = {}

        def rec(node: DDNode) -> np.ndarray:
            if node.is_terminal:
                return np.array([1.0 + 0j])
            cached = memo.get(id(node))
            if cached is not None:
                return cached
            parts = []
            size = 1 << node.var
            for e in node.edges:
                if e.weight == 0:
                    parts.append(np.zeros(size, dtype=np.complex128))
                else:
                    parts.append(e.weight * rec(e.node))
            result = np.concatenate(parts)
            memo[id(node)] = result
            return result

        if edge.weight == 0:
            return np.zeros(1 << num_qubits, dtype=np.complex128)
        vec = edge.weight * rec(edge.node)
        if len(vec) != 1 << num_qubits:
            # zero-stub root or smaller diagram: pad (only for malformed input)
            raise ValueError("edge does not represent a full statevector")
        return vec

    def to_matrix(self, edge: Edge, num_qubits: Optional[int] = None) -> np.ndarray:
        if num_qubits is None:
            num_qubits = edge.node.var + 1
        dim = 1 << num_qubits

        def rec(e: Edge, level: int) -> np.ndarray:
            size = 1 << (level + 1)
            if e.weight == 0:
                return np.zeros((size, size), dtype=np.complex128)
            if level < 0:
                return np.array([[e.weight]])
            node = e.node
            half = size // 2
            out = np.empty((size, size), dtype=np.complex128)
            for r in (0, 1):
                for c in (0, 1):
                    block = rec(node.edges[2 * r + c], level - 1)
                    out[r * half : (r + 1) * half, c * half : (c + 1) * half] = block
            return e.weight * out

        return rec(edge, num_qubits - 1)

    def amplitude(self, edge: Edge, index: int) -> complex:
        """Single amplitude: product of edge weights along one path."""
        weight = edge.weight
        node = edge.node
        while not node.is_terminal and weight != 0:
            bit = (index >> node.var) & 1
            child = node.edges[bit]
            weight *= child.weight
            node = child.node
        return complex(weight)

    def matrix_entry(self, edge: Edge, row: int, col: int) -> complex:
        weight = edge.weight
        node = edge.node
        while not node.is_terminal and weight != 0:
            r = (row >> node.var) & 1
            c = (col >> node.var) & 1
            child = node.edges[2 * r + c]
            weight *= child.weight
            node = child.node
        return complex(weight)

    # -- measurement -------------------------------------------------------------

    def node_norms(self, edge: Edge) -> Dict[int, float]:
        """Map ``id(node) -> sum of |amplitude|^2`` of the node's sub-vector."""
        norms: Dict[int, float] = {id(TERMINAL): 1.0}

        def rec(node: DDNode) -> float:
            key = id(node)
            if key in norms:
                return norms[key]
            total = 0.0
            for e in node.edges:
                if e.weight != 0:
                    total += abs(e.weight) ** 2 * rec(e.node)
            norms[key] = total
            return total

        rec(edge.node)
        return norms

    def norm(self, edge: Edge) -> float:
        """Euclidean norm of the represented vector."""
        if edge.weight == 0:
            return 0.0
        norms = self.node_norms(edge)
        return math.sqrt(abs(edge.weight) ** 2 * norms[id(edge.node)])

    def sample(
        self, edge: Edge, num_qubits: int, shots: int, seed: int = 0
    ) -> Dict[str, int]:
        """Sample measurement outcomes directly from the DD (no 2^n vector).

        The nodes of each level are numbered top-down, giving a table of
        child slots and squared edge weights per level.  Bottom-up, a
        node's branch masses are its squared weights times the children's
        norms (as in :meth:`node_norms`), so each level becomes a p(1)
        table.  Every shot then advances one level per step: one uniform
        per shot picks a bit and indexes the next node.
        """
        rng = np.random.default_rng(seed)
        tables = []
        frontier = [edge.node]
        while not frontier[0].is_terminal:
            slots: Dict[DDNode, int] = {}
            children: List[int] = []
            squared: List[float] = []
            for node in frontier:
                for e in node.edges:
                    # A zero edge is never taken; its slot is a placeholder.
                    children.append(
                        slots.setdefault(e.node, len(slots)) if e.weight != 0 else 0
                    )
                    squared.append(abs(e.weight) ** 2)
            tables.append(
                (
                    frontier[0].var,
                    np.array(squared).reshape(-1, 2),
                    np.array(children, dtype=np.intp).reshape(-1, 2),
                )
            )
            frontier = list(slots)
        levels = []
        norms = np.ones(1)
        for var, squared, children in reversed(tables):
            mass = squared * norms[children]
            norms = mass.sum(axis=1)
            levels.append((var, mass[:, 1] / norms, children))
        levels.reverse()

        def draw(size: int) -> np.ndarray:
            bits = np.zeros((size, num_qubits), dtype=np.uint8)
            at = np.zeros(size, dtype=np.intp)
            for var, p_one, children in levels:
                one = rng.random(size) < p_one[at]
                bits[:, var] = one
                at = children[at, one.view(np.uint8)]
            return bits

        return sample_in_blocks(draw, shots, num_qubits)

    def measure_probability(self, edge: Edge, qubit: int, outcome: int) -> float:
        """Probability of measuring ``qubit`` as ``outcome`` (edge normalized)."""
        norms = self.node_norms(edge)
        memo: Dict[int, float] = {}

        def rec(node: DDNode) -> float:
            if node.is_terminal:
                # A terminal reached above the qubit level means a zero stub
                # was taken; contribution handled by weight-zero pruning.
                return 1.0 if outcome == 0 else 0.0
            key = id(node)
            if key in memo:
                return memo[key]
            if node.var == qubit:
                e = node.edges[outcome]
                result = abs(e.weight) ** 2 * norms[id(e.node)] if e.weight != 0 else 0.0
            elif node.var < qubit:
                result = norms[key] if outcome == 0 else 0.0
            else:
                result = 0.0
                for e in node.edges:
                    if e.weight != 0:
                        result += abs(e.weight) ** 2 * rec(e.node)
            memo[key] = result
            return result

        return abs(edge.weight) ** 2 * rec(edge.node)

    # -- structure -----------------------------------------------------------------

    def count_nodes(self, edge: Edge) -> int:
        """Number of distinct non-terminal nodes reachable from ``edge``."""
        seen = set()
        stack = [edge.node]
        while stack:
            node = stack.pop()
            if node.is_terminal or id(node) in seen:
                continue
            seen.add(id(node))
            for e in node.edges:
                if e.weight != 0:
                    stack.append(e.node)
        return len(seen)

    def is_identity(self, edge: Edge, num_qubits: int, up_to_phase: bool = True) -> bool:
        """Whether a matrix DD is the identity (optionally up to global phase)."""
        identity = self.identity_edge(num_qubits)
        if edge.node is not identity.node:
            return False
        if up_to_phase:
            return abs(abs(edge.weight) - 1.0) <= 1e-8
        return abs(edge.weight - 1.0) <= 1e-8
