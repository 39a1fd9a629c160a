"""ZX-calculus rewrite rules (paper Sec. V).

Each function applies one rule instance in place.  All rules preserve the
diagram's linear map up to a nonzero global scalar; the test suite proves
this by dense tensor evaluation before/after every rule on random diagrams.

The graph-theoretic rules (local complementation, pivot) require *graph-like*
diagrams — only Z-spiders, only Hadamard edges between spiders — which
:func:`repro.zx.simplify.to_graph_like` establishes.
"""

from __future__ import annotations

from itertools import combinations
from typing import List, Tuple

from .diagram import EdgeType, Phase, VertexType, ZXDiagram


def check_fusable(diagram: ZXDiagram, u: int, v: int) -> bool:
    return (
        u != v
        and not diagram.is_boundary(u)
        and not diagram.is_boundary(v)
        and diagram.types[u] == diagram.types[v]
        and diagram.edge_type(u, v) == EdgeType.SIMPLE
    )


def fuse_spiders(diagram: ZXDiagram, u: int, v: int) -> None:
    """Spider fusion: adjacent same-colour spiders merge, phases add."""
    if not check_fusable(diagram, u, v):
        raise ValueError(f"vertices {u}, {v} are not fusable")
    diagram.add_to_phase(u, diagram.phases[v])
    diagram.remove_edge(u, v)
    for w, ty in list(diagram.edges[v].items()):
        diagram.remove_edge(v, w)
        diagram.add_edge_smart(u, w, ty)
    diagram.remove_vertex(v)


def check_identity(diagram: ZXDiagram, v: int) -> bool:
    return (
        not diagram.is_boundary(v)
        and diagram.phases[v].is_zero
        and diagram.degree(v) == 2
    )


def remove_identity(diagram: ZXDiagram, v: int) -> None:
    """Identity removal: a phase-free arity-2 spider is just a wire."""
    if not check_identity(diagram, v):
        raise ValueError(f"vertex {v} is not an identity spider")
    (a, ta), (b, tb) = list(diagram.edges[v].items())
    joined = (
        EdgeType.HADAMARD
        if (ta == EdgeType.HADAMARD) != (tb == EdgeType.HADAMARD)
        else EdgeType.SIMPLE
    )
    diagram.remove_vertex(v)
    diagram.add_edge_smart(a, b, joined)


def color_change(diagram: ZXDiagram, v: int) -> None:
    """Colour-change: flip a spider's colour, toggling all incident edges."""
    ty = diagram.types[v]
    if ty == VertexType.BOUNDARY:
        raise ValueError("cannot colour-change a boundary vertex")
    diagram.types[v] = VertexType.X if ty == VertexType.Z else VertexType.Z
    for u, ety in list(diagram.edges[v].items()):
        new = EdgeType.SIMPLE if ety == EdgeType.HADAMARD else EdgeType.HADAMARD
        diagram.edges[v][u] = new
        diagram.edges[u][v] = new


def check_local_complementation(diagram: ZXDiagram, v: int) -> bool:
    return (
        not diagram.is_boundary(v)
        and diagram.types[v] == VertexType.Z
        and diagram.phases[v].is_proper_clifford
        and diagram.is_interior(v)
        and all(ty == EdgeType.HADAMARD for ty in diagram.edges[v].values())
    )


def local_complementation(diagram: ZXDiagram, v: int) -> None:
    """Remove an interior ±pi/2 spider by complementing its neighbourhood.

    Graph-theoretic simplification rule of Duncan et al. (paper ref. [38]):
    the neighbours pairwise toggle their Hadamard edges and each loses the
    removed spider's phase.
    """
    if not check_local_complementation(diagram, v):
        raise ValueError(f"vertex {v} does not admit local complementation")
    phase = diagram.phases[v]
    neighbors = diagram.neighbors(v)
    for a, b in combinations(neighbors, 2):
        diagram.add_edge_smart(a, b, EdgeType.HADAMARD)
    for w in neighbors:
        diagram.add_to_phase(w, -phase)
    diagram.remove_vertex(v)


def check_pivot(diagram: ZXDiagram, u: int, v: int) -> bool:
    return (
        u != v
        and not diagram.is_boundary(u)
        and not diagram.is_boundary(v)
        and diagram.types[u] == VertexType.Z
        and diagram.types[v] == VertexType.Z
        and diagram.phases[u].is_pauli
        and diagram.phases[v].is_pauli
        and diagram.edge_type(u, v) == EdgeType.HADAMARD
        and diagram.is_interior(u)
        and diagram.is_interior(v)
        and all(ty == EdgeType.HADAMARD for ty in diagram.edges[u].values())
        and all(ty == EdgeType.HADAMARD for ty in diagram.edges[v].values())
    )


def pivot(diagram: ZXDiagram, u: int, v: int) -> None:
    """Pivot along an interior Pauli-Pauli Hadamard edge (ref. [38]).

    With ``A = N(u) \\ (N(v) ∪ {v})``, ``B = N(v) \\ (N(u) ∪ {u})`` and
    ``C = N(u) ∩ N(v)``: all edges between distinct sets toggle, B and C gain
    u's phase, A and C gain v's phase, C gains an extra pi, and u, v vanish.
    """
    if not check_pivot(diagram, u, v):
        raise ValueError(f"edge ({u}, {v}) does not admit a pivot")
    nu = set(diagram.neighbors(u)) - {v}
    nv = set(diagram.neighbors(v)) - {u}
    common = nu & nv
    only_u = nu - common
    only_v = nv - common
    phase_u = diagram.phases[u]
    phase_v = diagram.phases[v]
    for a in only_u:
        for b in only_v:
            diagram.add_edge_smart(a, b, EdgeType.HADAMARD)
    for a in only_u:
        for c in common:
            diagram.add_edge_smart(a, c, EdgeType.HADAMARD)
    for b in only_v:
        for c in common:
            diagram.add_edge_smart(b, c, EdgeType.HADAMARD)
    for b in only_v | common:
        diagram.add_to_phase(b, phase_u)
    for a in only_u | common:
        diagram.add_to_phase(a, phase_v)
    for c in common:
        diagram.add_to_phase(c, Phase(1))
    diagram.remove_vertex(u)
    diagram.remove_vertex(v)


def unfuse_phase_gadget(diagram: ZXDiagram, v: int) -> Tuple[int, int]:
    """Split a spider's phase off into a phase gadget.

    ``v`` keeps phase 0; a new hub (phase 0) hangs off ``v`` by a Hadamard
    edge and carries a leaf with the old phase.  Returns ``(hub, leaf)``.
    This makes ``v`` Pauli so a pivot can remove it (full_reduce's
    ``pivot_gadget`` step).
    """
    if diagram.is_boundary(v) or diagram.types[v] != VertexType.Z:
        raise ValueError("phase gadgets only unfuse from Z-spiders")
    phase = diagram.phases[v]
    diagram.set_phase(v, 0)
    hub = diagram.add_vertex(
        VertexType.Z, 0, qubit=diagram.qubit_of.get(v, 0) - 0.5,
        row=diagram.row_of.get(v, 0),
    )
    leaf = diagram.add_vertex(
        VertexType.Z, phase, qubit=diagram.qubit_of.get(v, 0) - 1.0,
        row=diagram.row_of.get(v, 0),
    )
    diagram.add_edge(v, hub, EdgeType.HADAMARD)
    diagram.add_edge(hub, leaf, EdgeType.HADAMARD)
    return hub, leaf


def find_phase_gadgets(diagram: ZXDiagram) -> List[Tuple[int, int, frozenset]]:
    """All ``(hub, leaf, support)`` phase gadgets in a graph-like diagram.

    A gadget is a degree-1 *leaf* spider Hadamard-connected to a phase-free
    *hub* spider; the hub's other neighbours form the gadget's support.
    """
    gadgets = []
    for leaf in diagram.spiders():
        if diagram.degree(leaf) != 1:
            continue
        (hub,) = diagram.neighbors(leaf)
        if diagram.is_boundary(hub) or diagram.types[hub] != VertexType.Z:
            continue
        if diagram.edge_type(leaf, hub) != EdgeType.HADAMARD:
            continue
        if not diagram.phases[hub].is_zero:
            continue
        support = frozenset(w for w in diagram.neighbors(hub) if w != leaf)
        if not support:
            continue
        if any(
            diagram.edge_type(hub, w) != EdgeType.HADAMARD for w in support
        ):
            continue
        gadgets.append((hub, leaf, support))
    return gadgets


def merge_phase_gadgets(
    diagram: ZXDiagram,
    first: Tuple[int, int, frozenset],
    second: Tuple[int, int, frozenset],
) -> None:
    """Fuse two phase gadgets with identical support: phases add."""
    hub1, leaf1, support1 = first
    hub2, leaf2, support2 = second
    if support1 != support2:
        raise ValueError("gadgets have different supports")
    diagram.add_to_phase(leaf1, diagram.phases[leaf2])
    diagram.remove_vertex(leaf2)
    diagram.remove_vertex(hub2)


def collapse_single_support_gadget(
    diagram: ZXDiagram, gadget: Tuple[int, int, frozenset]
) -> None:
    """A gadget supported on one spider is just a phase on that spider."""
    hub, leaf, support = gadget
    if len(support) != 1:
        raise ValueError("gadget support is not a single vertex")
    (w,) = support
    if diagram.is_boundary(w):
        raise ValueError("cannot collapse a gadget onto a boundary")
    diagram.add_to_phase(w, diagram.phases[leaf])
    diagram.remove_vertex(leaf)
    diagram.remove_vertex(hub)
