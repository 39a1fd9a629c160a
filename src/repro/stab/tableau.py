"""Stabilizer-tableau (CHP) simulation of Clifford circuits.

The paper cites improved classical simulation of Clifford-dominated
circuits (ref. [11]); the underlying machine is the Aaronson-Gottesman
tableau: ``2n`` Pauli rows (destabilizers + stabilizers) over GF(2), with
H/S/CX updates in O(n) and measurements in O(n^2).  This gives the library
a polynomial-time baseline for the Clifford workloads the other backends
are benchmarked on.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..arrays.measurement import sample_in_blocks
from ..circuits.circuit import Operation, QuantumCircuit


class StabilizerTableau:
    """The state of ``n`` qubits as stabilizer/destabilizer generators.

    Row ``i < n`` holds the i-th destabilizer, row ``n + i`` the i-th
    stabilizer.  ``x[k, q]``/``z[k, q]`` are the Pauli X/Z components of row
    ``k`` on qubit ``q``; ``r[k]`` is the sign bit (1 = negative).
    """

    def __init__(self, num_qubits: int) -> None:
        self.num_qubits = num_qubits
        n = num_qubits
        self.x = np.zeros((2 * n, n), dtype=np.uint8)
        self.z = np.zeros((2 * n, n), dtype=np.uint8)
        self.r = np.zeros(2 * n, dtype=np.uint8)
        for q in range(n):
            self.x[q, q] = 1          # destabilizer X_q
            self.z[n + q, q] = 1      # stabilizer Z_q

    # -- elementary Clifford gates ------------------------------------------------

    def h(self, q: int) -> None:
        self.r ^= self.x[:, q] & self.z[:, q]
        self.x[:, q], self.z[:, q] = self.z[:, q].copy(), self.x[:, q].copy()

    def s(self, q: int) -> None:
        self.r ^= self.x[:, q] & self.z[:, q]
        self.z[:, q] ^= self.x[:, q]

    def sdg(self, q: int) -> None:
        self.s(q)
        self.z_gate(q)

    def x_gate(self, q: int) -> None:
        self.r ^= self.z[:, q]

    def z_gate(self, q: int) -> None:
        self.r ^= self.x[:, q]

    def y_gate(self, q: int) -> None:
        self.r ^= self.x[:, q] ^ self.z[:, q]

    def cx(self, control: int, target: int) -> None:
        self.r ^= (
            self.x[:, control]
            & self.z[:, target]
            & (self.x[:, target] ^ self.z[:, control] ^ 1)
        )
        self.x[:, target] ^= self.x[:, control]
        self.z[:, control] ^= self.z[:, target]

    def cz(self, a: int, b: int) -> None:
        self.h(b)
        self.cx(a, b)
        self.h(b)

    def swap(self, a: int, b: int) -> None:
        self.cx(a, b)
        self.cx(b, a)
        self.cx(a, b)

    # -- measurement -----------------------------------------------------------------

    def _rowsum(self, h: int, i: int) -> None:
        """Row ``h`` *= row ``i`` (Pauli product with sign tracking)."""
        # 2-bit phase exponent of the product, computed per qubit.
        x1, z1 = self.x[i], self.z[i]
        x2, z2 = self.x[h], self.z[h]
        # g in {-1, 0, 1} per qubit per Aaronson-Gottesman.
        g = (
            x1 * z1 * (np.int8(z2) - np.int8(x2))
            + x1 * (1 - z1) * z2 * (2 * np.int8(x2) - 1)
            + (1 - x1) * z1 * x2 * (1 - 2 * np.int8(z2))
        ).astype(np.int64)
        total = 2 * int(self.r[h]) + 2 * int(self.r[i]) + int(g.sum())
        self.r[h] = (total % 4) // 2
        self.x[h] ^= self.x[i]
        self.z[h] ^= self.z[i]

    def measure(self, q: int, rng: np.random.Generator) -> int:
        """Projective Z measurement on qubit ``q``."""
        n = self.num_qubits
        stab_rows = [n + k for k in range(n) if self.x[n + k, q]]
        if stab_rows:
            # Random outcome.
            p = stab_rows[0]
            for k in range(2 * n):
                if k != p and self.x[k, q]:
                    self._rowsum(k, p)
            # Destabilizer row p-n gets the old stabilizer row p.
            self.x[p - n] = self.x[p]
            self.z[p - n] = self.z[p]
            self.r[p - n] = self.r[p]
            self.x[p] = 0
            self.z[p] = 0
            self.z[p, q] = 1
            outcome = int(rng.integers(0, 2))
            self.r[p] = outcome
            return outcome
        # Deterministic outcome: accumulate into a scratch row.
        scratch_x = np.zeros(self.num_qubits, dtype=np.uint8)
        scratch_z = np.zeros(self.num_qubits, dtype=np.uint8)
        scratch_r = 0
        for k in range(n):
            if self.x[k, q]:
                scratch_r = self._scratch_rowsum(
                    scratch_x, scratch_z, scratch_r, n + k
                )
        return scratch_r

    def _scratch_rowsum(
        self, sx: np.ndarray, sz: np.ndarray, sr: int, i: int
    ) -> int:
        x1, z1 = self.x[i], self.z[i]
        g = (
            x1 * z1 * (np.int8(sz) - np.int8(sx))
            + x1 * (1 - z1) * sz * (2 * np.int8(sx) - 1)
            + (1 - x1) * z1 * sx * (1 - 2 * np.int8(sz))
        ).astype(np.int64)
        total = 2 * sr + 2 * int(self.r[i]) + int(g.sum())
        sx ^= self.x[i]
        sz ^= self.z[i]
        return (total % 4) // 2

    def expectation_z(self, q: int) -> Optional[int]:
        """<Z_q> if it is ±1 (deterministic), else None (it is 0)."""
        n = self.num_qubits
        if any(self.x[n + k, q] for k in range(n)):
            return None
        scratch_x = np.zeros(n, dtype=np.uint8)
        scratch_z = np.zeros(n, dtype=np.uint8)
        scratch_r = 0
        for k in range(n):
            if self.x[k, q]:
                scratch_r = self._scratch_rowsum(
                    scratch_x, scratch_z, scratch_r, n + k
                )
        return 1 - 2 * scratch_r

    # -- inspection --------------------------------------------------------------------

    def stabilizer_strings(self) -> List[Tuple[int, str]]:
        """Stabilizer generators as ``(sign, pauli)`` pairs.

        The Pauli string is written with the highest qubit leftmost, to
        match the observable convention used across the library.
        """
        n = self.num_qubits
        result = []
        for k in range(n, 2 * n):
            chars = []
            for q in range(n - 1, -1, -1):
                xq, zq = self.x[k, q], self.z[k, q]
                chars.append("IXZY"[xq + 2 * zq] if xq + 2 * zq != 3 else "Y")
            sign = -1 if self.r[k] else 1
            result.append((sign, "".join(chars)))
        return result

    def copy(self) -> "StabilizerTableau":
        dup = StabilizerTableau(self.num_qubits)
        dup.x = self.x.copy()
        dup.z = self.z.copy()
        dup.r = self.r.copy()
        return dup

    # -- dense conversions -------------------------------------------------------------

    def expectation_pauli(self, pauli: str) -> float:
        """Exact ``<psi| P |psi>`` for a Pauli string observable.

        A stabilizer state's Pauli expectations are always in {-1, 0, +1}:
        ``+-1`` when ``+-P`` lies in the stabilizer group (decided by a
        GF(2) solve over the generators), ``0`` otherwise.  Polynomial in
        ``n``; never touches a dense state.

        The string is read with the highest qubit leftmost, matching the
        observable convention used across the library.
        """
        n = self.num_qubits
        if len(pauli) != n:
            raise ValueError(
                f"Pauli string length {len(pauli)} != {n} qubits"
            )
        tx = np.zeros(n, dtype=np.int64)
        tz = np.zeros(n, dtype=np.int64)
        for q in range(n):
            ch = pauli[n - 1 - q].upper()
            if ch == "X":
                tx[q] = 1
            elif ch == "Z":
                tz[q] = 1
            elif ch == "Y":
                tx[q] = 1
                tz[q] = 1
            elif ch != "I":
                raise ValueError(f"invalid Pauli character '{ch}'")
        # Membership test: find generators multiplying to P's (x, z) image.
        stab_x = self.x[n:].astype(np.int64)
        stab_z = self.z[n:].astype(np.int64)
        system = np.concatenate([stab_x.T, stab_z.T], axis=0)
        selection = _solve_gf2(system, np.concatenate([tx, tz]))
        if selection is None:
            return 0.0
        sx = np.zeros(n, dtype=np.int64)
        sz = np.zeros(n, dtype=np.int64)
        sr = 0
        for k in range(n):
            if selection[k]:
                sx, sz, sr = _pauli_row_product(
                    stab_x[k], stab_z[k], int(self.r[n + k]), sx, sz, sr
                )
        # The product equals (-1)^sr * P, and it stabilizes the state.
        return float(1 - 2 * sr)

    def to_statevector(self) -> np.ndarray:
        """The dense ``2**n`` state stabilized by this tableau.

        Exponential in ``n`` by necessity (the output is dense); the
        construction itself is a GF(2) solve for one support basis state
        followed by ``n`` projector sweeps ``(I + S_k)/2`` over the dense
        vector, i.e. O(n^2 2^n) time.  The result is normalized and
        defined up to a global phase.
        """
        n = self.num_qubits
        offset, _ = self.support()
        index0 = sum(int(bit) << q for q, bit in enumerate(offset))
        dim = 1 << n
        state = np.zeros(dim, dtype=np.complex128)
        state[index0] = 1.0
        indices = np.arange(dim)
        for k in range(n):
            gx = self.x[n + k]
            gz = self.z[n + k]
            xmask = 0
            phase = np.full(dim, -1.0 if self.r[n + k] else 1.0, dtype=np.complex128)
            for q in range(n):
                if gx[q]:
                    xmask |= 1 << q
                if gz[q]:
                    bit = (indices >> q) & 1
                    factor = 1 - 2 * bit
                    phase *= (1j * factor) if gx[q] else factor
            flipped = np.zeros_like(state)
            flipped[indices ^ xmask] = phase * state
            state = (state + flipped) * 0.5
        norm = np.linalg.norm(state)
        if norm == 0.0:  # pragma: no cover - valid tableaus always have support
            raise RuntimeError("inconsistent tableau: empty support")
        return state / norm

    def support(self) -> Tuple[np.ndarray, np.ndarray]:
        """The computational-basis support as ``(x0, B)``, bits by qubit.

        A stabilizer state is flat on the affine space ``x0 + span(B)``
        over GF(2).  Row-reducing the stabilizer generators over their
        X-parts leaves one pivot row per independent X-part; those X-parts
        are the rows of ``B``.  The X-free (pure-Z) rows ``+-Z^a``
        constrain support states by ``a . x = r (mod 2)``, which is solved
        over GF(2) for ``x0``.
        """
        n = self.num_qubits
        xs = self.x[n:].astype(np.int64)
        zs = self.z[n:].astype(np.int64)
        rs = self.r[n:].astype(np.int64)
        free = np.ones(n, dtype=bool)
        pivots = []
        for col in range(n):
            hits = xs[:, col] == 1
            candidates = np.flatnonzero(hits & free)
            if not len(candidates):
                continue
            pivot = candidates[0]
            free[pivot] = False
            pivots.append(pivot)
            hits[pivot] = False
            xs[hits], zs[hits], rs[hits] = _pauli_row_product(
                xs[pivot], zs[pivot], rs[pivot], xs[hits], zs[hits], rs[hits]
            )
        basis = xs[pivots]
        z_only = ~xs.any(axis=1)
        if not z_only.any():
            return np.zeros(n, dtype=np.int64), basis
        solution = _solve_gf2(zs[z_only], rs[z_only])
        if solution is None:  # pragma: no cover - valid tableaus are consistent
            raise RuntimeError("inconsistent tableau: no support basis state")
        return solution, basis


def _pauli_row_product(x1, z1, r1, x2, z2, r2):
    """Product of two commuting signed Pauli rows: ``(x2,z2,r2) * (x1,z1,r1)``.

    Same phase bookkeeping as Aaronson-Gottesman rowsum; valid whenever the
    rows commute (always true inside a stabilizer group), where the product
    phase is guaranteed to be ``+-1``.  ``(x2, z2, r2)`` may be a stack of
    rows (leading axis), each multiplied by the same row 1.
    """
    x1 = np.asarray(x1, dtype=np.int64)
    z1 = np.asarray(z1, dtype=np.int64)
    x2 = np.asarray(x2, dtype=np.int64)
    z2 = np.asarray(z2, dtype=np.int64)
    g = (
        x1 * z1 * (z2 - x2)
        + x1 * (1 - z1) * z2 * (2 * x2 - 1)
        + (1 - x1) * z1 * x2 * (1 - 2 * z2)
    )
    total = 2 * np.asarray(r1) + 2 * np.asarray(r2) + g.sum(axis=-1)
    return x1 ^ x2, z1 ^ z2, (total % 4) // 2


def _solve_gf2(matrix: np.ndarray, rhs: np.ndarray) -> Optional[np.ndarray]:
    """One solution of ``matrix @ x = rhs`` over GF(2), or None if insoluble.

    Free variables are set to zero.  ``matrix`` is (m, n); the inputs are
    not modified.
    """
    a = (np.asarray(matrix, dtype=np.int64) % 2).copy()
    b = (np.asarray(rhs, dtype=np.int64) % 2).copy()
    m, n = a.shape
    pivot_cols = []
    row = 0
    for col in range(n):
        if row >= m:
            break
        below = np.flatnonzero(a[row:, col])
        if not len(below):
            continue
        sel = row + below[0]
        if sel != row:
            a[[row, sel]] = a[[sel, row]]
            b[row], b[sel] = b[sel], b[row]
        hits = a[:, col] == 1
        hits[row] = False
        a[hits] ^= a[row]
        b[hits] ^= b[row]
        pivot_cols.append(col)
        row += 1
    for k in range(row, m):
        if b[k]:
            return None
    solution = np.zeros(n, dtype=np.int64)
    for i, col in enumerate(pivot_cols):
        solution[col] = b[i]
    return solution


class NotCliffordError(ValueError):
    """The circuit contains a gate outside the Clifford group."""


class StabilizerSimulator:
    """Polynomial-time simulator for Clifford circuits."""

    def __init__(self, seed: int = 0) -> None:
        self._rng = np.random.default_rng(seed)

    def run(
        self, circuit: QuantumCircuit, tableau: Optional[StabilizerTableau] = None
    ) -> Tuple[StabilizerTableau, Dict[int, int]]:
        tableau = tableau or StabilizerTableau(circuit.num_qubits)
        classical: Dict[int, int] = {}
        for op in circuit.operations:
            if op.is_barrier:
                continue
            if op.is_measurement:
                outcome = tableau.measure(op.targets[0], self._rng)
                if op.clbits:
                    classical[op.clbits[0]] = outcome
                continue
            self._apply(tableau, op)
        return tableau, classical

    def sample_counts(
        self, circuit: QuantumCircuit, shots: int, seed: int = 0
    ) -> Dict[str, int]:
        """Measure all qubits ``shots`` times (one evolution, then sampling)."""
        base, _ = self.run(circuit.without_measurements())
        return self.sample_counts_from(base, shots, seed=seed)

    def sample_counts_from(
        self, tableau: StabilizerTableau, shots: int, seed: int = 0
    ) -> Dict[str, int]:
        """Measure all qubits of an evolved tableau ``shots`` times.

        Outcomes are uniform over the support ``x0 + span(B)``
        (:meth:`StabilizerTableau.support`), so a block of shots is one
        integer product of uniform (shots x k) bits with ``B`` (k x n),
        reduced mod 2 and XORed onto ``x0``.  The tableau is not touched.
        """
        rng = np.random.default_rng(seed)
        offset, basis = tableau.support()

        def draw(size: int) -> np.ndarray:
            coeffs = rng.integers(0, 2, size=(size, len(basis)), dtype=np.int64)
            return ((coeffs @ basis) & 1) ^ offset

        return sample_in_blocks(draw, shots, tableau.num_qubits)

    def _apply(self, tableau: StabilizerTableau, op: Operation) -> None:
        name = op.gate.name
        controls = op.controls
        if not controls:
            if name == "h":
                tableau.h(op.targets[0])
            elif name == "s":
                tableau.s(op.targets[0])
            elif name == "sdg":
                tableau.sdg(op.targets[0])
            elif name == "x":
                tableau.x_gate(op.targets[0])
            elif name == "y":
                tableau.y_gate(op.targets[0])
            elif name == "z":
                tableau.z_gate(op.targets[0])
            elif name == "id" or name == "gphase":
                pass
            elif name == "swap":
                tableau.swap(*op.targets)
            elif name == "sx":
                q = op.targets[0]
                tableau.h(q)
                tableau.s(q)
                tableau.h(q)
                # HSH = SX up to phase i^{-1/2}; global phase is irrelevant
                # for stabilizer states.
            elif name == "sxdg":
                q = op.targets[0]
                tableau.h(q)
                tableau.sdg(q)
                tableau.h(q)
            else:
                raise NotCliffordError(f"gate '{name}' is not Clifford")
        elif len(controls) == 1 and name == "x":
            tableau.cx(controls[0], op.targets[0])
        elif len(controls) == 1 and name == "z":
            tableau.cz(controls[0], op.targets[0])
        elif len(controls) == 1 and name == "y":
            c, t = controls[0], op.targets[0]
            tableau.sdg(t)
            tableau.cx(c, t)
            tableau.s(t)
        else:
            raise NotCliffordError(
                f"operation '{op.name_with_controls()}' is not Clifford"
            )
