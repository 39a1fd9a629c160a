"""Matrix-product-state simulation (paper Sec. IV).

MPS are the "specialized types of tensor networks ... decomposing the whole
state into smaller tensors" the paper points to: qubit ``k`` owns a rank-3
tensor of shape ``(D_left, 2, D_right)`` and the bond dimension ``D`` caps
the representable entanglement.  Two-qubit gates are absorbed with an SVD
split; singular values below ``cutoff`` (or beyond ``max_bond``) are
truncated, trading fidelity for memory exactly as in approximate
tensor-network simulators.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

import numpy as np

from ..arrays.measurement import sample_in_blocks
from ..circuits.circuit import Operation, QuantumCircuit
from ..circuits.gates import SWAP, controlled_matrix
from ..obs import metrics as obs_metrics
from ..obs.progress import GATE_EVENT_INTERVAL, ProgressReporter
from ..resources import FidelityBudgetExceeded, ResourceBudget

_SWAP_MATRIX = SWAP.matrix

_BUDGET_CHECK_INTERVAL = 8
"""Operations between resource-budget checks in the gate loop."""

TRUNCATION_SAFETY = 2.0
"""Headroom multiplier on each truncation's local discarded weight.

The tensors are not kept in canonical form, so the locally discarded
relative weight at one SVD only approximates that step's global fidelity
loss.  Charging ``TRUNCATION_SAFETY`` times the local weight against the
budget (and into the certificate) absorbs the mismatch; the certified
bound ``prod(1 - eps_i) >= 1 - sum(eps_i)`` then stays conservative."""


class TruncationBudget:
    """Additive infidelity budget driving fidelity-targeted truncation.

    The total budget is ``1 - target``.  Each SVD step is granted an
    allowance of ``remaining / steps_left`` — unspent allowance rolls
    over, so weakly-entangling stretches of the circuit bankroll the
    few layers that actually need to truncate.  ``fidelity_estimate``
    accumulates the certified lower bound ``prod(1 - eps_i)`` where
    ``eps_i`` is the (safety-scaled) relative weight discarded at step
    ``i``; by Weierstrass it stays ``>= 1 - sum(eps_i) >= target`` as
    long as no step is forced over its allowance.

    ``max_bond`` is a *hard* cap (typically the resource budget's
    ``max_bond_dim``): in the approximate tier it truncates instead of
    raising, and the fidelity cost of the forced cut is charged
    honestly — possibly overdrawing the budget, which the simulator
    detects and converts into
    :class:`~repro.resources.FidelityBudgetExceeded`.
    """

    def __init__(
        self,
        target: float,
        steps: int,
        max_bond: Optional[int] = None,
        safety: float = TRUNCATION_SAFETY,
    ) -> None:
        if not 0.0 < target <= 1.0:
            raise ValueError(f"target must be in (0, 1], got {target}")
        self.target = target
        self.remaining = max(0.0, 1.0 - target)
        self.steps_left = max(1, steps)
        self.max_bond = max_bond
        self.safety = safety
        self.fidelity_estimate = 1.0
        self.truncations = 0

    @property
    def overdrawn(self) -> bool:
        """True when a forced cut pushed the certificate below target."""
        return self.fidelity_estimate < self.target

    def select_keep(self, s: np.ndarray, cutoff: float) -> int:
        """Pick how many singular values one SVD step may keep.

        Greedily keeps the smallest prefix whose (safety-scaled)
        discarded relative weight fits this step's allowance, clamped to
        the hard bond cap, then charges the actual cost.  Values at or
        below ``cutoff`` are numerical noise and are always dropped
        (their weight is still charged, to keep the certificate honest).
        """
        m = len(s)
        weights = np.abs(s) ** 2
        total = float(np.sum(weights))
        cap = m if self.max_bond is None else max(1, min(self.max_bond, m))
        if total <= 0.0:
            return 1
        # tail[k] = weight discarded when keeping the first k values.
        tail = np.concatenate([np.cumsum(weights[::-1])[::-1], [0.0]])
        allowance = max(0.0, self.remaining) / self.steps_left
        admissible = np.nonzero(
            self.safety * tail[1 : cap + 1] <= allowance * total
        )[0]
        keep = int(admissible[0]) + 1 if admissible.size else cap
        noise_free = int(np.sum(s > cutoff))
        keep = max(1, min(keep, max(noise_free, 1)))
        charged = self.safety * float(tail[keep]) / total
        self.remaining -= charged
        self.fidelity_estimate *= max(0.0, 1.0 - charged)
        self.truncations += 1
        if self.steps_left > 1:
            self.steps_left -= 1
        return keep


class MPS:
    """A matrix product state over ``n`` qubits (site ``k`` = qubit ``k``)."""

    def __init__(self, tensors: List[np.ndarray]) -> None:
        self.tensors = tensors
        self.truncation_error = 0.0
        self.max_bond_reached = 1

    @classmethod
    def zero_state(cls, num_qubits: int) -> "MPS":
        site = np.zeros((1, 2, 1), dtype=np.complex128)
        site[0, 0, 0] = 1.0
        return cls([site.copy() for _ in range(num_qubits)])

    @classmethod
    def basis_state(cls, num_qubits: int, index: int) -> "MPS":
        tensors = []
        for q in range(num_qubits):
            site = np.zeros((1, 2, 1), dtype=np.complex128)
            site[0, (index >> q) & 1, 0] = 1.0
            tensors.append(site)
        return cls(tensors)

    @property
    def num_qubits(self) -> int:
        return len(self.tensors)

    def bond_dimensions(self) -> List[int]:
        return [int(t.shape[2]) for t in self.tensors[:-1]]

    def total_entries(self) -> int:
        return sum(int(t.size) for t in self.tensors)

    # -- gate application -----------------------------------------------------

    def apply_single_qubit(self, matrix: np.ndarray, site: int) -> None:
        self.tensors[site] = np.einsum(
            "ab,ibj->iaj", matrix, self.tensors[site]
        )

    def apply_two_qubit_adjacent(
        self,
        matrix: np.ndarray,
        site: int,
        max_bond: Optional[int] = None,
        cutoff: float = 1e-12,
        budget: Optional[TruncationBudget] = None,
    ) -> None:
        """Apply a 4x4 gate to sites ``(site, site+1)``.

        The matrix's least-significant qubit is ``site`` (our global index
        convention); the SVD re-splits and truncates the merged tensor.
        With a :class:`TruncationBudget`, how much to keep is decided by
        the fidelity budget instead of ``max_bond``/``cutoff`` alone.
        """
        left = self.tensors[site]
        right = self.tensors[site + 1]
        dl = left.shape[0]
        dr = right.shape[2]
        theta = np.einsum("iaj,jbk->iabk", left, right)
        # gate axes (out_hi, out_lo, in_hi, in_lo); hi = site+1, lo = site.
        gate = matrix.reshape(2, 2, 2, 2)
        theta = np.einsum("BAba,iabk->iABk", gate, theta)
        merged = theta.reshape(dl * 2, 2 * dr)
        u, s, vh = np.linalg.svd(merged, full_matrices=False)
        if budget is not None:
            keep = budget.select_keep(s, cutoff)
        else:
            keep = int(np.sum(s > cutoff))
            keep = max(keep, 1)
            if max_bond is not None:
                keep = min(keep, max_bond)
        discarded = s[keep:]
        if discarded.size:
            self.truncation_error += float(np.sum(discarded**2))
        s = s[:keep]
        u = u[:, :keep]
        vh = vh[:keep, :]
        self.max_bond_reached = max(self.max_bond_reached, keep)
        self.tensors[site] = u.reshape(dl, 2, keep)
        self.tensors[site + 1] = (np.diag(s) @ vh).reshape(keep, 2, dr)

    def apply_two_qubit(
        self,
        matrix: np.ndarray,
        low: int,
        high: int,
        max_bond: Optional[int] = None,
        cutoff: float = 1e-12,
        budget: Optional[TruncationBudget] = None,
    ) -> None:
        """Apply a 4x4 gate to arbitrary sites; ``low`` is the matrix's
        least-significant qubit.  Non-adjacent pairs are routed by swapping
        neighbours together and back."""
        if low == high:
            raise ValueError("two-qubit gate needs distinct sites")
        if low > high:
            # Reorder the matrix so the lower site is least significant.
            matrix = _SWAP_MATRIX @ matrix @ _SWAP_MATRIX
            low, high = high, low
        moved = []
        while high - low > 1:
            self.apply_two_qubit_adjacent(
                _SWAP_MATRIX, high - 1, max_bond=max_bond, cutoff=cutoff,
                budget=budget,
            )
            moved.append(high - 1)
            high -= 1
        self.apply_two_qubit_adjacent(
            matrix, low, max_bond=max_bond, cutoff=cutoff, budget=budget
        )
        for position in reversed(moved):
            self.apply_two_qubit_adjacent(
                _SWAP_MATRIX, position, max_bond=max_bond, cutoff=cutoff,
                budget=budget,
            )

    # -- extraction --------------------------------------------------------------

    def amplitude(self, index: int) -> complex:
        vector = np.ones((1,), dtype=np.complex128)
        for q, tensor in enumerate(self.tensors):
            bit = (index >> q) & 1
            vector = vector @ tensor[:, bit, :]
        return complex(vector[0])

    def to_statevector(self) -> np.ndarray:
        """Dense state (exponential; for testing / small systems only)."""
        n = self.num_qubits
        result = np.ones((1, 1), dtype=np.complex128)  # (configs, bond)
        for tensor in self.tensors:
            dl, _, dr = tensor.shape
            result = np.einsum("cb,bsd->csd", result, tensor).reshape(-1, dr)
        amps = result.reshape(-1)
        # Configs are ordered with earlier sites more significant; our global
        # convention puts qubit k at bit k.  That is a bit reversal, which a
        # reshape/transpose does without any Python-level loop.
        state = amps.reshape((2,) * n).transpose(tuple(range(n - 1, -1, -1)))
        return state.reshape(-1).copy()

    def norm(self) -> float:
        env = np.ones((1, 1), dtype=np.complex128)
        for tensor in self.tensors:
            env = np.einsum("ab,asc,bsd->cd", env, tensor.conj(), tensor)
        return float(math.sqrt(abs(env[0, 0].real)))

    def normalize(self) -> None:
        norm = self.norm()
        if norm > 0:
            self.tensors[-1] = self.tensors[-1] / norm

    def _right_environments(self) -> List[np.ndarray]:
        """``R[k]`` sums out sites ``k..n-1``;  ``R[n]`` is the scalar 1."""
        n = self.num_qubits
        envs: List[np.ndarray] = [np.zeros(0)] * (n + 1)
        envs[n] = np.ones((1, 1), dtype=np.complex128)
        for k in range(n - 1, -1, -1):
            tensor = self.tensors[k]
            envs[k] = np.einsum("asc,bsd,cd->ab", tensor, tensor.conj(), envs[k + 1])
        return envs

    def sample_counts(self, shots: int, seed: int = 0) -> Dict[str, int]:
        """Sample bitstrings without building the dense state.

        One sweep over the sites carries a (shots x bond) batch of left
        vectors.  At site ``k`` both branches' weights come from the right
        environment ``R[k+1]``; one uniform per shot picks a bit, and the
        chosen branch, renormalised, becomes the next left vector.
        """
        rng = np.random.default_rng(seed)
        envs = self._right_environments()

        def draw(size: int) -> np.ndarray:
            bits = np.zeros((size, self.num_qubits), dtype=np.uint8)
            vectors = np.ones((size, 1), dtype=np.complex128)
            for k, tensor in enumerate(self.tensors):
                branches = np.einsum("ia,asc->sic", vectors, tensor)
                weights = np.einsum(
                    "sic,sic->si", branches @ envs[k + 1], branches.conj()
                ).real.clip(min=0.0)
                one = rng.random(size) * (weights[0] + weights[1]) < weights[1]
                bits[:, k] = one
                picked = np.where(one, weights[1], weights[0])
                vectors = np.where(one[:, None], branches[1], branches[0])
                vectors /= np.sqrt(np.maximum(picked, 1e-300))[:, None]
            return bits

        return sample_in_blocks(draw, shots, self.num_qubits)

    def expectation_pauli(self, pauli: str) -> float:
        """<psi| P |psi> for a Pauli string (leftmost char = highest qubit)."""
        from ..arrays.measurement import _PAULIS

        n = self.num_qubits
        if len(pauli) != n:
            raise ValueError("Pauli string length mismatch")
        env = np.ones((1, 1), dtype=np.complex128)
        for k in range(n):
            op = _PAULIS[pauli[n - 1 - k]]
            tensor = self.tensors[k]
            applied = np.einsum("st,atc->asc", op, tensor)
            env = np.einsum("ab,bsd,asc->cd", env, applied, tensor.conj())
        return float(env[0, 0].real)

    def bipartite_entropies(self) -> List[float]:
        """Von Neumann entanglement entropy at every cut (needs <= ~20 qubits
        worth of bond dimension; works on a canonicalized copy)."""
        tensors = [t.copy() for t in self.tensors]
        n = len(tensors)
        # Left-canonicalize with QR.
        for k in range(n - 1):
            dl, _, dr = tensors[k].shape
            mat = tensors[k].reshape(dl * 2, dr)
            q, r = np.linalg.qr(mat)
            tensors[k] = q.reshape(dl, 2, q.shape[1])
            tensors[k + 1] = np.einsum("ab,bsc->asc", r, tensors[k + 1])
        entropies: List[float] = []
        # Sweep back with SVD collecting Schmidt spectra.
        for k in range(n - 1, 0, -1):
            dl, _, dr = tensors[k].shape
            mat = tensors[k].reshape(dl, 2 * dr)
            u, s, vh = np.linalg.svd(mat, full_matrices=False)
            s2 = (s / max(np.linalg.norm(s), 1e-300)) ** 2
            s2 = s2[s2 > 1e-15]
            entropies.append(float(-np.sum(s2 * np.log2(s2))))
            tensors[k] = vh.reshape(vh.shape[0], 2, dr)
            tensors[k - 1] = np.einsum(
                "asb,bc->asc", tensors[k - 1], u @ np.diag(s)
            )
        entropies.reverse()
        return entropies


class MPSResult:
    def __init__(self, mps: MPS, classical_bits: Dict[int, int]) -> None:
        self.mps = mps
        self.classical_bits = classical_bits

    def to_statevector(self) -> np.ndarray:
        return self.mps.to_statevector()

    def sample_counts(self, shots: int, seed: int = 0) -> Dict[str, int]:
        return self.mps.sample_counts(shots, seed=seed)


class MPSSimulator:
    """Circuit simulator on matrix product states with bond truncation.

    ``max_bond`` *truncates* (keeping the largest singular values);
    ``budget.max_bond_dim`` *raises*
    :class:`~repro.resources.BondBudgetExceeded` when entanglement growth
    crosses the cap, so a dispatcher can fall back to an exact backend
    instead of silently losing fidelity.  The budget's memory and time
    caps are checked in the same gate-loop checkpoint.

    ``accuracy`` switches the run into the approximate tier: every SVD
    truncates against a shared :class:`TruncationBudget` funded with
    ``1 - accuracy``, the bond-dimension cap becomes a truncation cap
    (its fidelity cost charged instead of raising), and
    ``fidelity_estimate`` carries the certified lower bound on
    ``|<exact|approx>|^2``.  A run whose certificate falls below the
    target raises :class:`~repro.resources.FidelityBudgetExceeded`.
    """

    def __init__(
        self,
        max_bond: Optional[int] = None,
        cutoff: float = 1e-12,
        seed: int = 0,
        budget: Optional[ResourceBudget] = None,
        progress: Optional[callable] = None,
        accuracy: Optional[float] = None,
    ) -> None:
        if accuracy is not None and not 0.0 < accuracy <= 1.0:
            raise ValueError(f"accuracy must be in (0, 1], got {accuracy}")
        self.max_bond = max_bond
        self.cutoff = cutoff
        self._rng = np.random.default_rng(seed)
        self.budget = budget
        self.progress = progress
        self.accuracy = accuracy
        self.fidelity_estimate = 1.0
        self._truncation: Optional[TruncationBudget] = None

    def _check_budget(self, mps: MPS, deadline) -> None:
        budget = self.budget
        if budget is not None:
            if self._truncation is None:
                # In the approximate tier the bond cap truncates (its
                # fidelity cost is charged) instead of raising.
                budget.check_bond(mps.max_bond_reached, backend="mps")
            budget.check_memory(
                mps.total_entries() * 16, backend="mps", what="MPS tensors"
            )
        if deadline is not None:
            deadline.check(backend="mps", context="gate loop")
        if self._truncation is not None and self._truncation.overdrawn:
            raise FidelityBudgetExceeded(
                f"MPS truncation certificate fell to "
                f"{self._truncation.fidelity_estimate:.6f}, below the "
                f"fidelity target of {self._truncation.target}",
                backend="mps",
                limit=self._truncation.target,
                observed=self._truncation.fidelity_estimate,
            )

    @staticmethod
    def _count_svd_steps(circuit: QuantumCircuit) -> int:
        """Adjacent-SVD applications a (decomposed) circuit will trigger.

        A two-qubit gate over distance ``d`` costs ``2*(d-1)`` swap SVDs
        plus one gate SVD.  Conditional operations are counted as if
        taken — overestimating steps only makes early allowances
        smaller, and unspent allowance rolls over.
        """
        steps = 0
        for op in circuit.operations:
            if op.is_barrier or op.is_measurement or not op.is_unitary:
                continue
            qubits = list(op.targets) + list(op.controls)
            if len(qubits) == 2:
                distance = abs(qubits[0] - qubits[1])
                steps += 2 * (distance - 1) + 1
        return steps

    def run(
        self, circuit: QuantumCircuit, initial: Optional[MPS] = None
    ) -> MPSResult:
        from ..compile.decompositions import decompose_to_two_qubit

        circuit = decompose_to_two_qubit(circuit)
        n = circuit.num_qubits
        mps = initial or MPS.zero_state(n)
        deadline = self.budget.deadline() if self.budget is not None else None
        self.fidelity_estimate = 1.0
        self._truncation = None
        if self.accuracy is not None and self.accuracy < 1.0:
            cap = self.max_bond
            if self.budget is not None and self.budget.max_bond_dim is not None:
                cap = (
                    self.budget.max_bond_dim
                    if cap is None
                    else min(cap, self.budget.max_bond_dim)
                )
            self._truncation = TruncationBudget(
                self.accuracy,
                self._count_svd_steps(circuit),
                max_bond=cap,
            )
        checking = self.budget is not None or self._truncation is not None
        classical: Dict[int, int] = {}
        reporter = ProgressReporter.maybe(
            self.progress,
            "gates",
            total=len(circuit.operations),
            backend="mps",
            every=GATE_EVENT_INTERVAL,
        )
        for position, op in enumerate(circuit.operations):
            if checking and position % _BUDGET_CHECK_INTERVAL == 0:
                self._check_budget(mps, deadline)
            if reporter is not None:
                reporter.step()
            if op.is_barrier:
                continue
            if op.is_measurement:
                outcome = self._measure(mps, op.targets[0])
                if op.clbits:
                    classical[op.clbits[0]] = outcome
                continue
            if op.condition is not None:
                clbit, value = op.condition
                if classical.get(clbit, 0) != value:
                    continue
            self._apply(mps, op)
        if checking:
            self._check_budget(mps, deadline)
        if reporter is not None:
            reporter.close()
        if self._truncation is not None:
            # Truncation leaves the state slightly sub-normalized; the
            # certificate already accounts for the discarded weight.
            mps.normalize()
            self.fidelity_estimate = self._truncation.fidelity_estimate
        obs_metrics.gauge_max("mps.max_bond", mps.max_bond_reached)
        obs_metrics.gauge_max("mps.truncation_error", mps.truncation_error)
        obs_metrics.gauge_max("mps.entries", mps.total_entries())
        return MPSResult(mps, classical)

    def statevector(self, circuit: QuantumCircuit) -> np.ndarray:
        return self.run(circuit.without_measurements()).to_statevector()

    def _apply(self, mps: MPS, op: Operation) -> None:
        qubits = list(op.targets) + list(op.controls)
        if op.gate.num_qubits == 0 and not op.controls:
            mps.tensors[0] = mps.tensors[0] * op.gate.matrix[0, 0]
            return
        matrix = controlled_matrix(op.gate.matrix, len(op.controls))
        if len(qubits) == 1:
            mps.apply_single_qubit(matrix, qubits[0])
        elif len(qubits) == 2:
            mps.apply_two_qubit(
                matrix,
                qubits[0],
                qubits[1],
                max_bond=self.max_bond,
                cutoff=self.cutoff,
                budget=self._truncation,
            )
        else:
            raise ValueError(
                f"MPS simulation needs <=2-qubit ops after lowering, got {op!r}"
            )

    def _measure(self, mps: MPS, qubit: int) -> int:
        envs = mps._right_environments()
        # Left environment up to the measured site.
        left = np.ones((1, 1), dtype=np.complex128)
        for k in range(qubit):
            tensor = mps.tensors[k]
            left = np.einsum("ab,asc,bsd->cd", left, tensor, tensor.conj())
        tensor = mps.tensors[qubit]
        probs = []
        for s in (0, 1):
            block = tensor[:, s, :]
            value = np.einsum(
                "ab,ac,bd,cd->", left, block, block.conj(), envs[qubit + 1]
            )
            probs.append(max(float(value.real), 0.0))
        total = probs[0] + probs[1]
        outcome = 1 if self._rng.random() < probs[1] / total else 0
        projected = np.zeros_like(tensor)
        projected[:, outcome, :] = tensor[:, outcome, :]
        mps.tensors[qubit] = projected / math.sqrt(max(probs[outcome] / total, 1e-300) * total)
        return outcome
