"""Noise-aware decision-diagram simulation (paper ref. [13]).

Grurl/Fuss/Wille-style stochastic noise on decision diagrams: each
trajectory keeps the state as a vector DD and, after every noisy operation,
samples one Kraus branch with the Born probability computed *on the
diagram* (no dense vectors anywhere).  Structured states stay compact even
under noise, which is the point of doing this on DDs.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..arrays.noise import KrausChannel, NoiseModel
from ..circuits.circuit import Operation, QuantumCircuit
from ..circuits.gates import Gate
from ..obs import metrics as obs_metrics
from ..obs.progress import ProgressReporter
from ..parallel import (
    RunStats,
    chunk_sizes,
    parallel_map,
    resolve_jobs,
    spawn_seeds,
)
from .package import DDPackage
from .simulator import DDSimulator
from .vector import VectorDD


class NoisyDDResult:
    """Averaged outcome distribution over DD trajectories.

    ``metadata`` audits the execution: inline or on a thread pool, the
    worker count, and the chunk layout.
    """

    def __init__(
        self,
        probabilities: np.ndarray,
        num_trajectories: int,
        mean_nodes: float,
        peak_nodes: int,
        metadata: Optional[Dict] = None,
    ) -> None:
        self.probs = probabilities
        self.num_trajectories = num_trajectories
        self.mean_nodes = mean_nodes
        self.peak_nodes = peak_nodes
        self.metadata = metadata if metadata is not None else {}

    def probabilities(self) -> np.ndarray:
        return self.probs

    def sample_counts(self, shots: int, seed: int = 0) -> Dict[str, int]:
        num_qubits = int(len(self.probs)).bit_length() - 1
        rng = np.random.default_rng(seed)
        normalized = self.probs / self.probs.sum()
        outcomes = rng.choice(len(self.probs), size=shots, p=normalized)
        counts: Dict[str, int] = {}
        for outcome in outcomes:
            key = format(int(outcome), f"0{num_qubits}b")
            counts[key] = counts.get(key, 0) + 1
        return counts


def _chunk_progress(
    specs: List[Tuple],
    progress: Optional[callable],
    kind: str,
    backend: str,
) -> Optional[Callable[[int, object], None]]:
    """``on_result`` hook advancing a reporter by cumulative chunk sizes.

    Chunk specs carry their trajectory/shot count at position 2; events
    fire on the calling thread as each chunk's result is consumed, in
    chunk order, so the user's callback sees a monotonic count.
    """
    if progress is None:
        return None
    sizes = [spec[2] for spec in specs]
    reporter = ProgressReporter(
        progress, kind, total=sum(sizes), backend=backend
    )
    done_after = list(itertools.accumulate(sizes))

    def _on_result(index: int, _partial: object) -> None:
        reporter.advance_to(done_after[index], chunk=index)

    return _on_result


def _dd_trajectory_chunk_worker(
    spec: Tuple[
        QuantumCircuit, Optional[NoiseModel], int, np.random.SeedSequence
    ],
) -> Tuple[np.ndarray, List[int], int]:
    """Chunk task for :meth:`NoisyDDSimulator.run`.

    Returns the chunk's partial probability sum, the per-trajectory node
    counts (in trajectory order), and the chunk's peak node count.
    """
    circuit, noise_model, count, seed_seq = spec
    rng = np.random.default_rng(seed_seq)
    total = np.zeros(2**circuit.num_qubits)
    node_counts: List[int] = []
    peak = 0
    for _ in range(count):
        state = _single_trajectory(circuit, noise_model, rng)
        total += np.abs(state.to_statevector()) ** 2
        nodes = state.num_nodes()
        node_counts.append(nodes)
        peak = max(peak, nodes)
    return total, node_counts, peak


def _dd_sampling_chunk_worker(
    spec: Tuple[
        QuantumCircuit, Optional[NoiseModel], int, np.random.SeedSequence
    ],
) -> Dict[str, int]:
    """Chunk task for :meth:`NoisyDDSimulator.run_sampling`: partial counts."""
    circuit, noise_model, count, seed_seq = spec
    rng = np.random.default_rng(seed_seq)
    counts: Dict[str, int] = {}
    for _ in range(count):
        state = _single_trajectory(circuit, noise_model, rng)
        sample = state.sample_counts(1, seed=int(rng.integers(2**31)))
        for key, value in sample.items():
            counts[key] = counts.get(key, 0) + value
    return counts


def _single_trajectory(
    circuit: QuantumCircuit,
    noise_model: Optional[NoiseModel],
    rng: np.random.Generator,
) -> VectorDD:
    """One stochastic trajectory as a vector DD, drawing from ``rng``."""
    package = DDPackage()
    simulator = DDSimulator(package, seed=int(rng.integers(2**31)))
    n = circuit.num_qubits
    state = VectorDD.zero_state(n, package)
    for op in circuit.operations:
        if op.is_barrier:
            continue
        if op.is_measurement:
            _, state = simulator._measure(state, op.targets[0])
            continue
        state = simulator.apply_operation(state, op)
        state = _apply_noise(package, state, op, noise_model, rng)
    return state


def _apply_noise(
    package: DDPackage,
    state: VectorDD,
    op: Operation,
    noise_model: Optional[NoiseModel],
    rng: np.random.Generator,
) -> VectorDD:
    if noise_model is None:
        return state
    channel = noise_model.channel_for(op.name_with_controls(), op.num_qubits)
    if channel is None:
        return state
    if channel.num_qubits == 1:
        for q in op.qubits:
            state = _sample_kraus(package, state, channel, [q], rng)
    elif channel.num_qubits == len(op.qubits):
        state = _sample_kraus(package, state, channel, list(op.qubits), rng)
    else:
        raise ValueError(
            f"channel '{channel.name}' arity does not match the operation"
        )
    return state


def _sample_kraus(
    package: DDPackage,
    state: VectorDD,
    channel: KrausChannel,
    targets: List[int],
    rng: np.random.Generator,
) -> VectorDD:
    """Born-weighted Kraus branch selection, with DD-native norms."""
    weights = []
    candidates = []
    for index, kraus in enumerate(channel.operators):
        gate = Gate(f"kraus_{channel.name}_{index}", len(targets), kraus)
        op = Operation(gate, targets)
        edge = package.mv_multiply(
            package.gate_edge(op, state.num_qubits), state.edge
        )
        weight = package.norm(edge) ** 2
        weights.append(weight)
        candidates.append(edge)
    total = sum(weights)
    pick = rng.random() * total
    cumulative = 0.0
    chosen = len(weights) - 1
    for index, weight in enumerate(weights):
        cumulative += weight
        if pick <= cumulative:
            chosen = index
            break
    edge = candidates[chosen]
    norm = np.sqrt(max(weights[chosen], 1e-300))
    edge = package.make_edge(edge.node, edge.weight / norm)
    return VectorDD(package, edge, state.num_qubits)


class NoisyDDSimulator:
    """Monte-Carlo Kraus unraveling with decision-diagram states.

    The same engine as :class:`repro.arrays.trajectories.TrajectorySimulator`:
    trajectories (or shots) are split by :func:`repro.parallel.chunk_sizes`
    into ``min(total, 8)`` chunks with one ``SeedSequence`` child per
    chunk, executed inline when the resolved job count is 1 or on a
    thread pool otherwise.  Chunk boundaries, seeds, and merge order
    (probabilities summed and node counts concatenated in chunk order;
    sampling counts merged by key) depend only on the total and the
    seed, so seeded results are bitwise identical at any ``n_jobs``.
    """

    def __init__(self, noise_model: Optional[NoiseModel], seed: int = 0) -> None:
        self.noise_model = noise_model
        self.seed = seed

    def _chunk_specs(self, circuit: QuantumCircuit, total: int) -> List[Tuple]:
        sizes = chunk_sizes(total)
        seeds = spawn_seeds(self.seed, len(sizes))
        return [
            (circuit, self.noise_model, count, seed_seq)
            for count, seed_seq in zip(sizes, seeds)
        ]

    def run(
        self,
        circuit: QuantumCircuit,
        trajectories: int = 100,
        n_jobs: Optional[int] = None,
        progress: Optional[callable] = None,
    ) -> NoisyDDResult:
        specs = self._chunk_specs(circuit, trajectories)
        stats = RunStats()
        partials = parallel_map(
            _dd_trajectory_chunk_worker,
            specs,
            n_jobs=resolve_jobs(n_jobs),
            on_result=_chunk_progress(specs, progress, "trajectories", "dd"),
            stats=stats,
        )
        obs_metrics.counter_add("trajectories.count", trajectories)
        total = np.zeros(2**circuit.num_qubits)
        node_counts: List[int] = []
        peak = 0
        for partial, chunk_nodes, chunk_peak in partials:
            total += partial
            node_counts.extend(chunk_nodes)
            peak = max(peak, chunk_peak)
        return NoisyDDResult(
            total / max(trajectories, 1),
            trajectories,
            float(np.mean(node_counts)) if node_counts else 0.0,
            peak,
            metadata={
                "executor": stats.executor,
                "n_jobs": stats.jobs,
                "chunks": len(specs),
            },
        )

    def run_sampling(
        self,
        circuit: QuantumCircuit,
        shots: int,
        n_jobs: Optional[int] = None,
        progress: Optional[callable] = None,
    ) -> Dict[str, int]:
        """One trajectory per shot, sampled directly from the diagram.

        Never builds a dense 2^n array, so this scales with the diagram
        size rather than the qubit count.
        """
        specs = self._chunk_specs(circuit, shots)
        partials = parallel_map(
            _dd_sampling_chunk_worker,
            specs,
            n_jobs=resolve_jobs(n_jobs),
            on_result=_chunk_progress(specs, progress, "shots", "dd"),
        )
        counts: Dict[str, int] = {}
        for partial in partials:
            for key, value in partial.items():
                counts[key] = counts.get(key, 0) + value
        return counts
