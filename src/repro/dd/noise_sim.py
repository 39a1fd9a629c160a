"""Noise-aware decision-diagram simulation (paper ref. [13]).

Grurl/Fuss/Wille-style stochastic noise on decision diagrams: each
trajectory keeps the state as a vector DD and, after every noisy operation,
samples one Kraus branch with the Born probability computed *on the
diagram* (no dense vectors anywhere).  Structured states stay compact even
under noise, which is the point of doing this on DDs.

A run analyses its noise once: (circuit, noise model) becomes a list of
steps, each op with its noise locations and their branch operators, before
any chunk starts.  The trajectories of a chunk share one
:class:`DDPackage` (see :data:`PACKAGE_NODE_CAP`), so the package's
memoized gate DDs and compute tables carry over from one trajectory to
the next.  A mixed-unitary channel (depolarizing, bit or phase flip)
draws its branch from its constant weights and applies one unitary;
every other channel weighs each Kraus branch on the diagram.
"""

from __future__ import annotations

import bisect
import itertools
import math
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..arrays.measurement import sample_probabilities
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
        return sample_probabilities(self.probs, shots, seed=seed)


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


PACKAGE_NODE_CAP = 1 << 16
"""Unique-table size past which a chunk's next trajectory starts a fresh
:class:`DDPackage`.

Trajectories of one chunk share a package, so a gate DD, unique node or
compute-table entry built by one trajectory serves the next.  Unique
tables only grow, so the cap bounds a chunk's memory on circuits whose
trajectories keep producing new nodes."""


class _NoiseLocation(NamedTuple):
    """One noise location of a step: the branches a trajectory draws from.

    For a mixed-unitary channel, ``cumulative`` holds the running sums of
    its constant weights and ``ops`` its unitaries on the location's
    targets (``None`` for an identity branch).  Otherwise ``cumulative``
    is empty and ``ops`` are the Kraus operators, weighed on the state at
    every draw.
    """

    cumulative: Tuple[float, ...]
    ops: Tuple[Optional[Operation], ...]


_Step = Tuple[Operation, Tuple[_NoiseLocation, ...]]


def _branch_gates(
    channel: KrausChannel,
) -> Tuple[Tuple[float, ...], Tuple[Optional[Gate], ...]]:
    """A channel's cumulative constant weights (if any) and branch gates."""
    if channel.mixed_unitary:
        return tuple(itertools.accumulate(channel.constant_weights)), tuple(
            None
            if index in channel.identity_branches
            else Gate(f"{channel.name}_{index}", channel.num_qubits, unitary)
            for index, unitary in enumerate(channel.unitaries)
        )
    return (), tuple(
        Gate(f"kraus_{channel.name}_{index}", channel.num_qubits, kraus)
        for index, kraus in enumerate(channel.operators)
    )


def _compile_steps(
    circuit: QuantumCircuit, noise_model: Optional[NoiseModel]
) -> List[_Step]:
    """The run's program: every non-barrier op with its noise locations.

    Built once per run, before any chunk starts, so a channel whose arity
    does not fit its op raises before the first trajectory.
    """
    branches: Dict[int, Tuple] = {}
    steps: List[_Step] = []
    for op in circuit.operations:
        if op.is_barrier:
            continue
        locations = []
        if noise_model is not None and not op.is_measurement:
            for channel, targets in noise_model.locations(op):
                if id(channel) not in branches:
                    branches[id(channel)] = _branch_gates(channel)
                cumulative, gates = branches[id(channel)]
                locations.append(
                    _NoiseLocation(
                        cumulative,
                        tuple(
                            None if gate is None else Operation(gate, targets)
                            for gate in gates
                        ),
                    )
                )
        steps.append((op, tuple(locations)))
    return steps


def _dd_trajectory_chunk_worker(
    spec: Tuple[List[_Step], int, int, np.random.SeedSequence],
) -> Tuple[np.ndarray, List[int], int]:
    """Chunk task for :meth:`NoisyDDSimulator.run`.

    Returns the chunk's partial probability sum, the per-trajectory node
    counts (in trajectory order), and the chunk's peak node count.
    """
    steps, num_qubits, count, seed_seq = spec
    rng = np.random.default_rng(seed_seq)
    total = np.zeros(2**num_qubits)
    node_counts: List[int] = []
    for state in _chunk_trajectories(steps, num_qubits, count, rng):
        total += np.abs(state.to_statevector()) ** 2
        node_counts.append(state.num_nodes())
        del state  # see _chunk_trajectories
    return total, node_counts, max(node_counts, default=0)


def _dd_sampling_chunk_worker(
    spec: Tuple[List[_Step], int, int, np.random.SeedSequence],
) -> Dict[str, int]:
    """Chunk task for :meth:`NoisyDDSimulator.run_sampling`: partial counts."""
    steps, num_qubits, count, seed_seq = spec
    rng = np.random.default_rng(seed_seq)
    counts: Dict[str, int] = {}
    for state in _chunk_trajectories(steps, num_qubits, count, rng):
        sample = state.sample_counts(1, seed=int(rng.integers(2**31)))
        del state  # see _chunk_trajectories
        for key, value in sample.items():
            counts[key] = counts.get(key, 0) + value
    return counts


def _chunk_trajectories(
    steps: List[_Step],
    num_qubits: int,
    count: int,
    rng: np.random.Generator,
) -> Iterator[VectorDD]:
    """The chunk's ``count`` trajectories in order, on shared packages.

    A trajectory reuses the previous one's package until its unique table
    holds more than :data:`PACKAGE_NODE_CAP` nodes; the next trajectory
    then starts a fresh one.  Callers drop each state before asking for
    the next, so a replaced package is freed before the next trajectory
    builds its own rather than staying alive beside it.
    """
    package = DDPackage()
    for _ in range(count):
        if package.unique_table_size > PACKAGE_NODE_CAP:
            package = DDPackage()
        yield _single_trajectory(steps, num_qubits, package, rng)


def _single_trajectory(
    steps: List[_Step],
    num_qubits: int,
    package: DDPackage,
    rng: np.random.Generator,
) -> VectorDD:
    """One stochastic trajectory as a vector DD, drawing from ``rng``.

    ``rng`` gives one seed for the measurement draws, then one uniform per
    noise location reached.  Measured bits feed forward as in
    :meth:`DDSimulator.run`: a conditioned op whose bit differs (an
    unmeasured bit reads 0) is skipped together with its noise.
    """
    simulator = DDSimulator(package, seed=int(rng.integers(2**31)))
    state = VectorDD.zero_state(num_qubits, package)
    classical: Dict[int, int] = {}
    for op, locations in steps:
        if op.is_measurement:
            outcome, state = simulator._measure(state, op.targets[0])
            if op.clbits:
                classical[op.clbits[0]] = outcome
            continue
        if op.condition is not None:
            clbit, value = op.condition
            if classical.get(clbit, 0) != value:
                continue
        state = simulator.apply_operation(state, op)
        for location in locations:
            state = _draw_branch(package, state, location, rng)
    return state


def _pick(cumulative: Sequence[float], uniform: float) -> int:
    """First branch whose running weight reaches ``uniform`` of the total."""
    index = bisect.bisect_left(cumulative, uniform * cumulative[-1])
    return min(index, len(cumulative) - 1)


def _draw_branch(
    package: DDPackage,
    state: VectorDD,
    location: _NoiseLocation,
    rng: np.random.Generator,
) -> VectorDD:
    """Draw one branch at a noise location with the Born rule; one uniform.

    A mixed-unitary channel draws from its constant weights and applies
    only the chosen unitary (nothing for an identity branch).  Any other
    channel applies every Kraus operator, weighs it by its DD-native
    norm, and keeps the chosen branch renormalized.
    """
    n = state.num_qubits
    if location.cumulative:
        op = location.ops[_pick(location.cumulative, rng.random())]
        if op is None:
            return state
        edge = package.mv_multiply(package.gate_edge(op, n), state.edge)
        return VectorDD(package, edge, n)
    candidates = [
        package.mv_multiply(package.gate_edge(op, n), state.edge)
        for op in location.ops
    ]
    weights = [package.norm(edge) ** 2 for edge in candidates]
    chosen = _pick(tuple(itertools.accumulate(weights)), rng.random())
    edge = candidates[chosen]
    norm = math.sqrt(max(weights[chosen], 1e-300))
    return VectorDD(package, package.make_edge(edge.node, edge.weight / norm), n)


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
        steps = _compile_steps(circuit, self.noise_model)
        sizes = chunk_sizes(total)
        seeds = spawn_seeds(self.seed, len(sizes))
        return [
            (steps, circuit.num_qubits, count, seed_seq)
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
