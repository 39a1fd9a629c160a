"""Stochastic (Monte-Carlo trajectory) noise simulation.

The memory-cheap alternative to density matrices referenced by the paper's
noise-aware-simulation line of work (ref. [13]): each trajectory keeps only
a statevector and samples one Kraus operator per noisy location with the
Born probability ``||K|psi>||^2``; averaging trajectories converges to the
density-matrix result.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..circuits.circuit import QuantumCircuit
from ..obs import metrics as obs_metrics
from ..obs.progress import ProgressReporter
from ..parallel import (
    RunStats,
    chunk_sizes,
    parallel_map,
    resolve_jobs,
    spawn_seeds,
)
from ..resources import ResourceBudget
from .batched import trajectory_chunk_probabilities
from .measurement import sample_probabilities
from .noise import NoiseModel


class TrajectoryResult:
    """Averaged outcome distribution over many stochastic trajectories.

    ``metadata`` audits how the run executed: inline or on a thread
    pool, the worker count, and the chunk layout.
    """

    def __init__(
        self,
        probabilities: np.ndarray,
        num_trajectories: int,
        metadata: Optional[Dict] = None,
    ) -> None:
        self.probs = probabilities
        self.num_trajectories = num_trajectories
        self.metadata = metadata if metadata is not None else {}

    def probabilities(self) -> np.ndarray:
        return self.probs

    def sample_counts(self, shots: int, seed: int = 0) -> Dict[str, int]:
        return sample_probabilities(self.probs, shots, seed=seed)


def _trajectory_chunk_worker(
    spec: Tuple[
        QuantumCircuit,
        Optional[NoiseModel],
        int,
        np.random.SeedSequence,
        Optional[ResourceBudget],
    ],
) -> np.ndarray:
    """Chunk task: partial probability sums of one chunk."""
    circuit, noise_model, count, seed_seq, budget = spec
    return trajectory_chunk_probabilities(
        circuit, noise_model, count, seed_seq, budget
    )


class TrajectorySimulator:
    """Monte-Carlo unraveling of a noisy circuit.

    Trajectories are split into deterministic chunks
    (:func:`repro.parallel.chunk_sizes`: ``min(trajectories, 8)`` of
    them), each chunk gets an independent child seed
    (``SeedSequence.spawn``) and is executed by the batched vectorized
    kernel (:mod:`repro.arrays.batched`) — inline when the resolved job
    count is 1, on a thread pool otherwise.  Chunk boundaries, seeds, and
    merge order depend only on the trajectory count and the seed, so a
    seeded run is **bitwise identical at any** ``n_jobs``, in every
    process.

    ``budget`` caps each chunk: workers inherit
    ``budget.share(n_jobs)`` (memory divided across concurrent workers,
    deadline propagated), and a tripped budget raises
    :class:`~repro.resources.ResourceExhausted` after the pool has been
    drained cleanly.
    """

    def __init__(
        self,
        noise_model: Optional[NoiseModel],
        seed: int = 0,
        budget: Optional[ResourceBudget] = None,
    ) -> None:
        self.noise_model = noise_model
        self.seed = seed
        self.budget = budget

    def run(
        self,
        circuit: QuantumCircuit,
        trajectories: int = 100,
        n_jobs: Optional[int] = None,
        progress: Optional[callable] = None,
    ) -> TrajectoryResult:
        n = circuit.num_qubits
        jobs = resolve_jobs(n_jobs)
        sizes = chunk_sizes(trajectories)
        seeds = spawn_seeds(self.seed, len(sizes))
        worker_budget = (
            self.budget.share(min(jobs, max(len(sizes), 1)))
            if self.budget is not None
            else None
        )
        specs: List[Tuple] = [
            (circuit, self.noise_model, count, seed_seq, worker_budget)
            for count, seed_seq in zip(sizes, seeds)
        ]
        reporter = ProgressReporter.maybe(
            progress, "trajectories", total=trajectories, backend="arrays"
        )
        done_after = np.cumsum(sizes) if sizes else []

        def _chunk_done(index: int, partial: np.ndarray) -> None:
            if reporter is not None:
                reporter.advance_to(int(done_after[index]), chunk=index)

        stats = RunStats()
        partials = parallel_map(
            _trajectory_chunk_worker,
            specs,
            n_jobs=jobs,
            on_result=_chunk_done,
            stats=stats,
        )
        total = np.zeros(2**n)
        for partial in partials:
            total += partial
        obs_metrics.counter_add("trajectories.count", trajectories)
        metadata = {
            "executor": stats.executor,
            "n_jobs": stats.jobs,
            "chunks": len(sizes),
            "chunk_size": max(sizes) if sizes else 0,
        }
        return TrajectoryResult(
            total / max(trajectories, 1), trajectories, metadata
        )
