"""Unified simulation facade over the paper's data structures.

Every entry point — :func:`simulate`, :func:`sample`,
:func:`expectation`, :func:`single_amplitude` — dispatches through the
backend registry (:mod:`repro.core.registry`): backends are looked up by
name, options are validated once into a typed
:class:`~repro.core.options.SimOptions`, gate fusion runs as a uniform
registry-level pre-pass, and ``backend="auto"`` routes each request to
the cheapest capable representation via the circuit analyzer
(:mod:`repro.core.analyzer`).

Registered backends and their declared capabilities:

===========  ==========================================================
``arrays``   full_state, sample, expectation, single_amplitude, noise
``dd``       full_state, sample, expectation, single_amplitude, noise
``tn``       full_state, expectation, single_amplitude
``mps``      full_state, sample, expectation, single_amplitude
``stab``     full_state, sample, expectation, single_amplitude
             (clifford_only)
===========  ==========================================================

Requesting an undeclared capability raises
:class:`~repro.core.capabilities.CapabilityError` (a ``ValueError``);
unknown backend names raise ``ValueError``; unknown option names raise
``TypeError``.
"""

from __future__ import annotations

import itertools
import os as _os
from dataclasses import replace as _dc_replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..arrays.measurement import sample_counts as _sample_from_state
from ..circuits.circuit import QuantumCircuit
from ..obs import ProgressReporter, trace_session
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..parallel import RunStats, chunk_sizes, parallel_map, resolve_jobs
from ..resources import ResourceExhausted
from . import backends as _backends  # noqa: F401  (populates REGISTRY)
from . import capabilities as cap
from .analyzer import (
    CircuitFeatures,
    analyze,
    capable_preferences,
    choose_backend,
)
from .backends.base import Backend
from .options import SimOptions
from .registry import REGISTRY

BACKENDS = ("arrays", "dd", "tn", "mps")
"""General-purpose full-state backends (stable, kept for compatibility).

The full registry — including the Clifford-only ``stab`` backend — is
available via :func:`available_backends` or ``repro.core.REGISTRY``.
"""

AUTO = "auto"


def available_backends(capability: Optional[str] = None) -> Tuple[str, ...]:
    """Registered backend names, optionally filtered by capability."""
    if capability is None:
        return REGISTRY.names()
    return tuple(REGISTRY.supporting(capability))


class SimulationResult:
    """Uniform simulation result: a dense state plus backend metadata.

    ``metadata`` always contains ``wall_time_s``, ``num_qubits``,
    ``num_ops`` (post-fusion), and ``fusion``, plus backend-specific
    resource keys (``memory_bytes`` for all backends; ``nodes`` /
    ``peak_nodes`` for DD; ``max_bond_reached`` / ``truncation_error`` /
    ``entries`` for MPS; ``method`` for arrays; ``network_tensors`` /
    ``planned`` for TN; ``tableau_rows`` for stab).  When dispatched
    with ``backend="auto"``, ``metadata["auto"]`` records the selected
    backend, the rule that fired, and the analyzed circuit features.
    """

    def __init__(
        self,
        backend: str,
        state: np.ndarray,
        metadata: Optional[Dict] = None,
    ) -> None:
        self.backend = backend
        self.state = state
        self.metadata = metadata or {}

    @property
    def num_qubits(self) -> int:
        return int(len(self.state)).bit_length() - 1

    def probabilities(self) -> np.ndarray:
        return np.abs(self.state) ** 2

    def amplitude(self, index: int) -> complex:
        return complex(self.state[index])

    def sample_counts(self, shots: int, seed: int = 0) -> Dict[str, int]:
        return _sample_from_state(self.state, shots, seed=seed)

    def __repr__(self) -> str:
        return f"SimulationResult({self.backend}, {self.num_qubits} qubits)"


class _BatchCache:
    """Per-sweep memo of circuit analysis and fusion results.

    :func:`simulate_many` amortizes the dispatcher's per-circuit
    pre-work across a sweep: circuits are keyed by structural identity
    (register size plus the operation sequence — :class:`Operation` is
    hashable), so repeated circuits — and, for fusion, repeats *after
    measurement stripping* — analyze and fuse once.  Each pooled chunk
    keeps its own cache for its part of the sweep.
    """

    def __init__(self) -> None:
        self._features: Dict[Tuple, CircuitFeatures] = {}
        self._fused: Dict[Tuple, Tuple[QuantumCircuit, Dict]] = {}
        self._optimized: Dict[Tuple, QuantumCircuit] = {}
        self.analysis_hits = 0
        self.fusion_hits = 0
        self.optimization_hits = 0

    @staticmethod
    def key(circuit: QuantumCircuit) -> Tuple:
        return (circuit.num_qubits, tuple(circuit.operations))

    def features_for(self, circuit: QuantumCircuit) -> CircuitFeatures:
        key = self.key(circuit)
        features = self._features.get(key)
        if features is None:
            features = analyze(circuit)
            self._features[key] = features
        else:
            self.analysis_hits += 1
        return features

    def fused_for(
        self,
        circuit: QuantumCircuit,
        options: SimOptions,
        clifford_only: bool,
        compute: Callable[[], Tuple[QuantumCircuit, Dict]],
    ) -> Tuple[QuantumCircuit, Dict]:
        key = (self.key(circuit), clifford_only, options.max_fused_qubits)
        cached = self._fused.get(key)
        if cached is None:
            cached = compute()
            self._fused[key] = cached
        else:
            self.fusion_hits += 1
        return cached

    def optimized_for(
        self,
        circuit: QuantumCircuit,
        level: int,
        compute: Callable[[], QuantumCircuit],
    ) -> QuantumCircuit:
        key = (self.key(circuit), level)
        cached = self._optimized.get(key)
        if cached is None:
            cached = compute()
            self._optimized[key] = cached
        else:
            self.optimization_hits += 1
        return cached


_APPROX_CAPABLE = frozenset({"dd", "mps", "tn"})
"""Backends with an approximate mode an ``accuracy`` target can engage:
DD adaptive node pruning, MPS fidelity-targeted truncation, TN bond
slicing to fit the memory budget."""


def _candidates(
    backend: str,
    circuit: QuantumCircuit,
    task: str,
    options: SimOptions,
    cache: Optional[_BatchCache] = None,
) -> Tuple[List[Tuple[str, str, bool]], Dict]:
    """Ordered ``(name, reason, approximate)`` attempt list plus trace metadata.

    The first entry is the requested (or auto-selected) backend.  When a
    resource budget is active, the analyzer's remaining capable
    preferences follow, in ranked order, as graceful-degradation
    fallbacks for :class:`~repro.resources.ResourceExhausted`.

    With an ``accuracy`` target below 1, the third element flags the
    attempts that run in approximate mode.  In ``"eager"`` mode every
    approximation-capable candidate approximates outright.  In the
    default ``"fallback"`` mode the exact candidates keep their exact
    semantics and an **approximate before refusing** rung — the
    approximation-capable backends again, now pruning/truncating/slicing
    toward the target — is appended after every exact candidate, so a
    request only degrades to a certified-fidelity answer when exactness
    is impossible within the budget.
    """
    accuracy = options.accuracy
    eager = accuracy is not None and accuracy.mode == "eager"
    if backend == AUTO:
        decision = choose_backend(
            circuit,
            task=task,
            features=cache.features_for(circuit) if cache else None,
        )
        trace = {"auto": decision.as_metadata()}
        first = decision.backend
        ranked = [(first, decision.rule, eager and first in _APPROX_CAPABLE)]
        features = decision.features
    else:
        impl = REGISTRY.get(backend)
        if not impl.supports(task):
            raise impl._unsupported(f"capability '{task}'")
        trace = {}
        ranked = [
            (backend, "explicitly requested", eager and backend in _APPROX_CAPABLE)
        ]
        features = None
    bounded = options.budget is not None and not options.budget.is_unbounded()
    if bounded:
        if features is None:
            features = (
                cache.features_for(circuit) if cache else analyze(circuit)
            )
        attempted = {ranked[0][0]}
        for name, reason in capable_preferences(
            features, task, approximate=eager
        ):
            if name in attempted:
                continue
            attempted.add(name)
            ranked.append((name, reason, eager and name in _APPROX_CAPABLE))
    if accuracy is not None and not eager and bounded:
        if features is None:
            features = (
                cache.features_for(circuit) if cache else analyze(circuit)
            )
        rung_seen = set()
        for name, reason in capable_preferences(
            features, task, approximate=True
        ):
            if name not in _APPROX_CAPABLE or name in rung_seen:
                continue
            rung_seen.add(name)
            ranked.append(
                (name, f"approximate before refusing: {reason}", True)
            )
    return ranked, trace


def _result_cache_target(
    circuit: QuantumCircuit,
    backend: str,
    task: str,
    options: SimOptions,
    extra: Optional[Dict],
) -> Tuple[Optional[Any], Optional[str]]:
    """``(cache, key)`` when the persistent result cache applies, else Nones.

    The fast path (cache off, the default) is two attribute reads and an
    environment check — :mod:`repro.service.cache` is only imported once
    a request actually participates.  A cache that is on but cannot key
    this request soundly (explicit contraction plan, ``method="auto"``)
    also opts out here.
    """
    if options.cache is False:
        return None, None
    if options.cache is None:
        value = _os.environ.get("REPRO_CACHE", "").strip().lower()
        if value not in ("1", "true", "yes", "on"):
            return None, None
    from ..service import cache as service_cache

    result_cache = service_cache.active_cache(options)
    if result_cache is None:
        return None, None
    key = service_cache.request_key(circuit, backend, task, options, extra)
    if key is None:
        return None, None
    return result_cache, key


def probe_cache(result_cache: Any, key: str) -> Optional[Tuple[Any, Dict, str]]:
    """Look ``key`` up in ``result_cache``; ``(value, metadata, backend)`` on a hit.

    The hit's metadata is annotated ``metadata["cache"]``.  With tracing
    on, the lookup is a ``cache.probe`` span with a ``hit`` attribute;
    with it off, no span opens.
    """
    with obs_trace.span("cache.probe") as probe:
        hit = result_cache.get(key)
        if probe is not None:
            probe.set(hit=hit is not None)
    if hit is None:
        return None
    value, meta, name = hit
    meta["cache"] = {"hit": True, "key": key}
    return value, meta, name


def _execute(
    circuit: QuantumCircuit,
    backend: str,
    task: str,
    options: SimOptions,
    invoke: Callable[[Backend, QuantumCircuit, SimOptions], Tuple[Any, Dict]],
    cache: Optional[_BatchCache] = None,
    cache_extra: Optional[Dict] = None,
) -> Tuple[Any, Dict, str]:
    """Run ``invoke`` on the best backend, degrading gracefully on budget trips.

    Walks the candidate list from :func:`_candidates`; a backend raising
    :class:`~repro.resources.ResourceExhausted` is recorded (backend,
    failure reason, elapsed time) and the next capable candidate is
    tried.  Returns ``(value, metadata, backend_name)``; when any
    attempt failed, ``metadata["fallback_chain"]`` holds the full audit
    trail.  If every candidate trips, the chain is attached to the
    raised :class:`~repro.resources.ResourceExhausted`.

    All timing comes from the span clock (:data:`repro.obs.trace.clock`):
    ``metadata["wall_time_s"]`` is exactly the root ``dispatch`` span's
    duration and each ``fallback_chain`` entry's ``elapsed_s`` is its
    ``dispatch.attempt`` span's duration.  With ``options.trace``, the
    whole call runs inside a :func:`~repro.obs.trace_session` and the
    resulting span tree + metric snapshot is attached as
    ``metadata["report"]``.

    With the persistent result cache active
    (:mod:`repro.service.cache`), the request's content-addressed key is
    probed before the ``dispatch`` span opens (:func:`probe_cache`) — a
    warm hit returns the stored value (annotated
    ``metadata["cache"]["hit"]``) without executing a backend or
    recording a ``dispatch.attempt``.  A traced probe is a
    ``cache.probe`` span, and a traced hit's report holds just that span.
    Calls carrying a ``progress`` callback skip the lookup (they promised
    live events) but still store on completion, so they warm the cache
    for everyone else.
    """
    result_cache, cache_key = _result_cache_target(
        circuit, backend, task, options, cache_extra
    )
    with trace_session(options.trace) as session:
        if result_cache is not None and options.progress is None:
            hit = probe_cache(result_cache, cache_key)
            if hit is not None:
                value, meta, name = hit
                if session is not None:
                    meta["report"] = session.report()
                return value, meta, name
        root = obs_trace.timed_span("dispatch", task=task, requested=backend)
        try:
            clean = circuit.without_measurements()
            analysis = obs_trace.timed_span("analyze")
            try:
                ranked, trace = _candidates(
                    backend, clean, task, options, cache=cache
                )
            except BaseException:
                analysis.finish(status="error")
                raise
            analysis.finish(candidates=len(ranked))
            chain: List[Dict] = []
            last_error: Optional[ResourceExhausted] = None
            accuracy = options.accuracy
            for name, reason, approx in ranked:
                impl = REGISTRY.get(name)
                # Exact attempts under an accuracy target run with the
                # knob stripped: the approximate tier engages only on the
                # attempts flagged for it, so phase-1 results stay
                # bit-for-bit identical to an accuracy-free request.
                if accuracy is not None and not approx:
                    attempt_opts = _dc_replace(options, accuracy=None)
                else:
                    attempt_opts = options
                attempt = obs_trace.timed_span(
                    "dispatch.attempt", backend=name, rule=reason
                )
                try:
                    prepared, fusion_meta = _prepare(
                        circuit, attempt_opts, impl, cache=cache
                    )
                    execute = obs_trace.timed_span("execute", backend=name)
                    try:
                        value, meta = invoke(impl, prepared, attempt_opts)
                    except ResourceExhausted:
                        execute.finish(status="resource_exhausted")
                        raise
                    execute.finish()
                except ResourceExhausted as exc:
                    attempt.finish(
                        status="resource_exhausted",
                        resource=exc.resource,
                        error=type(exc).__name__,
                    )
                    obs_metrics.counter_add("dispatch.fallback.count")
                    entry = {
                        "backend": name,
                        "status": "resource_exhausted",
                        "resource": exc.resource,
                        "error": type(exc).__name__,
                        "reason": str(exc),
                        "elapsed_s": round(attempt.duration_s, 6),
                    }
                    if accuracy is not None:
                        entry["mode"] = "approximate" if approx else "exact"
                    chain.append(entry)
                    last_error = exc
                    continue
                attempt.finish()
                entry = {
                    "backend": name,
                    "status": "ok",
                    "elapsed_s": round(attempt.duration_s, 6),
                }
                if accuracy is not None:
                    entry["mode"] = "approximate" if approx else "exact"
                chain.append(entry)
                root.finish(served_by=name)
                meta.update(_base_metadata(prepared, root.duration_s))
                meta.update(fusion_meta)
                meta.update(trace)
                if accuracy is not None:
                    fidelity = float(meta.setdefault("fidelity_estimate", 1.0))
                    meta["accuracy"] = {
                        "target": accuracy.target,
                        "mode": accuracy.mode,
                        "approximate": approx,
                    }
                    if approx:
                        obs_metrics.counter_add("dispatch.approximate.count")
                    # Infidelity merges as a max across pooled chunks, so
                    # the aggregated gauge is the *worst* certified bound.
                    obs_metrics.gauge_max(
                        "sim.infidelity_estimate", 1.0 - fidelity
                    )
                if len(chain) > 1:
                    meta["fallback_chain"] = chain
                    meta["fallback"] = {
                        "requested": backend,
                        "served_by": name,
                        "rule": reason,
                    }
                if result_cache is not None:
                    result_cache.put(cache_key, value, meta, impl.name)
                if session is not None:
                    meta["report"] = session.report()
                return value, meta, impl.name
            root.finish(status="resource_exhausted")
            summary = ResourceExhausted(
                f"every capable backend exhausted its resource budget for "
                f"task '{task}': "
                + "; ".join(
                    f"{entry['backend']}: {entry['reason']}" for entry in chain
                )
            )
            summary.fallback_chain = chain
            if session is not None:
                summary.report = session.report()
            raise summary from last_error
        finally:
            # Idempotent: a no-op on the success/exhausted paths above,
            # but guarantees the root span closes (status "error") when a
            # non-budget exception — including a progress-callback
            # cancellation — unwinds through the dispatcher.
            root.finish(status="error")


def _prepare(
    circuit: QuantumCircuit,
    options: SimOptions,
    impl: Backend,
    cache: Optional[_BatchCache] = None,
) -> Tuple[QuantumCircuit, Dict]:
    """Registry-level pre-pass: strip measurements, optimize, fuse gates.

    With ``options.optimization_level`` set, the compiler's
    optimization-only preset
    (:func:`repro.compile.build_optimization_pipeline`) rewrites the
    circuit before fusion — no basis lowering or routing, so backends
    keep executing native gates.  Both the optimization and fusion
    pre-passes are skipped for Clifford-only backends (the rewritten
    rotation/raw-matrix gates cannot run on a tableau) and each skip is
    recorded.  With a :class:`_BatchCache` (sweeps), the optimized and
    fused circuits are memoized per circuit structure.
    """
    clean = circuit.without_measurements()
    meta_extra: Dict = {}
    level = options.optimization_level
    if level:
        if impl.supports(cap.CLIFFORD_ONLY):
            meta_extra["optimization"] = "skipped (clifford-only backend)"
        else:
            with obs_trace.span(
                "optimize", backend=impl.name, level=level
            ) as opt_span:

                def optimize() -> QuantumCircuit:
                    from ..compile.compiler import (
                        build_optimization_pipeline,
                    )

                    return build_optimization_pipeline(level).run(
                        clean
                    ).circuit

                ops_before = len(clean.operations)
                if cache is not None:
                    clean = cache.optimized_for(clean, level, optimize)
                else:
                    clean = optimize()
                if opt_span is not None:
                    opt_span.set(
                        level=level,
                        ops_before=ops_before,
                        ops_after=len(clean.operations),
                    )
            meta_extra["optimization_level"] = level
    with obs_trace.span("fuse", backend=impl.name) as fuse_span:
        if not options.fusion:
            if fuse_span is not None:
                fuse_span.set(applied=False)
            return clean, {"fusion": False, **meta_extra}
        if impl.supports(cap.CLIFFORD_ONLY):
            if fuse_span is not None:
                fuse_span.set(applied=False, skipped="clifford-only")
            return clean, {
                "fusion": "skipped (clifford-only backend)",
                **meta_extra,
            }

        def compute() -> Tuple[QuantumCircuit, Dict]:
            from ..compile.fusion import fuse_gates

            fused = fuse_gates(
                clean, max_fused_qubits=options.max_fused_qubits
            )
            return fused, {"fusion": True}

        if cache is not None:
            prepared, meta = cache.fused_for(clean, options, False, compute)
        else:
            prepared, meta = compute()
        meta = {**meta, **meta_extra}
        if fuse_span is not None:
            fuse_span.set(
                applied=True,
                ops_before=len(clean.operations),
                ops_after=len(prepared.operations),
            )
        return prepared, meta


def _base_metadata(circuit: QuantumCircuit, elapsed: float) -> Dict:
    return {
        "wall_time_s": elapsed,
        "num_qubits": circuit.num_qubits,
        "num_ops": len(circuit.operations),
    }


def simulate(
    circuit: QuantumCircuit,
    backend: str = "arrays",
    **options,
) -> SimulationResult:
    """Simulate a measurement-free circuit to its full output state.

    ``backend`` is a registry name (``"arrays"``, ``"dd"``, ``"tn"``,
    ``"mps"``, ``"stab"``) or ``"auto"``, which analyzes the circuit and
    picks the cheapest capable backend (stab for pure Clifford, dd for
    Clifford-dominated, mps/tn for shallow circuits, arrays otherwise)
    and records the decision in ``result.metadata["auto"]``.

    Options are validated into :class:`~repro.core.options.SimOptions`;
    see its docstring for the full list (``seed``, ``method``,
    ``fusion``/``max_fused_qubits``, ``max_bond``/``cutoff``, ``plan``,
    ``track_peak``, ``budget``).  With a ``budget``, a backend that
    trips a resource cap is abandoned and the analyzer's remaining
    capable preferences are tried in order; the attempts are audited in
    ``result.metadata["fallback_chain"]``.

    With ``accuracy=`` below 1 (a float target or an
    :class:`~repro.core.options.Accuracy` spec), the approximate tier
    may serve a certified-fidelity state instead of refusing: the result
    carries ``metadata["fidelity_estimate"]`` (a lower bound on
    ``|<exact|approx>|^2``, at least the target) and
    ``metadata["accuracy"]`` records whether approximation actually
    engaged.  In the default ``mode="fallback"`` this happens only after
    every exact candidate exhausted the budget ("approximate before
    refusing", audited in the fallback chain); ``mode="eager"``
    approximates outright.
    """
    opts = SimOptions.from_kwargs(**options)
    state, meta, name = _execute(
        circuit,
        backend,
        cap.FULL_STATE,
        opts,
        lambda impl, prepared, o: impl.statevector(prepared, o),
    )
    return SimulationResult(name, state, meta)


def _simulate_prepared(
    circuit: QuantumCircuit,
    backend: str,
    opts: SimOptions,
    cache: Optional[_BatchCache] = None,
) -> SimulationResult:
    """One full-state run with pre-validated options (sweep inner loop)."""
    state, meta, name = _execute(
        circuit,
        backend,
        cap.FULL_STATE,
        opts,
        lambda impl, prepared, o: impl.statevector(prepared, o),
        cache=cache,
    )
    return SimulationResult(name, state, meta)


def _simulate_many_chunk_worker(
    spec: Tuple[Sequence[QuantumCircuit], str, SimOptions],
) -> List[SimulationResult]:
    """Sweep chunk: simulate circuits in order.

    Each worker keeps its own :class:`_BatchCache`, so repeated circuit
    structures within its chunk analyze and fuse once.
    """
    circuits, backend, opts = spec
    cache = _BatchCache()
    return [
        _simulate_prepared(circuit, backend, opts, cache=cache)
        for circuit in circuits
    ]


def simulate_many(
    circuits: Sequence[QuantumCircuit],
    backend: str = "arrays",
    n_jobs: Optional[int] = None,
    param_bindings: Optional[Sequence[Any]] = None,
    **options,
) -> List[SimulationResult]:
    """Simulate a sweep of circuits, amortizing dispatch pre-work.

    ``circuits`` is a sequence of circuits — or, with ``param_bindings``,
    a callable ``binding -> QuantumCircuit`` factory that is invoked once
    per binding (the parameter-sweep form, e.g. a VQE ansatz factory over
    angle vectors).  Results come back as one
    :class:`SimulationResult` per circuit, in input order, each carrying
    ``metadata["batch"] = {"index": i, "size": len(circuits)}``.

    Options are validated **once** into
    :class:`~repro.core.options.SimOptions` for the whole sweep, and
    circuit analysis (for ``backend="auto"`` and budget fallback
    ranking) and gate fusion are memoized per circuit structure, so
    sweeps over repeated or structurally identical circuits skip the
    redundant pre-work.

    ``n_jobs`` (argument, else ``options["n_jobs"]``, else the
    ``REPRO_JOBS`` environment variable) runs the sweep on a thread pool
    over contiguous chunks, and pooled results record
    ``metadata["batch"]["executor"] = "thread"``; results are returned
    in input order regardless of the worker count.  Threads help where
    numpy releases the GIL on large states and gain nothing on small
    ones.  Workers inherit ``budget.share(n_jobs)`` and a worker's
    :class:`~repro.resources.ResourceExhausted` surfaces in the caller
    after the pool has drained — individual budget trips inside a worker
    still degrade through the normal per-circuit fallback chain first.
    """
    opts = SimOptions.from_kwargs(**options)
    if param_bindings is not None:
        if not callable(circuits):
            raise TypeError(
                "with param_bindings, the first argument must be a "
                "callable binding -> QuantumCircuit factory"
            )
        factory = circuits
        circuits = [factory(binding) for binding in param_bindings]
    circuits = list(circuits)
    if n_jobs is None:
        n_jobs = opts.n_jobs
    jobs = resolve_jobs(n_jobs)
    reporter = ProgressReporter.maybe(
        opts.progress, "circuits", total=len(circuits)
    )
    # Inner runs report at sweep granularity only: the per-circuit gate
    # streams of concurrent chunks would interleave non-monotonically.
    inner_opts = (
        opts if opts.progress is None else _dc_replace(opts, progress=None)
    )
    if jobs > 1 and len(circuits) > 1:
        worker_opts = inner_opts
        if opts.budget is not None:
            worker_opts = _dc_replace(
                inner_opts, budget=opts.budget.share(jobs)
            )
        sizes = chunk_sizes(len(circuits), num_chunks=jobs)
        specs = []
        start = 0
        for size in sizes:
            specs.append((circuits[start : start + size], backend, worker_opts))
            start += size
        done_after = list(itertools.accumulate(sizes))

        def _chunk_done(index: int, chunk: List[SimulationResult]) -> None:
            if reporter is not None:
                reporter.advance_to(done_after[index], chunk=index)

        stats = RunStats()
        chunks = parallel_map(
            _simulate_many_chunk_worker,
            specs,
            n_jobs=jobs,
            on_result=_chunk_done,
            stats=stats,
        )
        results = [result for chunk in chunks for result in chunk]
    else:
        stats = None
        cache = _BatchCache()
        results = []
        for circuit in circuits:
            results.append(
                _simulate_prepared(circuit, backend, inner_opts, cache=cache)
            )
            if reporter is not None:
                reporter.step()
    for index, result in enumerate(results):
        result.metadata["batch"] = {"index": index, "size": len(results)}
        if stats is not None:
            result.metadata["batch"]["executor"] = stats.executor
    return results


def sample(
    circuit: QuantumCircuit,
    shots: int,
    backend: str = "arrays",
    seed: int = 0,
    with_metadata: bool = False,
    **options,
):
    """Sample measurement outcomes on the chosen backend.

    ``"dd"``, ``"mps"``, and ``"stab"`` sample natively from their
    structures (no dense ``2**n`` array); ``"arrays"`` samples from the
    full state; ``"tn"`` declares no sampling capability.  ``"stab"``
    requires a Clifford circuit; ``"auto"`` routes by circuit structure.
    All options — including ``fusion`` and ``budget`` — are honored
    uniformly.  With ``with_metadata=True`` returns ``(counts,
    metadata)`` so budget fallbacks (``metadata["fallback_chain"]``) are
    observable.
    """
    opts = SimOptions.from_kwargs(seed=seed, **options)
    counts, meta, _ = _execute(
        circuit,
        backend,
        cap.SAMPLE,
        opts,
        lambda impl, prepared, o: impl.sample(prepared, shots, o),
        cache_extra={"shots": int(shots)},
    )
    if with_metadata:
        return counts, meta
    return counts


def expectation(
    circuit: QuantumCircuit,
    pauli: str,
    backend: str = "arrays",
    with_metadata: bool = False,
    **options,
):
    """Expectation value ``<psi| P |psi>`` of a Pauli string observable.

    ``"arrays"`` applies the string to the dense state; ``"dd"`` works
    inside the decision-diagram algebra; ``"mps"`` uses transfer
    matrices; ``"tn"`` contracts the closed sandwich network (never
    building the state at all); ``"stab"`` answers group-theoretically
    for Clifford circuits; ``"auto"`` routes by circuit structure.
    With ``with_metadata=True`` returns ``(value, metadata)``.
    """
    opts = SimOptions.from_kwargs(**options)
    value, meta, _ = _execute(
        circuit,
        backend,
        cap.EXPECTATION,
        opts,
        lambda impl, prepared, o: impl.expectation(prepared, pauli, o),
        cache_extra={"pauli": str(pauli)},
    )
    if with_metadata:
        return value, meta
    return value


def single_amplitude(
    circuit: QuantumCircuit,
    basis_index: int,
    backend: str = "tn",
    with_metadata: bool = False,
    **options,
):
    """Compute one output amplitude without materializing the full state.

    This is where the structured backends shine (paper Secs. III/IV):
    the tensor-network backend contracts a capped network; the DD
    backend walks one path of the simulated diagram.  ``"auto"`` prefers
    ``"tn"`` on shallow circuits and ``"stab"`` on Clifford ones.
    With ``with_metadata=True`` returns ``(amplitude, metadata)``.
    """
    opts = SimOptions.from_kwargs(**options)
    value, meta, _ = _execute(
        circuit,
        backend,
        cap.SINGLE_AMPLITUDE,
        opts,
        lambda impl, prepared, o: impl.amplitude(prepared, basis_index, o),
        cache_extra={"basis_index": int(basis_index)},
    )
    if with_metadata:
        return complex(value), meta
    return complex(value)
