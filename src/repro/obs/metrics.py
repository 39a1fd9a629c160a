"""Process-wide registry of counters, gauges, and fixed-bucket histograms.

Backends surface their internal quantities — the ones the
Guidelines-style backend-selection question actually turns on — through
this registry: DD cache hits and unique-table size, the MPS peak bond
dimension, TN contraction-plan cost estimates, dispatcher fallback
counts, per-chunk pool wall times.

The module-level helpers (:func:`counter_add`, :func:`gauge_set`,
:func:`gauge_max`, :func:`observe`) are the instrumentation API: they
check :func:`repro.obs.trace.enabled` first and return immediately when
tracing is off, so instrumented hot paths pay one branch.  When a
:func:`repro.obs.trace_session` is active, writes land in the
session-scoped registry (and become the per-run metric snapshot in
``SimulationResult.metadata["report"]``); otherwise they accumulate in
:data:`DEFAULT_REGISTRY`.

Metric names are dotted lowercase (``dd.unique_table.size``,
``tn.plan.peak_cost``); the Prometheus exporter in
:mod:`repro.obs.export` rewrites dots to underscores.  Names shared by
several layers are declared here as constants so producers
(:mod:`repro.parallel`, :mod:`repro.parallel_shm`) and consumers
(exporters, tests) cannot drift apart.
"""

from __future__ import annotations

import math
import threading
from typing import Any, Dict, List, Optional, Sequence, Tuple

from . import trace

PARALLEL_CHUNK_WALL_S = "parallel.chunk.wall_s"
"""Histogram: wall seconds of each pooled chunk (worker clock)."""

PARALLEL_SHM_BYTES = "parallel.shm.bytes"
"""Counter: bytes moved through shared-memory segments instead of pickle."""

PARALLEL_SHM_SEGMENTS = "parallel.shm.segments"
"""Counter: shared-memory segments created for result transfer."""

PARALLEL_SHM_SWEPT = "parallel.shm.swept"
"""Counter: leftover segments reclaimed by the teardown sweep."""

TRAJ_BATCH_BYTES = "trajectories.batch.bytes"
"""Gauge (max): bytes of the largest batched trajectory state stack."""

SERVICE_CACHE_HITS = "service.cache.hits"
"""Counter: persistent result-cache lookups served without executing."""

SERVICE_CACHE_MISSES = "service.cache.misses"
"""Counter: persistent result-cache lookups that fell through to a run."""

SERVICE_CACHE_EVICTIONS = "service.cache.evictions"
"""Counter: result-cache entries evicted by the LRU size bound."""

SERVICE_CACHE_CORRUPT = "service.cache.corrupt"
"""Counter: unreadable result-cache entries dropped during lookup."""

SERVICE_QUEUE_DEPTH = "service.queue.depth"
"""Gauge (max): high-water number of jobs waiting in the service queue."""

SERVICE_JOBS_COMPLETED = "service.jobs.completed"
"""Counter: service jobs that finished with a result."""

SERVICE_JOBS_FAILED = "service.jobs.failed"
"""Counter: service jobs that raised (including cancellations)."""

SERVICE_CACHE_REMOTE_HITS = "cache.remote_hit"
"""Counter: disk-tier cache hits on entries written by another process."""

SERVICE_WARM_SERVED = "service.queue.warm_served"
"""Counter: submissions served from the cache before touching the queue."""

CLUSTER_RPC_LATENCY_S = "cluster.rpc.latency_s"
"""Histogram: wall seconds of each shard RPC (connect + round trip)."""

CLUSTER_RETRIES = "cluster.retries"
"""Counter: shard RPC attempts retried after a transport failure."""

CLUSTER_FAILOVERS = "cluster.failovers"
"""Counter: jobs re-routed to a different shard after an eviction."""

CLUSTER_LOCAL_FALLBACKS = "cluster.local_fallbacks"
"""Counter: jobs executed in-process because no healthy shard remained."""

CLUSTER_SHARD_EVICTIONS = "cluster.shard.evictions"
"""Counter: shards evicted from the routing ring by health checks."""

CLUSTER_SHARD_READMISSIONS = "cluster.shard.readmissions"
"""Counter: evicted shards readmitted after a successful health probe."""

SHARD_INFLIGHT = "shard.inflight"
"""Gauge (max): high-water jobs concurrently executing on one shard."""

DEFAULT_TIME_BUCKETS: Tuple[float, ...] = (
    0.001,
    0.005,
    0.01,
    0.05,
    0.1,
    0.5,
    1.0,
    5.0,
    30.0,
    math.inf,
)
"""Default histogram bucket upper bounds, in seconds (cumulative style)."""


class Histogram:
    """Fixed-bucket histogram: per-bucket counts plus count/sum.

    Buckets are upper bounds (the last should be ``inf``); ``observe``
    increments the first bucket whose bound is >= the value.
    """

    __slots__ = ("buckets", "counts", "count", "sum")

    def __init__(self, buckets: Sequence[float] = DEFAULT_TIME_BUCKETS) -> None:
        if not buckets:
            raise ValueError("histogram needs at least one bucket")
        bounds = tuple(float(b) for b in buckets)
        if list(bounds) != sorted(bounds):
            raise ValueError("histogram buckets must be sorted ascending")
        if bounds[-1] != math.inf:
            bounds = bounds + (math.inf,)
        self.buckets = bounds
        self.counts = [0] * len(bounds)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        value = float(value)
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[index] += 1
                break
        self.count += 1
        self.sum += value

    def as_dict(self) -> Dict[str, Any]:
        return {
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
        }


class MetricsRegistry:
    """Thread-safe name -> metric store with snapshot/merge/reset.

    One registry is process-wide (:data:`DEFAULT_REGISTRY`); trace
    sessions layer short-lived registries on top via
    :func:`push_registry` so each traced run gets an isolated snapshot.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- writes --------------------------------------------------------------

    def counter_add(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0.0) + value

    def gauge_set(self, name: str, value: float) -> None:
        with self._lock:
            self._gauges[name] = float(value)

    def gauge_max(self, name: str, value: float) -> None:
        """Set a gauge to the max of its current and ``value`` (high-water)."""
        value = float(value)
        with self._lock:
            current = self._gauges.get(name)
            if current is None or value > current:
                self._gauges[name] = value

    def observe(
        self,
        name: str,
        value: float,
        buckets: Sequence[float] = DEFAULT_TIME_BUCKETS,
    ) -> None:
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = Histogram(buckets)
            histogram.observe(value)

    # -- reads ---------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Plain-dict copy of every metric (picklable, JSON-serializable)."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "histograms": {
                    name: histogram.as_dict()
                    for name, histogram in self._histograms.items()
                },
            }

    def merge(self, snapshot: Dict[str, Any]) -> None:
        """Fold another registry's snapshot into this one.

        Counters add, gauges keep the maximum (every gauge the library
        emits is a size/high-water reading, where max is the meaningful
        cross-process aggregate), histograms merge bucket-wise.  Used to
        aggregate worker-process metrics back into the parent.
        """
        with self._lock:
            for name, value in snapshot.get("counters", {}).items():
                self._counters[name] = self._counters.get(name, 0.0) + value
            for name, value in snapshot.get("gauges", {}).items():
                current = self._gauges.get(name)
                if current is None or value > current:
                    self._gauges[name] = value
            for name, data in snapshot.get("histograms", {}).items():
                histogram = self._histograms.get(name)
                if histogram is None:
                    histogram = self._histograms[name] = Histogram(
                        data["buckets"]
                    )
                if list(histogram.buckets) == list(data["buckets"]):
                    for index, count in enumerate(data["counts"]):
                        histogram.counts[index] += count
                    histogram.count += data["count"]
                    histogram.sum += data["sum"]
                else:  # incompatible buckets: keep the totals at least
                    histogram.count += data["count"]
                    histogram.sum += data["sum"]

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


DEFAULT_REGISTRY = MetricsRegistry()
"""The process-wide registry used outside any trace session."""


class _ThreadState(threading.local):
    def __init__(self) -> None:
        self.registries: List[MetricsRegistry] = []


_state = _ThreadState()


def active_registry() -> MetricsRegistry:
    """The innermost session registry, else :data:`DEFAULT_REGISTRY`."""
    if _state.registries:
        return _state.registries[-1]
    return DEFAULT_REGISTRY


def push_registry(registry: MetricsRegistry) -> None:
    _state.registries.append(registry)


def pop_registry(registry: MetricsRegistry) -> None:
    if _state.registries and _state.registries[-1] is registry:
        _state.registries.pop()
    elif registry in _state.registries:
        _state.registries.remove(registry)


# -- gated instrumentation helpers (the API hot paths call) -----------------


def counter_add(name: str, value: float = 1.0) -> None:
    if not trace.enabled():
        return
    active_registry().counter_add(name, value)


def gauge_set(name: str, value: float) -> None:
    if not trace.enabled():
        return
    active_registry().gauge_set(name, value)


def gauge_max(name: str, value: float) -> None:
    if not trace.enabled():
        return
    active_registry().gauge_max(name, value)


def observe(
    name: str, value: float, buckets: Sequence[float] = DEFAULT_TIME_BUCKETS
) -> None:
    if not trace.enabled():
        return
    active_registry().observe(name, value, buckets)


def merge_snapshot(snapshot: Optional[Dict[str, Any]]) -> None:
    """Merge a worker-process snapshot into the active registry (gated)."""
    if not snapshot or not trace.enabled():
        return
    active_registry().merge(snapshot)
