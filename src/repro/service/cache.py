"""Content-addressed persistent result cache for simulation requests.

The "millions of users" observation behind the serving tier: repeated
submissions of the same circuit under the same result-relevant options
are the common case (parameter sweeps resubmitted, CI reruns, fan-out
shards racing on shared work), and the library's bitwise-determinism
guarantee makes their results *interchangeable* — so the dispatcher can
answer from a cache instead of re-executing a backend.

Keys are SHA-256 over a canonical JSON payload: the format version, the
task kind, the requested backend name (``"auto"`` included — the auto
router is a pure function of the circuit, so "auto picked X" is itself
reproducible), the measurement-stripped circuit
(:func:`repro.service.jobs.circuit_to_dict` without the display name —
execution strips measurements/feed-forward too, so circuits differing
only there correctly share an entry), the canonicalized options
(:meth:`repro.core.options.SimOptions.canonical_dict` — ``seed``
included, the result-invariant scheduling knobs excluded), and the
task-specific arguments (shots / Pauli string / basis index).

Requests that cannot be keyed soundly return no key and are never
cached: an explicit contraction ``plan`` has no canonical form (and
changes summation order).

Entries pickle the full ``(value, metadata, backend_name)`` triple —
pickle, not JSON, because exactness is the contract: ndarray states,
tuple-valued metadata, and numpy scalars must come back bit-for-bit and
type-for-type.  Every ``get`` decodes a fresh copy, so callers mutating
a returned result never corrupt the cache.

Two tiers: a small in-memory LRU of encoded entries (process-local fast
path) over a directory of one-file-per-key entries with atomic
tmp-then-``os.replace`` writes (crash-safe, safe under concurrent
writers — both sides serialize the same request, so a lost race writes
identical bytes).  Disk usage is LRU-bounded by mtime, refreshed on hit.

Policy: ``REPRO_CACHE`` turns the cache on process-wide (``SimOptions``
``cache=True/False`` overrides per call), ``REPRO_CACHE_DIR`` relocates
it, ``REPRO_CACHE_MAX_BYTES`` bounds it.  Counters flow into
:mod:`repro.obs.metrics` when tracing is active and are always mirrored
on the instance (``stats()``), so hit rates are observable without a
trace session.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import threading
import uuid
from collections import OrderedDict
from typing import Any, Dict, Optional, Tuple

from ..circuits.circuit import QuantumCircuit
from ..core.options import SimOptions
from ..obs import metrics as obs_metrics
from .jobs import JOB_FORMAT_VERSION, canonical_json, circuit_to_dict

CACHE_ENV_VAR = "REPRO_CACHE"
"""Set truthy (``1``/``true``/``on``) to enable the result cache."""

CACHE_DIR_ENV_VAR = "REPRO_CACHE_DIR"
"""Cache directory override (default ``~/.cache/repro/results``)."""

CACHE_MAX_BYTES_ENV_VAR = "REPRO_CACHE_MAX_BYTES"
"""Disk budget for cached entries (default 256 MiB)."""

DEFAULT_MAX_BYTES = 256 * 1024 * 1024
DEFAULT_MEMORY_ENTRIES = 64
_ENTRY_SUFFIX = ".res"

PROCESS_TOKEN = f"{os.getpid()}.{uuid.uuid4().hex[:12]}"
"""Identity of this process as a cache writer.

Stamped into every entry this process stores (``writer`` in the pickled
envelope, alongside the pid) so readers can tell coherence traffic
apart: a disk-tier hit whose writer token differs was produced by
*another* process — a pool worker, a shard, a previous run — and counts
toward ``cache.remote_hit``.  The uuid component guards against pid
recycling across runs sharing one cache directory.
"""


def env_enabled() -> bool:
    """Whether ``REPRO_CACHE`` asks for the cache process-wide."""
    value = os.environ.get(CACHE_ENV_VAR, "").strip().lower()
    return value in ("1", "true", "yes", "on")


def default_cache_dir() -> str:
    configured = os.environ.get(CACHE_DIR_ENV_VAR, "").strip()
    if configured:
        return configured
    return os.path.join(
        os.path.expanduser("~"), ".cache", "repro", "results"
    )


def _env_max_bytes() -> int:
    spec = os.environ.get(CACHE_MAX_BYTES_ENV_VAR, "").strip()
    if not spec:
        return DEFAULT_MAX_BYTES
    try:
        return max(int(spec), 1)
    except ValueError:
        return DEFAULT_MAX_BYTES


def request_key(
    circuit: QuantumCircuit,
    backend: str,
    task: str,
    options: SimOptions,
    extra: Optional[Dict[str, Any]] = None,
) -> Optional[str]:
    """Content-addressed key for one request, or ``None`` if uncacheable."""
    try:
        options_part = options.canonical_dict()
    except TypeError:  # explicit contraction plan
        return None
    payload = {
        "version": JOB_FORMAT_VERSION,
        "task": task,
        "backend": backend,
        "circuit": circuit_to_dict(
            circuit.without_measurements(), include_name=False
        ),
        "options": options_part,
        "extra": extra or {},
    }
    digest = hashlib.sha256(canonical_json(payload).encode("utf-8"))
    return digest.hexdigest()


class ResultCache:
    """Two-tier LRU cache of pickled ``(value, metadata, backend)`` triples."""

    def __init__(
        self,
        directory: Optional[str] = None,
        max_bytes: Optional[int] = None,
        memory_entries: int = DEFAULT_MEMORY_ENTRIES,
    ) -> None:
        self.directory = directory
        self.max_bytes = (
            _env_max_bytes() if max_bytes is None else max(int(max_bytes), 1)
        )
        self.memory_entries = max(0, int(memory_entries))
        self._lock = threading.Lock()
        self._memory: "OrderedDict[str, bytes]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.corrupt = 0
        self.stores = 0
        self.remote_hits = 0

    # -- paths ---------------------------------------------------------------

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, key + _ENTRY_SUFFIX)

    # -- lookups -------------------------------------------------------------

    def get(self, key: str) -> Optional[Tuple[Any, Dict[str, Any], str]]:
        """The cached triple for ``key``, decoded fresh, or ``None``.

        A hit refreshes the entry's LRU position in both tiers; an
        unreadable disk entry is dropped (counted ``corrupt``) and the
        lookup degrades to a miss — corruption can never poison results.
        """
        blob: Optional[bytes] = None
        from_disk = False
        with self._lock:
            blob = self._memory.get(key)
            if blob is not None:
                self._memory.move_to_end(key)
        if blob is None and self.directory is not None:
            from_disk = True
            path = self._path(key)
            try:
                with open(path, "rb") as handle:
                    blob = handle.read()
            except OSError:
                blob = None
            if blob is not None:
                try:
                    os.utime(path)
                except OSError:
                    pass
        if blob is None:
            self._record_miss()
            return None
        try:
            entry = pickle.loads(blob)
            value = entry["value"]
            meta = entry["meta"]
            backend = entry["backend"]
        except Exception:
            self._drop_corrupt(key)
            self._record_miss()
            return None
        # Coherence accounting: a disk-tier hit on an entry another
        # process wrote is work this process skipped thanks to a shared
        # directory (pool workers, shards, earlier runs).  Entries
        # predating the writer stamp count as local (unknowable).
        writer = entry.get("writer") if isinstance(entry, dict) else None
        remote = from_disk and writer is not None and writer != PROCESS_TOKEN
        with self._lock:
            self.hits += 1
            if remote:
                self.remote_hits += 1
            if self.memory_entries and key not in self._memory:
                self._memory[key] = blob
                self._trim_memory_locked()
        obs_metrics.counter_add(obs_metrics.SERVICE_CACHE_HITS)
        if remote:
            obs_metrics.counter_add(obs_metrics.SERVICE_CACHE_REMOTE_HITS)
        return value, meta, backend

    def _record_miss(self) -> None:
        with self._lock:
            self.misses += 1
        obs_metrics.counter_add(obs_metrics.SERVICE_CACHE_MISSES)

    def _drop_corrupt(self, key: str) -> None:
        with self._lock:
            self.corrupt += 1
            self._memory.pop(key, None)
        obs_metrics.counter_add(obs_metrics.SERVICE_CACHE_CORRUPT)
        if self.directory is not None:
            try:
                os.remove(self._path(key))
            except OSError:
                pass

    # -- stores --------------------------------------------------------------

    def put(
        self, key: str, value: Any, meta: Dict[str, Any], backend: str
    ) -> None:
        """Store one triple; atomic on disk, LRU-evicting past the bound.

        The entry is pickled *now*, so callers may keep mutating their
        metadata dict (the dispatcher attaches the trace report after
        storing) without the mutation reaching the cache.  Stored
        metadata drops the per-run ``report`` and ``cache`` annotations:
        a future hit describes the run that produced the bits, not the
        observation of this one.
        """
        stored_meta = {
            name: item
            for name, item in meta.items()
            if name not in ("report", "cache")
        }
        blob = pickle.dumps(
            {
                "value": value,
                "meta": stored_meta,
                "backend": backend,
                "writer": PROCESS_TOKEN,
                "writer_pid": os.getpid(),
            },
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        with self._lock:
            self.stores += 1
            if self.memory_entries:
                self._memory[key] = blob
                self._memory.move_to_end(key)
                self._trim_memory_locked()
        if self.directory is None:
            return
        try:
            os.makedirs(self.directory, exist_ok=True)
            fd, tmp_path = tempfile.mkstemp(
                dir=self.directory, suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(blob)
                os.replace(tmp_path, self._path(key))
            except BaseException:
                try:
                    os.remove(tmp_path)
                except OSError:
                    pass
                raise
        except OSError:
            # A read-only or vanished cache directory degrades the cache
            # to memory-only; it must never fail the simulation.
            return
        self._evict_disk()

    def _trim_memory_locked(self) -> None:
        while len(self._memory) > self.memory_entries:
            self._memory.popitem(last=False)

    def _evict_disk(self) -> None:
        """Drop least-recently-used entries until under ``max_bytes``."""
        try:
            entries = []
            total = 0
            with os.scandir(self.directory) as it:
                for item in it:
                    if not item.name.endswith(_ENTRY_SUFFIX):
                        continue
                    try:
                        stat = item.stat()
                    except OSError:
                        continue
                    entries.append((stat.st_mtime, item.path, stat.st_size))
                    total += stat.st_size
            if total <= self.max_bytes:
                return
            entries.sort()
            for _, path, size in entries:
                if total <= self.max_bytes:
                    break
                try:
                    os.remove(path)
                except OSError:
                    continue
                total -= size
                with self._lock:
                    self.evictions += 1
                obs_metrics.counter_add(obs_metrics.SERVICE_CACHE_EVICTIONS)
        except OSError:
            return

    # -- management ----------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "corrupt": self.corrupt,
                "stores": self.stores,
                "remote_hits": self.remote_hits,
                "memory_entries": len(self._memory),
            }

    def clear(self) -> None:
        with self._lock:
            self._memory.clear()
        if self.directory is None:
            return
        try:
            with os.scandir(self.directory) as it:
                names = [
                    item.path
                    for item in it
                    if item.name.endswith(_ENTRY_SUFFIX)
                ]
        except OSError:
            return
        for path in names:
            try:
                os.remove(path)
            except OSError:
                pass


# -- process-wide default instance ------------------------------------------

_default_lock = threading.Lock()
_default_cache: Optional[ResultCache] = None
_default_config: Optional[Tuple[str, int]] = None


def default_cache() -> ResultCache:
    """The process-wide cache, rebuilt when the env configuration moves."""
    global _default_cache, _default_config
    config = (default_cache_dir(), _env_max_bytes())
    with _default_lock:
        if _default_cache is None or _default_config != config:
            _default_cache = ResultCache(
                directory=config[0], max_bytes=config[1]
            )
            _default_config = config
        return _default_cache


def reset_default_cache() -> None:
    """Forget the process-wide instance (tests repoint the directory)."""
    global _default_cache, _default_config
    with _default_lock:
        _default_cache = None
        _default_config = None


def active_cache(options: SimOptions) -> Optional[ResultCache]:
    """The cache this request participates in, or ``None`` when off.

    ``options.cache`` overrides per call; ``None`` defers to
    ``REPRO_CACHE``.
    """
    enabled = options.cache if options.cache is not None else env_enabled()
    if not enabled:
        return None
    return default_cache()


__all__ = [
    "CACHE_DIR_ENV_VAR",
    "CACHE_ENV_VAR",
    "CACHE_MAX_BYTES_ENV_VAR",
    "DEFAULT_MAX_BYTES",
    "PROCESS_TOKEN",
    "ResultCache",
    "active_cache",
    "default_cache",
    "default_cache_dir",
    "env_enabled",
    "request_key",
    "reset_default_cache",
]
