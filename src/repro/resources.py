"""Resource budgets and the graceful-degradation exception taxonomy.

The paper's central message is that every data structure has a regime
where it wins and a regime where it explodes: dense arrays past ~30
qubits, decision diagrams on unstructured states, tensor networks and
MPS under entanglement growth.  The companion "Tensor Networks or
Decision Diagrams?  Guidelines" paper shows the crossover is hard to
predict statically, so a production system must bound the damage of a
wrong guess at *runtime*: a :class:`ResourceBudget` carried on
:class:`~repro.core.options.SimOptions` caps memory, wall time, decision
diagram nodes, and MPS/TN bond dimension, and every backend checks the
budget inside its hot loop.  A tripped budget raises a subclass of
:class:`ResourceExhausted`, which the registry dispatcher treats as a
signal to fall back to the next capable backend (recorded in
``SimulationResult.metadata["fallback_chain"]``) instead of letting the
process OOM or hang.

This module lives at the package root (not under :mod:`repro.core`) so
the low-level data-structure layers — :mod:`repro.dd.package`,
:mod:`repro.tn.mps`, :mod:`repro.arrays.statevector` — can import it
without creating a cycle through the ``core`` facade package.
"""

from __future__ import annotations

import os
import time
from dataclasses import asdict, dataclass, fields
from functools import lru_cache
from typing import Any, Dict, Optional, Union


class ResourceExhausted(RuntimeError):
    """A simulation exceeded its :class:`ResourceBudget`.

    Carries structured context so fallback audit trails can record what
    tripped: ``resource`` (``"memory"``/``"time"``/``"nodes"``/
    ``"bond"``), the ``limit`` that was configured, the ``observed``
    value, and the ``backend`` that was running.
    """

    resource = "resource"

    def __init__(
        self,
        message: str,
        *,
        backend: str = "",
        limit: Optional[float] = None,
        observed: Optional[float] = None,
    ) -> None:
        super().__init__(message)
        self.backend = backend
        self.limit = limit
        self.observed = observed

    def __reduce__(self):
        # Keyword-only context would be dropped by the default exception
        # reduction; preserve it so a budget trip that crosses a process
        # boundary (a ProcessPool task) keeps its context.
        return (
            _rebuild_resource_exhausted,
            (type(self), str(self), self.backend, self.limit, self.observed),
        )


def _rebuild_resource_exhausted(cls, message, backend, limit, observed):
    return cls(message, backend=backend, limit=limit, observed=observed)


class MemoryBudgetExceeded(ResourceExhausted):
    """A (projected or actual) allocation exceeds ``max_memory_bytes``."""

    resource = "memory"


class TimeBudgetExceeded(ResourceExhausted):
    """A simulation ran past ``max_seconds``."""

    resource = "time"


class NodeBudgetExceeded(ResourceExhausted):
    """A decision diagram grew past ``max_dd_nodes`` unique nodes."""

    resource = "nodes"


class BondBudgetExceeded(ResourceExhausted):
    """An MPS/TN bond dimension grew past ``max_bond_dim``."""

    resource = "bond"


class FidelityBudgetExceeded(ResourceExhausted):
    """An approximate run cannot certify its requested fidelity target.

    Raised by the approximate tier (``accuracy=`` on
    :class:`~repro.core.options.SimOptions`) when a backend's other caps
    — a hard ``max_bond``, a node limit — force it to discard more
    weight than the infidelity budget ``1 - target`` allows.  The
    dispatcher treats it like any other budget trip: the attempt is
    audited in ``metadata["fallback_chain"]`` and the next capable
    candidate is tried.
    """

    resource = "fidelity"


class Deadline:
    """A started wall-clock budget; ``check()`` raises once it is spent."""

    __slots__ = ("max_seconds", "_start")

    def __init__(self, max_seconds: float) -> None:
        self.max_seconds = float(max_seconds)
        self._start = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self._start

    def check(self, backend: str = "", context: str = "") -> None:
        elapsed = self.elapsed()
        if elapsed > self.max_seconds:
            where = f" during {context}" if context else ""
            raise TimeBudgetExceeded(
                f"time budget of {self.max_seconds:g}s exceeded"
                f"{where} ({elapsed:.3f}s elapsed)",
                backend=backend,
                limit=self.max_seconds,
                observed=elapsed,
            )


_SIZE_SUFFIXES = {
    "k": 10**3,
    "m": 10**6,
    "g": 10**9,
    "kb": 10**3,
    "mb": 10**6,
    "gb": 10**9,
    "kib": 1 << 10,
    "mib": 1 << 20,
    "gib": 1 << 30,
}

# Short spec keys accepted by :meth:`ResourceBudget.parse` (long field
# names are accepted too).
_SPEC_KEYS = {
    "memory": "max_memory_bytes",
    "mem": "max_memory_bytes",
    "seconds": "max_seconds",
    "time": "max_seconds",
    "nodes": "max_dd_nodes",
    "bond": "max_bond_dim",
}


def _parse_amount(text: str) -> float:
    text = text.strip().lower()
    for suffix in sorted(_SIZE_SUFFIXES, key=len, reverse=True):
        if text.endswith(suffix):
            return float(text[: -len(suffix)]) * _SIZE_SUFFIXES[suffix]
    return float(text)


@dataclass(frozen=True)
class ResourceBudget:
    """Per-run resource caps; ``None`` means the dimension is unlimited.

    Attributes:
        max_memory_bytes: Cap on the dominant allocation a backend plans
            to make (dense state/unitary, DD node storage, MPS entries,
            TN peak intermediate from the plan's cost model).
        max_seconds: Wall-clock cap, checked inside each backend's gate
            loop.  The cap applies *per backend attempt*: with fallback,
            each candidate gets a fresh deadline.
        max_dd_nodes: Cap on the DD package's unique-table size.
        max_bond_dim: Cap on the MPS bond dimension reached during
            simulation (distinct from ``SimOptions.max_bond``, which
            *truncates*; the budget *raises* so the dispatcher can fall
            back instead of silently losing fidelity).
    """

    max_memory_bytes: Optional[int] = None
    max_seconds: Optional[float] = None
    max_dd_nodes: Optional[int] = None
    max_bond_dim: Optional[int] = None

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if value is not None and value <= 0:
                raise ValueError(f"{f.name} must be positive, got {value!r}")

    # -- construction --------------------------------------------------------

    @classmethod
    def parse(cls, spec: str) -> "ResourceBudget":
        """Build a budget from ``"memory=1GiB,seconds=30,nodes=1e6,bond=64"``.

        Keys may be the short forms above or the full field names; size
        values accept K/M/G and KiB/MiB/GiB suffixes.
        """
        kwargs: Dict[str, Any] = {}
        known = {f.name for f in fields(cls)}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise ValueError(f"bad budget entry {part!r}; expected key=value")
            key, _, value = part.partition("=")
            key = key.strip().lower()
            field_name = _SPEC_KEYS.get(key, key)
            if field_name not in known:
                raise ValueError(
                    f"unknown budget key {key!r}; "
                    f"known: {sorted(_SPEC_KEYS) + sorted(known)}"
                )
            amount = _parse_amount(value)
            if field_name == "max_seconds":
                kwargs[field_name] = float(amount)
            else:
                kwargs[field_name] = int(amount)
        return cls(**kwargs)

    @classmethod
    def coerce(
        cls, value: Union["ResourceBudget", Dict, str, None]
    ) -> Optional["ResourceBudget"]:
        """Accept a budget given as an instance, mapping, or spec string."""
        if value is None or isinstance(value, cls):
            return value
        if isinstance(value, str):
            return cls.parse(value)
        if isinstance(value, dict):
            return cls(**value)
        raise TypeError(
            f"budget must be a ResourceBudget, dict, or spec string; "
            f"got {type(value).__name__}"
        )

    def share(
        self, num_workers: int, *, elapsed: float = 0.0
    ) -> "ResourceBudget":
        """The per-worker slice of this budget for ``num_workers`` workers.

        Memory is divided across workers because they allocate
        concurrently, so the aggregate stays within the original cap.
        The wall-clock budget propagates as the *remaining* time (after
        ``elapsed`` seconds already spent) without division — workers
        run side by side on the same clock.  DD-node and bond caps are
        structural per-state limits and pass through unchanged.
        """
        num_workers = max(1, int(num_workers))
        memory = self.max_memory_bytes
        if memory is not None:
            memory = max(memory // num_workers, 1)
        seconds = self.max_seconds
        if seconds is not None:
            seconds = max(seconds - elapsed, 1e-3)
        return ResourceBudget(
            max_memory_bytes=memory,
            max_seconds=seconds,
            max_dd_nodes=self.max_dd_nodes,
            max_bond_dim=self.max_bond_dim,
        )

    def intersect(self, other: Optional["ResourceBudget"]) -> "ResourceBudget":
        """The tighter of each cap across two budgets.

        Used by the job engine to compose a tenant's quota with a job's
        own requested budget: the effective budget a job runs under can
        never exceed what its tenant is allowed.  ``None`` caps (either
        side) defer to the other side's cap.
        """
        if other is None:
            return self

        def _tighter(a: Optional[float], b: Optional[float]) -> Optional[float]:
            if a is None:
                return b
            if b is None:
                return a
            return min(a, b)

        return ResourceBudget(
            max_memory_bytes=_tighter(self.max_memory_bytes, other.max_memory_bytes),
            max_seconds=_tighter(self.max_seconds, other.max_seconds),
            max_dd_nodes=_tighter(self.max_dd_nodes, other.max_dd_nodes),
            max_bond_dim=_tighter(self.max_bond_dim, other.max_bond_dim),
        )

    # -- queries -------------------------------------------------------------

    def is_unbounded(self) -> bool:
        return all(getattr(self, f.name) is None for f in fields(self))

    def as_dict(self) -> Dict[str, Any]:
        return asdict(self)

    def deadline(self) -> Optional[Deadline]:
        """Start the wall-clock budget; ``None`` when time is unlimited."""
        if self.max_seconds is None:
            return None
        return Deadline(self.max_seconds)

    # -- checkpoints ---------------------------------------------------------

    def check_memory(
        self, required_bytes: int, backend: str = "", what: str = ""
    ) -> None:
        """Raise if a planned allocation would exceed the memory cap."""
        if self.max_memory_bytes is None:
            return
        if required_bytes > self.max_memory_bytes:
            label = what or "allocation"
            raise MemoryBudgetExceeded(
                f"{label} needs {required_bytes} bytes, exceeding the "
                f"memory budget of {self.max_memory_bytes} bytes",
                backend=backend,
                limit=self.max_memory_bytes,
                observed=required_bytes,
            )

    def check_bond(self, bond: int, backend: str = "") -> None:
        """Raise if an MPS/TN bond dimension exceeds the bond cap."""
        if self.max_bond_dim is None:
            return
        if bond > self.max_bond_dim:
            raise BondBudgetExceeded(
                f"bond dimension reached {bond}, exceeding the budget "
                f"of {self.max_bond_dim}",
                backend=backend,
                limit=self.max_bond_dim,
                observed=bond,
            )

    def node_limit(self, bytes_per_node: int) -> Optional[int]:
        """Effective DD node cap: the tighter of node and memory budgets."""
        limits = []
        if self.max_dd_nodes is not None:
            limits.append(self.max_dd_nodes)
        if self.max_memory_bytes is not None:
            limits.append(max(self.max_memory_bytes // bytes_per_node, 1))
        return min(limits) if limits else None


BUDGET_ENV_VAR = "REPRO_BUDGET"
"""Environment variable holding a default budget spec for every run.

Set e.g. ``REPRO_BUDGET=memory=512MiB,nodes=500000`` to run a whole
process (or CI suite) under a constrained profile without touching call
sites; an explicit ``budget=`` option always wins over the environment.
"""


@lru_cache(maxsize=8)
def _parse_env_budget(spec: str) -> Optional[ResourceBudget]:
    if not spec.strip():
        return None
    return ResourceBudget.parse(spec)


def default_budget() -> Optional[ResourceBudget]:
    """The process-wide default budget from ``REPRO_BUDGET`` (or ``None``)."""
    return _parse_env_budget(os.environ.get(BUDGET_ENV_VAR, ""))
