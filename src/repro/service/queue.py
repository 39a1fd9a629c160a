"""Priority job queue with per-tenant admission and concurrency quotas.

Fair scheduling under load is the queue's whole job: jobs are ordered by
``(priority, submission sequence)`` — smaller priority first, FIFO
within a priority — and a :class:`TenantQuota` bounds what any one
tenant can do to everyone else: how many jobs it may have waiting
(``max_pending``, enforced at admission), how many it may run at once
(``max_concurrent``, enforced at dispatch — an over-limit tenant's jobs
are *skipped*, not dropped, so other tenants' work flows past), and the
:class:`~repro.resources.ResourceBudget` ceiling its jobs execute under
(intersected with each job's own requested budget, so a job can only
tighten its tenant's caps, never escape them).

The queue is plain thread-safe state — the asyncio engine
(:mod:`repro.service.engine`) owns all waiting/wakeup concerns.

Cache-aware batch scheduling lives at this layer too:
:func:`split_warm` partitions a batch by probing the result cache, so
the engine serves every warm hit *immediately* — before any miss is
admitted to the queue — and a hit-heavy batch never occupies a worker
slot that a cold job could be using.
"""

from __future__ import annotations

import heapq
import itertools
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..obs import metrics as obs_metrics
from ..resources import ResourceBudget


class QuotaExceeded(RuntimeError):
    """A tenant's admission quota rejected a submission."""

    def __init__(self, message: str, *, tenant: str = "") -> None:
        super().__init__(message)
        self.tenant = tenant


@dataclass(frozen=True)
class TenantQuota:
    """Per-tenant limits; ``None`` means the dimension is unlimited.

    Attributes:
        max_pending: Jobs the tenant may have queued (admission control:
            a submission past the bound raises :class:`QuotaExceeded`).
        max_concurrent: Jobs the tenant may have running at once
            (dispatch control: excess jobs wait their turn).
        budget: Resource ceiling for every job the tenant runs,
            intersected with the job's own budget via
            :meth:`~repro.resources.ResourceBudget.intersect`.
    """

    max_pending: Optional[int] = None
    max_concurrent: Optional[int] = None
    budget: Optional[ResourceBudget] = None

    def effective_budget(
        self, requested: Optional[ResourceBudget]
    ) -> Optional[ResourceBudget]:
        """The tighter of the tenant ceiling and the job's own budget."""
        if self.budget is None:
            return requested
        return self.budget.intersect(requested)


@dataclass
class _TenantState:
    pending: int = 0
    running: int = 0
    quota: TenantQuota = field(default_factory=TenantQuota)


class PriorityJobQueue:
    """Thread-safe ``(priority, seq)`` heap with tenant accounting."""

    def __init__(
        self, quotas: Optional[Dict[str, TenantQuota]] = None
    ) -> None:
        self._lock = threading.Lock()
        self._heap: List[Tuple[int, int, Any]] = []
        self._seq = itertools.count()
        self._removed: set = set()
        self._tenants: Dict[str, _TenantState] = {}
        for tenant, quota in (quotas or {}).items():
            self._tenants[tenant] = _TenantState(quota=quota)

    def _state(self, tenant: str) -> _TenantState:
        state = self._tenants.get(tenant)
        if state is None:
            state = self._tenants[tenant] = _TenantState()
        return state

    def quota_for(self, tenant: str) -> TenantQuota:
        with self._lock:
            return self._state(tenant).quota

    # -- queue operations ----------------------------------------------------

    def push(self, item: Any, priority: int, tenant: str = "") -> None:
        """Admit one job, enforcing the tenant's ``max_pending`` quota."""
        with self._lock:
            state = self._state(tenant)
            limit = state.quota.max_pending
            if limit is not None and state.pending >= limit:
                raise QuotaExceeded(
                    f"tenant {tenant!r} already has {state.pending} "
                    f"pending job(s) (max_pending={limit})",
                    tenant=tenant,
                )
            state.pending += 1
            heapq.heappush(
                self._heap, (int(priority), next(self._seq), item)
            )
            depth = len(self._heap) - len(self._removed)
        obs_metrics.gauge_max(obs_metrics.SERVICE_QUEUE_DEPTH, depth)

    def pop_eligible(
        self, is_eligible: Callable[[Any], bool] = lambda item: True
    ) -> Optional[Any]:
        """Best-priority job whose tenant has a free concurrency slot.

        Jobs of saturated tenants (``running >= max_concurrent``) are
        skipped in place — they keep their heap position and become
        eligible again when the tenant's running count drops.  Returns
        ``None`` when nothing is currently dispatchable.  The popped
        job's tenant is accounted as running; pair every successful pop
        with :meth:`job_finished`.
        """
        with self._lock:
            skipped: List[Tuple[int, int, Any]] = []
            found = None
            while self._heap:
                entry = heapq.heappop(self._heap)
                item = entry[2]
                if id(item) in self._removed:
                    self._removed.discard(id(item))
                    continue
                tenant = getattr(item, "tenant", "")
                state = self._state(tenant)
                limit = state.quota.max_concurrent
                saturated = limit is not None and state.running >= limit
                if saturated or not is_eligible(item):
                    skipped.append(entry)
                    continue
                state.pending -= 1
                state.running += 1
                found = item
                break
            for entry in skipped:
                heapq.heappush(self._heap, entry)
            return found

    def remove(self, item: Any) -> bool:
        """Withdraw a queued job (cancellation before dispatch)."""
        with self._lock:
            for entry in self._heap:
                if entry[2] is item and id(item) not in self._removed:
                    self._removed.add(id(item))
                    self._state(getattr(item, "tenant", "")).pending -= 1
                    return True
            return False

    def job_finished(self, tenant: str = "") -> None:
        """Release the concurrency slot a popped job was holding."""
        with self._lock:
            state = self._state(tenant)
            state.running = max(0, state.running - 1)

    def depth(self) -> int:
        with self._lock:
            return len(self._heap) - len(self._removed)


def split_warm(
    jobs: Sequence[Any], probe: Callable[[Any], Optional[Any]]
) -> List[Tuple[Any, Optional[Any]]]:
    """Probe each job's cache entry, pairing it with its warm hit (or ``None``).

    The scheduling policy behind batch submission ("serve hits before
    dispatching misses"): the engine resolves every ``(job, hit)`` pair
    with a non-``None`` hit on the spot — no queue admission, no worker
    slot, no quota charge — and only the misses proceed to
    :meth:`PriorityJobQueue.push`.  Probing is read-only and
    order-preserving, so a batch's cold jobs still queue in submission
    order.
    """
    return [(job, probe(job)) for job in jobs]


__all__ = [
    "PriorityJobQueue",
    "QuotaExceeded",
    "TenantQuota",
    "split_warm",
]
