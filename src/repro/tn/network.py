"""Tensor networks and contraction execution (paper Sec. IV).

A :class:`TensorNetwork` is a collection of labelled tensors.  Indices
appearing in exactly one tensor are *open* (the network's external legs);
indices shared by two tensors are *bonds*.  Contracting a network follows a
*contraction plan* — the order determines the size of intermediate tensors
and thereby the cost, which is what the plan-search benchmarks measure.
"""

from __future__ import annotations

from itertools import product as _cartesian_product
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..parallel import parallel_map, resolve_jobs
from ..resources import ResourceBudget
from .tensor import Tensor, contract, contraction_result_indices

PARALLEL_SUM_MIN_ELEMS = 1 << 14
"""Result-tensor size below which the slice summation stays serial.

Splitting a tiny accumulation across threads costs more in pool traffic
than the adds themselves; the bound only gates *where* the adds run —
the per-element accumulation order is fixed either way, so the summed
bits are identical on both sides of it.
"""

# A plan is a sequence of (i, j) pairs in SSA form: positions refer to the
# growing list [t_0, ..., t_{k-1}, r_0, r_1, ...] where r_m is the result of
# the m-th contraction.  Each position may be consumed at most once.
Plan = List[Tuple[int, int]]


class TensorNetwork:
    """A bag of tensors with shared-index (bond) structure."""

    def __init__(self, tensors: Optional[Iterable[Tensor]] = None) -> None:
        self.tensors: List[Tensor] = list(tensors or [])

    def add(self, tensor: Tensor) -> int:
        self.tensors.append(tensor)
        return len(self.tensors) - 1

    @property
    def num_tensors(self) -> int:
        return len(self.tensors)

    def total_entries(self) -> int:
        """Total complex numbers stored — the paper's 'linear memory' claim."""
        return sum(t.size for t in self.tensors)

    def index_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for tensor in self.tensors:
            for index in tensor.indices:
                counts[index] = counts.get(index, 0) + 1
        return counts

    def open_indices(self) -> List[str]:
        return [i for i, c in self.index_counts().items() if c == 1]

    def bond_indices(self) -> List[str]:
        return [i for i, c in self.index_counts().items() if c >= 2]

    def index_dimensions(self) -> Dict[str, int]:
        dims: Dict[str, int] = {}
        for tensor in self.tensors:
            for index, dim in zip(tensor.indices, tensor.data.shape):
                dims[index] = int(dim)
        return dims

    # -- contraction ---------------------------------------------------------

    def contract_pairwise(
        self, plan: Plan, budget: Optional[ResourceBudget] = None
    ) -> Tensor:
        """Execute an SSA-form plan down to a single tensor.

        With a ``budget``, the wall-clock deadline is checked between
        pairwise contractions.
        """
        deadline = budget.deadline() if budget is not None else None
        slots: List[Optional[Tensor]] = list(self.tensors)
        for i, j in plan:
            if deadline is not None:
                deadline.check(backend="tn", context="pairwise contraction")
            a, b = slots[i], slots[j]
            if a is None or b is None:
                raise ValueError(f"plan reuses a consumed tensor at ({i}, {j})")
            slots[i] = None
            slots[j] = None
            slots.append(contract(a, b))
        remaining = [t for t in slots if t is not None]
        if len(remaining) != 1:
            raise ValueError(
                f"plan left {len(remaining)} tensors; expected exactly one"
            )
        return remaining[0]

    def contract_all(
        self,
        plan: Optional[Plan] = None,
        budget: Optional[ResourceBudget] = None,
    ) -> Tensor:
        """Contract to a single tensor, finding a greedy plan if none given.

        With a ``budget``, the plan's symbolic cost model
        (:meth:`contraction_cost`) is evaluated *before* any numeric
        contraction: if the peak intermediate would exceed the memory
        cap, :class:`~repro.resources.MemoryBudgetExceeded` is raised
        without allocating anything.
        """
        if not self.tensors:
            raise ValueError("empty network")
        if len(self.tensors) == 1:
            return self.tensors[0]
        if plan is None:
            from .contraction import greedy_plan

            plan = greedy_plan(self)
        if budget is not None or obs_trace.enabled():
            flops, peak = self.contraction_cost(plan)
            obs_metrics.gauge_max("tn.plan.peak_cost", peak)
            obs_metrics.counter_add("tn.plan.flops", flops)
            if budget is not None:
                budget.check_memory(
                    peak * 16,
                    backend="tn",
                    what="peak contraction intermediate",
                )
        with obs_trace.span(
            "tn.contract", tensors=len(self.tensors), steps=len(plan)
        ):
            return self.contract_pairwise(plan, budget=budget)

    def sliceable_indices(self) -> List[str]:
        """Bond indices held by exactly two tensors — safe to slice.

        Fixing such a bond to one value on both holders removes it from
        the network; summing the contractions of the sliced networks
        over every bond value equals the full contraction.  Indices on
        three or more tensors (hyperedges) are excluded: this library's
        pairwise :func:`~repro.tn.tensor.contract` sums a shared index
        at its *first* pairwise meeting, and slicing would need all
        holders fixed coherently.
        """
        return [i for i, c in self.index_counts().items() if c == 2]

    def contract_sliced(
        self,
        index: Optional[Union[str, Sequence[str]]] = None,
        plan: Optional[Plan] = None,
        budget: Optional[ResourceBudget] = None,
        n_jobs: Optional[int] = None,
        executor: Optional[str] = None,
    ) -> Tensor:
        """Contract by summing over the values of one or more sliced bonds.

        Each slice fixes the chosen bond(s) on both of their holding
        tensors and contracts the reduced network independently — peak
        intermediate memory drops by the product of the sliced bond
        dimensions, and the slices are embarrassingly parallel.
        ``index`` may be a single bond name, a sequence of bond names
        (sliced jointly: one task per point of the cartesian product of
        their values), or ``None`` to pick the largest-dimension
        sliceable bond (ties broken by name, so the choice is
        deterministic).  The caller's ``plan`` (or one greedy plan
        computed here) is reused for every slice: SSA plans address
        tensor *positions*, which slicing preserves.

        Slices default to the **thread** executor — each slice is one
        chain of BLAS contractions that releases the GIL, and tensors
        never cross a serialization boundary (the zero-copy limit).
        ``n_jobs=None`` defers to ``REPRO_JOBS`` (serial when unset);
        slice order, and therefore floating-point summation order, is
        fixed, so results are bitwise identical at any ``n_jobs``.  The
        final summation is itself parallel for large results: elements
        (not slices) are partitioned across the thread pool, which
        preserves every element's serial accumulation order exactly
        (see :func:`_sum_partials`).
        """
        candidates = self.sliceable_indices()
        if index is None:
            if not candidates:
                return self.contract_all(plan=plan, budget=budget)
            dims = self.index_dimensions()
            indices: List[str] = [max(candidates, key=lambda i: (dims[i], i))]
        elif isinstance(index, str):
            indices = [index]
        else:
            indices = list(index)
            if not indices:
                return self.contract_all(plan=plan, budget=budget)
        if len(set(indices)) != len(indices):
            raise ValueError(f"duplicate sliced index in {indices}")
        for name in indices:
            if name not in candidates:
                raise ValueError(
                    f"index '{name}' is not a sliceable bond "
                    f"(needs exactly two holding tensors)"
                )
        if plan is None:
            from .contraction import greedy_plan

            plan = greedy_plan(self)
        dims = self.index_dimensions()
        num_slices = 1
        for name in indices:
            num_slices *= dims[name]
        specs = []
        for assignment in _cartesian_product(
            *(range(dims[name]) for name in indices)
        ):
            sliced = []
            for tensor in self.tensors:
                for name, value in zip(indices, assignment):
                    if name in tensor.indices:
                        tensor = tensor.slice_index(name, value)
                sliced.append(tensor)
            specs.append((sliced, plan, budget))
        jobs = resolve_jobs(n_jobs)
        with obs_trace.span(
            "tn.contract_sliced", index=",".join(indices), slices=num_slices
        ):
            partials = parallel_map(
                _contract_slice_worker,
                specs,
                n_jobs=jobs,
                executor=executor or "thread",
            )
        first = partials[0]
        aligned = [first.data] + [
            (
                partial
                if partial.indices == first.indices
                else partial.transpose_to(first.indices)
            ).data
            for partial in partials[1:]
        ]
        total = _sum_partials(aligned, jobs)
        return Tensor(total, first.indices)

    def contraction_cost(
        self, plan: Plan, dims_override: Optional[Dict[str, int]] = None
    ) -> Tuple[int, int]:
        """Simulate a plan symbolically.

        Returns ``(total_flops, peak_intermediate_size)`` where flops counts
        multiply-adds as ``prod(dims of all involved indices)`` per pairwise
        contraction and size counts complex entries of the largest
        intermediate produced.

        ``dims_override`` substitutes index dimensions without touching
        the tensors — setting a bond to 1 models the per-slice cost of
        slicing it, which is how :meth:`slices_to_fit` prices candidate
        slicings before any data is allocated.
        """
        dims = self.index_dimensions()
        if dims_override:
            dims.update(dims_override)
        slots: List[Optional[Tuple[str, ...]]] = [t.indices for t in self.tensors]
        total_flops = 0
        peak = 0
        for tensor in self.tensors:
            size = 1
            for name in tensor.indices:
                size *= dims[name]
            peak = max(peak, size)
        for i, j in plan:
            a, b = slots[i], slots[j]
            if a is None or b is None:
                raise ValueError(f"plan reuses a consumed tensor at ({i}, {j})")
            slots[i] = None
            slots[j] = None
            involved = set(a) | set(b)
            flops = 1
            for index in involved:
                flops *= dims[index]
            total_flops += flops
            result = tuple(contraction_result_indices(a, b))
            size = 1
            for index in result:
                size *= dims[index]
            peak = max(peak, size)
            slots.append(result)
        return total_flops, peak

    def slices_to_fit(
        self,
        plan: Optional[Plan] = None,
        budget: Optional[ResourceBudget] = None,
        max_slices: int = 4096,
    ) -> Tuple[List[str], Plan]:
        """Choose bonds to slice so the plan's peak fits the memory budget.

        Greedy: repeatedly slice the largest-dimension sliceable bond
        (priced symbolically via ``contraction_cost``'s ``dims_override``
        — no data is touched) until the peak intermediate fits
        ``budget.max_memory_bytes``, the cartesian slice count would
        exceed ``max_slices``, or no sliceable bonds remain.  Returns
        ``(indices, plan)`` ready for :meth:`contract_sliced`; raises
        :class:`~repro.resources.MemoryBudgetExceeded` when even the
        fully sliced plan cannot fit.  Slicing is exact — every slice is
        summed — so this trades peak memory for time, not fidelity.
        """
        if plan is None:
            from .contraction import greedy_plan

            plan = greedy_plan(self)
        if budget is None or budget.max_memory_bytes is None:
            return [], plan
        dims = self.index_dimensions()
        override = dict(dims)
        chosen: List[str] = []
        candidates = set(self.sliceable_indices())
        num_slices = 1
        while True:
            _, peak = self.contraction_cost(plan, dims_override=override)
            if peak * 16 <= budget.max_memory_bytes:
                return chosen, plan
            remaining = [
                i for i in candidates if i not in chosen and dims[i] > 1
            ]
            pick = (
                max(remaining, key=lambda i: (dims[i], i))
                if remaining
                else None
            )
            if pick is None or num_slices * dims[pick] > max_slices:
                budget.check_memory(
                    peak * 16,
                    backend="tn",
                    what=(
                        "peak contraction intermediate after slicing "
                        f"{len(chosen)} bond(s)"
                    ),
                )
                return chosen, plan
            chosen.append(pick)
            num_slices *= dims[pick]
            override[pick] = 1

    def copy(self) -> "TensorNetwork":
        return TensorNetwork(list(self.tensors))

    def __repr__(self) -> str:
        return (
            f"TensorNetwork({self.num_tensors} tensors, "
            f"{len(self.bond_indices())} bonds, "
            f"{len(self.open_indices())} open)"
        )


def _contract_slice_worker(
    spec: Tuple[List[Tensor], Plan, Optional[ResourceBudget]],
) -> Tensor:
    """Module-level (picklable) slice task: contract one sliced network."""
    tensors, plan, budget = spec
    return TensorNetwork(tensors).contract_pairwise(plan, budget=budget)


def _sum_chunk_worker(
    task: Tuple[np.ndarray, List[np.ndarray], int, int],
) -> int:
    """Sum one element range of every slice, in slice order, into ``out``.

    Thread-pool task: all arrays are shared by reference.  Each element
    of ``out[start:stop]`` accumulates its addends in exactly the order
    the serial loop would use (slice 0, slice 1, ...), so the parallel
    sum is bitwise identical to the serial one — addition here is
    elementwise, and partitioning *elements* (not slices) across workers
    leaves every element's accumulation order untouched.
    """
    out, flats, start, stop = task
    acc = flats[0][start:stop].copy()
    for flat in flats[1:]:
        acc += flat[start:stop]
    out[start:stop] = acc
    return stop - start


def _sum_partials(arrays: List[np.ndarray], n_jobs: int) -> np.ndarray:
    """Sum slice results in fixed slice order, chunked across threads.

    The PR-9 follow-up: ``contract_sliced`` parallelized the slice
    *contractions* but summed serially.  Here the summation itself runs
    on the thread pool — threads, not processes, because the partials
    already live in this address space and numpy's elementwise add
    releases the GIL — by splitting the flattened element range into
    per-worker chunks.  Small results (:data:`PARALLEL_SUM_MIN_ELEMS`)
    and serial configurations keep the plain loop.
    """
    if (
        n_jobs <= 1
        or len(arrays) < 2
        or arrays[0].size < PARALLEL_SUM_MIN_ELEMS
    ):
        total = arrays[0].copy()
        for array in arrays[1:]:
            total += array
        return total
    flats = [np.ravel(array) for array in arrays]
    out = np.empty_like(flats[0])
    total_elems = out.size
    bounds: List[Tuple[int, int]] = []
    start = 0
    base, extra = divmod(total_elems, n_jobs)
    for index in range(n_jobs):
        stop = start + base + (1 if index < extra else 0)
        if stop > start:
            bounds.append((start, stop))
        start = stop
    tasks = [(out, flats, lo, hi) for lo, hi in bounds]
    with obs_trace.span("tn.sum_sliced", slices=len(arrays), jobs=len(tasks)):
        parallel_map(
            _sum_chunk_worker, tasks, n_jobs=n_jobs, executor="thread"
        )
    return out.reshape(arrays[0].shape)
