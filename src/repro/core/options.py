"""Typed simulation options shared by every backend.

:class:`SimOptions` replaces the facades' old ad-hoc ``**options``
plumbing, which silently dropped options on some paths (``sample()``
ignored ``fusion``, ``expectation(backend="mps")`` ignored ``seed``,
``single_amplitude(backend="arrays")`` ignored ``method``/``seed``).
Every backend method receives the same validated, immutable object, so an
option either applies uniformly or is rejected loudly.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, fields
from functools import lru_cache
from typing import Any, Callable, Dict, Optional, Union

from ..arrays.statevector import METHODS
from ..obs.trace import env_enabled as _trace_env_enabled
from ..resources import ResourceBudget, default_budget

RESULT_INVARIANT_FIELDS = (
    "n_jobs",
    "trace",
    "progress",
    "cache",
)
"""Options that can never change *which bits* a simulation produces.

``n_jobs`` only changes how work is scheduled (the parallel engine's
chunk boundaries and RNG streams are worker-count independent — the
engine's bitwise guarantee); ``trace`` observes without steering;
``progress`` streams events (and can only *abort* a run, never alter a
completed one); ``cache`` decides whether a result is stored/served,
not what it is.  The persistent result cache
(:mod:`repro.service.cache`) excludes exactly these fields from its
content-addressed key, so e.g. a run at ``n_jobs=8`` dedupes
against the same request at ``n_jobs=1``.  Every other field — ``seed``
included — is part of the key.
"""


ACCURACY_MODES = ("fallback", "eager")
"""How an :class:`Accuracy` target engages the approximate tier.

``"fallback"`` (the default) keeps every result exact unless exactness
is impossible: the dispatcher runs its normal exact candidates first and
only approximates as a final "approximate before refusing" rung after
every exact attempt tripped its resource budget.  ``"eager"`` lets
approximation-capable backends truncate/prune immediately — the mode for
callers who want the cheapest state meeting the target, and for tests
that must exercise the approximate paths directly.
"""


@dataclass(frozen=True)
class Accuracy:
    """A certified-fidelity request for the approximate simulation tier.

    ``target`` is the lower bound the run must certify: any approximate
    result carries ``metadata["fidelity_estimate"] >= target``, where the
    estimate is itself a lower bound on ``|<exact|approx>|^2`` composed
    multiplicatively across every pruning/truncation step.  ``target=1.0``
    means exact (the default everywhere): the knob is normalized away at
    the facade boundary and the run is bit-for-bit today's exact path.

    ``mode`` selects *when* approximation engages (see
    :data:`ACCURACY_MODES`).  A backend that cannot certify ``target``
    under its other caps raises
    :class:`~repro.resources.FidelityBudgetExceeded` instead of silently
    returning a worse state.
    """

    target: float = 1.0
    mode: str = "fallback"

    def __post_init__(self) -> None:
        if not (0.0 < float(self.target) <= 1.0):
            raise ValueError(
                f"accuracy target must be in (0, 1], got {self.target!r}"
            )
        if self.mode not in ACCURACY_MODES:
            raise ValueError(
                f"unknown accuracy mode {self.mode!r}; "
                f"choose one of {ACCURACY_MODES}"
            )

    @property
    def is_exact(self) -> bool:
        return float(self.target) >= 1.0

    def as_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def coerce(
        cls, value: Union["Accuracy", Dict, str, float, None]
    ) -> Optional["Accuracy"]:
        """Accept an accuracy given as an instance, mapping, number, or spec.

        Strings are either a bare target (``"0.99"``) or comma-separated
        ``key=value`` pairs (``"target=0.99,mode=eager"``) — the format
        the ``REPRO_ACCURACY`` environment variable uses.
        """
        if value is None or isinstance(value, cls):
            return value
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return cls(target=float(value))
        if isinstance(value, dict):
            return cls(**value)
        if isinstance(value, str):
            spec = value.strip()
            try:
                return cls(target=float(spec))
            except ValueError:
                pass
            kwargs: Dict[str, Any] = {}
            for part in spec.split(","):
                part = part.strip()
                if not part:
                    continue
                if "=" not in part:
                    raise ValueError(
                        f"bad accuracy entry {part!r}; expected key=value"
                    )
                key, _, raw = part.partition("=")
                key = key.strip().lower()
                if key == "target":
                    kwargs["target"] = float(raw)
                elif key == "mode":
                    kwargs["mode"] = raw.strip().lower()
                else:
                    raise ValueError(
                        f"unknown accuracy key {key!r}; "
                        "known: target, mode"
                    )
            return cls(**kwargs)
        raise TypeError(
            f"accuracy must be an Accuracy, dict, float target, or spec "
            f"string; got {type(value).__name__}"
        )


ACCURACY_ENV_VAR = "REPRO_ACCURACY"
"""Environment variable holding a default accuracy spec for every run.

Set e.g. ``REPRO_ACCURACY=0.999`` (or
``REPRO_ACCURACY=target=0.99,mode=eager``) to give a whole process — or
a CI suite — a standing fidelity target; an explicit ``accuracy=``
option always wins over the environment.  With the default
``"fallback"`` mode this is safe to leave on everywhere: results stay
exact unless every exact candidate exhausts its resource budget.
"""


@lru_cache(maxsize=8)
def _parse_env_accuracy(spec: str) -> Optional[Accuracy]:
    if not spec.strip():
        return None
    return Accuracy.coerce(spec)


def default_accuracy() -> Optional[Accuracy]:
    """The process-wide accuracy from ``REPRO_ACCURACY`` (or ``None``)."""
    return _parse_env_accuracy(os.environ.get(ACCURACY_ENV_VAR, ""))


@dataclass(frozen=True)
class SimOptions:
    """Validated options for every simulation/verification entry point.

    Fields irrelevant to a given backend are simply unused — e.g. the
    arrays backend ignores ``max_bond`` — but unknown *names* raise
    ``TypeError`` at the facade boundary instead of being dropped.

    Attributes:
        seed: RNG seed for every stochastic step (measurement collapse,
            sampling).  Honored by all backends.
        method: Arrays gate-application kernel, ``"einsum"`` (fast
            reshape/slice kernels, the default) or ``"gather"`` (legacy
            index-matrix path, kept for A/B comparison).  Any other
            value raises ``ValueError``.  Reported in
            ``metadata["method"]``.
        fusion: Merge runs of adjacent gates into single unitaries before
            simulation (registry-level pre-pass, applied uniformly to all
            non-Clifford-only backends).
        max_fused_qubits: Support cap for the fusion pre-pass.
        optimization_level: Run the compiler's optimization-only preset
            (:func:`repro.compile.build_optimization_pipeline`) as a
            dispatch pre-pass before fusion: ``None``/0 = off, 1 =
            peephole fixed-point, 2 = + ZX-calculus, 3 = + numeric
            resynthesis (1q-run collapse and 3-CX 2q blocks).  No basis
            lowering or routing happens — backends keep executing native
            gates.  Skipped (and recorded) for Clifford-only backends,
            whose tableaus cannot execute the rewritten rotation gates.
            Levels >= 2 preserve the state up to global phase only.
        max_bond: MPS bond-dimension cap (``None`` = exact).
        cutoff: MPS singular-value truncation threshold.
        accuracy: :class:`Accuracy` fidelity target for the approximate
            tier (also accepts a bare float target, a dict, or a spec
            string).  ``None`` / target ``1.0`` (the default) keeps every
            path exact.  With a target below 1, approximation-capable
            backends (dd: adaptive node pruning, mps: fidelity-targeted
            truncation, tn: bond slicing to fit the memory budget) may
            return an approximate state certifying
            ``metadata["fidelity_estimate"] >= target`` — immediately in
            ``mode="eager"``, or only after every exact candidate tripped
            its resource budget in the default ``mode="fallback"``.  When
            omitted, the ``REPRO_ACCURACY`` environment variable supplies
            a process-wide default.  Accuracy is result-relevant: it is
            part of the persistent result cache's key.
        plan: Tensor-network contraction plan (``repro.tn.contraction``).
        track_peak: Record the DD backend's peak node count.
        n_jobs: Worker-thread count for batch entry points
            (:func:`repro.core.simulate_many`) and for TN bond slicing;
            ``None`` defers to the ``REPRO_JOBS`` environment variable,
            and unset means one job, which runs inline.  ``0`` or
            negative means "all available cores".  Results are bitwise
            identical at every count; threads run side by side only
            where numpy releases the GIL.  Other single-circuit paths
            ignore it.
        budget: :class:`~repro.resources.ResourceBudget` caps enforced
            inside every backend's hot loop; a tripped budget raises
            :class:`~repro.resources.ResourceExhausted` and triggers the
            dispatcher's graceful fallback.  Accepts a budget instance,
            a dict of its fields, or a spec string such as
            ``"memory=1GiB,seconds=30"``.  When omitted, the
            ``REPRO_BUDGET`` environment variable supplies a
            process-wide default (``None`` = unlimited).
        trace: Record the run with :mod:`repro.obs` — the dispatcher
            opens a trace session and attaches the span tree and metric
            snapshot as ``result.metadata["report"]``.  Defaults from
            the ``REPRO_TRACE`` environment variable at the facade
            boundary; off otherwise (near-zero overhead).
        progress: Streaming callback receiving
            :class:`~repro.obs.progress.ProgressEvent`s from gate loops,
            trajectory chunks, and sweep iterations.  Raising from the
            callback (canonically
            :class:`~repro.obs.progress.CancelledError`) cancels the run
            cleanly.  Batch entry points report chunk completions on
            the calling thread and strip the callback from worker
            options.
        cache: Persistent content-addressed result cache
            (:mod:`repro.service.cache`): ``None`` (default) follows the
            ``REPRO_CACHE`` environment policy (off unless set truthy),
            ``True`` forces caching on for this call, ``False`` forces
            it off.  A cache hit returns the stored result without
            executing any backend (``metadata["cache"]["hit"]``); the
            key excludes exactly the :data:`RESULT_INVARIANT_FIELDS`,
            so caching never changes which bits a request produces.
            A traced call probes the cache too; its hit carries a report
            with one ``cache.probe`` span.  Calls with a ``progress``
            callback always execute (live events) but still store.
    """

    seed: int = 0
    method: str = "einsum"
    fusion: bool = False
    max_fused_qubits: int = 2
    optimization_level: Optional[int] = None
    max_bond: Optional[int] = None
    cutoff: float = 1e-12
    accuracy: Optional[Accuracy] = None
    plan: Optional[Any] = None
    track_peak: bool = False
    n_jobs: Optional[int] = None
    budget: Optional[ResourceBudget] = None
    trace: bool = False
    progress: Optional[Callable[[Any], None]] = None
    cache: Optional[bool] = None

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(
                f"unknown method {self.method!r}; choose from {METHODS}"
            )

    @classmethod
    def from_kwargs(cls, **kwargs: Any) -> "SimOptions":
        """Build options from facade keyword arguments, rejecting unknowns.

        ``budget`` is coerced from dict/str forms and defaulted from the
        ``REPRO_BUDGET`` environment variable when absent.
        """
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(kwargs) - known)
        if unknown:
            raise TypeError(
                f"unknown simulation option(s) {unknown}; "
                f"known options: {sorted(known)}"
            )
        if "budget" in kwargs:
            kwargs["budget"] = ResourceBudget.coerce(kwargs["budget"])
        else:
            kwargs["budget"] = default_budget()
        if "accuracy" in kwargs:
            kwargs["accuracy"] = Accuracy.coerce(kwargs["accuracy"])
        else:
            kwargs["accuracy"] = default_accuracy()
        if kwargs["accuracy"] is not None and kwargs["accuracy"].is_exact:
            # target=1.0 *is* the exact path; normalizing to None keeps
            # the default path bitwise identical by construction and
            # gives accuracy=1.0 and accuracy=None the same cache key.
            kwargs["accuracy"] = None
        if "trace" not in kwargs:
            kwargs["trace"] = _trace_env_enabled()
        level = kwargs.get("optimization_level")
        if level is not None and level not in (0, 1, 2, 3):
            raise ValueError(
                f"unknown optimization_level {level!r}; "
                "choose None or 0-3"
            )
        cache = kwargs.get("cache")
        if cache is not None and not isinstance(cache, bool):
            raise ValueError(
                f"cache must be None, True, or False; got {cache!r}"
            )
        return cls(**kwargs)

    def as_dict(self) -> Dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def canonical_dict(self) -> Dict[str, Any]:
        """Canonical JSON-able form of the *result-relevant* options.

        This is the options half of the persistent result cache's
        content-addressed key and of the durable job format: every field
        that can change the produced bits (``seed``, ``method``,
        ``fusion``/``max_fused_qubits``, ``optimization_level``,
        ``max_bond``/``cutoff``, ``accuracy`` — a fidelity target below
        1 licenses approximation — ``track_peak``, ``budget`` — a budget
        steers the fallback chain and therefore which backend serves),
        in field order, with the budget flattened to its dict form.  The
        :data:`RESULT_INVARIANT_FIELDS` are excluded by construction.

        Raises ``TypeError`` when an explicit contraction ``plan`` is
        set — plan objects have no canonical serialization (and a plan
        changes TN summation order, hence result bits), so such requests
        are uncacheable and not JSON-durable.
        """
        if self.plan is not None:
            raise TypeError(
                "SimOptions with an explicit contraction plan have no "
                "canonical serialization; drop plan= to cache or "
                "serialize this request"
            )
        data: Dict[str, Any] = {}
        for f in fields(self):
            if f.name in RESULT_INVARIANT_FIELDS:
                continue
            value = getattr(self, f.name)
            if f.name in ("budget", "accuracy") and value is not None:
                value = value.as_dict()
            data[f.name] = value
        return data

    @classmethod
    def from_canonical(cls, data: Dict[str, Any]) -> "SimOptions":
        """Rebuild options from :meth:`canonical_dict` output.

        Result-invariant fields come back at their defaults (callers —
        e.g. the job engine — layer scheduling choices on top).  The
        round-trip is exact: ``from_canonical(o.canonical_dict())``
        produces options that simulate bit-for-bit like ``o``.
        """
        kwargs = dict(data)
        kwargs.pop("plan", None)
        budget = kwargs.get("budget")
        if budget is None:
            # from_kwargs would fall back to REPRO_BUDGET; a serialized
            # job with no budget must stay unbudgeted.
            kwargs["budget"] = None
        if kwargs.get("accuracy") is None:
            # Same for REPRO_ACCURACY: a serialized exact job stays exact.
            kwargs["accuracy"] = None
        return cls.from_kwargs(**kwargs)
