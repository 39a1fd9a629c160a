"""Shared helpers: statistics, process isolation, machine record, memory."""

from __future__ import annotations

import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
from typing import Dict, Iterable, List, Optional, Sequence

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
)


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default), ``q`` in [0, 100]."""
    data = sorted(values)
    if not data:
        return 0.0
    pos = (len(data) - 1) * q / 100.0
    low = math.floor(pos)
    high = min(low + 1, len(data) - 1)
    return data[low] + (data[high] - data[low]) * (pos - low)


def mean(values: Iterable[float]) -> float:
    """Arithmetic mean; 0.0 for no values (a layer the run did not drive)."""
    values = list(values)
    return float(sum(values) / len(values)) if values else 0.0


def geomean(values: Iterable[float]) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def stable_hash(data) -> str:
    text = json.dumps(data, sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def isolated_env(tmp: str, checkout: str) -> Dict[str, str]:
    """Environment of one workload process.

    Every ``REPRO_*`` knob is dropped, so a leftover ``REPRO_JOBS`` or
    ``REPRO_CACHE`` cannot move ops onto another engine or turn misses
    into hits; the autotuner, the result cache and ``XDG_CACHE_HOME``
    point into a fresh directory, so no measurement from an earlier
    process pins chunk sizes; BLAS and OpenMP run one thread.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    for var in THREAD_VARS:
        env[var] = "1"
    env["REPRO_AUTOTUNE_CACHE"] = os.path.join(tmp, "autotune.json")
    env["REPRO_CACHE_DIR"] = os.path.join(tmp, "results")
    env["XDG_CACHE_HOME"] = os.path.join(tmp, "xdg")
    env["TMPDIR"] = os.path.join(tmp, "t")
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.path.join(checkout, "src")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    return env


def recorded_env() -> Dict[str, str]:
    keys = THREAD_VARS + ("PYTHONHASHSEED", "REPRO_AUTOTUNE_CACHE", "REPRO_CACHE_DIR", "XDG_CACHE_HOME")
    record = {k: os.environ.get(k, "") for k in keys}
    record["other_REPRO_vars"] = sorted(
        k for k in os.environ if k.startswith("REPRO_") and k not in keys
    )
    return record


def blas_threads() -> Optional[int]:
    """Thread count the loaded OpenBLAS reports, if it can be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            libs = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    except OSError:
        return None
    names = (
        "scipy_openblas_get_num_threads64_",
        "scipy_openblas_get_num_threads",
        "openblas_get_num_threads64_",
        "openblas_get_num_threads",
    )
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in names:
            func = getattr(lib, name, None)
            if func is not None:
                func.restype = ctypes.c_int
                return int(func())
    return None


def git_sha(checkout: str) -> str:
    """The checked-out commit, or ``unknown`` outside a git repository."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=checkout, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def machine_record(checkout: str) -> Dict:
    import numpy

    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": blas_threads(),
        "git_sha": git_sha(checkout),
        "platform": platform.platform(),
    }


def calibration_loop() -> float:
    """Seconds for a fixed pure-Python loop; a diagnostic, never a scale."""
    start = time.perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - start


def cpu_jiffies() -> List[int]:
    """The machine-wide ``cpu`` line of ``/proc/stat`` (``[]`` if unreadable)."""
    try:
        with open("/proc/stat", encoding="utf-8") as handle:
            return [int(x) for x in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return []


def steal_share(before: List[int], after: List[int]) -> Optional[float]:
    """Share of CPU time the hypervisor took from this VM between two reads.

    A diagnostic for the machine's own noise (field 8 of the ``cpu``
    line); it never scales a metric.
    """
    if len(before) < 8 or len(after) < 8:
        return None
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta[:8])
    return delta[7] / total if total else 0.0


def _status_kib(pid: int, field: str) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return 0


def child_pids(pid: int) -> List[int]:
    found = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return found
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children", encoding="utf-8") as handle:
                found.extend(int(p) for p in handle.read().split())
        except (OSError, ValueError):
            continue
    return found


class PeakRSS:
    """Peak resident memory of this process and its children.

    The process's own peak is the kernel's high-water mark.  Long-lived
    children (shard processes) report theirs through :meth:`note_children`
    before they are stopped; short-lived pool workers are covered by the
    largest reaped child times the number of workers that ran at once.
    """

    def __init__(self) -> None:
        self.children_kib: List[int] = []
        self.parts_mib: Dict[str, object] = {}

    def note_children(self) -> None:
        self.children_kib = [_status_kib(p, "VmHWM") for p in child_pids(os.getpid())]

    def peak_mib(self, pool_workers: int) -> float:
        own = _status_kib(os.getpid(), "VmHWM") or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        reaped = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        pooled = reaped * pool_workers if pool_workers else 0
        self.parts_mib = {"own": own / 1024.0, "children": [c / 1024.0 for c in self.children_kib],
                          "pool_workers": pooled / 1024.0}
        return (own + sum(self.children_kib) + pooled) / 1024.0


def checkout_root() -> str:
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def require_package(checkout: str) -> None:
    """Fail unless the package under test is in this checkout's ``src``."""
    package = os.path.join(checkout, "src", "repro", "__init__.py")
    if not os.path.isfile(package):
        sys.stderr.write(f"perfbench: no package source at {package}\n")
        sys.exit(2)
