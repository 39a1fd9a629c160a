"""Repository benchmark: three seeded workloads, checked against references.

Usage (from the repository root)::

    python3 perfbench/run.py --workload library_mix --seed 1 --seconds 25 --trace 0

Each invocation runs one workload in fresh, isolated processes: a few
set-up probes (for the median ``setup_s``) and then the measured run.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` a separate
traced run's per-layer metrics.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
See ``perfbench/README.md`` for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

from common import (
    calibration_loop,
    checkout_root,
    isolated_env,
    require_package,
)
from metrics import END_TO_END, PER_LAYER

HERE = os.path.dirname(os.path.abspath(__file__))

SETUP_PROBES = 3
RUN_BUDGET_S = 170
"""Every process of one invocation must end within this many seconds."""


def spawn(checkout: str, tmp: str, outdir: str, args, probe: bool, deadline: float) -> dict:
    """One fresh worker process; returns its result document."""
    os.makedirs(tmp, exist_ok=True)
    result_path = os.path.join(tmp, "result.json")
    argv = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--tmp", tmp, "--outdir", outdir, "--result", result_path,
    ]
    if probe:
        argv.append("--probe")
    env = isolated_env(tmp, checkout)
    launch = time.monotonic()
    proc = subprocess.Popen(
        argv + ["--launch", repr(launch)], cwd=checkout, env=env,
        stdout=sys.stderr, stderr=sys.stderr, start_new_session=True,
    )
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        code = None
    finally:
        # The worker's own children (shards, pool workers) share its
        # session; none may outlive the run.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except OSError:
            pass
        proc.wait()
    if code != 0 or not os.path.exists(result_path):
        raise RuntimeError(f"worker for {args.workload} failed (exit {code})")
    with open(result_path, encoding="utf-8") as handle:
        return json.load(handle)


def parse(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("library_mix", "compile_verify", "cluster_replay"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse(argv)
    checkout = checkout_root()
    require_package(checkout)
    workdir = os.path.join(checkout, ".perfbench_tmp", f"{args.workload}-{args.seed}-{os.getpid()}")
    outdir = os.path.join(checkout, ".perfbench_out")
    os.makedirs(outdir, exist_ok=True)
    deadline = time.monotonic() + RUN_BUDGET_S
    calibration_before = calibration_loop()
    try:
        setups = []
        if not args.trace:
            for index in range(SETUP_PROBES):
                probe = spawn(checkout, os.path.join(workdir, f"probe{index}"), outdir, args,
                              True, deadline)
                setups.append(probe["setup_s"])
        result = spawn(checkout, os.path.join(workdir, "run"), outdir, args, False, deadline)
    except RuntimeError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        for leftover in ("sockets", ""):
            try:
                os.rmdir(os.path.join(checkout, ".perfbench_tmp", leftover))
            except OSError:
                pass
    calibration_after = calibration_loop()

    setups.append(result["metrics"]["setup_s"])
    result["metrics"]["setup_s"] = statistics.median(setups)
    result["setup_samples_s"] = setups
    result["calibration_s"] = {"before": calibration_before, "after": calibration_after}
    if args.trace:
        produced = result["per_layer"]
        unknown = sorted(set(produced) - set(PER_LAYER))
        if unknown:
            sys.stderr.write(f"perfbench: undeclared per-layer metrics {unknown}\n")
            return 1
        # A layer this workload does not drive reads 0 (see metrics.py).
        chosen = {name: produced.get(name, 0.0) for name in PER_LAYER}
        table = PER_LAYER
    else:
        chosen = {name: result["metrics"][name] for name in END_TO_END}
        table = END_TO_END
    metrics = {name: {"value": float(value), "unit": table[name]["unit"]}
               for name, value in chosen.items()}
    broken = [name for name, metric in metrics.items() if not math.isfinite(metric["value"])]
    if broken:
        sys.stderr.write(f"perfbench: non-finite metrics {broken}\n")
        return 1
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(outdir, tag + ".json"), "w", encoding="utf-8") as handle:
        json.dump(dict(result, reported=metrics), handle, indent=1, default=str)
    print(f"workload {args.workload} seed {args.seed}: op list {result['op_list_hash'][:16]}"
          f" inputs {result['inputs_hash'][:16]}, {result['attempted']} ops in"
          f" {result['timed_wall_s']:.2f} s, machine {result['machine']},"
          f" calibration {result['calibration_s']}, steal {result['steal_share_during_loop']}")
    for cls, entry in result["composition"].items():
        print(f"  {cls:34s} n={entry['count']:4d} time={entry['time_share']:6.1%}"
              f" served_by={entry['served_by']}")
    if result["composition_extra"]:
        print(f"  {json.dumps(result['composition_extra'], sort_keys=True)}")
    for failure in result["failures"] + result.get("traced_mismatches", []):
        print(f"  FAILED op {failure['id']} ({failure['cls']}): {failure['cause']}")
    for name, metric in metrics.items():
        moves = table[name].get("moves", "")
        if args.trace and name not in result["per_layer"]:
            moves = "(layer not driven by this workload)"
        print(f"  {name:34s} {metric['value']:14.6g} {metric['unit']:6s} {moves}")
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
