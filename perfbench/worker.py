"""One workload in one fresh process: set up, measure, check, report.

Started by ``run.py`` with an isolated environment; never run directly.
With ``--probe`` it only sets up (import, the workload's cluster, one
warm-up op) so the parent can take the median set-up time of several
fresh processes.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import sys
import time
import traceback
from collections import Counter, defaultdict
from types import SimpleNamespace

import checks
from common import (
    PeakRSS,
    cpu_jiffies,
    machine_record,
    percentile,
    recorded_env,
    stable_hash,
    steal_share,
)
from spans import SpanRecorder, clock

WORKLOADS = {
    "library_mix": "wl_library_mix",
    "compile_verify": "wl_compile_verify",
    "cluster_replay": "wl_cluster_replay",
}


def sequential_loop(ctx, wl, ops):
    """Closed loop, one client: each op starts when the previous ended."""
    outputs, latencies, errors = [], [], {}
    ctx.rss_jumps = []
    high = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    start = clock()
    for op in ops:
        t0 = clock()
        try:
            out = wl.execute(ctx, op)
        except Exception as exc:  # noqa: BLE001 - a failing op is a result
            out = None
            errors[op["id"]] = f"{type(exc).__name__}: {exc}"
        latencies.append(clock() - t0)
        outputs.append(out)
        now = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if now > high + 4096:
            ctx.rss_jumps.append([op["id"], op["cls"], round((now - high) / 1024, 1)])
        high = now
    return outputs, latencies, errors, clock() - start


def _selftest():
    from repro.arrays.noise import NoiseModel, amplitude_damping, depolarizing
    from repro.circuits import random_circuits

    import gen

    circuit = random_circuits.random_circuit(4, 6, seed=11)
    noisy = gen.circuit("dense", 3, 5, depth=4)
    model = NoiseModel(default_1q=amplitude_damping(0.3), default_2q=amplitude_damping(0.3))
    wrong = NoiseModel(default_1q=depolarizing(0.01), default_2q=depolarizing(0.01))
    return checks.selftest([circuit, noisy], [model, wrong])


def probe(args) -> dict:
    t_import = clock()
    import repro  # noqa: F401

    import_s = clock() - t_import
    wl = importlib.import_module(WORKLOADS[args.workload])
    t_excluded = clock()
    warm = wl.warmup_op(args.seed)
    excluded = clock() - t_excluded
    ctx = SimpleNamespace(tmp=args.tmp, seed=args.seed)
    wl.setup(ctx)
    try:
        wl.execute(ctx, warm)
        setup_s = time.monotonic() - args.launch - excluded
    finally:
        wl.teardown(ctx)
    return {"setup_s": setup_s, "import_s": import_s}


def main(args) -> dict:
    t_import = clock()
    import repro  # noqa: F401

    import_s = clock() - t_import
    wl = importlib.import_module(WORKLOADS[args.workload])
    rss = PeakRSS()

    t_excluded = clock()
    descriptors = wl.generate(args.seed, args.seconds)
    op_list_hash = stable_hash(descriptors)
    ops = [wl.materialize(d) for d in descriptors]
    inputs_hash = stable_hash([wl.fingerprint(op) for op in ops])
    refs = [wl.reference(op) for op in ops]
    warm = wl.warmup_op(args.seed)
    selftest = _selftest()
    excluded = clock() - t_excluded

    ctx = SimpleNamespace(tmp=args.tmp, seed=args.seed, ops=ops)
    wl.setup(ctx)
    try:
        wl.execute(ctx, warm)
        setup_s = time.monotonic() - args.launch - excluded
        loop = getattr(wl, "run_loop", None) or (lambda c, o: sequential_loop(c, wl, o))
        jiffies = cpu_jiffies()
        outputs, latencies, errors, wall = loop(ctx, ops)
        steal = steal_share(jiffies, cpu_jiffies())
        ctx.timed_wall = wall
        traced = None
        if args.trace:
            rec = SpanRecorder()
            traced = wl.traced(ctx, ops, refs, latencies, rec, outputs)
            rec.write(os.path.join(args.outdir, f"{args.workload}-seed{args.seed}-spans.json"))
        rss.note_children()
        extra = wl.composition_extra(ops, outputs)
    finally:
        wl.teardown(ctx)

    num_stat = wl.stat_checks(ops)
    failures = []
    digests = defaultdict(list)
    for op, out, ref in zip(ops, outputs, refs):
        if op["id"] in errors:
            failures.append({"id": op["id"], "cls": op["cls"], "cause": errors[op["id"]]})
            continue
        try:
            reason = wl.check(op, out, ref, num_stat)
        except Exception as exc:  # noqa: BLE001 - a malformed output fails its check
            reason = f"check raised {type(exc).__name__}: {exc}"
        if reason:
            failures.append({"id": op["id"], "cls": op["cls"], "cause": reason})
        digests[op["cls"]].append(wl.output_digest_bytes(op, out))
    if hasattr(wl, "run_checks"):
        failures.extend(wl.run_checks(ops, outputs, refs, num_stat))
    failed_ids = {f["id"] for f in failures}

    per_class = defaultdict(lambda: {"count": 0, "time_s": 0.0, "served_by": Counter()})
    for op, out, latency in zip(ops, outputs, latencies):
        entry = per_class[op["cls"]]
        entry["count"] += 1
        entry["time_s"] += latency
        if out is not None:
            entry["served_by"][wl.served_by(op, out)] += 1
    total = sum(latencies) or 1.0
    composition = {
        cls: {"count": e["count"], "time_share": e["time_s"] / total,
              "served_by": dict(e["served_by"]),
              "output_digest": stable_hash([d.hex() for d in digests[cls]])[:16]}
        for cls, e in sorted(per_class.items())
    }
    attempted = len(ops)
    failed = len(failed_ids)
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": attempted / wall,
        "latency_p50_ms": percentile(latencies, 50) * 1e3,
        "latency_p90_ms": percentile(latencies, 90) * 1e3,
        "success_rate": (attempted - failed) / attempted,
        "peak_rss_mb": rss.peak_mib(wl.pool_workers()),
        "compiled_2q_ratio": extra.pop("compiled_2q_ratio", 1.0),
    }
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "op_list_hash": op_list_hash,
        "inputs_hash": inputs_hash,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "selftest": selftest,
        "correct": failed == 0 and all(selftest.values()),
        "metrics": metrics,
        "timed_wall_s": wall,
        "steal_share_during_loop": steal,
        "import_s": import_s,
        "excluded_s": excluded,
        "composition": composition,
        "rss_jumps_mib": getattr(ctx, "rss_jumps", []),
        "rss_parts_mib": rss.parts_mib,
        "op_latencies_ms": [[op["id"], op["cls"], round(t * 1e3, 3)] for op, t in zip(ops, latencies)],
        "composition_extra": extra,
        "env": recorded_env(),
        "machine": machine_record(os.getcwd()),
    }
    if traced is not None:
        result["per_layer"] = traced["metrics"]
        result["traced_mismatches"] = traced["mismatches"]
        if traced["mismatches"]:
            result["correct"] = False
    return result


def parse(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--launch", type=float, required=True)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--outdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--probe", action="store_true")
    return parser.parse_args(argv)


if __name__ == "__main__":
    arguments = parse()
    try:
        payload = probe(arguments) if arguments.probe else main(arguments)
    except Exception:  # noqa: BLE001 - report and fail the process
        traceback.print_exc()
        sys.exit(1)
    with open(arguments.result, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, default=str)
