"""``cluster_replay``: a seeded job trace replayed through a 2-shard cluster.

One client process drives two shard processes with one worker each (the
``LocalCluster(2, max_workers=1)`` setup) through a ``ClusterScheduler``,
with at most two requests in flight (busy threads stay within 2 CPUs).  The trace
runs in waves, each a closed loop: about 30% of the jobs are new, with
distinct contents (6-12 qubits, all four tasks, ``backend="auto"``; a
fifth return full 12-14 qubit states, so response frames are 0.1-1 MB),
and about 70% resubmit jobs from waves that have already finished.  The
number of distinct jobs exceeds each shard's 64-entry memory tier, so
some hits are read from the disk tier.  This is the only workload that
exercises serving: routing, the JSON wire codec, one connection per
request, the shard's ``SimulationService`` and queue, and result-cache
writes next to memory- and disk-tier reads.
"""

from __future__ import annotations

import asyncio
import os
from collections import OrderedDict, defaultdict
from typing import Dict, List, Optional

import numpy as np

import checks
import gen
import refsim
from common import mean, percentile
from spans import clock

OPS_PER_SECOND = 110
NEW_SHARE = 0.3
FIRST_WAVE = 12
WAVE = 24
IN_FLIGHT = 2
SHARDS = 2
MEMORY_TIER = 64
TASK_SHARES = {"simulate_large": 0.2, "simulate": 0.2, "sample": 0.2,
               "expectation": 0.2, "single_amplitude": 0.2}
LARGE_FAMILIES = ("ghz", "dense", "qft", "brickwork")
SAMPLE_FAMILIES = ("clifford_t", "brickwork", "dense", "qft")
TASK_ARG = {"sample": "shots", "expectation": "pauli", "single_amplitude": "basis_index"}
"""The one task argument of each task; it is also the task's cache-key extra."""


def generate(seed: int, seconds: float) -> List[Dict]:
    rng = np.random.default_rng([seed, 4])
    total = int(round(OPS_PER_SECOND * seconds))
    n_new = int(round(total * NEW_SHARE))
    new_jobs = []
    for task, share in TASK_SHARES.items():
        k = int(round(n_new * share))
        large = task == "simulate_large"
        sizes = gen.quantile_ints(rng, k, 12, 14) if large else gen.quantile_ints(rng, k, 6, 12)
        shots = gen.log_quantile_ints(k, 64, 512)
        rng.shuffle(shots)
        families = LARGE_FAMILIES if large else (SAMPLE_FAMILIES if task == "sample" else gen.FAMILIES)
        for i in range(k):
            n = sizes[i]
            job = {"cls": f"new.{task}", "kind": "new", "task": "simulate" if large else task,
                   "family": families[i % len(families)], "n": n,
                   "cseed": gen.seeds(rng, 1)[0]}
            if task == "sample":
                job["shots"] = shots[i]
            elif task == "expectation":
                job["pauli"] = gen.pauli_string(rng, n)
            elif task == "single_amplitude":
                job["basis_index"] = int(rng.integers(0, 1 << n))
            new_jobs.append(job)
    rng.shuffle(new_jobs)
    for number, job in enumerate(new_jobs):
        # A distinct seed per new job gives every new job its own cache
        # key, even for deterministic circuits (GHZ, QFT) of equal size.
        job["seed"] = int(seed % 100000) * 100000 + number
    n_resubmit = total - len(new_jobs)
    rest = [("new", job) for job in new_jobs[FIRST_WAVE:]] + [("re", None)] * n_resubmit
    order = rng.permutation(len(rest))
    rest = [rest[i] for i in order]
    waves = [[("new", job) for job in new_jobs[:FIRST_WAVE]]]
    waves += [rest[i:i + WAVE] for i in range(0, len(rest), WAVE)]
    ops: List[Dict] = []
    finished: List[int] = []
    for wave_index, wave in enumerate(waves):
        started = len(ops)
        for kind, job in wave:
            if kind == "new":
                ops.append(dict(job, wave=wave_index))
            else:
                source = finished[int(rng.integers(0, len(finished)))]
                ops.append({"cls": "resubmit", "kind": "resubmit", "source": source,
                            "wave": wave_index})
        for index in range(started, len(ops)):
            ops[index]["id"] = index
        finished.extend(i for i in range(started, len(ops)) if ops[i]["kind"] == "new")
    return ops


def _new_spec(op: Dict, ops: List[Dict]) -> Dict:
    return ops[op["source"]] if op["kind"] == "resubmit" else op


def materialize(op: Dict) -> Dict:
    if op["kind"] == "resubmit":
        return dict(op)
    return dict(op, circuit=gen.circuit(op["family"], op["n"], op["cseed"]))


def fingerprint(op: Dict):
    if op["kind"] == "resubmit":
        return ["resubmit", op["source"]]
    return gen.circuit_fingerprint(op["circuit"])


def reference(op: Dict):
    if op["kind"] == "resubmit":
        return None
    return refsim.statevector(op["circuit"])


def job_spec(op: Dict, ops: List[Dict]):
    from repro.core import SimOptions
    from repro.service import JobSpec

    spec = _new_spec(op, ops)
    arg = TASK_ARG.get(spec["task"])
    task_args = {arg: spec[arg]} if arg else {}
    return JobSpec(circuit=spec["circuit"], task=spec["task"], backend="auto",
                   options=SimOptions(seed=spec["seed"]), task_args=task_args,
                   job_id=f"job-{op['id']}")


# -- cluster lifecycle -------------------------------------------------------

# The scheduler routes by hashing shard addresses, so the addresses must
# not depend on where the checkout lives or on a random temp name: the
# shards listen on unix sockets at this path relative to the checkout (the
# workload process's working directory).  This is the setup LocalCluster
# builds — one cache directory per shard, REPRO_CACHE on — minus its
# randomly named socket directory.
SOCKET_DIR = os.path.join(".perfbench_tmp", "sockets")


def _start_cluster(ctx) -> None:
    from repro.service.remote.cluster import ClusterScheduler, ShardProcess

    ctx.cluster_count = getattr(ctx, "cluster_count", 0) + 1
    os.makedirs(SOCKET_DIR, exist_ok=True)
    shards = []
    try:
        for index in range(SHARDS):
            path = os.path.join(SOCKET_DIR, f"shard-{index}.sock")
            if os.path.exists(path):
                os.unlink(path)  # left by a run that was killed
            cache = os.path.join(ctx.tmp, f"cluster{ctx.cluster_count}", f"cache-{index}")
            env = {"REPRO_CACHE": "1", "REPRO_CACHE_DIR": cache}
            shards.append(ShardProcess(unix_path=path, max_workers=1, env=env).start())
    except BaseException:
        for shard in shards:
            shard.stop()
        raise
    ctx.shards = shards
    scheduler = ClusterScheduler([shard.address for shard in shards])
    ctx.scheduler = ctx.loop.run_until_complete(scheduler.start())


def _stop_cluster(ctx) -> None:
    shards, ctx.shards = getattr(ctx, "shards", None), None
    if shards is None:
        return
    try:
        ctx.loop.run_until_complete(ctx.scheduler.stop())
    finally:
        for shard in shards:
            shard.stop()


def setup(ctx) -> None:
    ctx.loop = asyncio.new_event_loop()
    _start_cluster(ctx)


def teardown(ctx) -> None:
    try:
        _stop_cluster(ctx)
    finally:
        ctx.loop.close()


def pool_workers() -> int:
    return 0


def warmup_op(seed: int) -> Dict:
    op = {"cls": "warmup", "kind": "new", "task": "simulate", "family": "dense", "n": 6,
          "cseed": seed, "seed": 10**10 + seed, "id": -1}
    return materialize(op)


def execute(ctx, op: Dict):
    job = job_spec(op, [op])
    return ctx.loop.run_until_complete(ctx.scheduler.submit(job))


async def _replay(call, ops, size: int, rec=None, loop_span=None):
    """Run ``call(index)`` for ``ops`` wave by wave, ``IN_FLIGHT`` at a time.

    Returns outputs, latencies and errors indexed by op id, and each
    wave's wall time.  With a recorder, every op gets an ``op`` span with
    a ``cluster.submit`` child (explicit parents: ops overlap).
    """
    outputs: List = [None] * size
    latencies = [0.0] * size
    errors: Dict[int, str] = {}
    wave_walls: Dict[int, float] = {}
    waves = defaultdict(list)
    for op in ops:
        waves[op["wave"]].append(op["id"])

    async def client(queue):
        while queue:
            index = queue.pop(0)
            span = rec.begin("op", parent=loop_span, request=index) if rec else None
            inner = rec.begin("cluster.submit", parent=span) if rec else None
            t0 = clock()
            try:
                outputs[index] = await call(index)
            except Exception as exc:  # noqa: BLE001 - a failing op is a result
                errors[index] = f"{type(exc).__name__}: {exc}"
            latencies[index] = clock() - t0
            if rec:
                rec.end(inner)
                rec.end(span)

    for wave in sorted(waves):
        queue = list(waves[wave])
        started = clock()
        await asyncio.gather(*(client(queue) for _ in range(IN_FLIGHT)))
        wave_walls[wave] = clock() - started
    return outputs, latencies, errors, wave_walls


def run_loop(ctx, ops):
    jobs = [job_spec(op, ops) for op in ops]
    start = clock()
    outputs, latencies, errors, ctx.wave_walls = ctx.loop.run_until_complete(
        _replay(lambda i: ctx.scheduler.submit(jobs[i]), ops, len(ops)))
    wall = clock() - start
    for index, out in enumerate(outputs):
        if out is not None and out.status != "done" and index not in errors:
            errors[index] = f"job {out.status}: {out.error!r}"
    return outputs, latencies, {ops[i]["id"]: e for i, e in errors.items()}, wall


def stat_checks(ops) -> int:
    return sum(1 for op in ops if _new_spec(op, ops)["task"] == "sample")


def _value(job_result):
    value = job_result.value
    if hasattr(value, "state"):
        return value.state, value.metadata
    return value


def check(op: Dict, output, ref, num_stat: int) -> Optional[str]:
    if op["kind"] == "resubmit":
        return None  # checked against its source in run_checks
    value, _meta = _value(output)
    task = op["task"]
    if task == "simulate":
        return checks.state(value, ref)
    if task == "sample":
        return checks.counts(value, op["shots"], refsim.probabilities(ref), num_stat)
    if task == "expectation":
        return checks.value(value, refsim.expectation(ref, op["pauli"]))
    return checks.amplitude(value, ref[op["basis_index"]])


def _bitwise_equal(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
                and a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes())
    if isinstance(a, dict):
        return a == b
    return type(a) is type(b) and repr(a) == repr(b)


def run_checks(ops: List[Dict], outputs, refs, num_stat: int) -> List[Dict]:
    """A resubmission must pass its source's check and equal its cold result
    bit for bit, within this run."""
    failures = []
    for op, out in zip(ops, outputs):
        if op["kind"] != "resubmit" or out is None or out.status != "done":
            continue
        source = op["source"]
        cold = outputs[source]
        reason = check(ops[source], out, refs[source], num_stat)
        if reason is None and cold is not None and cold.status == "done" \
                and not _bitwise_equal(_value(out)[0], _value(cold)[0]):
            reason = f"differs from its cold result (op {source})"
        if reason:
            failures.append({"id": op["id"], "cls": op["cls"], "cause": reason})
    return failures


def served_by(op: Dict, output) -> str:
    if output is None or output.status != "done":
        return "failed"
    meta = _value(output)[1]
    tier = "hit" if output.cache_hit else "miss"
    return f"{tier}:{meta.get('auto', {}).get('selected', '?')}"


def output_digest_bytes(op: Dict, output) -> bytes:
    return gen.value_bytes(_value(output)[0])


def _shard_of(output) -> Optional[str]:
    if output is None or output.value is None:
        return None
    return _value(output)[1].get("cluster", {}).get("shard")


def composition_extra(ops, outputs) -> Dict:
    hits = sum(1 for out in outputs if out is not None and out.cache_hit)
    misses = sum(1 for out in outputs if out is not None and not out.cache_hit)
    # Replay each shard's 64-entry LRU memory tier over the observed
    # routing to count the hits its disk tier had to serve.
    tiers: Dict[str, OrderedDict] = defaultdict(OrderedDict)
    disk_hits = 0
    for op, out in zip(ops, outputs):
        shard = _shard_of(out)
        if shard is None:
            continue
        key = op.get("source", op["id"])
        tier = tiers[shard]
        if op["kind"] == "resubmit" and out.cache_hit and key not in tier:
            disk_hits += 1
        tier[key] = True
        tier.move_to_end(key)
        while len(tier) > MEMORY_TIER:
            tier.popitem(last=False)
    distinct = defaultdict(set)
    for op, out in zip(ops, outputs):
        shard = _shard_of(out)
        if shard is not None:
            distinct[shard].add(op.get("source", op["id"]))
    from repro.service.remote.cluster import routing_key

    new_keys = [routing_key(job_spec(op, ops)) for op in ops if op["kind"] == "new"]
    return {"cache_hits": hits, "cache_misses": misses, "disk_tier_hits_modelled": disk_hits,
            "distinct_jobs_per_shard": sorted(len(v) for v in distinct.values()),
            "new_job_key_collisions": len(new_keys) - len(set(new_keys))}


# -- traced run --------------------------------------------------------------


def traced(ctx, ops, refs, latencies, rec, outputs) -> Dict:
    from repro.service import ResultCache, SimulationService, execute_job, request_key
    from repro.service import cache as service_cache
    from repro.service.jobs import JobSpec
    from repro.service.remote import wire
    from repro.service.remote.shard import decode_job_result, encode_job_result

    jobs = [job_spec(op, ops) for op in ops]
    metrics: Dict[str, float] = {}

    # Counters from the measured (untraced) cluster.
    heartbeats = [ctx.loop.run_until_complete(ctx.scheduler.ping(address))
                  for address in ctx.scheduler.healthy_addresses()]
    caches = [(hb or {}).get("cache") or {} for hb in heartbeats]
    hits = sum(cache.get("hits", 0) for cache in caches)
    misses = sum(cache.get("misses", 0) for cache in caches)
    metrics["service.hit_rate"] = hits / max(hits + misses, 1)
    stats = ctx.scheduler.stats()
    metrics["cluster.retries"] = float(stats["retries"])
    metrics["cluster.failovers"] = float(stats["failovers"])
    metrics["cluster.local_fallbacks"] = float(stats["local_fallbacks"])
    same = total = 0
    for op, out in zip(ops, outputs):
        if op["kind"] == "resubmit" and _shard_of(out) is not None:
            total += 1
            same += _shard_of(out) == _shard_of(outputs[op["source"]])
    metrics["cluster.affinity_rate"] = same / max(total, 1)

    # The traced replay: the trace's first half of waves through a fresh
    # cluster, with spans; the overhead compares it with the same waves of
    # the measured run.
    last_wave = max(op["wave"] for op in ops) // 2
    half = [op for op in ops if op["wave"] <= last_wave]
    _stop_cluster(ctx)
    _start_cluster(ctx)
    loop_span = rec.begin("loop")
    ctx.loop.run_until_complete(
        _replay(lambda i: ctx.scheduler.submit(jobs[i]), half, len(ops), rec, loop_span))
    traced_s = rec.end(loop_span)
    _stop_cluster(ctx)
    untraced_s = sum(wall for wave, wall in ctx.wave_walls.items() if wave <= last_wave)

    # The same trace through an in-process service with its own cache.
    saved = {k: os.environ.get(k) for k in ("REPRO_CACHE", "REPRO_CACHE_DIR")}
    os.environ["REPRO_CACHE"] = "1"
    os.environ["REPRO_CACHE_DIR"] = os.path.join(ctx.tmp, "inprocess-cache")
    service_cache.reset_default_cache()
    try:
        inprocess = ctx.loop.run_until_complete(_inprocess(SimulationService, half, jobs, rec))
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
        service_cache.reset_default_cache()
    ids = [op["id"] for op in half]
    metrics["service.inprocess_p50_ms"] = percentile([inprocess[i] for i in ids], 50) * 1e3
    metrics["cluster.rpc_overhead_ms"] = percentile(
        [latencies[i] - inprocess[i] for i in ids], 50) * 1e3

    new = [(op, job) for op, job in zip(ops, jobs) if op["kind"] == "new"]
    cold, analyze_ms = [], []
    from repro.core import analyze

    for op, job in new[::2]:
        with rec.span("core.analyze", request=op["id"]) as s:
            analyze(job.circuit.without_measurements())
        analyze_ms.append((s["end"] - s["start"]) * 1e3)
        with rec.span("core.cold_execute", request=op["id"]) as s:
            execute_job(job)
        cold.append((s["end"] - s["start"]) * 1e3)
    metrics["core.cold_execute_ms"] = mean(cold)
    metrics["core.analyze_ms"] = mean(analyze_ms)

    key_us, json_us = [], []
    for job in jobs:
        arg = TASK_ARG.get(job.task)
        extra = {arg: job.task_args[arg]} if arg else None
        t0 = clock()
        request_key(job.circuit, job.backend, gen.TASK_CAPABILITY[job.task], job.options, extra)
        t1 = clock()
        JobSpec.from_json(job.to_json())
        t2 = clock()
        key_us.append((t1 - t0) * 1e6)
        json_us.append((t2 - t1) * 1e6)
    metrics["service.request_key_us"] = mean(key_us)
    metrics["service.job_json_us"] = mean(json_us)

    metrics.update(_cache_probe(ResultCache, request_key, ctx, new, outputs))

    # Each distinct response is encoded once; a resubmission's frame has
    # its source's size and cost, so every op is weighted by its source.
    frames = {}
    for op in new:
        index = op[0]["id"]
        out = outputs[index]
        if out is None:
            continue
        t0 = clock()
        data = wire.encode_frame(wire.make_frame(wire.RESPONSE, id=index, ok=True,
                                                 result=encode_job_result(out)))
        t1 = clock()
        decode_job_result(wire.decode_frame(data)["result"])
        t2 = clock()
        frames[index] = ((t1 - t0) * 1e6, (t2 - t1) * 1e6, len(data) / 1024.0)
    per_op = [frames[op.get("source", op["id"])] for op in ops
              if op.get("source", op["id"]) in frames]
    metrics["wire.encode_us"] = mean(f[0] for f in per_op)
    metrics["wire.decode_us"] = mean(f[1] for f in per_op)
    metrics["wire.response_kib_p50"] = percentile([f[2] for f in per_op], 50)
    metrics["wire.response_kib_p90"] = percentile([f[2] for f in per_op], 90)
    metrics["trace_overhead"] = traced_s / untraced_s
    return {"metrics": metrics, "mismatches": []}


async def _inprocess(service_cls, ops, jobs, rec) -> List[float]:
    async with service_cls(max_workers=1) as service:

        async def call(index):
            return await service.result(await service.submit(job=jobs[index]))

        span = rec.begin("inprocess.replay")
        latencies = (await _replay(call, ops, len(jobs)))[1]
        rec.end(span)
    return latencies


def _cache_probe(cache_cls, request_key, ctx, new, outputs) -> Dict[str, float]:
    """A ``ResultCache`` in a temp dir, fed the trace's cold results."""
    cache = cache_cls(directory=os.path.join(ctx.tmp, "cache-probe"))
    keys, put_us, memory_us, disk_us = [], [], [], []
    for op, job in new:
        out = outputs[op["id"]]
        if out is None or out.value is None:
            continue
        value, meta = _value(out)
        key = f"probe-{op['id']:06d}"
        t0 = clock()
        cache.put(key, value, dict(meta), "auto")
        put_us.append((clock() - t0) * 1e6)
        keys.append(key)
    for key in keys[-cache.memory_entries:]:
        t0 = clock()
        cache.get(key)
        memory_us.append((clock() - t0) * 1e6)
    cold_cache = cache_cls(directory=cache.directory, memory_entries=0)
    for key in keys:
        t0 = clock()
        cold_cache.get(key)
        disk_us.append((clock() - t0) * 1e6)
    return {"service.cache_put_us": mean(put_us),
            "service.cache_get_memory_us": mean(memory_us),
            "service.cache_get_disk_us": mean(disk_us)}
