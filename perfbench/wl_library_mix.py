"""``library_mix``: how the library's main users call it.

One client, one op at a time (closed loop).  About 70% of the ops are
single facade requests with ``backend="auto"`` over the six analyzer
families at 8-14 qubits, 10% are ``simulate_many`` sweeps, 5% carry a
memory, node or bond budget under which the first candidate trips and a
later one serves, and 15% are noise runs at 4-8 qubits.  The mix
exercises dispatch, the router, all five backends and the trajectory
engine; it never touches compile presets, verification or serving.
"""

from __future__ import annotations

import functools
from typing import Dict, List, Optional

import numpy as np

import checks
import gen
import refsim
from common import geomean, mean, percentile
from spans import clock as rec_clock

REGRET_BUDGET = "memory=64MiB,nodes=20000,bond=64"
POOL_JOBS = 2
BUDGET_KINDS = {
    # family, sizes, tasks, spec(n): the first candidate trips and a later
    # one serves.  A memory budget below the dense state rules out
    # full-state output on every backend, so it carries no simulate task.
    "nodes": ("clifford_t", (10, 14), ("simulate", "expectation", "sample"), lambda n: "nodes=64"),
    "bond": ("brickwork", (10, 14), ("simulate", "expectation", "sample"), lambda n: "bond=1"),
    "memory": ("qft", (13, 14), ("expectation", "sample"), lambda n: f"memory={8 << n}"),
}
NOISE = {  # engine: qubits low, high, brickwork depth, trajectories
    "trajectory_default": (4, 8, 3, 128),
    "trajectory_pooled": (4, 8, 3, 256),
    "dd": (4, 5, 3, 16),
    "density": (4, 7, 3, 0),
}


def _counts(scale: float) -> Dict[str, int]:
    """Ops per class; ``scale`` = 1 is one 100-op unit."""

    def c(base: float) -> int:
        return max(1, int(round(base * scale)))

    counts = {}
    for family in gen.FAMILIES:
        for task in ("simulate", "expectation", "single_amplitude"):
            counts[f"facade.{task}.{family}"] = c(3)
        counts[f"facade.sample.{family}"] = c(1 if family in gen.CLIFFORD_FAMILIES else 4)
    counts["sweep.list"] = c(5)
    counts["sweep.bindings"] = c(5)
    for kind in BUDGET_KINDS:
        counts[f"budget.{kind}"] = c(5 / 3)
    counts["noise.trajectory_default"] = c(4)
    counts["noise.trajectory_pooled"] = c(3)
    counts["noise.dd"] = c(4)
    counts["noise.density"] = c(4)
    return counts


def generate(seed: int, seconds: float) -> List[Dict]:
    rng = np.random.default_rng([seed, 1])
    ops: List[Dict] = []
    for cls, k in _counts(seconds / 10.0).items():
        kind = cls.split(".")[0]
        if kind == "facade":
            _, task, family = cls.split(".")
            sizes = gen.quantile_ints(rng, k, 8, 14)
            fusion = [i % 2 == 0 for i in range(k)]
            rng.shuffle(fusion)
            if task == "sample":
                # Cost grows with shots and register size: the largest
                # shot counts go with the smallest registers.
                sizes.sort(reverse=True)
                shots = gen.log_quantile_ints(k, 100, 2000)
            for i in range(k):
                n = sizes[i]
                op = {"cls": cls, "kind": "facade", "task": task, "family": family,
                      "n": n, "cseed": gen.seeds(rng, 1)[0], "fusion": bool(fusion[i])}
                if task == "sample":
                    op.update(shots=shots[i], seed=gen.seeds(rng, 1)[0])
                elif task == "expectation":
                    op["pauli"] = gen.pauli_string(rng, n)
                elif task == "single_amplitude":
                    op["index"] = int(rng.integers(0, 1 << n))
                ops.append(op)
        elif kind == "sweep":
            families = ("dense", "brickwork", "clifford_t", "qft")
            widths = sorted(gen.quantile_ints(rng, k, 4, 8))
            sizes = sorted(gen.quantile_ints(rng, k, 6, 10), reverse=True)
            for i in range(k):
                ops.append({"cls": cls, "kind": "sweep", "family": families[i % len(families)],
                            "n": sizes[i], "cseeds": gen.seeds(rng, widths[i])})
        elif kind == "budget":
            budget_kind = cls.split(".")[1]
            family, (low, high), tasks, _ = BUDGET_KINDS[budget_kind]
            sizes = gen.quantile_ints(rng, k, low, high)
            shots = gen.log_quantile_ints(k, 100, 2000)
            rng.shuffle(shots)
            for i in range(k):
                task = tasks[i % len(tasks)]
                op = {"cls": cls, "kind": "budget", "budget_kind": budget_kind, "task": task,
                      "family": family, "n": sizes[i], "cseed": gen.seeds(rng, 1)[0]}
                if task == "sample":
                    op.update(shots=shots[i], seed=gen.seeds(rng, 1)[0])
                else:
                    op["pauli"] = gen.pauli_string(rng, sizes[i])
                ops.append(op)
        else:
            engine = cls.split(".")[1]
            low, high, depth, trajectories = NOISE[engine]
            sizes = gen.quantile_ints(rng, k, low, high)
            p1 = gen.stratified(rng, k, 0.01, 0.05)
            gamma = gen.stratified(rng, k, 0.05, 0.2)
            for i in range(k):
                ops.append({"cls": cls, "kind": "noise", "engine": engine, "n": sizes[i],
                            "depth": depth, "cseed": gen.seeds(rng, 1)[0], "p1": p1[i],
                            "gamma": gamma[i], "trajectories": trajectories,
                            "seed": gen.seeds(rng, 1)[0]})
    order = rng.permutation(len(ops))
    return [dict(ops[i], id=position) for position, i in enumerate(order)]


def _noise_model(op):
    from repro.arrays.noise import NoiseModel, amplitude_damping, depolarizing

    return NoiseModel(default_1q=depolarizing(op["p1"]), default_2q=amplitude_damping(op["gamma"]))


def _sweep_circuit(family: str, n: int, cseed: int):
    return gen.circuit(family, n, cseed)


def materialize(op: Dict) -> Dict:
    kind = op["kind"]
    built = dict(op)
    if kind in ("facade", "budget"):
        built["circuit"] = gen.circuit(op["family"], op["n"], op["cseed"])
    elif kind == "sweep":
        built["circuits"] = [gen.circuit(op["family"], op["n"], s) for s in op["cseeds"]]
    else:
        # Brickwork layers have a fixed gate count, so a noise run's cost
        # depends on its size, not on its circuit seed.
        built["circuit"] = gen.circuit("brickwork", op["n"], op["cseed"], depth=op["depth"])
        built["noise_model"] = _noise_model(op)
    return built


def fingerprint(op: Dict):
    if "circuits" in op:
        return [gen.circuit_fingerprint(c) for c in op["circuits"]]
    return gen.circuit_fingerprint(op["circuit"])


def reference(op: Dict):
    if op["kind"] == "sweep":
        return [refsim.statevector(c) for c in op["circuits"]]
    if op["kind"] == "noise":
        rho = refsim.density_matrix(op["circuit"], op["noise_model"])
        return rho if op["engine"] == "density" else np.real(np.diag(rho)).copy()
    return refsim.statevector(op["circuit"])


# -- execution ---------------------------------------------------------------


def _facade(op: Dict, backend: str = "auto", budget=None):
    from repro.core import expectation, sample, simulate, single_amplitude

    extra = {"budget": budget} if budget is not None else {}
    fusion = op.get("fusion", False)
    task, circuit = op["task"], op["circuit"]
    if task == "simulate":
        result = simulate(circuit, backend=backend, fusion=fusion, **extra)
        return result.state, result.metadata
    if task == "sample":
        return sample(circuit, op["shots"], backend=backend, seed=op["seed"],
                      fusion=fusion, with_metadata=True, **extra)
    if task == "expectation":
        return expectation(circuit, op["pauli"], backend=backend, fusion=fusion,
                           with_metadata=True, **extra)
    return single_amplitude(circuit, op["index"], backend=backend, fusion=fusion,
                            with_metadata=True, **extra)


def _budget_spec(op: Dict) -> str:
    return BUDGET_KINDS[op["budget_kind"]][3](op["n"])


def execute(ctx, op: Dict):
    kind = op["kind"]
    if kind == "facade":
        return _facade(op)
    if kind == "budget":
        return _facade(op, budget=_budget_spec(op))
    if kind == "sweep":
        from repro.core import simulate_many

        if op["cls"] == "sweep.bindings":
            factory = functools.partial(_sweep_circuit, op["family"], op["n"])
            return simulate_many(factory, backend="auto", param_bindings=op["cseeds"])
        return simulate_many(op["circuits"], backend="auto")
    return _noise(op)


def _noise(op: Dict):
    engine = op["engine"]
    circuit, model = op["circuit"], op["noise_model"]
    if engine == "density":
        from repro.arrays.density import DensityMatrixSimulator

        return DensityMatrixSimulator(model).run(circuit)
    if engine == "dd":
        from repro.dd.noise_sim import NoisyDDSimulator

        return NoisyDDSimulator(model, seed=op["seed"]).run(circuit, op["trajectories"])
    from repro.arrays.trajectories import TrajectorySimulator

    sim = TrajectorySimulator(model, seed=op["seed"])
    if engine == "trajectory_pooled":
        return sim.run(circuit, op["trajectories"], n_jobs=POOL_JOBS)
    return sim.run(circuit, op["trajectories"])


def served_by(op: Dict, output) -> str:
    if op["kind"] in ("facade", "budget"):
        meta = output[1]
        chain = meta.get("fallback_chain")
        if chain:
            return chain[-1]["backend"]
        return meta.get("auto", {}).get("selected", "?")
    if op["kind"] == "sweep":
        return ",".join(sorted({r.backend for r in output}))
    return op["engine"]


def stat_checks(ops: List[Dict]) -> int:
    """Number of statistical checks one run makes (for the union bound)."""
    return sum(
        1 for op in ops
        if op.get("task") == "sample" or op.get("engine", "density") != "density"
    )


def check(op: Dict, output, ref, num_stat: int) -> Optional[str]:
    kind = op["kind"]
    if kind == "sweep":
        if len(output) != len(ref):
            return f"{len(output)} results for {len(ref)} circuits"
        for result, state in zip(output, ref):
            reason = checks.state(result.state, state)
            if reason:
                return reason
        return None
    if kind == "noise":
        if op["engine"] == "density":
            return checks.density(output.rho, ref)
        return checks.distribution(output.probabilities(), ref, op["trajectories"], num_stat)
    value, _meta = output
    return _check_task(op, value, ref, num_stat)


def _check_task(op: Dict, value, ref, num_stat: int) -> Optional[str]:
    task = op["task"]
    if task == "simulate":
        return checks.state(value, ref)
    if task == "sample":
        return checks.counts(value, op["shots"], refsim.probabilities(ref), num_stat)
    if task == "expectation":
        return checks.value(value, refsim.expectation(ref, op["pauli"]))
    return checks.amplitude(value, ref[op["index"]])


def output_digest_bytes(op: Dict, output) -> bytes:
    if op["kind"] == "sweep":
        return b"".join(gen.value_bytes(r.state) for r in output)
    if op["kind"] == "noise":
        return gen.value_bytes(output.rho if op["engine"] == "density" else output.probabilities())
    return gen.value_bytes(output[0])


def setup(ctx) -> None:
    pass


def teardown(ctx) -> None:
    pass


def pool_workers() -> int:
    return POOL_JOBS


def warmup_op(seed: int) -> Dict:
    rng = np.random.default_rng([seed, 2])
    return materialize({"cls": "warmup", "kind": "facade", "task": "simulate",
                        "family": "dense", "n": 8, "cseed": gen.seeds(rng, 1)[0],
                        "fusion": False, "id": -1})


def composition_extra(ops, outputs) -> Dict:
    tripped = sum(
        1 for op, out in zip(ops, outputs)
        if op["kind"] == "budget" and out is not None
        and (out[1].get("fallback_chain") or [{}])[0].get("status") == "resource_exhausted"
    )
    return {"budget_ops_first_candidate_tripped": tripped,
            "budget_ops": sum(1 for op in ops if op["kind"] == "budget")}


# -- traced run --------------------------------------------------------------


def traced(ctx, ops: List[Dict], refs, latencies: List[float], rec, outputs) -> Dict:
    """Drive the same inputs through each layer's public functions."""
    from repro.compile import fuse_gates
    from repro.core import REGISTRY, SimOptions, analyze, choose_backend
    from repro.core import capabilities as cap

    num_stat = stat_checks(ops)
    per_request = []
    exec_ms: Dict[str, List[float]] = {}
    fusion_ms, fused_ops, input_ops = [], 0, 0
    mps_bonds, fallback_attempts, sweep_ms = [], [], []
    traj_serial, traj_batched, density_ms, dd_noise, chunks = [], [], [], [], []
    mismatches = []
    start = rec.begin("loop")
    for op, ref, latency in zip(ops, refs, latencies):
        with rec.span("op", request=op["id"], cls=op["cls"]):
            if op["kind"] == "facade":
                clean = op["circuit"].without_measurements()
                with rec.span("core.analyze") as s:
                    features = analyze(clean)
                analyze_s = s["end"] - s["start"]
                with rec.span("core.route"):
                    name = choose_backend(clean, task=gen.TASK_CAPABILITY[op["task"]],
                                          features=features).backend
                impl = REGISTRY.get(name)
                with rec.span("compile.fuse") as s:
                    fused = fuse_gates(clean, max_fused_qubits=2)
                fuse_s = s["end"] - s["start"]
                fusion_ms.append(fuse_s * 1e3)
                fused_ops += len(fused.operations)
                input_ops += len(clean.operations)
                used_fusion = op["fusion"] and not impl.supports(cap.CLIFFORD_ONLY)
                prepared = fused if used_fusion else clean
                opts = SimOptions.from_kwargs(seed=op.get("seed", 0), fusion=op["fusion"])
                with rec.span(f"{name}.execute") as s:
                    value, meta = _registry_call(impl, op, prepared, opts)
                execute_s = s["end"] - s["start"]
                exec_ms.setdefault(name, []).append(execute_s * 1e3)
                if name == "mps":
                    mps_bonds.append(meta.get("max_bond_reached", 0))
                overhead = latency - analyze_s - (fuse_s if used_fusion else 0.0) - execute_s
                per_request.append((analyze_s, overhead))
                reason = _check_task(op, value, ref, num_stat)
            elif op["kind"] == "budget":
                with rec.span("core.budgeted"):
                    value, meta = _facade(op, budget=_budget_spec(op))
                fallback_attempts.append(len(meta.get("fallback_chain", [None])))
                reason = _check_task(op, value, ref, num_stat)
            elif op["kind"] == "sweep":
                with rec.span("core.simulate_many") as s:
                    out = execute(ctx, op)
                sweep_ms.append((s["end"] - s["start"]) * 1e3 / len(out))
                reason = check(op, out, ref, num_stat)
            else:
                with rec.span(f"noise.{op['engine']}") as s:
                    out = _noise(op)
                elapsed_ms = (s["end"] - s["start"]) * 1e3
                reason = check(op, out, ref, num_stat)
                engine = op["engine"]
                if engine == "density":
                    density_ms.append(elapsed_ms)
                elif engine == "dd":
                    dd_noise.append(elapsed_ms / op["trajectories"])
                elif engine == "trajectory_pooled":
                    chunks.append(out.metadata.get("chunks", 0))
                else:
                    traj_serial.append(elapsed_ms / op["trajectories"])
                    traj_batched.append(_batched_probe(rec, op))
            if reason:
                mismatches.append({"id": op["id"], "cls": op["cls"], "cause": reason})
    loop_s = rec.end(start)
    total_exec = sum(sum(v) for v in exec_ms.values()) or 1.0
    metrics = {
        "core.analyze_ms": mean([a * 1e3 for a, _ in per_request]),
        "core.dispatch_overhead_ms": percentile([o * 1e3 for _, o in per_request], 50),
        "core.fallback_attempts": mean(fallback_attempts),
        "core.sweep_ms_per_circuit": mean(sweep_ms),
        "compile.fusion_ms": mean(fusion_ms),
        "compile.fusion_ops_ratio": fused_ops / max(input_ops, 1),
        "mps.peak_bond": float(max(mps_bonds, default=0)),
        "arrays.trajectory_ms_serial": mean(traj_serial),
        "arrays.trajectory_ms_batched": mean(traj_batched),
        "arrays.density_ms": mean(density_ms),
        "dd.noise_ms_per_trajectory": mean(dd_noise),
        "parallel.chunks_per_run": mean(chunks),
    }
    for name in ("arrays", "dd", "tn", "mps", "stab"):
        times = exec_ms.get(name, [])
        metrics[f"{name}.execute_ms"] = mean(times)
        metrics[f"{name}.time_share"] = sum(times) / total_exec
    metrics.update(_routing_regret(rec, ops, latencies))
    metrics.update(_dd_replay(rec, ops))
    metrics.update(_stab_probe(rec, ops))
    metrics.update(_tn_probe(rec, ops))
    metrics["parallel.pool_startup_ms"] = _pool_startup(rec)
    metrics["trace_overhead"] = loop_s / ctx.timed_wall
    return {"metrics": metrics, "mismatches": mismatches}


def _registry_call(impl, op, prepared, opts):
    task = op["task"]
    if task == "simulate":
        return impl.statevector(prepared, opts)
    if task == "sample":
        return impl.sample(prepared, op["shots"], opts)
    if task == "expectation":
        return impl.expectation(prepared, op["pauli"], opts)
    return impl.amplitude(prepared, op["index"], opts)


def _batched_probe(rec, op) -> float:
    from repro.arrays.batched import trajectory_chunk_probabilities

    with rec.span("arrays.trajectory_batched") as s:
        trajectory_chunk_probabilities(
            op["circuit"], op["noise_model"], op["trajectories"],
            np.random.SeedSequence(op["seed"]), None,
        )
    return (s["end"] - s["start"]) * 1e3 / op["trajectories"]


def _routing_regret(rec, ops, latencies) -> Dict[str, float]:
    """Per request class: auto's time / fastest capable fixed backend.

    Each fixed backend runs under ``REGRET_BUDGET``; one that trips it
    (its request then falls back) counts as "not fastest", not as a
    failure.  The class representative is its cheapest request.
    """
    from repro.core import REGISTRY, ResourceExhausted, analyze
    from repro.core import capabilities as cap

    chosen: Dict[str, tuple] = {}
    for op, latency in zip(ops, latencies):
        if op["kind"] != "facade":
            continue
        key = (op.get("shots", 0), op["n"])
        if op["cls"] not in chosen or key < chosen[op["cls"]][0]:
            chosen[op["cls"]] = (key, op, latency)
    regrets = {}
    for cls, (_, op, auto_s) in sorted(chosen.items()):
        features = analyze(op["circuit"].without_measurements())
        best = None
        for name in REGISTRY.supporting(gen.TASK_CAPABILITY[op["task"]]):
            if REGISTRY.get(name).supports(cap.CLIFFORD_ONLY) and not features.is_clifford:
                continue
            with rec.span("regret.fixed", request=op["id"], backend=name) as s:
                try:
                    _, meta = _facade(op, backend=name, budget=REGRET_BUDGET)
                    tripped = bool(meta.get("fallback_chain"))
                except ResourceExhausted:
                    tripped = True
            elapsed = s["end"] - s["start"]
            if not tripped and (best is None or elapsed < best):
                best = elapsed
        if best:
            regrets[cls] = auto_s / best
    values = list(regrets.values())
    return {"core.routing_regret": geomean(values),
            "core.routing_regret_max": max(values, default=0.0)}


def _dd_replay(rec, ops) -> Dict[str, float]:
    """Gate-by-gate replay of the DD-routed requests on an owned package."""
    from repro.dd.package import DDPackage

    build, multiply, nodes_per_gate = [], [], []
    hits = misses = 0
    for op in ops:
        if op["kind"] != "facade" or op["family"] != "clifford_t":
            continue
        circuit = op["circuit"].without_measurements()
        n = circuit.num_qubits
        package = DDPackage()
        state = package.zero_state_edge(n)
        with rec.span("dd.replay", request=op["id"]):
            for gate in circuit.operations:
                t0 = rec_clock()
                matrix = package.gate_edge(gate, n)
                t1 = rec_clock()
                state = package.mv_multiply(matrix, state)
                t2 = rec_clock()
                build.append(t1 - t0)
                multiply.append(t2 - t1)
        stats = package.cache_stats()["mv"]
        hits += stats["hits"]
        misses += stats["misses"]
        nodes_per_gate.append(package.unique_table_stats()["entries"] / max(len(circuit.operations), 1))
    return {
        "dd.gate_build_us": mean(build) * 1e6,
        "dd.mv_multiply_us": mean(multiply) * 1e6,
        "dd.nodes_per_gate": mean(nodes_per_gate),
        "dd.mv_hit_rate": hits / max(hits + misses, 1),
    }


def _stab_probe(rec, ops) -> Dict[str, float]:
    from repro.stab.tableau import StabilizerSimulator

    per_shot, to_sv = [], []
    for op in ops:
        if op["kind"] != "facade" or op["family"] not in gen.CLIFFORD_FAMILIES:
            continue
        sim = StabilizerSimulator(seed=0)
        tableau, _ = sim.run(op["circuit"].without_measurements())
        if op["task"] == "sample":
            shots = 50
            with rec.span("stab.sample", request=op["id"]) as s:
                sim.sample_counts_from(tableau, shots, seed=op["seed"])
            per_shot.append((s["end"] - s["start"]) * 1e6 / shots)
        elif op["task"] == "simulate":
            with rec.span("stab.to_statevector", request=op["id"]) as s:
                tableau.to_statevector()
            to_sv.append((s["end"] - s["start"]) * 1e3)
    return {"stab.sample_us_per_shot": mean(per_shot), "stab.to_statevector_ms": mean(to_sv)}


def _tn_probe(rec, ops) -> Dict[str, float]:
    from repro.tn import greedy_plan
    from repro.tn.circuit_tn import amplitude_network

    plan_ms, contract_ms = [], []
    for op in ops:
        if op["kind"] != "facade" or op["task"] != "single_amplitude" or op["family"] != "brickwork":
            continue
        network = amplitude_network(op["circuit"].without_measurements(), op["index"])
        with rec.span("tn.plan", request=op["id"]) as s:
            plan = greedy_plan(network)
        plan_ms.append((s["end"] - s["start"]) * 1e3)
        with rec.span("tn.contract", request=op["id"]) as s:
            network.contract_all(plan)
        contract_ms.append((s["end"] - s["start"]) * 1e3)
    return {"tn.plan_ms": mean(plan_ms), "tn.contract_ms": mean(contract_ms)}


def _pool_startup(rec) -> float:
    from repro.parallel import ProcessPool

    with rec.span("parallel.pool_startup") as s:
        with ProcessPool(POOL_JOBS) as pool:
            pool.map(abs, [-1])
    return (s["end"] - s["start"]) * 1e3
