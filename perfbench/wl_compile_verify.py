"""``compile_verify``: the paper's other two design tasks.

One client, one op at a time (closed loop).  Compile ops run
``compile_circuit`` at levels 1 and 3, unrouted and on line and 2 x k
grid coupling maps; verify ops run ``check_equivalence`` with
``method="auto"`` and ``method="dd"`` on pairs, half of them equivalent
(the input against its unrouted level-1 compile), half with one injected
gate.  The time goes to compile passes, ZX rewriting and DD matrix-matrix
multiplication, which ``library_mix`` barely touches.

Level 3 is costly (0.1-7 s per circuit here), so it runs on the cheaper
families at 4-6 qubits; Grover runs at 3 and at 4 qubits as separate
classes because ``auto`` verification costs 20x more at 4.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

import checks
import gen
import refsim
from common import geomean, mean

UNIT_SECONDS = 10.0
SIZES = {"qft": (4, 6), "grover3": (3, 3), "grover4": (4, 4), "adder": (4, 6), "qv": (4, 6),
         "clifford_t_dense": (4, 6), "qaoa": (4, 6), "clifford": (4, 6)}
CHEAP = ("qft", "grover3", "adder", "clifford_t_dense", "qaoa", "clifford")
LEVEL3 = {"qft": (4, 5), "adder": (4, 6), "clifford_t_dense": (4, 4), "qaoa": (4, 4),
          "clifford": (4, 4)}
LEVEL3_ROUTED = ("clifford_t_dense", "qaoa", "clifford")
MAPS = ("none", "line", "grid")
CHECKERS = ("dd", "zx", "stab", "arrays")
REGRET_BUDGET = "memory=64MiB,nodes=20000"
INJECT = ("x", "z", "h", "s", "cx")


def _classes() -> Dict[str, Dict]:
    """Class name -> spec; ``count`` is the class's ops per ``UNIT_SECONDS``."""
    classes = {}
    for family in CHEAP + ("qv",):
        for cmap in MAPS:
            count = 2 if family in CHEAP else 1
            classes[f"compile.l1.{cmap}.{family}"] = {"count": count, "level": 1, "map": cmap,
                                                     "family": family, "sizes": SIZES[family]}
    classes["compile.l1.none.grover4"] = {"count": 1, "level": 1, "map": "none",
                                          "family": "grover4", "sizes": SIZES["grover4"]}
    for family, sizes in LEVEL3.items():
        maps = MAPS if family in LEVEL3_ROUTED else ("none",)
        for cmap in maps:
            classes[f"compile.l3.{cmap}.{family}"] = {"count": 1, "level": 3, "map": cmap,
                                                     "family": family, "sizes": sizes}
    for family in CHEAP:
        for method in ("auto", "dd"):
            for equivalent in (True, False):
                tag = "eq" if equivalent else "neq"
                classes[f"verify.{method}.{tag}.{family}"] = {
                    "count": 2, "method": method, "equivalent": equivalent,
                    "family": family, "sizes": SIZES[family]}
    # The two costly families get one op per method; which pair is the
    # equivalent one is fixed so every seed carries the same work.  ``auto``
    # on a non-equivalent quantum-volume pair costs 0.4-4 s depending on the
    # circuit (ZX gets stuck, then DD runs), so ``auto`` gets its equivalent
    # pair; at 5-6 qubits the DD check of a non-equivalent pair grows the
    # process by 20-60 MiB depending on the circuit, so both run at 4.
    for family, eq_method in (("qv", "auto"), ("grover4", "auto")):
        for method in ("auto", "dd"):
            tag = "eq" if method == eq_method else "neq"
            classes[f"verify.{method}.{tag}.{family}"] = {
                "count": 1, "method": method, "equivalent": method == eq_method,
                "family": family, "sizes": (4, 4)}
    return classes


def generate(seed: int, seconds: float) -> List[Dict]:
    rng = np.random.default_rng([seed, 3])
    scale = seconds / UNIT_SECONDS
    ops = []
    for cls, spec in _classes().items():
        k = max(1, int(round(spec["count"] * scale)))
        low, high = spec["sizes"]
        sizes = gen.quantile_ints(rng, k, low, high)
        for i in range(k):
            n = sizes[i]
            if spec["family"] == "adder":
                n = 4 if n < 5 else 6
            op = {"cls": cls, "family": spec["family"], "n": n, "cseed": gen.seeds(rng, 1)[0]}
            if "level" in spec:
                op.update(kind="compile", level=spec["level"], map=spec["map"],
                          route_seed=int(rng.integers(0, 1000)))
            else:
                op.update(kind="verify", method=spec["method"], equivalent=spec["equivalent"],
                          inject=_injection(rng, n))
            ops.append(op)
    order = rng.permutation(len(ops))
    return [dict(ops[i], id=position) for position, i in enumerate(order)]


def _injection(rng, n: int) -> Dict:
    gate = INJECT[int(rng.integers(0, len(INJECT)))]
    qubits = [int(q) for q in rng.choice(n, size=2, replace=False)]
    return {"gate": gate, "qubits": qubits, "position": float(rng.random())}


def _family_circuit(op):
    family = op["family"]
    if family.startswith("grover"):
        family = "grover"
    return gen.circuit(family, op["n"], op["cseed"])


def _coupling(name: str, n: int):
    from repro.compile import coupling

    if name == "line":
        return coupling.line(n)
    if name == "grid":
        return coupling.grid(2, (n + 1) // 2)
    return None


def _injected(circuit, inject: Dict):
    from repro.circuits.circuit import QuantumCircuit

    out = QuantumCircuit(circuit.num_qubits, name=circuit.name + "_injected")
    position = int(inject["position"] * (len(circuit.operations) + 1))
    for index, op in enumerate(circuit.operations):
        if index == position:
            _append_gate(out, inject)
        out.append(op)
    if position >= len(circuit.operations):
        _append_gate(out, inject)
    return out


def _append_gate(qc, inject: Dict) -> None:
    a, b = inject["qubits"]
    if inject["gate"] == "cx":
        qc.cx(a, b)
    else:
        getattr(qc, inject["gate"])(a)


def materialize(op: Dict) -> Dict:
    from repro.compile import compile_circuit

    built = dict(op, circuit=_family_circuit(op))
    if op["kind"] == "compile":
        built["coupling"] = _coupling(op["map"], op["n"])
    else:
        partner = compile_circuit(built["circuit"], optimization_level=1).circuit
        if not op["equivalent"]:
            partner = _injected(partner, op["inject"])
        built["partner"] = partner
    return built


def fingerprint(op: Dict):
    parts = [gen.circuit_fingerprint(op["circuit"])]
    if "partner" in op:
        parts.append(gen.circuit_fingerprint(op["partner"]))
    return parts


def reference(op: Dict):
    if op["kind"] == "compile":
        return None
    u = refsim.unitary(op["circuit"])
    v = refsim.unitary(op["partner"])
    return checks.state(v.reshape(-1), u.reshape(-1)) is None


def execute(ctx, op: Dict):
    if op["kind"] == "compile":
        from repro.compile import compile_circuit

        return compile_circuit(op["circuit"], coupling=op["coupling"],
                               optimization_level=op["level"], seed=op["route_seed"])
    from repro.verify import check_equivalence

    return check_equivalence(op["circuit"], op["partner"], method=op["method"])


def check(op: Dict, output, ref, num_stat: int) -> Optional[str]:
    if op["kind"] == "compile":
        return checks.compiled(op["circuit"], output, op["coupling"], tol=_compile_tol(op))
    return checks.verdict(output, ref)


def _compile_tol(op: Dict) -> float:
    # tests/test_resynth.py holds resynthesized circuits to 1e-6 and the
    # level 0-2 presets to 1e-7 (tests/test_compiler.py).
    return 1e-6 if op["level"] >= 3 else checks.TOL


def stat_checks(ops) -> int:
    return 0


def served_by(op: Dict, output) -> str:
    if op["kind"] == "compile":
        return f"level{op['level']}"
    return op["method"]


def output_digest_bytes(op: Dict, output) -> bytes:
    return gen.value_bytes(gen.circuit_fingerprint(output.circuit) if op["kind"] == "compile" else output)


def composition_extra(ops, outputs) -> Dict:
    inputs = outputs_2q = 0
    for op, out in zip(ops, outputs):
        if op["kind"] == "compile" and out is not None:
            inputs += checks.two_qubit_count(op["circuit"])
            outputs_2q += checks.two_qubit_count(out.circuit)
    return {"compiled_2q_ratio": outputs_2q / max(inputs, 1),
            "compile_input_2q": inputs, "compile_output_2q": outputs_2q}


def setup(ctx) -> None:
    pass


def teardown(ctx) -> None:
    pass


def pool_workers() -> int:
    return 0


def warmup_op(seed: int) -> Dict:
    op = {"cls": "warmup", "kind": "compile", "family": "qft", "n": 4, "cseed": 0,
          "level": 1, "map": "line", "route_seed": seed % 1000, "id": -1}
    return materialize(op)


# -- traced run --------------------------------------------------------------

PASS_GROUPS = {
    "ZXOptimize": "zx", "DecomposeToBasis": "lower", "ChooseLayout": "layout", "Route": "route",
    "Collapse1qRuns": "resynth", "Resynth2qBlocks": "resynth",
}


def _pass_group(name: str) -> Optional[str]:
    if name in PASS_GROUPS:
        return PASS_GROUPS[name]
    if name.startswith(("Size", "RemoveIdentities", "CancelInverses", "MergeRotations",
                        "CommutativeCancellation", "FixedPoint")):
        return "peephole"
    return None


def traced(ctx, ops, refs, latencies, rec, outputs) -> Dict:
    """Each op again, through the layer functions, with spans.

    Pairs verified with ``auto`` also run every checker directly under
    ``REGRET_BUDGET`` (their times give ``verify.*_ms`` and the regret);
    pairs verified with ``dd`` run on a package the benchmark owns, for
    the DD counters, and once more for the alternating scheme's peak size.
    """
    from repro.compile import compile_circuit
    from repro.dd.package import DDPackage
    from repro.verify import check_equivalence
    from repro.verify.dd_check import peak_nodes_alternating

    level_ms = {1: [], 3: []}
    pass_time = {group: 0.0 for group in ("zx", "peephole", "lower", "resynth", "layout", "route")}
    pass_total = 0.0
    out_2q, swaps = [], []
    checker_ms = {name: [] for name in ("auto", "dd", "zx", "stab")}
    zx_inconclusive = zx_runs = 0
    mm_calls = mm_hits = dd_pairs = 0
    unique, peaks, regrets = [], [], []
    mismatches = []
    start = rec.begin("loop")
    for op, ref in zip(ops, refs):
        with rec.span("op", request=op["id"], cls=op["cls"]):
            if op["kind"] == "compile":
                with rec.span(f"compile.level{op['level']}") as s:
                    result = compile_circuit(op["circuit"], coupling=op["coupling"],
                                             optimization_level=op["level"], seed=op["route_seed"])
                level_ms[op["level"]].append((s["end"] - s["start"]) * 1e3)
                for record in result.stats["passes"]:
                    elapsed = record.get("elapsed_s", 0.0)  # skipped passes have none
                    group = _pass_group(record["pass"])
                    pass_total += elapsed
                    if group:
                        pass_time[group] += elapsed
                out_2q.append(result.stats["output_two_qubit"])
                swaps.append(result.stats["swaps"])
                reason = check(op, result, ref, 0)
            elif op["method"] == "auto":
                a, b = op["circuit"], op["partner"]
                with rec.span("verify.auto") as s:
                    verdict = check_equivalence(a, b, method="auto")
                auto_s = s["end"] - s["start"]
                checker_ms["auto"].append(auto_s * 1e3)
                reason = checks.verdict(verdict, ref)
                best = None
                for method in CHECKERS:
                    elapsed, found = _budgeted_check(rec, a, b, method)
                    if method in checker_ms:
                        checker_ms[method].append(elapsed * 1e3)
                    if method == "zx":
                        zx_runs += 1
                        zx_inconclusive += found is None
                    if found is not None:
                        reason = reason or checks.verdict(found, ref)
                        best = elapsed if best is None else min(best, elapsed)
                if best:
                    regrets.append(auto_s / best)
            else:
                a, b = op["circuit"], op["partner"]
                package = DDPackage()
                with rec.span("verify.dd_owned_package"):
                    verdict = check_equivalence(a, b, method="dd", package=package)
                reason = checks.verdict(verdict, ref)
                stats = package.cache_stats()["mm"]
                mm_calls += stats["hits"] + stats["misses"]
                mm_hits += stats["hits"]
                dd_pairs += 1
                unique.append(package.unique_table_stats()["entries"])
                with rec.span("dd.peak_nodes"):
                    peaks.append(peak_nodes_alternating(a, b)[1])
            if reason:
                mismatches.append({"id": op["id"], "cls": op["cls"], "cause": reason})
    loop_s = rec.end(start)
    metrics = {
        "compile.level1_ms": mean(level_ms[1]),
        "compile.level3_ms": mean(level_ms[3]),
        "compile.output_2q_gates": mean(out_2q),
        "compile.swaps": mean(swaps),
        "verify.zx_inconclusive_rate": zx_inconclusive / max(zx_runs, 1),
        "verify.routing_regret": geomean(regrets),
        "dd.mm_calls": mm_calls / max(dd_pairs, 1),
        "dd.mm_hit_rate": mm_hits / max(mm_calls, 1),
        "dd.peak_nodes": mean(peaks),
        "dd.unique_entries": mean(unique),
    }
    for group, seconds in pass_time.items():
        metrics[f"compile.pass_share.{group}"] = seconds / max(pass_total, 1e-12)
    for method, values in checker_ms.items():
        metrics[f"verify.{method}_ms"] = mean(values)
    metrics["trace_overhead"] = loop_s / ctx.timed_wall
    return {"metrics": metrics, "mismatches": mismatches}


def _budgeted_check(rec, a, b, method: str):
    """One checker under ``REGRET_BUDGET``: (seconds, verdict or None).

    A checker that trips its budget is inconclusive ("not fastest"), not a
    failure.
    """
    from repro.core import ResourceExhausted
    from repro.verify import check_equivalence

    with rec.span(f"verify.{method}") as s:
        try:
            verdict = check_equivalence(a, b, method=method, budget=REGRET_BUDGET)
        except ResourceExhausted:
            verdict = None
    return s["end"] - s["start"], verdict
