"""Metric names, units, and what each per-layer metric should move.

``moves`` names the end-to-end metric and workload a change to that
layer should show up in; the traced run prints it beside every value.
A traced run reports every per-layer metric: a layer the workload does
not drive reads 0.
"""

LM, CV, CR = "library_mix", "compile_verify", "cluster_replay"

END_TO_END = {
    "setup_s": {"unit": "s"},
    "ops_per_s": {"unit": "1/s"},
    "latency_p50_ms": {"unit": "ms"},
    "latency_p90_ms": {"unit": "ms"},
    "success_rate": {"unit": "ratio"},
    "peak_rss_mb": {"unit": "MiB"},
    "compiled_2q_ratio": {"unit": "ratio"},
}


def _layer(unit, moves):
    return {"unit": unit, "moves": moves}


PER_LAYER = {
    "core.analyze_ms": _layer("ms", f"latency_p50_ms@{LM}, latency_p90_ms@{CR}"),
    "core.dispatch_overhead_ms": _layer("ms", f"latency_p50_ms@{LM}, latency_p90_ms@{CR}"),
    "core.routing_regret": _layer("ratio", f"ops_per_s@{LM}, latency_p90_ms@{LM}"),
    "core.routing_regret_max": _layer("ratio", f"ops_per_s@{LM}, latency_p90_ms@{LM}"),
    "core.fallback_attempts": _layer("count", f"latency_p90_ms@{LM}"),
    "core.sweep_ms_per_circuit": _layer("ms", f"latency_p50_ms@{LM}"),
    "core.cold_execute_ms": _layer("ms", f"latency_p90_ms@{CR}"),
    "compile.fusion_ms": _layer("ms", f"latency_p50_ms@{LM}"),
    "compile.fusion_ops_ratio": _layer("ratio", f"latency_p50_ms@{LM}"),
    "arrays.execute_ms": _layer("ms", f"ops_per_s@{LM}"),
    "dd.execute_ms": _layer("ms", f"ops_per_s@{LM}"),
    "tn.execute_ms": _layer("ms", f"ops_per_s@{LM}"),
    "mps.execute_ms": _layer("ms", f"ops_per_s@{LM}"),
    "stab.execute_ms": _layer("ms", f"ops_per_s@{LM}"),
    "arrays.time_share": _layer("ratio", f"ops_per_s@{LM}"),
    "dd.time_share": _layer("ratio", f"ops_per_s@{LM}"),
    "tn.time_share": _layer("ratio", f"ops_per_s@{LM}"),
    "mps.time_share": _layer("ratio", f"ops_per_s@{LM}"),
    "stab.time_share": _layer("ratio", f"ops_per_s@{LM}"),
    "stab.sample_us_per_shot": _layer("us", f"ops_per_s@{LM}, latency_p90_ms@{LM}"),
    "stab.to_statevector_ms": _layer("ms", f"ops_per_s@{LM}, latency_p90_ms@{LM}"),
    "dd.gate_build_us": _layer("us", f"ops_per_s@{LM}"),
    "dd.mv_multiply_us": _layer("us", f"ops_per_s@{LM}"),
    "dd.nodes_per_gate": _layer("count", f"ops_per_s@{LM}"),
    "dd.mv_hit_rate": _layer("ratio", f"ops_per_s@{LM}"),
    "dd.noise_ms_per_trajectory": _layer("ms", f"ops_per_s@{LM}"),
    "tn.plan_ms": _layer("ms", f"latency_p50_ms@{LM}"),
    "tn.contract_ms": _layer("ms", f"latency_p50_ms@{LM}"),
    "mps.peak_bond": _layer("count", f"latency_p50_ms@{LM}"),
    "arrays.trajectory_ms_serial": _layer("ms", f"ops_per_s@{LM}, latency_p90_ms@{LM}"),
    "arrays.trajectory_ms_batched": _layer("ms", f"ops_per_s@{LM}, latency_p90_ms@{LM}"),
    "arrays.density_ms": _layer("ms", f"ops_per_s@{LM}, latency_p90_ms@{LM}"),
    "parallel.pool_startup_ms": _layer("ms", f"latency_p90_ms@{LM}"),
    "parallel.chunks_per_run": _layer("count", f"latency_p90_ms@{LM}"),
    "compile.level1_ms": _layer("ms", f"latency_p50_ms@{CV}, ops_per_s@{CV}"),
    "compile.level3_ms": _layer("ms", f"latency_p50_ms@{CV}, ops_per_s@{CV}"),
    "compile.pass_share.zx": _layer("ratio", f"latency_p50_ms@{CV}, ops_per_s@{CV}"),
    "compile.pass_share.peephole": _layer("ratio", f"latency_p50_ms@{CV}, ops_per_s@{CV}"),
    "compile.pass_share.lower": _layer("ratio", f"latency_p50_ms@{CV}, ops_per_s@{CV}"),
    "compile.pass_share.resynth": _layer("ratio", f"latency_p50_ms@{CV}, ops_per_s@{CV}"),
    "compile.pass_share.layout": _layer("ratio", f"latency_p50_ms@{CV}, ops_per_s@{CV}"),
    "compile.pass_share.route": _layer("ratio", f"latency_p50_ms@{CV}, ops_per_s@{CV}"),
    "compile.output_2q_gates": _layer("count", f"compiled_2q_ratio@{CV}"),
    "compile.swaps": _layer("count", f"compiled_2q_ratio@{CV}"),
    "verify.auto_ms": _layer("ms", f"latency_p90_ms@{CV}"),
    "verify.dd_ms": _layer("ms", f"latency_p90_ms@{CV}"),
    "verify.zx_ms": _layer("ms", f"latency_p90_ms@{CV}"),
    "verify.stab_ms": _layer("ms", f"latency_p90_ms@{CV}"),
    "verify.zx_inconclusive_rate": _layer("ratio", f"latency_p90_ms@{CV}"),
    "verify.routing_regret": _layer("ratio", f"latency_p90_ms@{CV}"),
    "dd.mm_calls": _layer("count", f"latency_p90_ms@{CV}"),
    "dd.mm_hit_rate": _layer("ratio", f"latency_p90_ms@{CV}"),
    "dd.peak_nodes": _layer("count", f"latency_p90_ms@{CV}"),
    "dd.unique_entries": _layer("count", f"latency_p90_ms@{CV}"),
    "service.request_key_us": _layer("us", f"latency_p50_ms@{CR}"),
    "service.job_json_us": _layer("us", f"latency_p50_ms@{CR}"),
    "service.cache_get_memory_us": _layer("us", f"latency_p50_ms@{CR}"),
    "service.cache_get_disk_us": _layer("us", f"latency_p50_ms@{CR}"),
    "service.cache_put_us": _layer("us", f"latency_p90_ms@{CR}"),
    "service.hit_rate": _layer("ratio", f"latency_p50_ms@{CR}, ops_per_s@{CR}"),
    "service.inprocess_p50_ms": _layer("ms", f"latency_p50_ms@{CR}, ops_per_s@{CR}"),
    "wire.encode_us": _layer("us", f"latency_p50_ms@{CR}"),
    "wire.decode_us": _layer("us", f"latency_p50_ms@{CR}"),
    "wire.response_kib_p50": _layer("KiB", f"latency_p50_ms@{CR}"),
    "wire.response_kib_p90": _layer("KiB", f"latency_p50_ms@{CR}"),
    "cluster.rpc_overhead_ms": _layer("ms", f"latency_p50_ms@{CR}, success_rate@{CR}"),
    "cluster.affinity_rate": _layer("ratio", f"latency_p50_ms@{CR}, success_rate@{CR}"),
    "cluster.retries": _layer("count", f"success_rate@{CR} (0 when healthy)"),
    "cluster.failovers": _layer("count", f"success_rate@{CR} (0 when healthy)"),
    "cluster.local_fallbacks": _layer("count", f"success_rate@{CR} (0 when healthy)"),
    "trace_overhead": _layer("ratio", "nothing: traced wall / untraced wall"),
}
