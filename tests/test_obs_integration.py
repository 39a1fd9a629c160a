"""End-to-end observability: reports, metrics, fallback audits, progress.

The acceptance bar for the tracing layer:

- ``simulate(..., trace=True)`` returns a ``metadata["report"]`` whose
  span tree shows the dispatcher skeleton (analyze -> fuse -> execute,
  one ``dispatch.attempt`` per fallback attempt) and whose metric
  snapshot carries at least one backend-internal quantity per backend;
- ``metadata["wall_time_s"]`` *is* the root span's duration — one clock;
- every ``fallback_chain`` entry has a matching ``dispatch.attempt``
  span, including through ``simulate_many`` and worker processes;
- ``progress=callback`` streams monotonic events from gate loops,
  trajectory chunks (worker counts surface in the parent), sweeps, and
  stimuli checks — and a raising callback cancels the run cleanly;
- with tracing off, nothing changes: no report key, no metric writes.
"""

import multiprocessing as mp
import threading

import pytest

from repro.circuits import library, random_circuits
from repro.core import ResourceExhausted, simulate, simulate_many
from repro.obs import CancelledError, trace_session
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.arrays.noise import NoiseModel
from repro.arrays.trajectories import TrajectorySimulator
from repro.dd.noise_sim import NoisyDDSimulator
from repro.verify.tn_check import check_equivalence_random_stimuli


@pytest.fixture
def untraced(monkeypatch):
    """Force tracing off (the suite may run under REPRO_TRACE=1)."""
    monkeypatch.delenv(obs_trace.TRACE_ENV_VAR, raising=False)
    previous = obs_trace.set_enabled(False)
    yield
    obs_trace.set_enabled(previous)


def _span_names(report):
    return [span["name"] for span in report["spans"]]


def _attempts(report):
    return [s for s in report["spans"] if s["name"] == "dispatch.attempt"]


class TestTracedReports:
    def test_report_has_dispatch_skeleton(self):
        result = simulate(library.qft(5), backend="auto", trace=True)
        report = result.metadata["report"]
        names = _span_names(report)
        for expected in ("dispatch", "analyze", "dispatch.attempt", "execute"):
            assert expected in names
        (root,) = [s for s in report["spans"] if s["name"] == "dispatch"]
        assert root["parent_id"] is None
        assert root["status"] == "ok"
        # analyze and the attempt are children of the dispatch root.
        children = {
            s["name"] for s in report["spans"] if s["parent_id"] == root["span_id"]
        }
        assert {"analyze", "dispatch.attempt"} <= children

    def test_fuse_and_execute_nest_under_attempt(self):
        result = simulate(library.qft(5), backend="arrays", trace=True)
        report = result.metadata["report"]
        (attempt,) = _attempts(report)
        inner = {
            s["name"]
            for s in report["spans"]
            if s["parent_id"] == attempt["span_id"]
        }
        assert {"fuse", "execute"} <= inner
        assert attempt["attributes"]["backend"] == "arrays"

    def test_wall_time_is_exactly_the_root_span_duration(self):
        # Satellite: the dispatcher's ad-hoc perf_counter() call sites are
        # gone; the reported wall time IS the root span on the span clock.
        result = simulate(library.qft(4), backend="dd", trace=True)
        report = result.metadata["report"]
        (root,) = [s for s in report["spans"] if s["name"] == "dispatch"]
        assert result.metadata["wall_time_s"] == root["duration_s"]

    def test_untraced_run_is_inert(self, untraced):
        before = obs_metrics.DEFAULT_REGISTRY.snapshot()
        result = simulate(library.qft(4), backend="dd")
        assert "report" not in result.metadata
        assert not obs_trace.enabled()
        assert obs_metrics.DEFAULT_REGISTRY.snapshot() == before
        assert result.metadata["wall_time_s"] > 0  # timing still works

    def test_trace_env_variable_enables_by_default(self, monkeypatch):
        monkeypatch.setenv(obs_trace.TRACE_ENV_VAR, "1")
        result = simulate(library.bell_pair(), backend="arrays")
        assert "report" in result.metadata
        monkeypatch.setenv(obs_trace.TRACE_ENV_VAR, "0")
        result = simulate(library.bell_pair(), backend="arrays")
        assert "report" not in result.metadata

    def test_explicit_trace_false_beats_env(self, monkeypatch):
        monkeypatch.setenv(obs_trace.TRACE_ENV_VAR, "1")
        result = simulate(library.bell_pair(), backend="arrays", trace=False)
        assert "report" not in result.metadata

    def test_trace_flag_restored_after_run(self, untraced):
        simulate(library.bell_pair(), backend="arrays", trace=True)
        assert not obs_trace.enabled()

    def test_simulate_many_each_result_carries_report(self):
        circuits = [library.qft(3), library.ghz_state(4), library.bell_pair()]
        results = simulate_many(circuits, backend="auto", trace=True)
        for result in results:
            report = result.metadata["report"]
            assert "dispatch" in _span_names(report)
            assert result.metadata["wall_time_s"] > 0


class TestBackendMetrics:
    """Each backend surfaces at least one internal metric in the report."""

    def _gauges_and_counters(self, result):
        metrics = result.metadata["report"]["metrics"]
        return {**metrics["counters"], **metrics["gauges"]}

    def test_arrays(self):
        result = simulate(library.qft(4), backend="arrays", trace=True)
        values = self._gauges_and_counters(result)
        assert values["arrays.gate.count"] > 0
        assert values["arrays.state.bytes"] == 16 * 2**4

    def test_dd_unique_table_and_caches(self):
        result = simulate(library.qft(4), backend="dd", trace=True)
        values = self._gauges_and_counters(result)
        # Satellite: DDPackage.cache_stats() / unique-table stats surface.
        assert values["dd.unique_table.size"] > 0
        assert values["dd.unique_table.miss"] > 0
        assert "dd.unique_table.hit" in values
        assert any(name.startswith("dd.cache.") for name in values)

    def test_mps_peak_bond(self):
        result = simulate(library.ghz_state(6), backend="mps", trace=True)
        values = self._gauges_and_counters(result)
        # Satellite: the MPS peak bond dimension appears in the report.
        assert values["mps.max_bond"] == 2  # GHZ needs exactly bond 2

    def test_tn_plan_cost(self):
        result = simulate(library.qft(4), backend="tn", trace=True)
        values = self._gauges_and_counters(result)
        # Satellite: the planner's contraction_cost estimate surfaces.
        assert values["tn.plan.peak_cost"] > 0
        assert values["tn.plan.flops"] > 0
        assert values["tn.network.tensors"] > 0
        names = _span_names(result.metadata["report"])
        assert "tn.contract" in names
        assert any(name.startswith("tn.plan.") for name in names)

    def test_stab(self):
        circuit = random_circuits.random_clifford_circuit(5, 30, seed=3)
        result = simulate(circuit, backend="stab", trace=True)
        values = self._gauges_and_counters(result)
        assert values["stab.tableau_rows"] == 10

    def test_zx_rewrite_rounds(self):
        from repro.zx import circuit_to_zx
        from repro.zx.simplify import full_reduce

        with trace_session(True) as session:
            diagram = circuit_to_zx(library.qft(4))
            total = full_reduce(diagram)
            report = session.report()
        assert total > 0
        names = _span_names(report)
        assert "zx.full_reduce" in names
        assert "zx.simplify.round" in names
        assert report["metrics"]["counters"]["zx.rewrites"] == int(total)
        assert report["metrics"]["gauges"]["zx.simplify.rounds"] >= 1


class TestFallbackAudit:
    """Satellite: one dispatch.attempt span per fallback_chain entry."""

    def _assert_chain_matches_spans(self, chain, report):
        attempts = _attempts(report)
        assert len(attempts) == len(chain)
        for entry, attempt in zip(chain, attempts):
            assert attempt["attributes"]["backend"] == entry["backend"]
            if entry["status"] == "resource_exhausted":
                assert attempt["status"] == "resource_exhausted"
                assert (
                    attempt["attributes"]["error"] == entry["error"]
                )
            else:
                assert attempt["status"] == "ok"

    def test_budget_trip_produces_matching_attempt_spans(self):
        result = simulate(
            library.qft(4),
            backend="dd",
            budget={"max_dd_nodes": 2},
            trace=True,
        )
        chain = result.metadata["fallback_chain"]
        assert chain[0]["backend"] == "dd"
        assert chain[0]["status"] == "resource_exhausted"
        assert chain[-1]["status"] == "ok"
        report = result.metadata["report"]
        self._assert_chain_matches_spans(chain, report)
        fallbacks = report["metrics"]["counters"]["dispatch.fallback.count"]
        assert fallbacks == len(chain) - 1

    def test_exhausted_everything_report_rides_the_exception(self):
        with pytest.raises(ResourceExhausted) as info:
            simulate(
                library.qft(4),
                backend="arrays",
                budget={"max_memory_bytes": 16},
                trace=True,
            )
        chain = info.value.fallback_chain
        assert all(e["status"] == "resource_exhausted" for e in chain)
        report = info.value.report
        self._assert_chain_matches_spans(chain, report)
        (root,) = [s for s in report["spans"] if s["name"] == "dispatch"]
        assert root["status"] == "resource_exhausted"

    def test_chain_elapsed_matches_attempt_spans(self):
        result = simulate(
            library.qft(4),
            backend="dd",
            budget={"max_dd_nodes": 2},
            trace=True,
        )
        chain = result.metadata["fallback_chain"]
        attempts = _attempts(result.metadata["report"])
        for entry, attempt in zip(chain, attempts):
            assert entry["elapsed_s"] == round(attempt["duration_s"], 6)

    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_simulate_many_fallbacks_audited_per_circuit(self, n_jobs):
        circuits = [library.qft(4)] * 4
        results = simulate_many(
            circuits,
            backend="dd",
            budget={"max_dd_nodes": 2},
            trace=True,
            n_jobs=n_jobs,
        )
        for result in results:
            chain = result.metadata["fallback_chain"]
            assert chain[0]["backend"] == "dd"
            assert chain[0]["status"] == "resource_exhausted"
            self._assert_chain_matches_spans(
                chain, result.metadata["report"]
            )


class TestWorkerSpanAggregation:
    def test_pool_chunks_surface_in_parent_session(self):
        circuit = library.ghz_state(4)
        noise = NoiseModel.uniform_depolarizing(0.01, 0.02)
        simulator = NoisyDDSimulator(noise, seed=5)
        with trace_session(True) as session:
            with obs_trace.span("test.run") as run_span:
                simulator.run(circuit, trajectories=16, n_jobs=2)
            report = session.report()
        chunk_spans = [
            s for s in report["spans"] if s["name"] == "parallel.chunk"
        ]
        assert chunk_spans
        # Chunks ran on pool threads, not the caller's, and their spans
        # were adopted under the run's span.
        caller = threading.get_ident()
        assert all(s["thread_id"] != caller for s in chunk_spans)
        assert all(s["parent_id"] == run_span.span_id for s in chunk_spans)
        hist = report["metrics"]["histograms"]["parallel.chunk.wall_s"]
        assert hist["count"] == len(chunk_spans)

    def test_inline_chunks_also_traced(self):
        circuit = library.ghz_state(4)
        simulator = TrajectorySimulator(NoiseModel.uniform_depolarizing(0.01, 0.02), seed=5)
        with trace_session(True) as session:
            simulator.run(circuit, trajectories=8, n_jobs=1)
            report = session.report()
        chunk_spans = [
            s for s in report["spans"] if s["name"] == "parallel.chunk"
        ]
        assert chunk_spans
        assert all(s["attributes"].get("inline") for s in chunk_spans)


def _assert_monotonic(events, kind, total=None):
    assert events, "expected at least one progress event"
    dones = [e.done for e in events]
    assert dones == sorted(dones)
    assert len(set(dones)) == len(dones)  # no duplicate counts
    assert all(e.kind == kind for e in events)
    if total is not None:
        assert events[-1].done == total
        assert all(e.total == total for e in events)


class TestProgressStreaming:
    def test_statevector_gate_loop_events(self):
        circuit = random_circuits.random_circuit(6, 60, seed=2)
        assert len(circuit.operations) >= 200
        events = []
        result = simulate(circuit, backend="arrays", progress=events.append)
        assert result.backend == "arrays"
        _assert_monotonic(events, "gates", total=len(circuit.operations))
        assert len(events) >= 2  # throttled, but streaming, not one burst

    def test_dd_and_mps_gate_loops_emit(self):
        circuit = library.qft(5)
        for backend in ("dd", "mps"):
            events = []
            simulate(circuit, backend=backend, progress=events.append)
            _assert_monotonic(events, "gates", total=len(circuit.operations))
            assert events[0].backend == backend

    def test_trajectories_pooled_events_from_chunks(self):
        circuit = library.ghz_state(4)
        simulator = TrajectorySimulator(NoiseModel.uniform_depolarizing(0.01, 0.02), seed=9)
        events = []
        result = simulator.run(
            circuit, trajectories=1000, n_jobs=4, progress=events.append
        )
        assert result.num_trajectories == 1000
        _assert_monotonic(events, "trajectories", total=1000)
        # Chunked execution: each event reports which chunk completed.
        assert all("chunk" in e.payload for e in events)
        assert len(events) >= 2

    def test_trajectories_serial_events(self):
        circuit = library.ghz_state(4)
        simulator = TrajectorySimulator(None, seed=9)
        events = []
        simulator.run(circuit, trajectories=20, progress=events.append)
        _assert_monotonic(events, "trajectories", total=20)

    def test_stimuli_check_events(self):
        circuit = library.qft(3)
        events = []
        assert check_equivalence_random_stimuli(
            circuit, circuit, num_stimuli=6, progress=events.append
        )
        _assert_monotonic(events, "stimuli", total=6)

    def test_simulate_many_sweep_events(self):
        circuits = [library.bell_pair()] * 6
        events = []
        simulate_many(circuits, backend="arrays", progress=events.append)
        _assert_monotonic(events, "circuits", total=6)

    def test_simulate_many_pooled_sweep_events(self):
        circuits = [library.qft(3)] * 6
        events = []
        simulate_many(
            circuits, backend="arrays", n_jobs=2, progress=events.append
        )
        _assert_monotonic(events, "circuits", total=6)

    def test_progress_composes_with_trace(self):
        events = []
        result = simulate(
            library.qft(4),
            backend="arrays",
            trace=True,
            progress=events.append,
        )
        assert "report" in result.metadata
        _assert_monotonic(events, "gates")


class TestCancellation:
    def test_callback_cancels_gate_loop(self):
        circuit = random_circuits.random_circuit(6, 60, seed=2)
        seen = []

        def cancel_after_first(event):
            seen.append(event)
            raise CancelledError("user asked to stop")

        with pytest.raises(CancelledError):
            simulate(circuit, backend="arrays", progress=cancel_after_first)
        assert len(seen) == 1
        # The cancellation must not poison later runs.
        result = simulate(library.bell_pair(), backend="arrays")
        assert result.backend == "arrays"

    def test_callback_cancels_pooled_trajectories_cleanly(self):
        circuit = library.ghz_state(4)
        simulator = TrajectorySimulator(NoiseModel.uniform_depolarizing(0.01, 0.02), seed=9)

        def cancel(event):
            raise CancelledError("stop")

        with pytest.raises(CancelledError):
            simulator.run(
                circuit, trajectories=200, n_jobs=2, progress=cancel
            )
        for proc in mp.active_children():
            proc.join(timeout=10)
        assert not mp.active_children()  # no leaked workers

    def test_cancellation_skips_dispatcher_fallbacks(self):
        # CancelledError is not ResourceExhausted: the dispatcher must
        # propagate it instead of trying the next backend.
        circuit = random_circuits.random_circuit(5, 40, seed=4)

        def cancel(event):
            raise CancelledError("stop")

        with pytest.raises(CancelledError):
            simulate(
                circuit,
                backend="arrays",
                budget={"max_seconds": 3600},
                progress=cancel,
            )
