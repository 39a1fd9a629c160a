"""Tests for SimOptions, the backend registry, and capability dispatch."""

import pytest

from repro.circuits import library
from repro.core import (
    BACKENDS,
    REGISTRY,
    BackendRegistry,
    CapabilityError,
    SimOptions,
    available_backends,
    expectation,
    sample,
    simulate,
    single_amplitude,
)
from repro.core import capabilities as cap


class TestSimOptions:
    def test_defaults(self):
        opts = SimOptions()
        assert opts.seed == 0
        assert opts.method == "einsum"
        assert opts.fusion is False
        assert opts.max_bond is None

    def test_from_kwargs_roundtrip(self):
        opts = SimOptions.from_kwargs(seed=7, max_bond=4, fusion=True)
        assert opts.seed == 7
        assert opts.max_bond == 4
        assert opts.fusion is True
        assert opts.as_dict()["cutoff"] == 1e-12

    def test_unknown_option_rejected(self):
        # executor= and shm= are not options: pooled work always runs on
        # threads, so they are rejected like any misspelling.
        for kwargs in ({"bond_max": 4}, {"executor": "thread"}, {"shm": False}):
            with pytest.raises(TypeError, match="unknown simulation option"):
                SimOptions.from_kwargs(**kwargs)

    def test_facades_reject_unknown_options(self):
        bell = library.bell_pair()
        with pytest.raises(TypeError):
            simulate(bell, backend="arrays", wibble=1)
        with pytest.raises(TypeError):
            sample(bell, 5, backend="arrays", wibble=1)
        with pytest.raises(TypeError):
            expectation(bell, "ZZ", backend="arrays", wibble=1)
        with pytest.raises(TypeError):
            single_amplitude(bell, 0, backend="tn", wibble=1)

    def test_frozen(self):
        with pytest.raises(Exception):
            SimOptions().seed = 3


class TestRegistry:
    def test_all_backends_registered(self):
        names = available_backends()
        for name in BACKENDS + ("stab",):
            assert name in names

    def test_unknown_backend_value_error(self):
        with pytest.raises(ValueError, match="unknown backend"):
            REGISTRY.get("abacus")

    def test_supporting_filters_by_capability(self):
        sampling = available_backends(cap.SAMPLE)
        assert "tn" not in sampling
        assert set(sampling) >= {"arrays", "dd", "mps", "stab"}
        clifford_only = REGISTRY.supporting(cap.CLIFFORD_ONLY)
        assert clifford_only == ["stab"]

    def test_capability_table_covers_registry(self):
        table = REGISTRY.capability_table()
        assert set(table) == set(available_backends())
        for caps in table.values():
            assert caps <= cap.ALL_CAPABILITIES

    def test_register_and_unregister(self):
        from repro.core.backends.base import Backend

        class Dummy(Backend):
            name = "dummy"
            capabilities = frozenset({cap.FULL_STATE})

        registry = BackendRegistry()
        registry.register(Dummy())
        assert "dummy" in registry
        assert registry.supporting(cap.FULL_STATE) == ["dummy"]
        registry.unregister("dummy")
        assert "dummy" not in registry


class TestCapabilityErrors:
    def test_tn_has_no_sampling(self):
        with pytest.raises(CapabilityError, match="does not support"):
            sample(library.bell_pair(), 10, backend="tn")

    def test_capability_error_is_value_error(self):
        # Old facade raised ValueError on unsupported backends; callers
        # catching that must keep working.
        with pytest.raises(ValueError):
            sample(library.bell_pair(), 10, backend="tn")

    def test_stab_rejects_non_clifford(self):
        from repro.stab import NotCliffordError

        with pytest.raises(NotCliffordError):
            simulate(library.qft(3), backend="stab")

    def test_stab_full_state_on_clifford(self):
        import numpy as np

        result = simulate(library.ghz_state(4), backend="stab")
        assert result.backend == "stab"
        probs = result.probabilities()
        assert probs[0] == pytest.approx(0.5)
        assert probs[-1] == pytest.approx(0.5)
        assert np.linalg.norm(result.state) == pytest.approx(1.0)


class TestUniformMetadata:
    @pytest.mark.parametrize("backend", BACKENDS + ("stab",))
    def test_every_backend_reports_resources(self, backend):
        circuit = library.ghz_state(5)
        result = simulate(circuit, backend=backend)
        meta = result.metadata
        assert meta["wall_time_s"] >= 0.0
        assert meta["num_qubits"] == 5
        assert meta["num_ops"] == len(circuit.operations)
        assert meta["memory_bytes"] > 0
        assert meta["fusion"] is False

    def test_backend_specific_keys(self):
        circuit = library.ghz_state(5)
        assert "nodes" in simulate(circuit, backend="dd").metadata
        assert "method" in simulate(circuit, backend="arrays").metadata
        assert "max_bond_reached" in simulate(circuit, backend="mps").metadata
        assert "network_tensors" in simulate(circuit, backend="tn").metadata
        assert "tableau_rows" in simulate(circuit, backend="stab").metadata

    def test_fusion_metadata_recorded(self):
        circuit = library.ghz_state(5)
        meta = simulate(circuit, backend="arrays", fusion=True).metadata
        assert meta["fusion"] is True
        # Fusion shrinks the GHZ ladder's op count.
        assert meta["num_ops"] < len(circuit.operations)

    def test_fusion_skipped_for_clifford_only_backend(self):
        meta = simulate(
            library.ghz_state(4), backend="stab", fusion=True
        ).metadata
        assert meta["fusion"] == "skipped (clifford-only backend)"


class TestOptimizationLevel:
    def test_invalid_level_rejected(self):
        with pytest.raises(ValueError, match="unknown optimization_level"):
            SimOptions.from_kwargs(optimization_level=7)
        with pytest.raises(ValueError):
            simulate(library.bell_pair(), optimization_level="high")

    def test_levels_preserve_state_up_to_phase(self):
        import numpy as np

        circuit = library.qft(4)
        reference = simulate(circuit, backend="arrays").state
        for level in (0, 1, 2, 3):
            state = simulate(
                circuit, backend="arrays", optimization_level=level
            ).state
            pivot = int(np.argmax(np.abs(reference)))
            phase = state[pivot] / reference[pivot]
            assert np.allclose(reference * phase, state, atol=1e-7)

    def test_optimization_metadata_recorded(self):
        circuit = library.qft(4)
        meta = simulate(
            circuit, backend="arrays", optimization_level=2
        ).metadata
        assert meta["optimization_level"] == 2
        # Level 1 peephole alone shrinks the QFT's rotation chains or
        # leaves the count unchanged -- never grows it.
        plain = simulate(circuit, backend="arrays").metadata
        assert meta["num_qubits"] == plain["num_qubits"]

    def test_optimization_shrinks_redundant_circuit(self):
        circuit = library.qft(4)
        circuit.compose(library.qft(4).inverse())
        circuit.compose(library.ghz_state(4))
        plain = simulate(circuit, backend="arrays").metadata
        optimized = simulate(
            circuit, backend="arrays", optimization_level=1
        ).metadata
        assert optimized["num_ops"] < plain["num_ops"]

    def test_skipped_for_clifford_only_backend(self):
        meta = simulate(
            library.ghz_state(4), backend="stab", optimization_level=2
        ).metadata
        assert meta["optimization"] == "skipped (clifford-only backend)"
        assert "optimization_level" not in meta

    def test_zero_and_none_are_off(self):
        for level in (None, 0):
            meta = simulate(
                library.bell_pair(),
                backend="arrays",
                optimization_level=level,
            ).metadata
            assert "optimization_level" not in meta
