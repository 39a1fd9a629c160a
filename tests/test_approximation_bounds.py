"""Differential error-bound harness for the approximate simulation tier.

Every certified claim the tier makes is checked against ground truth:
``metadata["fidelity_estimate"]`` must be a genuine lower bound on
``|<exact|approx>|^2`` while itself staying at or above the requested
target, ``accuracy=1.0`` must be bitwise indistinguishable from the
default exact path, and loosening the target must never *raise* the
certified estimate.  The 40-qubit scenarios exercise the dispatcher's
"approximate before refusing" rung end to end at a size the exact dense
path cannot touch, cross-validated at a width where exact references
still run.
"""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.circuits import random_circuits
from repro.core import Accuracy, FidelityBudgetExceeded, expectation, simulate
from repro.resources import ResourceExhausted
from repro.tn.mps import MPSSimulator, TruncationBudget
from tests.strategies import seeds
from tests.test_differential import _workloads

APPROX_BACKENDS = ("dd", "mps")


def _eager(target):
    return {"target": target, "mode": "eager"}


# -- certified bounds across the differential workload families -----------------


@pytest.mark.parametrize("circuit", _workloads())
@pytest.mark.parametrize("backend", APPROX_BACKENDS)
@pytest.mark.parametrize("target", [0.9, 0.99])
def test_bound_holds_on_workloads(circuit, backend, target):
    """true fidelity >= fidelity_estimate >= target, per family/backend."""
    exact = simulate(circuit, backend="arrays").state
    result = simulate(circuit, backend=backend, accuracy=_eager(target))
    estimate = result.metadata["fidelity_estimate"]
    fidelity = abs(np.vdot(exact, result.state)) ** 2
    assert estimate >= target - 1e-9
    assert fidelity >= estimate - 1e-9
    assert result.metadata["accuracy"] == {
        "target": target,
        "mode": "eager",
        "approximate": True,
    }


@pytest.mark.parametrize("circuit", _workloads())
def test_tn_sliced_contraction_is_exact(circuit):
    """TN slicing trades memory for time, never fidelity."""
    reference = simulate(circuit, backend="tn").state
    n = circuit.num_qubits
    # A budget just large enough for the sliced contraction (the 2**n
    # output tensor must fit) but below the unsliced plan's peak.
    budget = f"memory={(16 << n) * 4}"
    try:
        result = simulate(
            circuit, backend="tn", budget=budget, accuracy=_eager(0.99)
        )
    except ResourceExhausted:
        pytest.skip("network not sliceable under this budget")
    assert result.metadata["fidelity_estimate"] == 1.0
    assert np.allclose(result.state, reference, atol=1e-10)


# -- accuracy=1.0 is the exact path, bitwise ------------------------------------


@settings(max_examples=10, deadline=None)
@given(seeds())
@pytest.mark.parametrize("backend", ("dd", "mps", "tn"))
def test_full_accuracy_is_bitwise_exact(backend, seed):
    circuit = random_circuits.brickwork_circuit(4, 2, seed=seed)
    baseline = simulate(circuit, backend=backend)
    pinned = simulate(circuit, backend=backend, accuracy=1.0)
    assert np.array_equal(baseline.state, pinned.state)
    assert "fidelity_estimate" not in pinned.metadata
    assert "accuracy" not in pinned.metadata


def test_accuracy_one_normalizes_to_exact_spec(monkeypatch):
    from repro.core.options import SimOptions

    # The suite may run under the CI approx profile (REPRO_ACCURACY
    # process-wide); this test is about the *unset* default.
    monkeypatch.delenv("REPRO_ACCURACY", raising=False)
    assert SimOptions.from_kwargs(accuracy=1.0).accuracy is None
    assert SimOptions.from_kwargs(accuracy=Accuracy(1.0)).accuracy is None
    assert (
        SimOptions.from_kwargs(accuracy=1.0).canonical_dict()
        == SimOptions.from_kwargs().canonical_dict()
    )


# -- monotonicity in the target -------------------------------------------------


@settings(max_examples=10, deadline=None)
@given(seeds())
def test_dd_estimate_monotone_as_target_loosens(seed):
    """Single-prune regime: loosening the target never raises the bound."""
    circuit = random_circuits.random_circuit(4, 3, seed=seed)
    estimates = []
    for target in (0.999, 0.99, 0.9, 0.7, 0.5):
        result = simulate(circuit, backend="dd", accuracy=_eager(target))
        estimates.append(result.metadata["fidelity_estimate"])
    assert all(
        later <= earlier + 1e-12
        for earlier, later in zip(estimates, estimates[1:])
    )


def test_mps_estimate_monotone_ladder():
    """Fixed-seed target ladder on MPS (tolerance for budget scheduling)."""
    circuit = random_circuits.brickwork_circuit(6, 4, seed=41)
    estimates = []
    for target in (0.999, 0.99, 0.95, 0.9, 0.8):
        result = simulate(circuit, backend="mps", accuracy=_eager(target))
        estimates.append(result.metadata["fidelity_estimate"])
    assert all(
        later <= earlier + 1e-6
        for earlier, later in zip(estimates, estimates[1:])
    )
    assert all(
        est >= target - 1e-9
        for est, target in zip(estimates, (0.999, 0.99, 0.95, 0.9, 0.8))
    )


# -- certificate refusal --------------------------------------------------------


def test_mps_refuses_unmeetable_certificate():
    """A bond cap too tight to certify the target raises, never lies."""
    circuit = random_circuits.brickwork_circuit(8, 6, seed=43)
    sim = MPSSimulator(accuracy=0.9999, max_bond=2)
    with pytest.raises(FidelityBudgetExceeded):
        sim.run(circuit.without_measurements())


def test_truncation_budget_certificate_math():
    budget = TruncationBudget(target=0.9, steps=4, safety=2.0)
    s = np.array([0.9, 0.3, 0.2, 0.1])
    keep = budget.select_keep(s, cutoff=1e-12)
    assert 1 <= keep <= 4
    assert budget.fidelity_estimate <= 1.0
    assert budget.truncations == 1
    # Charged amount is reflected in both the budget and the certificate.
    discarded = float(np.sum(s[keep:] ** 2) / np.sum(s**2))
    assert budget.fidelity_estimate == pytest.approx(
        1.0 - 2.0 * discarded, abs=1e-12
    )


# -- 40-qubit acceptance scenario ----------------------------------------------

_WIDE_BUDGET = "memory=256MiB,bond=8,nodes=20000,seconds=300"


def _wide_circuit(num_qubits):
    return random_circuits.bounded_lightcone_brickwork(
        num_qubits, 8, lightcone=8, seed=11
    )


def test_wide_circuit_served_by_approximate_rung(monkeypatch):
    """40 qubits: every exact candidate exhausts, the approx rung serves."""
    # Pin the no-default environment: the refusal below is the contract
    # *without* an accuracy target (CI also runs under REPRO_ACCURACY).
    monkeypatch.delenv("REPRO_ACCURACY", raising=False)
    circuit = _wide_circuit(40)
    pauli = "I" * 39 + "Z"
    with pytest.raises(ResourceExhausted):
        expectation(circuit, pauli, backend="auto", budget=_WIDE_BUDGET)
    value, meta = expectation(
        circuit,
        pauli,
        backend="auto",
        with_metadata=True,
        budget=_WIDE_BUDGET,
        accuracy=0.99,
    )
    assert -1.0 <= value <= 1.0
    assert meta["fidelity_estimate"] >= 0.99
    assert meta["accuracy"]["approximate"] is True
    chain = meta["fallback_chain"]
    exact_attempts = [e for e in chain if e["mode"] == "exact"]
    assert exact_attempts and all(
        e["status"] == "resource_exhausted" for e in exact_attempts
    )
    assert chain[-1]["mode"] == "approximate"
    assert chain[-1]["status"] == "ok"


def test_wide_scenario_verified_against_exact_reference():
    """Same family at 12 qubits, where the exact reference still runs."""
    circuit = _wide_circuit(12)
    pauli = "I" * 11 + "Z"
    reference = expectation(circuit, pauli, backend="arrays")
    value, meta = expectation(
        circuit,
        pauli,
        backend="mps",
        with_metadata=True,
        budget="bond=8",
        accuracy=0.99,
    )
    estimate = meta["fidelity_estimate"]
    assert estimate >= 0.99
    # |<psi|P|psi> - <phi|P|phi>| <= 2*sqrt(1-F) for any Pauli P.
    assert abs(value - reference) <= 2.0 * np.sqrt(1.0 - estimate) + 1e-9


def test_tn_sliced_summation_jobs_reported_and_bitwise():
    """PR-10: slice summation parallelizes over n_jobs without changing
    bits; the worker count is reported in the approximation metadata."""
    from repro.circuits import library

    circuit = library.grover(3, 5)  # known to need slicing at this budget
    n = circuit.num_qubits
    budget = f"memory={(16 << n) * 4}"
    # cache=False: n_jobs is not part of the cache key, so a cached n_jobs=1
    # entry would answer the n_jobs=4 call without slicing anything.
    serial = simulate(
        circuit, backend="tn", budget=budget, accuracy=_eager(0.99),
        n_jobs=1, cache=False,
    )
    assert "approximation" in serial.metadata, "budget no longer slices"
    assert serial.metadata["approximation"]["slice_jobs"] == 1
    parallel = simulate(
        circuit, backend="tn", budget=budget, accuracy=_eager(0.99),
        n_jobs=4, cache=False,
    )
    assert parallel.metadata["approximation"]["slice_jobs"] == 4
    assert parallel.state.tobytes() == serial.state.tobytes()
