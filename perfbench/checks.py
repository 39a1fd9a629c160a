"""Output checks against the independent references in :mod:`refsim`.

Deterministic outputs are compared numerically with the tolerances of
``tests/test_differential.py``: states equal up to one global phase,
amplitude moduli and expectation values within ``TOL``.  Random outputs
(sampled counts, trajectory averages) pass a distribution-free
Bernstein bound: it holds for *any* correct sampler and any RNG stream,
so re-chunking a trajectory loop or replacing a sampler cannot trip it,
while a wrong distribution does.  The false-alarm probability of all
statistical checks of one run together is at most ``FALSE_ALARM``.

Every check returns ``None`` when the output passes, else a one-line
reason.  :func:`selftest` shows that each check rejects a planted defect.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Sequence

import numpy as np

import refsim

TOL = 1e-7
FALSE_ALARM = 1e-6
# Outcomes the reference gives less than this are "ruled out".  Exact zeros
# come out of the float reference near 1e-32; the total mass this threshold
# can exclude (at most 2**14 * 1e-20) times 2000 shots is far below
# FALSE_ALARM, so a correct sampler never lands there by chance.
ZERO_PROB = 1e-20
NORM_TOL = 1e-9


def state(got, ref: np.ndarray, tol: float = TOL) -> Optional[str]:
    got = np.asarray(got)
    if got.shape != ref.shape:
        return f"state shape {got.shape} != {ref.shape}"
    pivot = int(np.argmax(np.abs(ref)))
    if abs(got[pivot]) < 0.5 * abs(ref[pivot]):
        return "state differs at the reference's largest amplitude"
    phase = got[pivot] / ref[pivot]
    if abs(abs(phase) - 1.0) > tol:
        return f"state norm off by {abs(abs(phase) - 1.0):.3g}"
    err = float(np.max(np.abs(got - phase * ref)))
    if err > tol:
        return f"state differs up to global phase by {err:.3g}"
    return None


def value(got, ref: float, tol: float = TOL) -> Optional[str]:
    if not np.isfinite(got) or abs(float(got) - ref) > tol:
        return f"value {got!r} != reference {ref!r}"
    return None


def amplitude(got, ref: complex, tol: float = TOL) -> Optional[str]:
    if abs(abs(complex(got)) - abs(ref)) > tol:
        return f"|amplitude| {abs(complex(got)):.9g} != {abs(ref):.9g}"
    return None


def verdict(got, known: bool) -> Optional[str]:
    if got is not known:
        return f"verdict {got!r}, known answer {known!r}"
    return None


def bernstein_radius(p: np.ndarray, samples: int, log_term: float) -> np.ndarray:
    """Deviation ``eps`` with ``P(|mean - p| >= eps) <= 2 exp(-log_term)``.

    For ``samples`` i.i.d. draws in ``[0, 1]`` with mean ``p`` the
    variance is at most ``p (1 - p)``; Bernstein's inequality
    ``2 exp(-S eps^2 / (2 var + 2 eps / 3))`` solved for ``eps``.
    """
    var = p * (1.0 - p)
    a = 2.0 * log_term / 3.0
    return (a + np.sqrt(a * a + 8.0 * samples * var * log_term)) / (2.0 * samples)


def _log_term(outcomes: int, num_checks: int) -> float:
    return math.log(2.0 * max(outcomes, 1) * max(num_checks, 1) / FALSE_ALARM)


def distribution(
    estimate, probs: np.ndarray, samples: int, num_checks: int
) -> Optional[str]:
    """A mean of ``samples`` random probability vectors with mean ``probs``.

    Normalisation and non-negativity are exact properties of any such
    mean; outcomes the reference rules out must stay at zero (every
    trajectory lies in the support of the exact mixed state).
    """
    est = np.asarray(estimate, dtype=np.float64)
    if est.shape != probs.shape:
        return f"distribution shape {est.shape} != {probs.shape}"
    if est.min() < 0.0:
        return f"negative probability {est.min():.3g}"
    if abs(est.sum() - 1.0) > NORM_TOL:
        return f"probabilities sum to {est.sum():.12g}"
    support = probs > ZERO_PROB
    if np.any(est[~support] > NORM_TOL):
        return "probability on an outcome the reference rules out"
    radius = bernstein_radius(probs[support], samples, _log_term(int(support.sum()), num_checks))
    excess = np.abs(est[support] - probs[support]) - radius
    if np.any(excess > 0):
        worst = int(np.argmax(excess))
        return (
            f"outcome off by {abs(est[support][worst] - probs[support][worst]):.3g}"
            f" > bound {radius[worst]:.3g} after {samples} samples"
        )
    return None


def counts(
    got: Dict[str, int], shots: int, probs: np.ndarray, num_checks: int
) -> Optional[str]:
    n = int(len(probs)).bit_length() - 1
    estimate = np.zeros(len(probs))
    for key, count in got.items():
        if len(key) != n or set(key) - {"0", "1"}:
            return f"malformed outcome {key!r}"
        if not isinstance(count, (int, np.integer)) or count < 0:
            return f"count {count!r} for {key!r}"
        estimate[int(key, 2)] += count
    if int(estimate.sum()) != shots:
        return f"{int(estimate.sum())} outcomes for {shots} shots"
    return distribution(estimate / shots, probs, shots, num_checks)


def density(rho, ref: np.ndarray, tol: float = TOL) -> Optional[str]:
    rho = np.asarray(rho)
    if rho.shape != ref.shape:
        return f"density shape {rho.shape} != {ref.shape}"
    if abs(np.trace(rho).real - 1.0) > NORM_TOL:
        return f"trace {np.trace(rho).real:.12g}"
    err = float(np.max(np.abs(rho - ref)))
    if err > tol:
        return f"density matrix differs by {err:.3g}"
    return None


def compiled(
    original, result, coupling=None, tol: float = TOL
) -> Optional[str]:
    """``C_phys P_init = phase * P_final (U (x) |0_anc>)`` on every input.

    Logical qubit ``l`` starts on physical ``initial_layout[l]`` and ends
    on ``final_layout[l]``; unused physical qubits start and end in
    ``|0>``.  Routed outputs must also act only on coupled pairs.
    """
    n = original.num_qubits
    circuit = result.circuit.without_measurements()
    n_phys = circuit.num_qubits
    if coupling is not None:
        for op in circuit.operations:
            if op.num_qubits == 2 and not coupling.are_adjacent(*op.qubits):
                return f"two-qubit gate on uncoupled pair {op.qubits}"
            if op.num_qubits > 2:
                return f"{op.num_qubits}-qubit gate left after routing"
    initial, final = result.initial_layout, result.final_layout

    def place(index: int, layout) -> int:
        return sum(((index >> l) & 1) << layout[l] for l in range(n))

    columns = [place(x, initial) for x in range(1 << n)]
    got = refsim.unitary_columns(circuit, columns, n_phys)
    ref = refsim.unitary(original.without_measurements())
    expected = np.zeros_like(got)
    rows = [place(y, final) for y in range(1 << n)]
    expected[rows, :] = ref
    return state(got.reshape(-1), expected.reshape(-1), tol)


def two_qubit_count(circuit) -> int:
    return sum(1 for op in circuit.operations if op.is_unitary and op.num_qubits >= 2)


# -- mutation self-test ------------------------------------------------------


def selftest(circuits: Sequence, noise_models: Sequence) -> Dict[str, bool]:
    """Each planted defect must be rejected and each true output accepted.

    ``circuits``: a non-Clifford circuit (for states and counts);
    ``noise_models``: two noise models giving different distributions on
    ``circuits[1]``.  Returns ``{case: passed}``.
    """
    circuit, noisy_circuit = circuits
    model, wrong_model = noise_models
    rng = np.random.default_rng(7)
    ref = refsim.statevector(circuit)
    probs = refsim.probabilities(ref)
    results = {}
    results["state_accepts_true"] = state(ref * np.exp(0.3j), ref) is None
    permuted = ref[rng.permutation(len(ref))]
    results["state_rejects_permuted"] = state(permuted, ref) is not None
    shots = 2000

    def draw(p):
        outcomes = rng.choice(len(p), size=shots, p=p / p.sum())
        n = circuit.num_qubits
        drawn: Dict[str, int] = {}
        for outcome in outcomes:
            key = format(int(outcome), f"0{n}b")
            drawn[key] = drawn.get(key, 0) + 1
        return drawn

    results["counts_accept_true"] = counts(draw(probs), shots, probs, 1) is None
    wrong = probs[rng.permutation(len(probs))]
    results["counts_reject_wrong_distribution"] = counts(draw(wrong), shots, probs, 1) is not None
    exact = np.real(np.diag(refsim.density_matrix(noisy_circuit, model)))
    other = np.real(np.diag(refsim.density_matrix(noisy_circuit, wrong_model)))
    results["trajectories_accept_true"] = distribution(exact, exact, 200, 1) is None
    results["trajectories_reject_wrong_noise_model"] = distribution(other, exact, 200, 1) is not None
    results["verdict_accepts_true"] = verdict(True, True) is None
    results["verdict_rejects_flipped"] = verdict(False, True) is not None
    return results
