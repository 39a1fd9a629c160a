"""Noise-aware simulation with density matrices (paper ref. [13]).

Runs GHZ preparation under increasing depolarizing noise, showing how
fidelity and entanglement witness values decay — the use case that forces
the array representation from vectors (2^n) to matrices (4^n).
"""

from repro.arrays import (
    DensityMatrixSimulator,
    NoiseModel,
    StatevectorSimulator,
    amplitude_damping,
    bit_flip,
)
from repro.circuits import library


def main() -> None:
    num_qubits = 4
    circuit = library.ghz_state(num_qubits)
    ideal = StatevectorSimulator().statevector(circuit)

    print(f"GHZ-{num_qubits} under uniform depolarizing noise\n")
    print(f"{'p1':>7s} {'p2':>7s} {'fidelity':>9s} {'purity':>8s} "
          f"{'P(000..0)':>10s} {'P(111..1)':>10s}")
    for p1 in (0.0, 0.001, 0.005, 0.02, 0.05):
        p2 = 2 * p1
        noise = NoiseModel.uniform_depolarizing(p1, p2) if p1 else None
        result = DensityMatrixSimulator(noise).run(circuit)
        probs = result.probabilities()
        print(
            f"{p1:7.3f} {p2:7.3f} "
            f"{result.fidelity_with_state(ideal):9.4f} "
            f"{result.purity():8.4f} {probs[0]:10.4f} {probs[-1]:10.4f}"
        )

    # Gate-specific noise: only CX gates are noisy (typical hardware).
    print("\nCX-only bit-flip noise (p=0.03):")
    noise = NoiseModel(gate_errors={"cx": bit_flip(0.03)})
    result = DensityMatrixSimulator(noise).run(circuit)
    print(f"  fidelity {result.fidelity_with_state(ideal):.4f}, "
          f"purity {result.purity():.4f}")

    # Amplitude damping: the state decays toward |0...0>.
    print("\namplitude damping after every gate (gamma=0.05):")
    noise = NoiseModel(
        default_1q=amplitude_damping(0.05), default_2q=amplitude_damping(0.05)
    )
    result = DensityMatrixSimulator(noise).run(circuit)
    probs = result.probabilities()
    print(f"  P(|0...0>) = {probs[0]:.4f} vs ideal 0.5 "
          "(damping biases toward the ground state)")

    # Sampled counts from the noisy state.
    print("\n200 shots from the noisy device:")
    noisy = DensityMatrixSimulator(
        NoiseModel.uniform_depolarizing(0.01, 0.03)
    ).run(circuit)
    counts = noisy.sample_counts(200, seed=5)
    for bits, count in sorted(counts.items(), key=lambda kv: -kv[1])[:6]:
        print(f"  {bits}: {count}")


if __name__ == "__main__":
    main()
