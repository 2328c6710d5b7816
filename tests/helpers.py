"""Measurement helpers that only the tests use."""

import numpy as np

from qauction.core import StateVector, measurement_probabilities


def sample_measurement(state: StateVector, povm, rng: np.random.Generator,
                       size: int | None = None):
    """Draw outcome indices from the POVM distribution; reproducible per rng.

    Returns a single int by default, an array of `size` outcomes otherwise.
    """
    probs = measurement_probabilities(state, povm)
    picked = rng.choice(len(probs), p=probs / probs.sum(), size=size)
    return picked if size is not None else int(picked)


def computational_povm(n_qubits: int) -> list[np.ndarray]:
    """Projective measurement onto all 2^n computational basis states."""
    dim = 2**n_qubits
    out = []
    for k in range(dim):
        e = np.zeros((dim, dim), dtype=complex)
        e[k, k] = 1.0
        out.append(e)
    return out
