import math

import numpy as np
import pytest

from helpers import computational_povm, sample_measurement
from qauction.core import (
    ContractViolation,
    StateVector,
    eig_hermitian,
    is_hermitian,
    is_unitary,
    measurement_probabilities,
    phase_invariant_distance,
)

I2 = np.eye(2, dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)


def random_hermitian(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2


def random_unitary(rng, dim):
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q


def random_state(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return StateVector(v / np.linalg.norm(v))


class TestStateVector:
    def test_rejects_unnormalized(self):
        with pytest.raises(ContractViolation):
            StateVector([1.0, 1.0])

    def test_rejects_nan(self):
        with pytest.raises(ContractViolation):
            StateVector([math.nan, 0.0])

    def test_rejects_bad_length(self):
        with pytest.raises(ContractViolation):
            StateVector([1.0, 0.0, 0.0])

    def test_basis_state(self):
        s = StateVector.basis(2, 3)
        assert s.n_qubits == 2
        np.testing.assert_allclose(s.probabilities(), [0, 0, 0, 1])


class TestEigHermitian:
    def test_diagonal_sorted(self):
        spec = eig_hermitian(np.diag([3.0, 1.0, 2.0, 0.0]).astype(complex))
        np.testing.assert_allclose(spec.eigenvalues, [0, 1, 2, 3])

    def test_conjugation_invariance(self):
        rng = np.random.default_rng(13)
        w = np.diag(np.array([bin(x).count("1") for x in range(16)], dtype=float)).astype(complex)
        for _ in range(3):
            u = random_unitary(rng, 16)
            conjugated = eig_hermitian(u @ w @ u.conj().T).eigenvalues
            np.testing.assert_allclose(conjugated, eig_hermitian(w).eigenvalues, atol=1e-8)

    def test_toy_problem_hamiltonian_ground(self):
        diag = [0, -1, -2, -3, -1, 0, 0, 0, -2, 0, 0, 0, -3, 0, 0, 0]
        spec = eig_hermitian(np.diag(np.asarray(diag, dtype=float)).astype(complex))
        assert spec.eigenvalues[0] == pytest.approx(-3)

    def test_reconstruction(self):
        rng = np.random.default_rng(17)
        h = random_hermitian(rng, 8)
        vals, vecs = eig_hermitian(h)
        np.testing.assert_allclose(vecs @ np.diag(vals) @ vecs.conj().T, h, atol=1e-9)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ContractViolation):
            eig_hermitian(np.array([[0, 1], [0.5, 0]], dtype=complex))


class TestMeasurement:
    def test_basis_state(self):
        probs = measurement_probabilities(StateVector.basis(2, 0), computational_povm(2))
        np.testing.assert_allclose(probs, [1, 0, 0, 0], atol=1e-12)

    def test_superposition(self):
        state = StateVector(np.array([1, 0, 1, 0]) / math.sqrt(2))
        probs = measurement_probabilities(state, computational_povm(2))
        np.testing.assert_allclose(probs, [0.5, 0, 0.5, 0], atol=1e-12)

    def test_trivial_povm(self):
        state = StateVector(np.array([0.6, 0.8j]))
        np.testing.assert_allclose(measurement_probabilities(state, [np.eye(2)]), [1.0])

    def test_matches_amplitudes(self):
        rng = np.random.default_rng(23)
        state = random_state(rng, 8)
        probs = measurement_probabilities(state, computational_povm(3))
        np.testing.assert_allclose(probs, state.probabilities(), atol=1e-12)

    def test_incomplete_povm_rejected(self):
        with pytest.raises(ContractViolation):
            measurement_probabilities(StateVector.basis(1, 0), [np.diag([1.0, 0.0])])

    def test_sampling_deterministic_outcome(self):
        for seed in (0, 1, 99):
            rng = np.random.default_rng(seed)
            assert sample_measurement(StateVector.basis(2, 0), computational_povm(2), rng) == 0

    def test_sampling_trivial_povm(self):
        rng = np.random.default_rng(4)
        assert sample_measurement(StateVector.basis(1, 1), [np.eye(2)], rng) == 0

    def test_sampling_reproducible(self):
        state = StateVector(np.array([1, 1, 1, 1]) / 2)
        a = sample_measurement(state, computational_povm(2), np.random.default_rng(42), size=50)
        b = sample_measurement(state, computational_povm(2), np.random.default_rng(42), size=50)
        np.testing.assert_array_equal(a, b)

    def test_sampling_binomial_statistics(self):
        state = StateVector(np.array([1, 0, 1, 0]) / math.sqrt(2))
        n = 100_000
        outcomes = sample_measurement(state, computational_povm(2), np.random.default_rng(8), size=n)
        freq = np.mean(outcomes == 2)
        sigma = math.sqrt(0.25 / n)
        assert abs(freq - 0.5) <= 3 * sigma


class TestPhaseInvariantDistance:
    def test_equal(self):
        rng = np.random.default_rng(31)
        u = random_unitary(rng, 4)
        assert phase_invariant_distance(u, u) <= 1e-13

    def test_global_phase(self):
        rng = np.random.default_rng(37)
        u = random_unitary(rng, 4)
        assert phase_invariant_distance(u, np.exp(1j * math.pi / 3) * u) <= 1e-12

    def test_identity_vs_z(self):
        d = phase_invariant_distance(I2, Z)
        assert d >= 1.0
        assert d == pytest.approx(math.sqrt(2), abs=1e-6)

    def test_dimension_mismatch(self):
        with pytest.raises(ContractViolation):
            phase_invariant_distance(np.eye(2), np.eye(4))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan)])
    def test_rejects_non_finite_entries(self, bad):
        m = np.eye(2, dtype=complex)
        m[1, 0] = bad
        for u, v in ((m, np.eye(2)), (np.eye(2), m)):
            with pytest.raises(ContractViolation, match="finite"):
                phase_invariant_distance(u, v)


def test_hermiticity_predicate():
    assert is_hermitian(Z)
    assert not is_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))
