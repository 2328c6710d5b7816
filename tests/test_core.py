import math

import numpy as np
import pytest

from helpers import computational_povm, random_unitary, sample_measurement
from qauction import adversary, circuits, core, protocol
from qauction.core import (
    ContractViolation,
    Povm,
    StateVector,
    eig_hermitian,
    is_hermitian,
    measurement_probabilities,
)

I2 = np.eye(2, dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)


def random_hermitian(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2


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
        s = StateVector(np.eye(4)[3])
        assert s.n_qubits == 2 and repr(s) == "StateVector(n_qubits=2)"
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

    def test_rejects_nan_entry(self):
        h = random_hermitian(np.random.default_rng(23), 3)
        h[0, 1] += np.nan
        with pytest.raises(ContractViolation, match="not Hermitian"):
            eig_hermitian(h)

    def test_real_symmetric_input_gets_real_eigenvectors(self):
        rng = np.random.default_rng(29)
        a = rng.normal(size=(6, 6))
        h = a + a.T
        vals, vecs = eig_hermitian(h)
        assert vals.dtype == np.float64 and vecs.dtype == np.float64
        np.testing.assert_allclose(vecs @ np.diag(vals) @ vecs.T, h, rtol=0, atol=1e-12)
        np.testing.assert_allclose(vals, eig_hermitian(h.astype(complex)).eigenvalues, rtol=0, atol=1e-12)
        # integer entries are real entries; an object array is read as complex
        assert eig_hermitian(np.array([[2, 1], [1, 2]])).eigenvectors.dtype == np.float64
        assert eig_hermitian(np.array([[1, 1j], [-1j, 1]], dtype=object)).eigenvectors.dtype == np.complex128

    def test_rejects_real_non_symmetric(self):
        with pytest.raises(ContractViolation, match="not Hermitian"):
            eig_hermitian(np.array([[0.0, 1.0], [0.5, 0.0]]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", [(0, 0), (0, 1)], ids=["diagonal", "off_diagonal"])
    def test_rejects_real_non_finite_entries(self, bad, where):
        h = np.eye(3)
        h[where] = h[where[::-1]] = bad
        with pytest.raises(ContractViolation, match="not Hermitian"):
            eig_hermitian(h)

    @pytest.mark.parametrize("shape", [(3, 2, 4), (3, 4, 2), (4,), (2, 2, 2, 2), (3, 3, 3)])
    def test_rejects_non_square_stack(self, shape):
        with pytest.raises(ContractViolation, match="square"):
            eig_hermitian(np.zeros(shape, dtype=complex))


class TestMeasurement:
    def test_basis_state(self):
        probs = measurement_probabilities(StateVector([1, 0, 0, 0]), computational_povm(2))
        np.testing.assert_allclose(probs, [1, 0, 0, 0], atol=1e-12)

    def test_superposition(self):
        state = StateVector(np.array([1, 0, 1, 0]) / math.sqrt(2))
        probs = measurement_probabilities(state, computational_povm(2))
        np.testing.assert_allclose(probs, [0.5, 0, 0.5, 0], atol=1e-12)

    def test_trivial_povm(self):
        state = StateVector(np.array([0.6, 0.8j]))
        np.testing.assert_allclose(measurement_probabilities(state, Povm((np.eye(2),))), [1.0])

    def test_matches_amplitudes(self):
        rng = np.random.default_rng(23)
        state = random_state(rng, 8)
        probs = measurement_probabilities(state, computational_povm(3))
        np.testing.assert_allclose(probs, state.probabilities(), atol=1e-12)

    def test_povms_compare_and_hash_by_identity(self):
        a, b = Povm((np.eye(2),)), Povm((np.eye(2),))
        assert a == a and a != b
        assert len({a, b, a}) == 2

    def test_incomplete_povm_rejected(self):
        with pytest.raises(ContractViolation):
            measurement_probabilities(StateVector([1, 0]), Povm((np.diag([1.0, 0.0]),)))

    def test_sampling_deterministic_outcome(self):
        for seed in (0, 1, 99):
            rng = np.random.default_rng(seed)
            assert sample_measurement(StateVector([1, 0, 0, 0]), computational_povm(2), rng) == 0

    def test_sampling_trivial_povm(self):
        rng = np.random.default_rng(4)
        assert sample_measurement(StateVector([0, 1]), Povm((np.eye(2),)), rng) == 0

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


def test_hermiticity_predicate():
    assert is_hermitian(Z)
    assert not is_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))


@pytest.mark.parametrize("call", [is_hermitian, eig_hermitian, lambda m: Povm((m,))],
                         ids=["is_hermitian", "eig_hermitian", "Povm"])
def test_empty_operators_are_refused(call):
    # a 0 x 0 matrix used to end in numpy's zero-size reduction ValueError
    with pytest.raises(ContractViolation, match=r"nonempty square matrix, got shape \(0, 0\)"):
        call(np.zeros((0, 0)))


TWO_STATES = [StateVector([1, 0]), StateVector([0, 1])]
FIRST_PRICE = protocol.build_first_price_table(protocol.AuctionConfig(m=2, p=2))
SIX_QUBIT_TABLE = protocol.build_first_price_table(protocol.AuctionConfig(m=3, p=2))


def run_toy(winner, plausible):
    """A run of the n = 4 toy on bids 10,11 with the given winner and plausible set."""
    return protocol.run_schedule((protocol.bidding_operator("10"), protocol.bidding_operator("11")),
                                 plausible, winner, FIRST_PRICE, protocol.AdiabaticSchedule(4, 1.0))


# Library contracts, each with the message it raises: malformed POVMs and
# ensembles, a locked collusion run, a locked schedule with no lock, tables
# and registers of the wrong size, a joint operator with no start state, a
# run's winner or plausible indices outside the register, and malformed circuits.
CONTRACTS = {
    "povm_empty": (lambda: core.Povm(()), "at least one element"),
    "povm_mixed_dimensions": (lambda: core.Povm((I2, np.eye(4))), "differ in dimension"),
    "povm_not_hermitian": (lambda: core.Povm((np.array([[1, 1], [0, 0]]), np.array([[0, -1], [0, 1]]))),
                           "element 0 is not Hermitian"),
    "povm_not_psd": (lambda: core.Povm((np.diag([2.0, 0.0]), np.diag([-1.0, 1.0]))),
                     "element 1 is not positive semidefinite"),
    "povm_of_another_dimension": (lambda: measurement_probabilities(TWO_STATES[0], core.Povm((np.eye(4),))),
                                  "does not match the state"),
    # each element I/2 + 0.45e-9 (J - I): the sum passes the Povm check, the uniform state's outcomes do not
    "povm_probabilities_off_1": (lambda: measurement_probabilities(
        StateVector(np.ones(4) / 2), core.Povm((np.eye(4) / 2 + 0.45e-9 * (np.ones((4, 4)) - np.eye(4)),) * 2)),
        r"POVM probabilities sum to 1\.0000000027"),
    "min_error_3_states_of_dimension_2": (lambda: adversary.min_error_povm(
        [*TWO_STATES, StateVector(np.ones(2) / math.sqrt(2))], [1 / 3] * 3),
        "cannot assign more states than outcomes"),
    "optimality_check_1_element_for_2_states": (lambda: adversary.povm_optimality_check(
        adversary.Povm((I2,)), TWO_STATES, [0.5, 0.5]), "at least one POVM element per state"),
    "collusion_with_lock": (lambda: adversary.run_collusion_defense(
        ["10", "11"], FIRST_PRICE, protocol.AdiabaticSchedule(
            4, 1.0, "locked", adversary.locking_unitaries(["10", "11"], (0.9, 0.7)))),
        "do not compose"),
    "locked_schedule_without_lock": (lambda: protocol.AdiabaticSchedule(20, 1.5, "locked"),
                                     "variant 'locked' needs the locking unitaries"),
    "collusion_operator_3_qubit_bids": (lambda: adversary.collusion_operator("100", "011"),
                                        "two-qubit-per-bidder scale"),
    "payoff_table_3_values_for_2_qubits": (lambda: protocol.PayoffTable(2, [0, 1, 2]), r"3 != 2\^2"),
    "hamming_weights_0_qubits": (lambda: protocol.hamming_weights(0), "at least one qubit"),
    "joint_operator_no_bidders": (lambda: protocol.joint_bidding_operator([]), "at least one bidder"),
    "run_schedule_zero_factor": (lambda: protocol.run_schedule(
        (np.zeros((4, 4)), protocol.bidding_operator("11")), [0, 3], 3, FIRST_PRICE,
        protocol.AdiabaticSchedule(4, 1.0)), r"U\|0\.\.\.0> is 0"),
    # a winner or plausible index that is no allocation of the register, and no plausible set,
    # used to give success 0.0 throughout, numpy's IndexError, or leakage 1.0
    "run_schedule_winner_99": (lambda: run_toy(99, [0, 3]), r"allocation index 99 is not an integer in 0\.\.15"),
    "run_schedule_plausible_99": (lambda: run_toy(3, [0, 3, 99]), r"allocation index 99 is not an integer in 0\.\.15"),
    "run_schedule_plausible_0.5": (lambda: run_toy(3, [0.5]), r"allocation index 0\.5 is not an integer"),
    "run_schedule_plausible_empty": (lambda: run_toy(3, []), "at least one plausible allocation"),
    "run_adiabatic_6_qubit_table": (lambda: protocol.run_adiabatic(
        ["10", "11"], SIX_QUBIT_TABLE, protocol.AdiabaticSchedule(4, 1.0)), "does not match the bidder"),
    "tracks_6_qubit_table": (lambda: protocol.eigenvalue_tracks(
        ["10", "11"], SIX_QUBIT_TABLE, protocol.AdiabaticSchedule(4, 1.0)), "does not match the bidder"),
    "circuit_0_qubits": (lambda: circuits.Circuit(0), "at least one qubit"),
    "gate_of_unknown_kind": (lambda: circuits.Circuit(1, (circuits.Gate("SWAP", (0,)),)),
                             "unknown gate kind 'SWAP'"),
    "ctrl0_no_controls": (lambda: circuits.Circuit(2, (circuits.zero_controlled(
        (), circuits.Circuit(2, (circuits.hadamard(1),))),)), "at least one control qubit"),
    "ctrl0_inner_of_another_width": (lambda: circuits.Circuit(2, (circuits.zero_controlled(
        (0,), circuits.Circuit(3, (circuits.hadamard(1),))),)), "must share the outer width"),
    "parse_bad_qubit": (lambda: circuits.parse_circuit("H x0"), "expected a qubit like q0, got 'x0'"),
    "D_circuit_0_qubits": (lambda: circuits.build_D_circuit(1, 0.5, 0), "at least one qubit"),
    # widths and step counts that are not integers of at least 1
    "circuit_2.5_qubits": (lambda: circuits.Circuit(2.5), "integer count of at least one qubit, got 2.5"),
    "circuit_True_qubits": (lambda: circuits.Circuit(True), "integer count of at least one qubit, got True"),
    "D_circuit_2.5_qubits": (lambda: circuits.build_D_circuit(1, 1, 2.5), "integer count of at least one qubit"),
    "zz_exponential_2.5_qubits": (lambda: circuits.build_zz_exponential([0], 0.3, 2.5),
                                  "integer count of at least one qubit"),
    "parse_at_2.5_qubits": (lambda: circuits.parse_circuit("H q0", 2.5), "integer count of at least one qubit"),
    "hamming_weights_2.5_qubits": (lambda: protocol.hamming_weights(2.5), "integer count of at least one qubit"),
    "auto_delta_0_steps": (lambda: protocol.auto_delta(0), "integer count of at least one step, got 0"),
    "auto_delta_-4_steps": (lambda: protocol.auto_delta(-4), "integer count of at least one step, got -4"),
    "auto_delta_nan_steps": (lambda: protocol.auto_delta(math.nan), "integer count of at least one step, got nan"),
}


@pytest.mark.parametrize("name", list(CONTRACTS))
def test_library_contracts_raise(name):
    # a parsed circuit's faults, its width too, are parse errors
    entry, message = CONTRACTS[name]
    with pytest.raises(circuits.CircuitParseError if name.startswith("parse") else ContractViolation, match=message):
        entry()
