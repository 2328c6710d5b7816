import math

import numpy as np
import pytest

from qauction.core import ContractViolation, StateVector, phase_invariant_distance
from qauction.protocol import (
    AdiabaticSchedule,
    AuctionConfig,
    BidSpec,
    PayoffTable,
    TieError,
    adiabatic_step,
    auto_delta,
    bidding_operator,
    build_first_price_table,
    default_schedule,
    eigenvalue_tracks,
    expansion_diagonal,
    fine_schedule,
    hamming_hamiltonian,
    initial_superposition,
    joint_bidding_operator,
    pauli_z_expansion,
    payoff,
    plausible_allocations,
    problem_hamiltonian,
    run_adiabatic,
)

TOY = AuctionConfig(m=2, p=2)

# Auction payoffs for two 2-qubit bidders on one item: index = |q1 q2 q3 q4>,
# payoff nonzero only when exactly one register is nonzero.
TOY_PAYOFFS = [0, 1, 2, 3, 1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0]

U1 = np.array([[1, 1, 0, 0], [1, -1, 0, 0], [0, 0, 1, 1], [0, 0, 1, -1]]) / math.sqrt(2)
U2 = np.array([[1, 0, 1, 0], [0, 1, 0, 1], [1, 0, -1, 0], [0, 1, 0, -1]]) / math.sqrt(2)
U3 = np.array([[1, 0, 1, 0], [0, 1, 0, 1], [0, 1, 0, -1], [1, 0, -1, 0]]) / math.sqrt(2)


class TestAuctionConfig:
    def test_single_item_uses_all_qubits_for_price(self):
        assert TOY.item_qubits == 0
        assert TOY.value_qubits == 2
        assert TOY.total_qubits == 4

    @pytest.mark.parametrize("n_items,expected_r", [(2, 2), (3, 2), (4, 3)])
    def test_multi_item_index_width(self, n_items, expected_r):
        cfg = AuctionConfig(m=2, p=expected_r + 1, n_items=n_items)
        assert cfg.item_qubits == expected_r

    def test_rejects_nonpositive(self):
        with pytest.raises(ContractViolation):
            AuctionConfig(m=0, p=2)


class TestBidSpec:
    def test_values(self):
        assert BidSpec("10").value == 2
        assert BidSpec("11").index == 3

    def test_rejects_zero_bid(self):
        with pytest.raises(ContractViolation):
            BidSpec("00")

    def test_rejects_garbage(self):
        with pytest.raises(ContractViolation):
            BidSpec("1x")


class TestPayoffTable:
    def test_toy_rows(self):
        table = build_first_price_table(TOY)
        assert list(table.values) == TOY_PAYOFFS

    def test_payoff_lookup(self):
        table = build_first_price_table(TOY)
        assert payoff(table, 0b0011) == 3
        assert payoff(table, 0b0101) == 0
        assert payoff(table, 0b0000) == 0

    def test_payoff_out_of_range(self):
        with pytest.raises(ContractViolation):
            payoff(build_first_price_table(TOY), 16)

    def test_degenerate_auction(self):
        table = build_first_price_table(AuctionConfig(m=1, p=1))
        assert list(table.values) == [0, 1]

    def test_three_bidders(self):
        table = build_first_price_table(AuctionConfig(m=3, p=2))
        assert payoff(table, 0b000010) == 2
        # independent oracle: build the sparse table from the winner's side
        expected = np.zeros(64)
        for bidder in range(3):
            for value in (1, 2, 3):
                expected[value << (2 * (2 - bidder))] = value
        np.testing.assert_array_equal(table.values, expected)

    def test_rejects_negative_payoffs(self):
        with pytest.raises(ContractViolation):
            PayoffTable(1, np.array([0.0, -1.0]))


class TestHamiltonians:
    def test_toy_problem_diagonal(self):
        h_p = problem_hamiltonian(build_first_price_table(TOY))
        np.testing.assert_array_equal(np.diag(h_p).real, [-v for v in TOY_PAYOFFS])
        assert np.max(np.abs(h_p - np.diag(np.diag(h_p)))) == 0

    def test_zero_table(self):
        np.testing.assert_array_equal(problem_hamiltonian(PayoffTable(1, np.zeros(2))), np.zeros((2, 2)))

    def test_hamming_diagonals(self):
        np.testing.assert_array_equal(
            np.diag(hamming_hamiltonian(4)).real,
            [0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4])
        np.testing.assert_array_equal(np.diag(hamming_hamiltonian(1)).real, [0, 1])
        np.testing.assert_array_equal(np.diag(hamming_hamiltonian(2)).real, [0, 1, 1, 2])


class TestPauliZExpansion:
    def test_toy_spot_coefficients(self):
        coeffs = dict(pauli_z_expansion(build_first_price_table(TOY)))
        assert coeffs[()] == pytest.approx(-12 / 16, abs=1e-15)
        assert coeffs[(0,)] == pytest.approx(-2 / 16, abs=1e-15)
        assert coeffs[(0, 1)] == pytest.approx(-6 / 16, abs=1e-15)
        assert coeffs[(0, 1, 2)] == pytest.approx(4 / 16, abs=1e-15)

    def test_constant_table(self):
        expansion = pauli_z_expansion(PayoffTable(2, np.ones(4)))
        assert expansion == [((), -1.0)]

    def test_popcount_table(self):
        weights = np.array([bin(x).count("1") for x in range(4)], dtype=float)
        coeffs = dict(pauli_z_expansion(PayoffTable(2, weights)))
        assert coeffs[()] == pytest.approx(-1.0)
        assert coeffs[(0,)] == pytest.approx(0.5)
        assert coeffs[(1,)] == pytest.approx(0.5)

    def test_brute_force_projection(self):
        # independent oracle: <Z_T, diag>/2^N over all diagonals
        table = build_first_price_table(TOY)
        diag = -table.values
        for qubits, coeff in pauli_z_expansion(table):
            mask = sum(1 << (4 - 1 - q) for q in qubits)
            signs = np.array([(-1) ** bin(x & mask).count("1") for x in range(16)])
            assert coeff == pytest.approx(float(diag @ signs) / 16, abs=1e-14)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_reconstruction_exact(self, seed):
        rng = np.random.default_rng(seed)
        table = PayoffTable(3, rng.integers(0, 7, size=8).astype(float))
        expansion = pauli_z_expansion(table)
        np.testing.assert_allclose(expansion_diagonal(expansion, 3), -table.values, atol=1e-12)


class TestBiddingOperators:
    def test_reference_matrices(self):
        np.testing.assert_allclose(bidding_operator("01"), U1, atol=1e-12)
        np.testing.assert_allclose(bidding_operator("10"), U2, atol=1e-12)
        np.testing.assert_allclose(bidding_operator("11"), U3, atol=1e-12)

    def test_wide_register(self):
        u = bidding_operator("010101")
        expected = np.zeros(64)
        expected[0] = expected[0b010101] = 1 / math.sqrt(2)
        np.testing.assert_allclose(u[:, 0].real, expected, atol=1e-12)
        assert np.max(np.abs(u.conj().T @ u - np.eye(64))) <= 1e-12

    def test_initial_superposition_pair(self):
        state = initial_superposition(["10", "11"])
        expected = np.zeros(16)
        for idx in (0b0000, 0b0011, 0b1000, 0b1011):
            expected[idx] = 0.5
        np.testing.assert_allclose(state.amplitudes.real, expected, atol=1e-12)

    def test_initial_superposition_single(self):
        state = initial_superposition(["1"])
        np.testing.assert_allclose(state.amplitudes.real, [1 / math.sqrt(2)] * 2, atol=1e-12)

    def test_initial_superposition_equal_bids(self):
        state = initial_superposition(["01", "01"])
        expected = np.zeros(16)
        for idx in (0b0000, 0b0001, 0b0100, 0b0101):
            expected[idx] = 0.5
        np.testing.assert_allclose(state.amplitudes.real, expected, atol=1e-12)

    def test_plausible_allocations(self):
        assert plausible_allocations(["10", "11"]) == [0b0000, 0b0011, 0b1000, 0b1011]


class TestSchedules:
    def test_presets(self):
        assert (default_schedule().steps, default_schedule().delta) == (20, 1.5)
        assert (fine_schedule().steps, fine_schedule().delta) == (40, 1.0)
        assert auto_delta(16) == 0.25

    def test_validation(self):
        with pytest.raises(ContractViolation):
            AdiabaticSchedule(steps=0, delta=1.0)
        with pytest.raises(ContractViolation):
            AdiabaticSchedule(steps=10, delta=-1.0)
        with pytest.raises(ContractViolation):
            AdiabaticSchedule(steps=10, delta=1.0, variant="third")
        for delta in (math.inf, math.nan):
            with pytest.raises(ContractViolation):
                AdiabaticSchedule(steps=10, delta=delta)

    def test_locking_requires_compatible_variant(self):
        v = np.eye(4, dtype=complex)
        with pytest.raises(ContractViolation):
            AdiabaticSchedule(steps=10, delta=1.0, variant="zeroth", locking=(v, v))


@pytest.fixture(scope="module")
def toy_setup():
    table = build_first_price_table(TOY)
    return {
        "table": table,
        "u": joint_bidding_operator(["10", "11"]),
        "w": hamming_hamiltonian(4),
        "h_p": problem_hamiltonian(table),
        "psi0": initial_superposition(["10", "11"]),
    }


class TestAdiabaticStep:
    def test_vanishing_step_is_identity(self, toy_setup):
        for variant in ("exact", "zeroth", "first", "locked"):
            schedule = AdiabaticSchedule(steps=4, delta=1e-12, variant=variant)
            out = adiabatic_step(toy_setup["psi0"], 2, schedule,
                                 toy_setup["u"], toy_setup["w"], toy_setup["h_p"])
            np.testing.assert_allclose(out.amplitudes, toy_setup["psi0"].amplitudes, atol=1e-9)

    def test_zeroth_matches_unrolled_definition(self, toy_setup):
        schedule = AdiabaticSchedule(steps=40, delta=1.0, variant="zeroth")
        out = adiabatic_step(toy_setup["psi0"], 1, schedule,
                             toy_setup["u"], toy_setup["w"], toy_setup["h_p"])
        u = toy_setup["u"]
        f = 1 / 40
        d_phases = np.diag(np.exp(-1j * 1.0 * (1 - f) * np.diag(toy_setup["w"]).real))
        p_phases = np.diag(np.exp(-1j * 1.0 * f * np.diag(toy_setup["h_p"]).real))
        expected = u @ d_phases @ u.conj().T @ p_phases @ toy_setup["psi0"].amplitudes
        np.testing.assert_allclose(out.amplitudes, expected, atol=1e-12)

    def test_first_order_local_error_cubed(self, toy_setup):
        # symmetric splitting: one-step error vs the exact map shrinks ~8x per halving
        errors = []
        for delta in (0.2, 0.1, 0.05):
            exact = adiabatic_step(toy_setup["psi0"], 1,
                                   AdiabaticSchedule(2, delta, "exact"),
                                   toy_setup["u"], toy_setup["w"], toy_setup["h_p"])
            first = adiabatic_step(toy_setup["psi0"], 1,
                                   AdiabaticSchedule(2, delta, "first"),
                                   toy_setup["u"], toy_setup["w"], toy_setup["h_p"])
            overlap = abs(np.vdot(exact.amplitudes, first.amplitudes))
            errors.append(math.sqrt(max(0.0, 2 - 2 * overlap)))
        assert 6 < errors[0] / errors[1] < 10
        assert 6 < errors[1] / errors[2] < 10

    def test_rejects_bad_step_index(self, toy_setup):
        schedule = AdiabaticSchedule(steps=4, delta=1.0)
        with pytest.raises(ContractViolation):
            adiabatic_step(toy_setup["psi0"], 5, schedule,
                           toy_setup["u"], toy_setup["w"], toy_setup["h_p"])


class TestRunAdiabatic:
    def test_initial_success_quarter(self, toy_setup):
        traj = run_adiabatic(["10", "11"], toy_setup["table"], default_schedule())
        assert traj.success[0] == pytest.approx(0.25, abs=1e-12)
        assert traj.winner_index == 0b0011

    def test_toy_convergence_and_trend(self, toy_setup):
        traj = run_adiabatic(["10", "11"], toy_setup["table"], default_schedule())
        assert traj.success[-1] >= 0.9
        assert all(b >= a - 0.05 for a, b in zip(traj.success, traj.success[1:]))
        exact = run_adiabatic(["10", "11"], toy_setup["table"], default_schedule("exact"))
        assert exact.success[-1] >= 0.9

    def test_leakage_stays_tiny(self, toy_setup):
        for variant in ("exact", "zeroth", "first"):
            traj = run_adiabatic(["10", "11"], toy_setup["table"], default_schedule(variant))
            assert traj.leakage.max() <= 1e-9

    def test_norms_along_trajectory(self, toy_setup):
        traj = run_adiabatic(["10", "11"], toy_setup["table"], default_schedule("first"))
        for step in traj.steps:
            assert abs(np.linalg.norm(step.state.amplitudes) - 1.0) <= 1e-9

    def test_nan_state_stops_the_run(self, toy_setup):
        # delta * f * weight overflows to inf, so the phases and the state are NaN
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ContractViolation, match="nan"):
            run_adiabatic(["10", "11"], toy_setup["table"], AdiabaticSchedule(steps=2, delta=1e308))

    def test_tied_bids_abort(self, toy_setup):
        with pytest.raises(TieError):
            run_adiabatic(["10", "10"], toy_setup["table"], default_schedule())

    def test_winner_found_for_all_distinct_pairs(self, toy_setup):
        bits = {1: "01", 2: "10", 3: "11"}
        for v1 in (1, 2, 3):
            for v2 in (1, 2, 3):
                if v1 == v2:
                    continue
                traj = run_adiabatic([bits[v1], bits[v2]], toy_setup["table"],
                                     fine_schedule("first"))
                final = traj.final_state.probabilities()
                best = max(traj.plausible, key=lambda x: final[x])
                assert best == traj.winner_index

    def test_subspace_preservation_basis_sweep(self, toy_setup):
        # any diagonal payoff phases + the Hadamard-like mixing step keep
        # every basis vector of the plausible span inside the span
        u = toy_setup["u"]
        plausible = plausible_allocations(["10", "11"])
        rng = np.random.default_rng(2)
        projector = np.zeros((16, 16))
        for x in plausible:
            projector[x, x] = 1.0
        for x in plausible:
            psi = np.zeros(16, dtype=complex)
            psi[x] = 1.0
            for _ in range(4):
                p_diag = np.exp(1j * rng.uniform(0, 2 * math.pi, size=16))
                d_diag = np.exp(-1j * rng.uniform(0, 3) * np.diag(toy_setup["w"]).real)
                out = u @ (d_diag * (u.conj().T @ (p_diag * psi)))
                assert np.linalg.norm(out - projector @ out) <= 1e-9


class TestTrotterOrder:
    def test_global_error_slopes(self, toy_setup):
        total_time = 8.0
        deltas = [0.4, 0.2, 0.1]
        slopes = {}
        for variant in ("zeroth", "first"):
            errors = []
            for delta in deltas:
                steps = round(total_time / delta)
                approx = run_adiabatic(["10", "11"], toy_setup["table"],
                                       AdiabaticSchedule(steps, delta, variant))
                exact = run_adiabatic(["10", "11"], toy_setup["table"],
                                      AdiabaticSchedule(steps, delta, "exact"))
                overlap = abs(np.vdot(exact.final_state.amplitudes,
                                      approx.final_state.amplitudes))
                errors.append(math.sqrt(max(0.0, 2 - 2 * overlap)))
            logd = np.log(deltas)
            slope = np.polyfit(logd, np.log(errors), 1)[0]
            slopes[variant] = slope
        assert abs(slopes["zeroth"] - 1.0) <= 0.3
        assert abs(slopes["first"] - 2.0) <= 0.3


class TestEigenvalueTracks:
    def test_restricted_endpoints(self, toy_setup):
        tracks = eigenvalue_tracks(["10", "11"], toy_setup["table"], default_schedule())
        np.testing.assert_allclose(tracks.eigenvalues[0], [0, 1, 1, 2], atol=1e-9)
        np.testing.assert_allclose(tracks.eigenvalues[-1], [-3, -2, 0, 0], atol=1e-9)

    def test_gap_never_closes(self, toy_setup):
        tracks = eigenvalue_tracks(["10", "11"], toy_setup["table"], default_schedule())
        gaps = tracks.eigenvalues[:, 1] - tracks.eigenvalues[:, 0]
        assert gaps.min() > 0
        assert tracks.g_min == pytest.approx(gaps.min())

    def test_full_space_tracks(self, toy_setup):
        tracks = eigenvalue_tracks(["10", "11"], toy_setup["table"], default_schedule(),
                                   restrict=False)
        assert tracks.eigenvalues.shape == (21, 16)
        np.testing.assert_allclose(tracks.eigenvalues[-1][0], -3, atol=1e-9)


def test_phase_invariant_helper_consistency(toy_setup):
    # the joint bidding operator equals the kron of singles
    u = joint_bidding_operator(["10", "11"])
    assert phase_invariant_distance(u, np.kron(U2, U3)) <= 1e-12


def test_state_vector_roundtrip(toy_setup):
    state = StateVector(toy_setup["u"][:, 0])
    assert state.n_qubits == 4
