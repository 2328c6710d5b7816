import itertools
import math
import tracemalloc
from functools import reduce

import numpy as np
import pytest
from helpers import assert_run_matches, dense_run, kron_bidding_operator

from qauction import protocol
from qauction.adversary import build_collusion_circuit, locking_operator, locking_operators, spurious_table
from qauction.circuits import circuit_to_matrix
from qauction.core import ContractViolation, StateVector, phase_invariant_distance
from qauction.protocol import (
    AdiabaticSchedule,
    AuctionConfig,
    BidSpec,
    PayoffTable,
    TieError,
    auto_delta,
    bidding_operator,
    build_first_price_table,
    default_schedule,
    eigenvalue_tracks,
    expansion_diagonal,
    fine_schedule,
    hamming_weights,
    joint_bidding_operator,
    pauli_z_expansion,
    payoff,
    plausible_allocations,
    run_adiabatic,
    run_schedule,
    winning_allocation,
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
        assert TOY.total_qubits == 4

    def test_rejects_nonpositive(self):
        with pytest.raises(ContractViolation):
            AuctionConfig(m=0, p=2)

    @pytest.mark.parametrize("m, p", [(1.5, 2), (2, 2.0), (np.float64(2), 2), (True, 2), ("2", 2)])
    def test_rejects_non_integer_sizes(self, m, p):
        with pytest.raises(ContractViolation, match="integers"):
            AuctionConfig(m, p)

    def test_numpy_integers_are_sizes(self):
        assert AuctionConfig(np.int64(2), 2).total_qubits == 4


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
    """H(f) = (1-f) U W U^dag + f H_p at its endpoints, read from the
    full-space gap tracks: W's diagonal at f = 0 and H_p = diag(-F) at f = 1."""

    def test_toy_problem_diagonal(self):
        tracks = eigenvalue_tracks(["10", "11"], build_first_price_table(TOY), default_schedule(), restrict=False)
        np.testing.assert_allclose(tracks.eigenvalues[-1], np.sort([-v for v in TOY_PAYOFFS]), rtol=0, atol=1e-12)

    def test_zero_table(self):
        tracks = eigenvalue_tracks(["1"], PayoffTable(1, np.zeros(2)), default_schedule(), restrict=False)
        np.testing.assert_allclose(tracks.eigenvalues[-1], [0, 0], rtol=0, atol=1e-12)
        np.testing.assert_allclose(tracks.eigenvalues[0], [0, 1], rtol=0, atol=1e-12)

    def test_hamming_diagonals(self):
        np.testing.assert_array_equal(hamming_weights(4), [0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4])
        np.testing.assert_array_equal(hamming_weights(1), [0, 1])
        np.testing.assert_array_equal(hamming_weights(2), [0, 1, 1, 2])
        for n in range(1, 13):
            np.testing.assert_array_equal(hamming_weights(n), [bin(x).count("1") for x in range(2**n)])

    def test_set_bits_is_w_on_the_given_indices(self):
        rng = np.random.default_rng(5)
        for n in range(1, 13):
            indices = np.sort(rng.choice(2**n, size=min(2**n, 17), replace=False))
            np.testing.assert_array_equal(protocol._set_bits(indices), hamming_weights(n)[indices])
        assert protocol._set_bits([]).shape == (0,)


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

    @staticmethod
    def _start_state(bids):
        """|Psi_0> as a run starts from it: state 0 of a one-step run."""
        n = sum(len(b) for b in bids)
        factors = tuple(bidding_operator(b) for b in bids)
        table = PayoffTable(n, np.zeros(2**n))
        return run_schedule(factors, plausible_allocations(bids), 0, table, AdiabaticSchedule(1, 1.0)).state(0)

    def test_initial_superposition_pair(self):
        state = self._start_state(["10", "11"])
        expected = np.zeros(16)
        for idx in (0b0000, 0b0011, 0b1000, 0b1011):
            expected[idx] = 0.5
        np.testing.assert_allclose(state.amplitudes.real, expected, atol=1e-12)

    def test_initial_superposition_single(self):
        state = self._start_state(["1"])
        np.testing.assert_allclose(state.amplitudes.real, [1 / math.sqrt(2)] * 2, atol=1e-12)

    def test_initial_superposition_equal_bids(self):
        state = self._start_state(["01", "01"])
        expected = np.zeros(16)
        for idx in (0b0000, 0b0001, 0b0100, 0b0101):
            expected[idx] = 0.5
        np.testing.assert_allclose(state.amplitudes.real, expected, atol=1e-12)

    def test_plausible_allocations(self):
        assert plausible_allocations(["10", "11"]) == [0b0000, 0b0011, 0b1000, 0b1011]

    def test_empty_bidder_list_is_a_contract_violation(self):
        with pytest.raises(ContractViolation, match="need at least one bidder"):
            plausible_allocations([])
        with pytest.raises(ContractViolation, match="need at least one bidder"):
            run_adiabatic([], build_first_price_table(TOY), default_schedule())


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

    @pytest.mark.parametrize("steps", [2.5, np.float64(3), 3.0, True, "3"])
    def test_rejects_non_integer_steps(self, steps):
        with pytest.raises(ContractViolation, match="integer"):
            AdiabaticSchedule(steps, 1.0)

    @pytest.mark.parametrize("delta", ["1", None, 1j, True])
    def test_rejects_non_real_delta(self, delta):
        with pytest.raises(ContractViolation, match="real number"):
            AdiabaticSchedule(3, delta)

    def test_numpy_numbers_are_accepted(self):
        schedule = AdiabaticSchedule(np.int64(3), np.float32(0.5))
        assert (schedule.steps, schedule.delta) == (3, 0.5)
        assert AdiabaticSchedule(3, 1).delta == 1

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
    }


class TestAdiabaticStep:
    """One search step on the run path: `traj.state(1)`, the state after
    step 1 at f = 1/S, against the step written out."""

    def test_vanishing_step_is_identity(self, toy_setup):
        for variant in ("exact", "zeroth", "first", "locked"):
            schedule = AdiabaticSchedule(steps=4, delta=1e-12, variant=variant)
            traj = run_adiabatic(["10", "11"], toy_setup["table"], schedule)
            np.testing.assert_allclose(traj.state(1).amplitudes, traj.state(0).amplitudes, atol=1e-9)

    def test_zeroth_matches_unrolled_definition(self, toy_setup):
        schedule = AdiabaticSchedule(steps=40, delta=1.0, variant="zeroth")
        traj = run_adiabatic(["10", "11"], toy_setup["table"], schedule)
        u = toy_setup["u"]
        f = 1 / 40
        d_phases = np.diag(np.exp(-1j * 1.0 * (1 - f) * hamming_weights(4)))
        p_phases = np.diag(np.exp(1j * 1.0 * f * toy_setup["table"].values))
        expected = u @ d_phases @ u.conj().T @ p_phases @ u[:, 0]
        np.testing.assert_allclose(traj.state(1).amplitudes, expected, atol=1e-12)

    @pytest.mark.parametrize("variant", ["exact", "zeroth", "first", "locked"])
    def test_matches_unrolled_definition(self, toy_setup, variant):
        # a Haar U, so |Psi_0> = U|0...0> is a generic state on all 16
        # indices; V from the locking pair
        pair = locking_operators(0.9, 0.7, ["10", "11"])
        locking = pair.operators if variant in ("exact", "locked") else None
        u = _haar(16, np.random.default_rng(4))
        schedule = AdiabaticSchedule(4, 1.2, variant, locking)
        traj = run_schedule((u,), plausible_allocations(["10", "11"]), 0b0011, toy_setup["table"], schedule)
        expected = dense_run(u, None if locking is None else np.kron(pair.v1, pair.v2), toy_setup["table"], schedule)
        assert traj.span.size == 16
        np.testing.assert_allclose(traj.state(1).amplitudes, expected[1], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("variant", ["zeroth", "first"])
    def test_locking_needs_a_locking_slot(self, variant):
        v = np.eye(4, dtype=complex)
        with pytest.raises(ContractViolation, match="has no locking slot"):
            AdiabaticSchedule(4, 1.0, variant, locking=(v, v))

    def test_rejects_mismatched_locking(self, toy_setup):
        with pytest.raises(ContractViolation, match="register dimension"):
            run_adiabatic(["10", "11"], toy_setup["table"], AdiabaticSchedule(4, 1.0, "locked", locking=(np.eye(4),)))

    def test_first_order_local_error_cubed(self, toy_setup):
        # symmetric splitting: one-step error vs the exact map shrinks ~8x per halving
        errors = []
        for delta in (0.2, 0.1, 0.05):
            exact, first = (run_adiabatic(["10", "11"], toy_setup["table"], AdiabaticSchedule(2, delta, variant))
                            .state(1) for variant in ("exact", "first"))
            overlap = abs(np.vdot(exact.amplitudes, first.amplitudes))
            errors.append(math.sqrt(max(0.0, 2 - 2 * overlap)))
        assert 6 < errors[0] / errors[1] < 10
        assert 6 < errors[1] / errors[2] < 10


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
                d_diag = np.exp(-1j * rng.uniform(0, 3) * hamming_weights(4))
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

    @pytest.mark.parametrize("cap", [1, None, 2**30], ids=["per_f", "default", "one_call"])
    @pytest.mark.parametrize("bids, restrict, locked", [
        (["10", "01", "11", "01", "10"], True, False),
        (["10", "01", "11", "01", "10"], False, False),
        (["10", "01", "11"], False, True),
    ], ids=["n10_restricted", "n10_cells", "n6_locked_cells"])
    def test_stacked_tracks_equal_the_per_f_loop(self, bids, restrict, locked, cap, monkeypatch):
        # the oracle: one eigvalsh per f over the stack of cells, each row sorted
        table = build_first_price_table(AuctionConfig(m=len(bids), p=2))
        locking = tuple(locking_operator(b, 0.8)[1] for b in bids) if locked else None
        schedule = AdiabaticSchedule(20, 1.5, "locked" if locked else "zeroth", locking)
        factors, dim = [bidding_operator(b) for b in bids], 2**table.n_qubits
        operators = [(factors, "bidding")] + ([(locking, "locking")] if locked else [])
        cells = np.array([plausible_allocations(bids)]) if restrict else protocol._cells(operators, dim)
        terms = []
        for cell in cells:
            u, cols = protocol._entries(factors, cell, dim, "bidding")
            v, v_cols = protocol._entries(locking, cell, dim, "locking") if locked else (None, cell)
            terms.append(protocol._terms(u, protocol._set_bits(cols), -table.values[v_cols], v))
        hb, hp = np.array(terms).swapaxes(0, 1)
        fs = [s / 20 for s in range(21)]
        rows = np.array([np.sort(np.linalg.eigvalsh((1 - f) * hb + f * hp), axis=None) for f in fs])
        if cap is not None:
            monkeypatch.setattr(protocol, "_TRACK_ENTRIES", cap)
        tracks = eigenvalue_tracks(bids, table, schedule, restrict=restrict)
        assert np.array_equal(tracks.f_values, fs) and np.array_equal(tracks.eigenvalues, rows)
        assert tracks.g_min == float(np.min(rows[:, 1] - rows[:, 0]))

    @pytest.mark.parametrize("restrict", [True, False])
    def test_no_bidders_is_a_contract_violation(self, restrict):
        with pytest.raises(ContractViolation, match="need at least one bidder"):
            eigenvalue_tracks([], PayoffTable(0, [0.0]), default_schedule(), restrict=restrict)

    @pytest.mark.parametrize("restrict", [True, False])
    def test_mixed_widths_are_a_contract_violation(self, restrict):
        with pytest.raises(ContractViolation, match="share a register width"):
            eigenvalue_tracks(["1", "10"], PayoffTable(3, np.zeros(8)), default_schedule(), restrict=restrict)


def test_phase_invariant_helper_consistency(toy_setup):
    # the joint bidding operator equals the kron of singles
    u = joint_bidding_operator(["10", "11"])
    assert phase_invariant_distance(u, np.kron(U2, U3)) <= 1e-12


def test_state_vector_roundtrip(toy_setup):
    state = StateVector(toy_setup["u"][:, 0])
    assert state.n_qubits == 4


SPAN_BIDS = [["10", "11"], ["101", "011"], ["01", "11", "10"], ["10", "01", "11", "01"]]
SPAN_ALPHAS = (0.9, 0.7, 0.8, 0.6, 0.75)


def _span_setup(bids, variant):
    table = build_first_price_table(AuctionConfig(m=len(bids), p=len(bids[0])))
    locking = None
    if variant in ("locked", "exact"):
        locking = tuple(locking_operator(b, a)[1] for b, a in zip(bids, SPAN_ALPHAS))
    plausible = plausible_allocations(bids)
    return table, AdiabaticSchedule(12, 1.3, variant, locking), plausible, winning_allocation(table, plausible)


def _assert_same_run(a, b, atol):
    assert len(a.steps) == len(b.steps)
    for x, y in zip(a.steps, b.steps):
        np.testing.assert_allclose(x.state.amplitudes, y.state.amplitudes, rtol=0, atol=atol)
    np.testing.assert_allclose(a.success, b.success, rtol=0, atol=atol)
    np.testing.assert_allclose(a.leakage, b.leakage, rtol=0, atol=atol)


def _haar(dim, rng):
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _collusion_factor(bid1, bid2):
    return circuit_to_matrix(build_collusion_circuit(BidSpec(bid1), BidSpec(bid2)))


def _mixed_columns_factors():
    # U_2 with its non-lead columns mixed: column 0, so |Psi_0>, is kept
    mix = np.eye(4, dtype=complex)
    mix[1:, 1:] = _haar(3, np.random.default_rng(7))
    return bidding_operator("10"), bidding_operator("11") @ mix


class TestPlausibleSpan:
    """`run_schedule` given Kronecker factors runs the product formulas on
    the plausible span; the dense product is the oracle."""

    @pytest.mark.parametrize("bids", SPAN_BIDS, ids=",".join)
    @pytest.mark.parametrize("variant", ["zeroth", "first", "locked", "exact"])
    def test_factors_match_dense(self, bids, variant, monkeypatch):
        table, schedule, plausible, winner = _span_setup(bids, variant)
        factors = tuple(bidding_operator(b) for b in bids)
        dense = run_schedule((reduce(np.kron, factors),), plausible, winner, table, schedule)
        inner = protocol._run

        def span_only(factors, span, *args):  # every variant stays on the span
            assert len(span) < 2**table.n_qubits, "ran on the full space"
            return inner(factors, span, *args)
        monkeypatch.setattr(protocol, "_run", span_only)
        span = run_schedule(factors, plausible, winner, table, schedule)
        _assert_same_run(span, dense, 1e-12)

    @pytest.mark.parametrize("bids", SPAN_BIDS, ids=",".join)
    @pytest.mark.parametrize("variant", ["zeroth", "locked"])
    def test_restricted_tracks_match_dense_projection(self, bids, variant):
        table, schedule, plausible, _ = _span_setup(bids, variant)
        n = table.n_qubits
        u, w, h_p = joint_bidding_operator(bids), np.diag(hamming_weights(n)), np.diag(-table.values)
        v = np.eye(2**n) if schedule.locking is None else reduce(np.kron, schedule.locking)
        # restrict=False spans every index, so its basis is the identity
        for restrict, basis in ((True, np.eye(2**n)[:, plausible]), (False, np.eye(2**n))):
            tracks = eigenvalue_tracks(bids, table, schedule, restrict=restrict)
            assert tracks.eigenvalues.shape == (schedule.steps + 1, basis.shape[1])
            for f, row in zip(tracks.f_values, tracks.eigenvalues):
                h_f = basis.T @ ((1 - f) * u @ w @ u.conj().T + f * v @ h_p @ v.conj().T) @ basis
                np.testing.assert_allclose(row, np.linalg.eigvalsh(h_f), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("case", ["haar", "mixed_columns"])
    @pytest.mark.parametrize("variant", ["zeroth", "first"])
    def test_leaking_factors_report_the_dense_run(self, case, variant, toy_setup, monkeypatch):
        # Haar factors move |Psi_0> out of the plausible span; mixing the
        # non-lead columns of U_2 keeps |Psi_0> but makes the mixer leak at
        # step 1. Either way the span |Psi_0> closes to under U is wider
        # than the plausible one, and one run on it is the dense run.
        rng = np.random.default_rng(7)
        factors = (_haar(4, rng), _haar(4, rng)) if case == "haar" else _mixed_columns_factors()
        plausible = plausible_allocations(["10", "11"])
        table = toy_setup["table"]
        schedule = AdiabaticSchedule(12, 1.3, variant)
        dense = run_schedule((np.kron(*factors),), plausible, 0b0011, table, schedule)
        calls = []
        inner = protocol._run

        def counted(factors, span, *args):
            calls.append(span)
            return inner(factors, span, *args)
        monkeypatch.setattr(protocol, "_run", counted)
        span = run_schedule(factors, plausible, 0b0011, table, schedule)
        assert len(calls) == 1 and len(calls[0]) > len(plausible)
        assert span.leakage.max() > 1e-3
        _assert_same_run(span, dense, 0)

    def test_entries_match_the_dense_product(self):
        # any rows (unsorted), on the column support: the product of each
        # factor's support on its rows, which holds every nonzero column of the rows
        rng = np.random.default_rng(5)
        factors = (_haar(2, rng), bidding_operator("011"), _haar(4, rng) * (rng.random((4, 4)) < 0.5))
        dense = reduce(np.kron, factors)
        rows = [37, 2, 40, 5]
        block, taken = protocol._entries(factors, rows, 64, "factors")
        assert set(np.flatnonzero(np.any(dense[rows] != 0, axis=0))) < set(taken)
        np.testing.assert_array_equal(block, dense[np.ix_(rows, taken)])
        with pytest.raises(ContractViolation, match="register dimension"):
            protocol._entries(factors, rows, 128, "factors")

    def test_n12_runs_without_dense_operators(self, monkeypatch):
        bids = ["0110", "1011", "0011"]
        table = build_first_price_table(AuctionConfig(m=3, p=4))
        locking = tuple(locking_operator(b, a)[1] for b, a in zip(bids, SPAN_ALPHAS))

        def refuse(*args, **kwargs):
            raise AssertionError("a dense operator was built")
        inner = protocol._entries

        def few_entries(factors, rows, dim, what):
            assert len(rows) < dim, f"all {dim} rows of the {what} were formed"
            block, taken = inner(factors, rows, dim, what)
            assert block.shape == (len(rows), len(taken)) and len(taken) <= len(rows), \
                f"{len(taken)} columns of the {what} were formed for {len(rows)} rows"
            return block, taken
        monkeypatch.setattr(protocol, "joint_bidding_operator", refuse)
        monkeypatch.setattr(protocol, "_entries", few_entries)
        tracemalloc.start()
        try:
            for variant, lock in (("zeroth", None), ("first", None), ("locked", locking)):
                traj = run_adiabatic(bids, table, AdiabaticSchedule(20, 1.5, variant, lock))
                assert traj.final_state.n_qubits == 12 and traj.leakage.max() <= 1e-9
            tracks = eigenvalue_tracks(bids, table, AdiabaticSchedule(20, 1.5, "locked", locking))
            assert tracks.eigenvalues.shape == (21, 8)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10_000_000


class TestSpanTrajectory:
    """A run's trajectory: the span amplitudes, one full-length final state,
    other full-length states zero off the span and built when read, and the
    success and leakage arrays that its steps carry."""

    def test_final_state_is_the_last_step(self, toy_setup):
        traj = run_adiabatic(["10", "11"], toy_setup["table"], default_schedule("first"))
        assert traj.final_state is traj.steps[-1].state and len(traj.steps) == 21
        assert traj.state(20) is traj.state(-1) is traj.final_state

    def test_steps_slice_to_a_list_and_state_takes_integers(self, toy_setup):
        traj = run_adiabatic(["10", "11"], toy_setup["table"], default_schedule("first"))
        part = traj.steps[1:3]
        assert isinstance(part, list) and [(st.s, st.f) for st in part] == [(1, 0.05), (2, 0.1)]
        for st in part:
            assert st.state.amplitudes.tobytes() == traj.steps[st.s].state.amplitudes.tobytes()
            assert (st.success_probability, st.subspace_leakage) == (traj.success[st.s], traj.leakage[st.s])
        assert [st.s for st in traj.steps[::-10]] == [20, 10, 0] and traj.steps[5:2] == []
        assert traj.steps[-1:][0].state is traj.final_state
        assert traj.state(np.int64(3)).amplitudes.tobytes() == traj.steps[3].state.amplitudes.tobytes()
        for bad in (slice(0, 2), 1.0, True, "1", None):
            with pytest.raises(ContractViolation, match="step index"):
                traj.state(bad)
        with pytest.raises(IndexError):
            traj.state(21)

    @pytest.mark.parametrize("variant", ["zeroth", "first", "locked", "exact"])
    def test_a_run_builds_one_full_length_state(self, variant, monkeypatch):
        bids = ["0011", "0101", "1001"]
        table = build_first_price_table(AuctionConfig(m=3, p=4))
        locking = tuple(locking_operator(b, 0.8)[1] for b in bids) if variant == "locked" else None
        schedule = AdiabaticSchedule(20, 1.5, variant, locking)
        factors = tuple(bidding_operator(b) for b in bids)  # no dense 4096 x 4096 operator for `exact`
        plausible = plausible_allocations(bids)
        built = []
        init = StateVector.__init__

        def counted(self, *args, **kwargs):
            built.append(len(args[0]))
            init(self, *args, **kwargs)
        monkeypatch.setattr(StateVector, "__init__", counted)
        traj = run_schedule(factors, plausible, winning_allocation(table, plausible), table, schedule)
        assert built == [4096]
        assert len(traj.steps) == 21 and traj.amplitudes.shape == (21, 8) and built == [4096]
        assert traj.steps[3].state.n_qubits == 12 and built == [4096, 4096]

    @pytest.mark.parametrize("variant", ["zeroth", "locked"])
    def test_states_and_probabilities_are_the_dense_scatter(self, variant):
        bids = ["10", "01", "11"]
        table, schedule, plausible, winner = _span_setup(bids, variant)
        traj = run_adiabatic(bids, table, schedule)
        dense = np.zeros((schedule.steps + 1, 64), dtype=complex)
        dense[:, traj.span] = traj.amplitudes
        np.testing.assert_array_equal(traj.span, plausible)
        for s in range(schedule.steps + 1):
            assert traj.state(s).amplitudes.tobytes() == dense[s].tobytes()
            assert traj.steps[s].state.amplitudes.tobytes() == dense[s].tobytes()
        for index in range(64):
            want = np.array([StateVector(row).probabilities()[index] for row in dense])
            assert traj.probability(index).tobytes() == want.tobytes()
        assert traj.probability(winner).tobytes() == traj.success.tobytes()
        for bad in (-1, 64, 1.0, True):
            with pytest.raises(ContractViolation, match="basis index"):
                traj.probability(bad)

    def test_steps_are_zero_off_the_span(self, toy_setup):
        traj = run_adiabatic(["10", "11"], toy_setup["table"], default_schedule("locked"))
        off_span = np.setdiff1d(np.arange(16), traj.plausible)
        for s, st in enumerate(traj.steps):
            assert (st.s, st.f) == (s, s / 20)
            assert not np.any(st.state.amplitudes[off_span])
            assert (st.success_probability, st.subspace_leakage) == (traj.success[s], traj.leakage[s])


class TestSpan:
    """`protocol._span`: the span that the support of |Psi_0> = U|0...0>
    closes to under U and V, on which every variant runs."""

    @staticmethod
    def _span(*operators):
        # grown from the support of |Psi_0> = U|0...0>: each factor's nonzero rows in column 0
        start = [np.flatnonzero(f[:, 0]) for f in operators[0]]
        n = sum(math.log2(f.shape[0]) for f in operators[0])
        return protocol._span([(factors, "factors") for factors in operators], 2 ** round(n), start)

    @pytest.mark.parametrize("bids", SPAN_BIDS, ids=",".join)
    def test_bidding_and_locking_operators_give_the_plausible_span(self, bids):
        factors = tuple(bidding_operator(b) for b in bids)
        locking = tuple(locking_operator(b, a)[1] for b, a in zip(bids, SPAN_ALPHAS))
        want = plausible_allocations(bids)
        assert self._span(factors).tolist() == want
        assert self._span(factors, locking).tolist() == want
        # locked `exact`: the dense U is one factor, V has one per bidder
        assert self._span((joint_bidding_operator(bids),)).tolist() == want
        assert self._span((joint_bidding_operator(bids),), locking).tolist() == want

    def test_haar_factors_give_every_index(self):
        rng = np.random.default_rng(3)
        every = list(range(16))
        assert self._span((_haar(4, rng), _haar(4, rng))).tolist() == every
        assert self._span((_haar(16, rng),)).tolist() == every
        # a Haar V joins what the bidding operators keep apart
        bidding = (bidding_operator("10"), bidding_operator("11"))
        assert self._span(bidding, (_haar(4, rng), _haar(4, rng))).tolist() == every
        assert self._span((np.kron(*bidding),), (_haar(4, rng), _haar(4, rng))).tolist() == every

    @pytest.mark.parametrize("case", ["collusion_10_11", "collusion_01_10", "mixed_columns"])
    def test_span_is_closed_and_holds_psi0(self, case):
        factors = _mixed_columns_factors() if case == "mixed_columns" else (_collusion_factor(*case.split("_")[1:]),)
        u = reduce(np.kron, factors)
        span = self._span(factors)
        assert set(np.flatnonzero(u[:, 0])) <= set(span)
        # closed: no index outside shares a nonzero column of U with one inside
        pattern = (u != 0).astype(int)
        joined = pattern @ pattern.T > 0
        assert not np.any(joined[np.ix_(span, np.setdiff1d(np.arange(16), span))])
        # and the least such span: breadth-first search over the dense pattern
        reached = np.flatnonzero(u[:, 0])
        while (grown := np.flatnonzero(joined[reached].any(axis=0))).size > reached.size:
            reached = grown
        np.testing.assert_array_equal(span, reached)

    @pytest.mark.parametrize("variant", ["zeroth", "first", "locked", "exact"])
    @pytest.mark.parametrize("dense", [False, True], ids=["factors", "dense"])
    def test_one_run_per_schedule(self, variant, dense, monkeypatch):
        bids = SPAN_BIDS[2]
        table, schedule, plausible, winner = _span_setup(bids, variant)
        factors = tuple(bidding_operator(b) for b in bids)
        spans = []
        inner = protocol._run

        def counted(factors, span, *args):
            spans.append(span.tolist())
            return inner(factors, span, *args)
        monkeypatch.setattr(protocol, "_run", counted)
        run_schedule((reduce(np.kron, factors),) if dense else factors, plausible, winner, table, schedule)
        assert spans == [plausible]

    def test_n12_exact_matches_the_plausible_evolution(self):
        # the exact search written out on the 8 plausible indices, from the
        # rows of U built with the Kronecker reference gates and W counted bit by bit
        bids = ["0011", "0101", "1001"]
        table = build_first_price_table(AuctionConfig(m=3, p=4))
        schedule = AdiabaticSchedule(20, 1.5, "exact")
        traj = run_adiabatic(bids, table, schedule)
        plausible = plausible_allocations(bids)
        factors = [kron_bidding_operator(b) for b in bids]
        rows = np.array([reduce(np.kron, [f[(x >> 4 * (2 - j)) & 15] for j, f in enumerate(factors)])
                         for x in plausible])
        weights = np.array([bin(c).count("1") for c in range(2**12)], dtype=float)
        h_b = (rows * weights) @ rows.conj().T
        h_p = np.diag(-table.values[plausible])
        psi = rows[:, 0]
        outside = np.ones(2**12, dtype=bool)
        outside[plausible] = False
        for s, step in enumerate(traj.steps):
            if s:
                f = s / schedule.steps
                vals, vecs = np.linalg.eigh((1 - f) * h_b + f * h_p)
                psi = vecs @ (np.exp(-1j * schedule.delta * vals) * (vecs.conj().T @ psi))
                psi = psi / np.linalg.norm(psi)
            np.testing.assert_allclose(step.state.amplitudes[plausible], psi, rtol=0, atol=1e-12)
            assert not np.any(step.state.amplitudes[outside])
        assert abs(traj.success[-1] - abs(psi[plausible.index(traj.winner_index)]) ** 2) <= 1e-12


N8_BIDS = SPAN_BIDS[3]


class TestBlockDiagonal:
    """`exact` diagonalizes H(f) on its span and the full-space tracks go
    cell by cell over H(f)'s cells (`protocol._cells`); the dense eigh of
    the whole H(f) is the oracle."""

    @staticmethod
    def _cells(*operators):
        dim = math.prod(f.shape[0] for f in operators[0])
        return protocol._cells([(factors, "factors") for factors in operators], dim)

    def test_bids_split_into_xor_orbits(self):
        # each cell is {x XOR y : y plausible}, and the cells cover every index once
        factors = tuple(bidding_operator(b) for b in N8_BIDS)
        cells = self._cells(factors)
        assert cells.shape == (16, 16)
        for row in cells:
            assert list(row) == sorted(row[0] ^ y for y in plausible_allocations(N8_BIDS))
        assert sorted(cells.ravel()) == list(range(256))
        _, schedule, _, _ = _span_setup(N8_BIDS, "locked")
        np.testing.assert_array_equal(self._cells(factors, schedule.locking), cells)

    def test_locked_pair_gives_the_same_split(self):
        pair = locking_operators(0.9, 0.7, ["1011", "0110"])
        factors = (bidding_operator("1011"), bidding_operator("0110"))
        cells = self._cells(factors)
        assert cells.shape == (64, 4)
        np.testing.assert_array_equal(self._cells(factors, pair.operators), cells)

    def test_haar_factors_give_one_block(self):
        rng = np.random.default_rng(3)
        every = np.arange(16)[None, :]
        np.testing.assert_array_equal(self._cells((_haar(4, rng), _haar(4, rng))), every)
        np.testing.assert_array_equal(self._cells((_haar(16, rng),)), every)
        # a Haar V joins what the bidding operators keep apart
        bidding = (bidding_operator("10"), bidding_operator("11"))
        np.testing.assert_array_equal(self._cells(bidding, (_haar(4, rng), _haar(4, rng))), every)

    def test_unequal_components_give_one_block(self):
        u = np.zeros((4, 4), dtype=complex)
        u[:3, :3] = _haar(3, np.random.default_rng(9))  # cells {0, 1, 2} and {3}
        u[3, 3] = 1.0
        np.testing.assert_array_equal(self._cells((u,)), [[0, 1, 2, 3]])
        u = np.kron(np.array([[1, 1], [1, -1]]) / math.sqrt(2), np.eye(2))
        np.testing.assert_array_equal(self._cells((u,)), [[0, 2], [1, 3]])
        u[1, 0] = 1e-300  # one tiny entry is enough to join two indices
        np.testing.assert_array_equal(self._cells((u,)), [[0, 1, 2, 3]])

    @pytest.mark.parametrize("bids, locked, steps", [
        (N8_BIDS, False, 12), (N8_BIDS, True, 12), (["10", "01", "11", "01", "10"], False, 4),
        (["10", "01", "11", "01", "10"], True, 2),
    ], ids=["plain", "locked", "n10", "n10_locked"])
    def test_exact_matches_dense_eigh(self, bids, locked, steps):
        table, schedule, _, winner = _span_setup(bids, "exact" if locked else "zeroth")
        schedule = AdiabaticSchedule(steps, schedule.delta, "exact", schedule.locking)
        v = reduce(np.kron, schedule.locking) if locked else None
        traj = run_adiabatic(bids, table, schedule)
        assert traj.winner_index == winner
        assert_run_matches(traj, dense_run(joint_bidding_operator(bids), v, table, schedule), 1e-12)

    def test_leaking_operator_reports_the_dense_leakage(self, toy_setup):
        # mixing the non-lead columns of U_2 makes the mixer leak out of the span
        u = np.kron(*_mixed_columns_factors())
        plausible = plausible_allocations(["10", "11"])
        schedule = AdiabaticSchedule(12, 1.3, "exact")
        traj = run_schedule((u,), plausible, 0b0011, toy_setup["table"], schedule)
        assert traj.leakage.max() > 1e-3
        assert_run_matches(traj, dense_run(u, None, toy_setup["table"], schedule), 1e-12)

    def test_ten_qubits_diagonalize_blocks_of_two_to_the_m(self, monkeypatch):
        # m = 5 bidders: no eigh or eigvalsh member may be wider than 2^5, each
        # exact step diagonalizes only the span |Psi_0> closes to, and the tracks
        # stack H(f) over runs of f rows and the 32 cells of 32
        bids = ["10", "01", "11", "01", "10"]
        shapes = {"eig_hermitian": [], "eigvalsh": []}
        eig_hermitian, eigvalsh = protocol.eig_hermitian, np.linalg.eigvalsh

        def recorded(name, decompose):
            def call(h, *args):
                shapes[name].append(np.shape(h))
                return decompose(h, *args)
            return call
        monkeypatch.setattr(protocol, "eig_hermitian", recorded("eig_hermitian", eig_hermitian))
        monkeypatch.setattr(protocol.np.linalg, "eigvalsh", recorded("eigvalsh", eigvalsh))
        table = build_first_price_table(AuctionConfig(m=5, p=2))
        schedule = AdiabaticSchedule(20, 1.5, "exact")
        traj = run_adiabatic(bids, table, schedule)
        tracks = eigenvalue_tracks(bids, table, schedule, restrict=False)
        assert shapes["eig_hermitian"] == [(32, 32)] * 20
        rows = protocol._TRACK_ENTRIES // 32**3  # f rows per stacked call
        assert shapes["eigvalsh"] == [(min(rows, 21 - i), 32, 32, 32) for i in range(0, 21, rows)]
        assert len(shapes["eigvalsh"]) < 21 and max(shape[-1] for shape in shapes["eigvalsh"]) == 2**5
        assert traj.leakage.max() <= 1e-9 and tracks.eigenvalues.shape == (21, 1024)
        outside = np.ones(1024, dtype=bool)
        outside[plausible_allocations(bids)] = False
        for st in traj.steps:  # the other cells hold exactly nothing
            assert not np.any(st.state.amplitudes[outside])


    def test_n12_full_space_tracks_go_cell_by_cell(self):
        # 512 cells of 8: no 2^12 x 2^12 term; the endpoints are W and H_p
        bids = ["0011", "0101", "1001"]
        table = build_first_price_table(AuctionConfig(m=3, p=4))
        tracemalloc.start()
        try:
            tracks = eigenvalue_tracks(bids, table, default_schedule(), restrict=False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64_000_000
        assert tracks.eigenvalues.shape == (21, 4096)
        weights = [bin(x).count("1") for x in range(4096)]
        np.testing.assert_allclose(tracks.eigenvalues[0], np.sort(weights), rtol=0, atol=1e-9)
        np.testing.assert_allclose(tracks.eigenvalues[-1], np.sort(-table.values), rtol=0, atol=1e-9)

    @pytest.mark.parametrize("locked", [False, True], ids=["plain", "locked"])
    def test_ten_qubit_exact_step_matches_the_dense_step(self, locked):
        # step 1 of a 10-qubit run at f = 0.1; the oracle is one dense eigh of the 1024 x 1024 H(f)
        bids = ["10", "01", "11", "01", "10"]
        table = build_first_price_table(AuctionConfig(m=5, p=2))
        locking = tuple(locking_operator(b, 0.8)[1] for b in bids) if locked else None
        u, w, h_p = joint_bidding_operator(bids), hamming_weights(10), -table.values
        v = reduce(np.kron, locking) if locked else np.eye(1024)
        traj = run_adiabatic(bids, table, AdiabaticSchedule(10, 1.2, "exact", locking))
        vals, vecs = np.linalg.eigh(0.9 * (u * w) @ u.conj().T + 0.1 * (v * h_p) @ v.conj().T)
        expected = vecs @ (np.exp(-1.2j * vals) * (vecs.conj().T @ u[:, 0]))
        np.testing.assert_allclose(traj.state(1).amplitudes, expected, rtol=0, atol=1e-12)


def _loop_first_price(m, p):
    mask = (1 << p) - 1
    values = np.zeros(2 ** (m * p))
    for x in range(values.size):
        regs = [(x >> (p * (m - 1 - j))) & mask for j in range(m)]
        nonzero = [r for r in regs if r]
        if len(nonzero) == 1:
            values[x] = nonzero[0]
    return values


def _loop_expansion(values, n):
    coeffs = (-values).astype(float).copy()
    h = 1
    while h < coeffs.size:
        for i in range(0, coeffs.size, 2 * h):
            for j in range(i, i + h):
                a, b = coeffs[j], coeffs[j + h]
                coeffs[j], coeffs[j + h] = a + b, a - b
        h *= 2
    coeffs /= coeffs.size
    out = []
    for mask in range(coeffs.size):
        c = float(coeffs[mask])
        if abs(c) <= 1e-14:
            continue
        out.append((tuple(q for q in range(n) if (mask >> (n - 1 - q)) & 1), c))
    out.sort(key=lambda item: (len(item[0]), item[0]))
    return out


def _loop_diagonal(expansion, n):
    diag = np.zeros(2**n)
    for qubits, c in expansion:
        mask = sum(1 << (n - 1 - q) for q in qubits)
        for x in range(diag.size):
            diag[x] += c if bin(x & mask).count("1") % 2 == 0 else -c
    return diag


WIDTHS = [(m, p) for m in range(1, 13) for p in range(1, 13) if m * p <= 12]  # every register split up to 12 qubits


def _loop_plausible(bids):
    p = len(bids[0])
    out = []
    for combo in itertools.product((False, True), repeat=len(bids)):
        x = 0
        for on, b in zip(combo, bids):
            x = (x << p) | (int(b, 2) if on else 0)
        out.append(x)
    return sorted(out)


class TestLoopDefinitions:
    """The array versions of the 2^n loops, and the closed-form bidding
    operator, give bit-identical results."""

    @pytest.mark.parametrize("m,p", WIDTHS)
    def test_first_price_tables(self, m, p):
        n = m * p
        table = build_first_price_table(AuctionConfig(m=m, p=p))
        assert np.array_equal(table.values, _loop_first_price(m, p))
        expansion = pauli_z_expansion(table)
        assert expansion == _loop_expansion(table.values, n)
        # the diagonal loop costs terms x 2^n, so wide tables check a slice of the terms
        terms = expansion if n <= 8 else expansion[:40] + expansion[-40:]
        assert np.array_equal(expansion_diagonal(terms, n), _loop_diagonal(terms, n))

    @pytest.mark.parametrize("m,p", WIDTHS)
    def test_plausible_allocations(self, m, p):
        rng = np.random.default_rng(m * 13 + p)
        for _ in range(3):
            bids = [format(int(rng.integers(1, 2**p)), f"0{p}b") for _ in range(m)]
            got = plausible_allocations(bids)
            assert got == _loop_plausible(bids) and all(type(x) is int for x in got), bids

    @pytest.mark.parametrize("width", range(1, 9))
    def test_bidding_operators(self, width):
        for bits in itertools.product("01", repeat=width):
            if "1" in bits:
                bid = "".join(bits)
                assert np.array_equal(bidding_operator(bid), kron_bidding_operator(bid)), bid

    def test_spurious_table(self):
        table = spurious_table()
        expansion = pauli_z_expansion(table)
        assert expansion == _loop_expansion(table.values, 4)
        assert np.array_equal(expansion_diagonal(expansion, 4), _loop_diagonal(expansion, 4))
