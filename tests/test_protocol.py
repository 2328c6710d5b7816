import itertools
import math
import tracemalloc
from functools import reduce

import numpy as np
import pytest
from helpers import kron_bidding_operator

from qauction import protocol
from qauction.adversary import locking_operator, locking_operators, spurious_table
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
    hamming_weights,
    initial_superposition,
    joint_bidding_operator,
    pauli_z_expansion,
    payoff,
    plausible_allocations,
    problem_hamiltonian,
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
        for n in range(1, 13):
            np.testing.assert_array_equal(hamming_weights(n), [bin(x).count("1") for x in range(2**n)])


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

    @pytest.mark.parametrize("variant", ["exact", "zeroth", "first", "locked"])
    def test_matches_unrolled_definition(self, toy_setup, variant):
        # every variant written out with dense matrices, on a generic state
        # (the mixer fixes |Psi_0>); V from the locking pair
        pair = locking_operators(0.9, 0.7, ["10", "11"])
        v = np.kron(pair.v1, pair.v2) if variant in ("exact", "locked") else None
        rng = np.random.default_rng(4)
        psi = rng.normal(size=16) + 1j * rng.normal(size=16)
        psi /= np.linalg.norm(psi)
        u, w, h_p = toy_setup["u"], toy_setup["w"], toy_setup["h_p"]
        out = adiabatic_step(StateVector(psi), 3, AdiabaticSchedule(10, 1.2, variant), u, w, h_p, v=v)
        f, delta = 0.3, 1.2
        vv = np.eye(16) if v is None else v

        def mixer(d):
            return u @ np.diag(np.exp(-1j * d * (1 - f) * np.diag(w).real)) @ u.conj().T

        if variant == "exact":
            h_f = (1 - f) * u @ w @ u.conj().T + f * vv @ h_p @ vv.conj().T
            vals, vecs = np.linalg.eigh(h_f)
            expected = vecs @ np.diag(np.exp(-1j * delta * vals)) @ vecs.conj().T @ psi
        else:
            p_phases = vv @ np.diag(np.exp(-1j * delta * f * np.diag(h_p).real)) @ vv.conj().T
            if variant == "first":
                expected = mixer(delta / 2) @ p_phases @ mixer(delta / 2) @ psi
            else:
                expected = mixer(delta) @ p_phases @ psi
        np.testing.assert_allclose(out.amplitudes, expected, atol=1e-12)

    @pytest.mark.parametrize("variant", ["zeroth", "first"])
    def test_locking_needs_a_locking_slot(self, toy_setup, variant):
        v = np.eye(16, dtype=complex)
        with pytest.raises(ContractViolation, match="has no locking slot"):
            adiabatic_step(toy_setup["psi0"], 1, AdiabaticSchedule(4, 1.0, variant),
                           toy_setup["u"], toy_setup["w"], toy_setup["h_p"], v=v)

    def test_rejects_mismatched_locking(self, toy_setup):
        with pytest.raises(ContractViolation, match="dimensions"):
            adiabatic_step(toy_setup["psi0"], 1, AdiabaticSchedule(4, 1.0, "locked"),
                           toy_setup["u"], toy_setup["w"], toy_setup["h_p"], v=np.eye(4))

    def test_locking_taken_from_the_schedule(self, toy_setup):
        # one source of V: without `v` the step uses the schedule's locking
        # unitaries, and a `v` that disagrees with them is rejected
        bids = ["11", "10"]
        pair = locking_operators(0.9, 0.7, bids)
        u, w, h_p = joint_bidding_operator(bids), toy_setup["w"], toy_setup["h_p"]
        psi = initial_superposition(bids)
        locked = AdiabaticSchedule(10, 1.5, "locked", locking=pair.operators)
        from_schedule = adiabatic_step(psi, 3, locked, u, w, h_p)
        explicit = adiabatic_step(psi, 3, locked, u, w, h_p, v=np.kron(pair.v1, pair.v2))
        unlocked = adiabatic_step(psi, 3, AdiabaticSchedule(10, 1.5, "locked"), u, w, h_p)
        np.testing.assert_allclose(from_schedule.amplitudes, explicit.amplitudes, rtol=0, atol=1e-14)
        assert np.linalg.norm(from_schedule.amplitudes - unlocked.amplitudes) > 0.01
        other = locking_operators(0.8, 0.7, bids)
        with pytest.raises(ContractViolation, match="differs"):
            adiabatic_step(psi, 3, locked, u, w, h_p, v=np.kron(other.v1, other.v2))

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


SPAN_BIDS = [["10", "11"], ["101", "011"], ["01", "11", "10"], ["10", "01", "11", "01"]]
SPAN_ALPHAS = (0.9, 0.7, 0.8, 0.6)


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


class TestPlausibleSpan:
    """`run_schedule` given Kronecker factors runs the product formulas on
    the plausible span; the dense product is the oracle."""

    @pytest.mark.parametrize("bids", SPAN_BIDS, ids=",".join)
    @pytest.mark.parametrize("variant", ["zeroth", "first", "locked", "exact"])
    def test_factors_match_dense(self, bids, variant, monkeypatch):
        table, schedule, plausible, winner = _span_setup(bids, variant)
        factors = tuple(bidding_operator(b) for b in bids)
        dense = run_schedule(reduce(np.kron, factors), plausible, winner, table, schedule)
        if variant != "exact":  # must stay on the span: no full-space run
            inner = protocol._run

            def span_only(factors, span, *args):
                assert len(span) < 2**table.n_qubits, "fell back to the full space"
                return inner(factors, span, *args)
            monkeypatch.setattr(protocol, "_run", span_only)
        span = run_schedule(factors, plausible, winner, table, schedule)
        _assert_same_run(span, dense, 1e-12)

    @pytest.mark.parametrize("bids", SPAN_BIDS, ids=",".join)
    @pytest.mark.parametrize("variant", ["zeroth", "locked"])
    def test_restricted_tracks_match_dense_projection(self, bids, variant):
        table, schedule, plausible, _ = _span_setup(bids, variant)
        n = table.n_qubits
        u, w, h_p = joint_bidding_operator(bids), hamming_hamiltonian(n), problem_hamiltonian(table)
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
        # Haar factors move |Psi_0> out of the span; mixing the non-lead
        # columns of U_2 keeps |Psi_0> but makes the mixer leak at step 1.
        # Either way the run is redone on the full space, inside one call.
        rng = np.random.default_rng(7)
        if case == "haar":
            factors = (_haar(4, rng), _haar(4, rng))
        else:
            mix = np.eye(4, dtype=complex)
            mix[1:, 1:] = _haar(3, rng)
            factors = (bidding_operator("10"), bidding_operator("11") @ mix)
        plausible = plausible_allocations(["10", "11"])
        table = toy_setup["table"]
        schedule = AdiabaticSchedule(12, 1.3, variant)
        dense = run_schedule(np.kron(*factors), plausible, 0b0011, table, schedule)
        calls = []
        inner = protocol.run_schedule

        def counted(*args):
            calls.append(args)
            return inner(*args)
        monkeypatch.setattr(protocol, "run_schedule", counted)
        span = protocol.run_schedule(factors, plausible, 0b0011, table, schedule)
        assert len(calls) == 1
        assert span.leakage.max() > 1e-3
        _assert_same_run(span, dense, 0)

    def test_entries_match_the_dense_product(self):
        # any rows and columns (unsorted, not a product of digit sets), and
        # the column support: the product of each factor's support on its
        # rows, which holds every nonzero column of the rows
        rng = np.random.default_rng(5)
        factors = (_haar(2, rng), bidding_operator("011"), _haar(4, rng) * (rng.random((4, 4)) < 0.5))
        dense = reduce(np.kron, factors)
        rows, cols = [37, 2, 40, 5], [63, 0, 9, 17, 44]
        block, taken = protocol._entries(factors, rows, 64, "factors", cols)
        assert taken == cols
        np.testing.assert_array_equal(block, dense[np.ix_(rows, cols)])
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

        def few_entries(factors, rows, dim, what, cols=None):
            assert len(rows) < dim, f"all {dim} rows of the {what} were formed"
            block, taken = inner(factors, rows, dim, what, cols)
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


def _dense_exact(u, v, table, schedule, plausible):
    """The exact search written out: one dense np.linalg.eigh of the whole
    H(f) per step. Returns the states (row per step) and the leakage."""
    n = table.n_qubits
    h_b = u @ hamming_hamiltonian(n) @ u.conj().T
    h_p = v @ problem_hamiltonian(table) @ v.conj().T
    states = [u[:, 0]]
    for s in range(1, schedule.steps + 1):
        f = s / schedule.steps
        vals, vecs = np.linalg.eigh((1 - f) * h_b + f * h_p)
        psi = vecs @ (np.exp(-1j * schedule.delta * vals) * (vecs.conj().T @ states[-1]))
        states.append(psi / np.linalg.norm(psi))
    states = np.array(states)
    return states, 1 - np.sum(np.abs(states[:, plausible]) ** 2, axis=1)


N8_BIDS = SPAN_BIDS[3]


class TestBlockDiagonal:
    """`exact` and the full-space tracks diagonalize H(f) block by block
    (`protocol._blocks`); the dense eigh of the whole H(f) is the oracle."""

    def _terms(self, bids, locking=None):
        n = sum(len(b) for b in bids)
        u = joint_bidding_operator(bids)
        h_p = -build_first_price_table(AuctionConfig(m=len(bids), p=len(bids[0]))).values
        if locking is not None:
            v = reduce(np.kron, locking)
            h_p = (v * h_p) @ v.conj().T
        return (u * hamming_weights(n)) @ u.conj().T, h_p

    def test_bids_split_into_xor_orbits(self):
        # each block is {x XOR y : y plausible}, and the blocks cover every index once
        blocks = protocol._blocks(*self._terms(N8_BIDS))
        assert blocks.shape == (16, 16)
        for row in blocks:
            assert list(row) == sorted(row[0] ^ y for y in plausible_allocations(N8_BIDS))
        assert sorted(blocks.ravel()) == list(range(256))
        _, schedule, _, _ = _span_setup(N8_BIDS, "locked")
        np.testing.assert_array_equal(protocol._blocks(*self._terms(N8_BIDS, schedule.locking)), blocks)

    def test_locked_pair_gives_the_same_split(self):
        pair = locking_operators(0.9, 0.7, ["1011", "0110"])
        blocks = protocol._blocks(*self._terms(["1011", "0110"]))
        assert blocks.shape == (64, 4)
        np.testing.assert_array_equal(protocol._blocks(*self._terms(["1011", "0110"], pair.operators)), blocks)

    def test_haar_factors_give_one_block(self):
        rng = np.random.default_rng(3)
        u = np.kron(_haar(4, rng), _haar(4, rng))
        blocks = protocol._blocks((u * hamming_weights(4)) @ u.conj().T, -np.arange(16.0))
        np.testing.assert_array_equal(blocks, np.arange(16)[None, :])
        # a Haar V joins what the bidding operators keep apart
        blocks = protocol._blocks(*self._terms(["10", "11"], (_haar(4, rng), _haar(4, rng))))
        np.testing.assert_array_equal(blocks, np.arange(16)[None, :])

    def test_unequal_components_give_one_block(self):
        h = np.zeros((4, 4))
        h[0, 1] = h[1, 0] = h[1, 2] = h[2, 1] = 1.0  # components {0, 1, 2} and {3}
        np.testing.assert_array_equal(protocol._blocks(h), [[0, 1, 2, 3]])
        h = np.zeros((4, 4))
        h[0, 2] = h[2, 0] = 1.0
        h[1, 3] = 1e-300  # one side is enough to join two indices
        np.testing.assert_array_equal(protocol._blocks(h, np.arange(4.0)), [[0, 2], [1, 3]])

    @pytest.mark.parametrize("bids, locked, steps", [
        (N8_BIDS, False, 12), (N8_BIDS, True, 12), (["10", "01", "11", "01", "10"], False, 4),
    ], ids=["plain", "locked", "n10"])
    def test_exact_matches_dense_eigh(self, bids, locked, steps):
        table, schedule, plausible, winner = _span_setup(bids, "exact" if locked else "zeroth")
        schedule = AdiabaticSchedule(steps, schedule.delta, "exact", schedule.locking)
        v = reduce(np.kron, schedule.locking) if locked else np.eye(2**table.n_qubits)
        traj = run_adiabatic(bids, table, schedule)
        states, leakage = _dense_exact(joint_bidding_operator(bids), v, table, schedule, plausible)
        np.testing.assert_allclose([st.state.amplitudes for st in traj.steps], states, rtol=0, atol=1e-12)
        np.testing.assert_allclose(traj.success, np.abs(states[:, winner]) ** 2, rtol=0, atol=1e-12)
        np.testing.assert_allclose(traj.leakage, leakage, rtol=0, atol=1e-12)

    def test_leaking_operator_reports_the_dense_leakage(self, toy_setup):
        # mixing the non-lead columns of U_2 makes the mixer leak out of the span
        rng = np.random.default_rng(7)
        mix = np.eye(4, dtype=complex)
        mix[1:, 1:] = _haar(3, rng)
        u = np.kron(bidding_operator("10"), bidding_operator("11") @ mix)
        plausible = plausible_allocations(["10", "11"])
        schedule = AdiabaticSchedule(12, 1.3, "exact")
        traj = run_schedule(u, plausible, 0b0011, toy_setup["table"], schedule)
        states, leakage = _dense_exact(u, np.eye(16), toy_setup["table"], schedule, plausible)
        assert traj.leakage.max() > 1e-3
        np.testing.assert_allclose(traj.leakage, leakage, rtol=0, atol=1e-12)
        np.testing.assert_allclose([st.state.amplitudes for st in traj.steps], states, rtol=0, atol=1e-12)

    def test_ten_qubits_diagonalize_blocks_of_two_to_the_m(self, monkeypatch):
        # m = 5 bidders: no eigh or eigvalsh member may be wider than 2^5, and
        # each exact step diagonalizes only the one block |Psi_0> touches
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
        assert shapes["eig_hermitian"] == [(1, 32, 32)] * 20
        assert len(shapes["eigvalsh"]) == 21 and max(shape[-1] for shape in shapes["eigvalsh"]) == 2**5
        assert traj.leakage.max() <= 1e-9 and tracks.eigenvalues.shape == (21, 1024)
        outside = np.ones(1024, dtype=bool)
        outside[plausible_allocations(bids)] = False
        for st in traj.steps:  # the other blocks hold exactly nothing
            assert not np.any(st.state.amplitudes[outside])


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


class TestLoopDefinitions:
    """The array versions of the 2^n loops, and the closed-form bidding
    operator, give bit-identical results."""

    @pytest.mark.parametrize("m,p", [(1, 1), (2, 1), (3, 1), (2, 2), (5, 1), (3, 2), (7, 1), (4, 2),
                                     (3, 3), (5, 2), (11, 1), (3, 4), (4, 3), (6, 2)])
    def test_first_price_tables(self, m, p):
        n = m * p
        table = build_first_price_table(AuctionConfig(m=m, p=p))
        assert np.array_equal(table.values, _loop_first_price(m, p))
        expansion = pauli_z_expansion(table)
        assert expansion == _loop_expansion(table.values, n)
        # the diagonal loop costs terms x 2^n, so wide tables check a slice of the terms
        terms = expansion if n <= 8 else expansion[:40] + expansion[-40:]
        assert np.array_equal(expansion_diagonal(terms, n), _loop_diagonal(terms, n))

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
