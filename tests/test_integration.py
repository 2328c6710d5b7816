"""Cross-route checks: the span-native run, the dense step written out
with 2^n x 2^n operators (`helpers.dense_run`) and the circuit layer must
all describe the same dynamics, on registers larger than the
two-bidder/two-qubit scenario too."""

import itertools
from functools import reduce

import numpy as np
import pytest
from helpers import assert_run_matches, dense_run

from qauction.adversary import (
    locking_operator,
    locking_unitaries,
    run_collusion_defense,
    spurious_table,
)
from qauction.circuits import build_collusion_circuit, circuit_to_matrix
from qauction.protocol import (
    AdiabaticSchedule,
    AuctionConfig,
    build_first_price_table,
    joint_bidding_operator,
    plausible_allocations,
    run_adiabatic,
    run_schedule,
    winning_allocation,
)

TOY_TABLE = build_first_price_table(AuctionConfig(m=2, p=2))


@pytest.mark.parametrize("variant", ["exact", "zeroth", "first"])
def test_fold_matches_single_steps(variant):
    schedule = AdiabaticSchedule(steps=12, delta=1.1, variant=variant)
    traj = run_adiabatic(["10", "11"], TOY_TABLE, schedule)
    states = dense_run(joint_bidding_operator(["10", "11"]), None, TOY_TABLE, schedule)
    assert_run_matches(traj, plausible_allocations(["10", "11"]), states, 1e-12)


@pytest.mark.parametrize("variant", ["exact", "locked"])
def test_fold_matches_single_steps_locked(variant):
    locking = locking_unitaries(["11", "01"], (0.85, 0.65))
    schedule = AdiabaticSchedule(steps=10, delta=1.2, variant=variant, locking=locking)
    traj = run_adiabatic(["11", "01"], TOY_TABLE, schedule)
    states = dense_run(joint_bidding_operator(["11", "01"]), np.kron(*locking), TOY_TABLE, schedule)
    assert_run_matches(traj, plausible_allocations(["11", "01"]), states, 1e-12)


WIDE_ALPHAS = (0.9, 0.7, 0.8, 0.6, 0.75)


@pytest.mark.parametrize("variant", ["zeroth", "first", "locked"])
@pytest.mark.parametrize("bids, steps", [
    (["10", "01", "11", "01"], 12), (["10", "01", "11", "01", "10"], 2),
], ids=["n8", "n10"])
def test_wider_runs_match_the_dense_run(bids, steps, variant):
    # `exact` at n = 8 and 10 is checked by test_protocol's TestBlockDiagonal
    table = build_first_price_table(AuctionConfig(m=len(bids), p=2))
    locking = None
    if variant == "locked":
        locking = locking_unitaries(bids, WIDE_ALPHAS[:len(bids)])
    schedule = AdiabaticSchedule(steps, 1.3, variant, locking)
    traj = run_adiabatic(bids, table, schedule)
    v = None if locking is None else reduce(np.kron, locking)
    states = dense_run(joint_bidding_operator(bids), v, table, schedule)
    assert_run_matches(traj, plausible_allocations(bids), states, 1e-12)


@pytest.mark.parametrize("variant", ["exact", "zeroth", "first"])
@pytest.mark.parametrize("b1, b2", list(itertools.combinations(["01", "10", "11"], 2)))
def test_collusion_run_matches_the_dense_run(b1, b2, variant):
    schedule = AdiabaticSchedule(20, 1.5, variant)
    traj = run_collusion_defense([b1, b2], spurious_table(), schedule)
    states = dense_run(circuit_to_matrix(build_collusion_circuit(b1, b2)), None, spurious_table(), schedule)
    kept = sorted({0, int(b2, 2), int(b1, 2) << 2})  # the three states the collusion keeps
    assert_run_matches(traj, kept, states, 1e-12)


def test_locked_run_equals_manual_conjugation():
    # the LOCKED fold must equal a zeroth fold with explicitly conjugated phases
    locking = locking_unitaries(["11", "10"], (0.9, 0.7))
    traj = run_adiabatic(["11", "10"], TOY_TABLE, AdiabaticSchedule(20, 1.5, "locked", locking))
    u = joint_bidding_operator(["11", "10"])
    v = np.kron(*locking)
    w_diag = np.array([bin(x).count("1") for x in range(16)], dtype=float)
    psi = u[:, 0].copy()
    for s in range(1, 21):
        f = s / 20
        psi = v @ (np.exp(1j * 1.5 * f * TOY_TABLE.values) * (v.conj().T @ psi))
        psi = u @ (np.exp(-1j * 1.5 * (1 - f) * w_diag) * (u.conj().T @ psi))
    np.testing.assert_allclose(traj.final_state.amplitudes, psi, atol=1e-10)


def test_locked_auction_at_n10_is_the_hand_built_locked_schedule():
    # five 2-qubit bidders, each V_i built on its own from locking_operator
    bids = ["10", "01", "11", "01", "10"]
    table = build_first_price_table(AuctionConfig(m=5, p=2))
    locking = tuple(locking_operator(b, a)[1] for b, a in zip(bids, WIDE_ALPHAS))
    by_hand = run_adiabatic(bids, table, AdiabaticSchedule(8, 1.3, "locked", locking))
    traj = run_adiabatic(bids, table,
                         AdiabaticSchedule(8, 1.3, "locked", locking_unitaries(bids, WIDE_ALPHAS)))
    assert traj.winner_index == by_hand.winner_index
    for name in ("span", "amplitudes", "success", "leakage"):
        assert np.array_equal(getattr(traj, name), getattr(by_hand, name)), name
    assert np.array_equal(traj.final_state.amplitudes, by_hand.final_state.amplitudes)


class TestWiderRegisters:
    def test_three_qubit_bidders(self):
        table = build_first_price_table(AuctionConfig(m=2, p=3))
        traj = run_adiabatic(["100", "011"], table,
                             AdiabaticSchedule(steps=40, delta=1.0, variant="zeroth"))
        assert traj.winner_index == 0b100000  # $4 beats $3
        assert traj.success[-1] >= 0.9
        assert traj.leakage.max() <= 1e-9

    def test_three_bidders(self):
        table = build_first_price_table(AuctionConfig(m=3, p=2))
        bids = ["01", "10", "11"]
        traj = run_adiabatic(bids, table,
                             AdiabaticSchedule(steps=40, delta=1.5, variant="zeroth"))
        assert traj.winner_index == 0b000011
        assert traj.success[-1] >= 0.9
        assert traj.leakage.max() <= 1e-9
        assert len(plausible_allocations(bids)) == 8

    def test_run_schedule_with_explicit_operator(self):
        # run_schedule is the shared engine; feeding it the tensor operator
        # reproduces run_adiabatic exactly
        bids = ["10", "11"]
        u = joint_bidding_operator(bids)
        plausible = plausible_allocations(bids)
        winner = winning_allocation(TOY_TABLE, plausible)
        schedule = AdiabaticSchedule(steps=20, delta=1.5, variant="first")
        a = run_schedule((u,), plausible, winner, TOY_TABLE, schedule)
        b = run_adiabatic(bids, TOY_TABLE, schedule)
        np.testing.assert_allclose(a.final_state.amplitudes,
                                   b.final_state.amplitudes, atol=1e-12)
