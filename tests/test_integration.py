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
    build_collusion_circuit,
    locking_operator,
    locking_operators,
    run_collusion_defense,
    run_locked_auction,
    spurious_table,
)
from qauction.circuits import circuit_to_matrix
from qauction.protocol import (
    AdiabaticSchedule,
    AuctionConfig,
    build_first_price_table,
    default_schedule,
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
    assert_run_matches(traj, states, 1e-12)


@pytest.mark.parametrize("variant", ["exact", "locked"])
def test_fold_matches_single_steps_locked(variant):
    pair = locking_operators(0.85, 0.65, ["11", "01"])
    schedule = AdiabaticSchedule(steps=10, delta=1.2, variant=variant,
                                 locking=pair.operators)
    traj = run_adiabatic(["11", "01"], TOY_TABLE, schedule)
    states = dense_run(joint_bidding_operator(["11", "01"]), np.kron(pair.v1, pair.v2), TOY_TABLE, schedule)
    assert_run_matches(traj, states, 1e-12)


@pytest.mark.parametrize("variant", ["zeroth", "first", "locked"])
@pytest.mark.parametrize("bids, steps", [
    (["10", "01", "11", "01"], 12), (["10", "01", "11", "01", "10"], 2),
], ids=["n8", "n10"])
def test_wider_runs_match_the_dense_run(bids, steps, variant):
    # `exact` at n = 8 and 10 is checked by test_protocol's TestBlockDiagonal
    table = build_first_price_table(AuctionConfig(m=len(bids), p=2))
    locking = None
    if variant == "locked":
        locking = tuple(locking_operator(b, a)[1] for b, a in zip(bids, (0.9, 0.7, 0.8, 0.6, 0.75)))
    schedule = AdiabaticSchedule(steps, 1.3, variant, locking)
    traj = run_adiabatic(bids, table, schedule)
    v = None if locking is None else reduce(np.kron, locking)
    states = dense_run(joint_bidding_operator(bids), v, table, schedule)
    assert_run_matches(traj, states, 1e-12)


@pytest.mark.parametrize("variant", ["exact", "zeroth", "first"])
@pytest.mark.parametrize("b1, b2", list(itertools.combinations(["01", "10", "11"], 2)))
def test_collusion_run_matches_the_dense_run(b1, b2, variant):
    schedule = default_schedule(variant)
    traj = run_collusion_defense([b1, b2], spurious_table(), schedule)
    states = dense_run(circuit_to_matrix(build_collusion_circuit(b1, b2)), None, spurious_table(), schedule)
    assert_run_matches(traj, states, 1e-12)


def test_locked_run_equals_manual_conjugation():
    # the LOCKED fold must equal a zeroth fold with explicitly conjugated phases
    pair = locking_operators(0.9, 0.7, ["11", "10"])
    traj = run_locked_auction(["11", "10"], TOY_TABLE,
                              AdiabaticSchedule(steps=20, delta=1.5), pair)
    u = joint_bidding_operator(["11", "10"])
    v = np.kron(pair.v1, pair.v2)
    w_diag = np.array([bin(x).count("1") for x in range(16)], dtype=float)
    psi = u[:, 0].copy()
    for s in range(1, 21):
        f = s / 20
        psi = v @ (np.exp(1j * 1.5 * f * TOY_TABLE.values) * (v.conj().T @ psi))
        psi = u @ (np.exp(-1j * 1.5 * (1 - f) * w_diag) * (u.conj().T @ psi))
    np.testing.assert_allclose(traj.final_state.amplitudes, psi, atol=1e-10)


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
