"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -rA` to see every line.
Every clause is asserted as stated. Criterion 6's splitting-order clause
fails at S=40, delta=1 (see its failure message and the README) and stays
as stated. The diagnostic beside it, which passes, shows why: at S=40 and
delta = 0.1, 0.25 and 0.5 the symmetric splitting ends closer to the exact
evolution than the plain one on all three bid pairs, while at delta = 0.1
and 0.25 the plain splitting ends above the exact success. The clause asks
the more accurate integrator to beat one that overshoots.
"""

import itertools
import math
import time

import numpy as np
import pytest

from qauction import cli
from qauction.adversary import (
    min_error_povm,
    helstrom_error,
    locking_operators,
    povm_optimality_check,
    probe_attack_basis,
    probe_attack_povm,
    run_collusion_defense,
    run_locked_auction,
    run_spurious_attack,
    spurious_table,
    toy_bidding_states,
)
from qauction.circuits import build_bidder_circuit, circuit_to_matrix
from qauction.core import phase_invariant_distance
from qauction.protocol import (
    AdiabaticSchedule,
    AuctionConfig,
    bidding_operator,
    build_first_price_table,
    default_schedule,
    expansion_diagonal,
    fine_schedule,
    hamming_weights,
    pauli_z_expansion,
    run_adiabatic,
)

TOY = AuctionConfig(m=2, p=2)
TOY_PAYOFFS = [0, 1, 2, 3, 1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0]
SPURIOUS_PAYOFFS = [0, 1, 2, 3, 1, 2, 3, 4, 2, 3, 4, 5, 3, 4, 5, 6]

REFERENCE_OPERATORS = {
    "01": np.array([[1, 1, 0, 0], [1, -1, 0, 0], [0, 0, 1, 1], [0, 0, 1, -1]]) / math.sqrt(2),
    "10": np.array([[1, 0, 1, 0], [0, 1, 0, 1], [1, 0, -1, 0], [0, 1, 0, -1]]) / math.sqrt(2),
    "11": np.array([[1, 0, 1, 0], [0, 1, 0, 1], [0, 1, 0, -1], [1, 0, -1, 0]]) / math.sqrt(2),
}


def report(number, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {number:02d} [{status}]: {description}"
    if detail and not ok:
        line += f" ({detail})"
    print(line)
    assert ok, line


def best_of(callable_, repeats=5):
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - start)
    return best


def test_criterion_01_table_fidelity():
    table = build_first_price_table(TOY)
    spurious = spurious_table()
    exact = list(table.values) == TOY_PAYOFFS and list(spurious.values) == SPURIOUS_PAYOFFS
    runtime = max(best_of(lambda: build_first_price_table(TOY)),
                  best_of(spurious_table))
    report(1, "payoff tables reproduce all 16 rows exactly in < 1 ms",
           exact and runtime < 1e-3, f"exact={exact}, best runtime={runtime:.2e}s")


def test_criterion_02_hamiltonian_fidelity():
    table = build_first_price_table(TOY)
    h_p = -table.values  # H_p = diag(-F), as the search takes it
    w = hamming_weights(4)
    ok_hp = list(h_p) == [-v for v in TOY_PAYOFFS]
    ok_w = list(w) == [0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4]
    expansion = pauli_z_expansion(table)
    recon_err = float(np.max(np.abs(expansion_diagonal(expansion, 4) - (-table.values))))
    coeffs = dict(expansion)
    spots = (abs(coeffs[()] + 12 / 16) <= 1e-12
             and abs(coeffs[(0,)] + 2 / 16) <= 1e-12
             and abs(coeffs[(0, 1)] + 6 / 16) <= 1e-12
             and abs(coeffs[(0, 1, 2)] - 4 / 16) <= 1e-12)
    report(2, "toy diagonals exact; Pauli-Z expansion reconstructs -F to 1e-12 with the four spot coefficients",
           ok_hp and ok_w and recon_err <= 1e-12 and spots,
           f"hp={ok_hp} w={ok_w} recon_err={recon_err:.2e} spots={spots}")


def test_criterion_03_reference_matrices():
    ok = True
    detail = []
    for bits, expected in REFERENCE_OPERATORS.items():
        dense_err = float(np.max(np.abs(bidding_operator(bits) - expected)))
        circuit_dist = phase_invariant_distance(
            circuit_to_matrix(build_bidder_circuit(bits)), expected)
        detail.append(f"{bits}: dense={dense_err:.1e} circuit={circuit_dist:.1e}")
        ok = ok and dense_err <= 1e-12 and circuit_dist <= 1e-12
    report(3, "bidding operators match the three reference matrices to 1e-12, dense and via circuits",
           ok, "; ".join(detail))


def test_criterion_04_povm():
    states = toy_bidding_states()
    priors = [1 / 3] * 3
    start = time.perf_counter()
    povm, p_e = min_error_povm(states, priors)
    elapsed = time.perf_counter() - start
    ok_value = abs(p_e - 0.1112) <= 1e-3
    ok_check = povm_optimality_check(povm, states, priors)
    ok_pairs = True
    for i, j in itertools.combinations(range(3), 2):
        _, pair_pe = min_error_povm([states[i], states[j]], [0.5, 0.5])
        ok_pairs = ok_pairs and abs(pair_pe - helstrom_error(states[i], states[j])) <= 1e-6
    report(4, "minimum-error POVM hits P_e = 0.1112 +/- 0.001, passes the optimality check, matches Helstrom on pairs",
           ok_value and ok_check and ok_pairs and elapsed < 10,
           f"P_e={p_e:.6f} check={ok_check} pairs={ok_pairs} time={elapsed:.2f}s")


def test_criterion_05_learning_curves():
    rounds = 20
    closed = probe_attack_basis(["10", "11"], rounds).probabilities
    expected = (1 - 0.5 ** np.arange(1, rounds + 1)) ** 2
    ok_closed = np.allclose(closed, expected, rtol=1e-15, atol=0)
    ok_quarter = closed[0] == 0.25

    trials = 100_000
    mc = probe_attack_basis(["10", "11"], rounds, mode="monte_carlo",
                            trials=trials, seed=1).probabilities
    sigma = np.sqrt(expected * (1 - expected) / trials)
    ok_mc = bool(np.all(np.abs(mc - expected) <= 3 * sigma + 1e-12))

    _, p_e = min_error_povm(toy_bidding_states(), [1 / 3] * 3)
    povm_curve = probe_attack_povm(["10", "11"], 4, p_e).probabilities
    ok_povm = povm_curve[3] > 0.999
    report(5, "basis curve is (1-(1/2)^N)^2 with N=1 at exactly 1/4; MC within 3 sigma at 1e5 trials; POVM curve > 0.999 by N=4",
           ok_closed and ok_quarter and ok_mc and ok_povm,
           f"closed={ok_closed} quarter={ok_quarter} mc={ok_mc} povm4={povm_curve[3]:.6f}")


def test_criterion_06_convergence():
    table = build_first_price_table(TOY)
    finals = {}
    runtimes = {}
    for bids in (["10", "11"], ["01", "10"], ["01", "11"]):
        start = time.perf_counter()
        finals[tuple(bids)] = run_adiabatic(bids, table, default_schedule()).success[-1]
        runtimes[tuple(bids)] = time.perf_counter() - start
    ok_fig4 = all(v >= 0.9 for v in finals.values()) and all(t < 1.0 for t in runtimes.values())

    zeroth = run_adiabatic(["10", "11"], table, fine_schedule("zeroth")).success[-1]
    first = run_adiabatic(["10", "11"], table, fine_schedule("first")).success[-1]
    ok_ordering = first >= zeroth
    report(6, "ZEROTH at S=20, delta=1.5 ends >= 0.9 for all three bid pairs; FIRST final >= ZEROTH final at S=40, delta=1",
           ok_fig4 and ok_ordering,
           f"finals={ {k: round(v, 4) for k, v in finals.items()} }, "
           f"first={first:.6f} < zeroth={zeroth:.6f}: the symmetric splitting's final-state error "
           f"against EXACT is below the plain splitting's on 38 of 40 steps, but above it on the "
           f"last two, so its final point lands below at this schedule")


@pytest.mark.parametrize("bids", [("10", "11"), ("01", "10"), ("01", "11")])
def test_criterion_06_diagnostic_splitting_order(bids):
    """Not a criterion: at S=40 the symmetric splitting tracks the exact
    evolution more closely than the plain one, while the plain splitting's
    error pushes its final success above the exact one at small delta. So
    "FIRST final >= ZEROTH final" asks the more accurate integrator to beat
    one that overshoots."""
    table = build_first_price_table(TOY)

    def infidelity(a, b):
        return 1.0 - abs(np.vdot(a.final_state.amplitudes, b.final_state.amplitudes)) ** 2

    for delta in (0.1, 0.25, 0.5):
        runs = {v: run_adiabatic(list(bids), table, AdiabaticSchedule(40, delta, v))
                for v in ("exact", "zeroth", "first")}
        assert infidelity(runs["exact"], runs["first"]) < infidelity(runs["exact"], runs["zeroth"])
        if delta < 0.5:
            assert runs["zeroth"].success[-1] > runs["exact"].success[-1]


def test_criterion_07_subspace_preservation():
    table = build_first_price_table(TOY)
    honest = run_adiabatic(["10", "11"], table, default_schedule()).leakage.max()
    pair = locking_operators(0.9, 0.7, ["11", "10"])
    locked = run_locked_auction(["11", "10"], table, default_schedule(), pair).leakage.max()
    collusion = run_collusion_defense(["10", "11"], spurious_table(),
                                      default_schedule()).leakage.max()
    ok = honest <= 1e-9 and locked <= 1e-9 and collusion <= 1e-9
    report(7, "leakage <= 1e-9 at every step for honest, locked, and collusion runs",
           ok,
           f"honest={honest:.2e} locked={locked:.2e} collusion={collusion:.2e}")


def test_criterion_08_trotter_order():
    table = build_first_price_table(TOY)
    total_time = 8.0
    deltas = [0.4, 0.2, 0.1]
    slopes = {}
    for variant in ("zeroth", "first"):
        errors = []
        for delta in deltas:
            steps = round(total_time / delta)
            approx = run_adiabatic(["10", "11"], table,
                                   AdiabaticSchedule(steps, delta, variant))
            exact = run_adiabatic(["10", "11"], table,
                                  AdiabaticSchedule(steps, delta, "exact"))
            overlap = abs(np.vdot(exact.final_state.amplitudes,
                                  approx.final_state.amplitudes))
            errors.append(math.sqrt(max(0.0, 2 - 2 * overlap)))
        slopes[variant] = float(np.polyfit(np.log(deltas), np.log(errors), 1)[0])
    ok = abs(slopes["zeroth"] - 1) <= 0.3 and abs(slopes["first"] - 2) <= 0.3
    report(8, "final-state error vs EXACT scales as O(delta) for ZEROTH and O(delta^2) for FIRST",
           ok, f"slopes={slopes}")


def test_criterion_09_spurious_and_collusion():
    spurious = run_spurious_attack(["10", "11"], default_schedule())
    ok_spurious = spurious.success[-1] >= 0.9

    collusion = run_collusion_defense(["10", "11"], spurious_table(), default_schedule())
    reveal_amp = max(abs(st.state.amplitudes[0b1011]) for st in collusion.steps)
    ok_reveal = reveal_amp <= 1e-9
    final = collusion.final_state.probabilities()
    argmax = int(np.argmax(final))
    ok_argmax = argmax == 0b0011
    report(9, "spurious attack reaches |1011> with prob >= 0.9; collusion keeps revealing amplitude <= 1e-9 and ends at argmax |0011>",
           ok_spurious and ok_reveal and ok_argmax,
           f"spurious={spurious.success[-1]:.4f} reveal_amp={reveal_amp:.1e} argmax=|{argmax:04b}> "
           f"(p={final[argmax]:.3f} vs p(|0011>)={final[0b0011]:.3f}); "
           f"max collusion leakage={collusion.leakage.max():.2e}")


def test_criterion_10_determinism(tmp_path):
    outputs = []
    for name in ("a", "b"):
        path = tmp_path / f"{name}.csv"
        code = cli.main(["attack", "--attack", "probe_basis", "--bids", "10,11",
                         "--rounds", "4", "--trials", "20000", "--seed", "3",
                         "--out", str(path)])
        assert code == 0
        outputs.append(path.read_bytes())
    converge = []
    for name in ("c", "d"):
        path = tmp_path / f"{name}.csv"
        code = cli.main(["converge", "--bids", "10,11", "--seed", "9",
                         "--out", str(path)])
        assert code == 0
        converge.append(path.read_bytes())
    ok = outputs[0] == outputs[1] and converge[0] == converge[1]
    report(10, "identical CSV bytes across two runs with the same config and seed", ok)
