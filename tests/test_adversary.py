import itertools
import math
import tracemalloc

import numpy as np
import pytest

from helpers import computational_povm, dense_first_hit_curve, dense_majority_mc_curve
from qauction.adversary import (
    LockingPair,
    Povm,
    _first_hit_curve,
    _mc_rng,
    basis_mc_curve,
    helstrom_error,
    locked_bidding_state,
    locking_operator,
    locking_operators,
    majority_mc_curve,
    min_error_povm,
    povm_mc_curve,
    povm_optimality_check,
    povm_outcome_distributions,
    probe_attack_basis,
    probe_attack_povm,
    revealing_index,
    run_collusion_defense,
    run_locked_auction,
    run_spurious_attack,
    spurious_table,
    toy_bidding_states,
)
from qauction.core import ContractViolation, is_hermitian, is_unitary
from qauction.protocol import (
    AdiabaticSchedule,
    AuctionConfig,
    build_first_price_table,
    default_schedule,
    eigenvalue_tracks,
    payoff,
    run_adiabatic,
)

# A corrupt table paying the sum of both registers' dollar values rewards
# states that expose both bids at once.
SPURIOUS_PAYOFFS = [0, 1, 2, 3, 1, 2, 3, 4, 2, 3, 4, 5, 3, 4, 5, 6]

TOY_TABLE = build_first_price_table(AuctionConfig(m=2, p=2))
PRIORS = [1 / 3] * 3


def bits_of(value):
    return {1: "01", 2: "10", 3: "11"}[value]


class TestSpuriousTable:
    def test_all_rows(self):
        assert list(spurious_table().values) == SPURIOUS_PAYOFFS

    def test_spot_values(self):
        table = spurious_table()
        assert payoff(table, 0b1011) == 5
        assert payoff(table, 0b0000) == 0
        assert payoff(table, 0b1111) == 6

    def test_problem_hamiltonian_diagonal(self):
        # H(1) = H_p = diag(-F): the f = 1 row of the full-space gap tracks
        tracks = eigenvalue_tracks(["10", "11"], spurious_table(), default_schedule(), restrict=False)
        np.testing.assert_allclose(tracks.eigenvalues[-1], np.sort([-v for v in SPURIOUS_PAYOFFS]),
                                   rtol=0, atol=1e-12)

    def test_revealing_index(self):
        assert revealing_index(["10", "11"]) == 0b1011


class TestLockingOperators:
    @pytest.mark.parametrize("bits", ["01", "10", "11"])
    @pytest.mark.parametrize("alpha", [0.6, 0.7, 0.9, 1 / math.sqrt(2), 1.0])
    def test_defining_action(self, bits, alpha):
        theta, v = locking_operator(bits, alpha)
        assert is_hermitian(v, 1e-12)
        assert is_unitary(v, 1e-10)
        locked = locked_bidding_state(bits, alpha)
        # amplitude alpha stays on |00>, the rest on the price state
        assert abs(locked.amplitudes[0]) == pytest.approx(alpha, abs=1e-12)
        assert abs(locked.amplitudes[int(bits, 2)]) == pytest.approx(
            math.sqrt(1 - alpha**2), abs=1e-12)
        others = [abs(a) for i, a in enumerate(locked.amplitudes)
                  if i not in (0, int(bits, 2))]
        assert max(others, default=0.0) <= 1e-12

    def test_full_lock(self):
        theta, _ = locking_operator("10", 1.0)
        assert theta == pytest.approx(math.pi / 4, abs=1e-12)
        locked = locked_bidding_state("10", 1.0)
        assert abs(locked.amplitudes[0]) == pytest.approx(1.0, abs=1e-12)

    def test_neutral_lock_flips_sign(self):
        locked = locked_bidding_state("10", 1 / math.sqrt(2))
        assert locked.amplitudes[0].real == pytest.approx(1 / math.sqrt(2), abs=1e-12)
        assert locked.amplitudes[2].real == pytest.approx(-1 / math.sqrt(2), abs=1e-12)

    def test_spot_angle(self):
        theta, _ = locking_operator("11", 0.9)
        assert theta == pytest.approx(math.asin(0.9) - math.pi / 4, abs=1e-12)
        assert theta == pytest.approx(0.3344, abs=5e-5)

    def test_pair_invariants(self):
        pair = locking_operators(0.9, 0.7, ["11", "10"])
        assert isinstance(pair, LockingPair)
        for theta, alpha in ((pair.theta1, pair.alpha1), (pair.theta2, pair.alpha2)):
            assert (math.cos(theta) + math.sin(theta)) / math.sqrt(2) == pytest.approx(alpha, abs=1e-12)

    def test_alpha_range(self):
        with pytest.raises(ContractViolation):
            locking_operator("10", 0.0)
        with pytest.raises(ContractViolation):
            locking_operator("10", 1.2)


class TestBasisLearningCurve:
    def test_unprotected_closed_form(self):
        curve = probe_attack_basis(["10", "11"], 8)
        expected = (1 - 0.5 ** np.arange(1, 9)) ** 2
        np.testing.assert_allclose(curve.probabilities, expected, rtol=1e-15)
        assert curve.probabilities[0] == 0.25
        assert curve.probabilities[3] == 225 / 256

    def test_locked_closed_form(self):
        pair = locking_operators(0.9, 0.7, ["11", "10"])
        curve = probe_attack_basis(["11", "10"], 4, locking=pair)
        assert curve.probabilities[0] == pytest.approx((1 - 0.81) * (1 - 0.49), abs=1e-12)

    def test_monte_carlo_within_3_sigma(self):
        trials = 100_000
        closed = probe_attack_basis(["10", "11"], 6)
        mc = probe_attack_basis(["10", "11"], 6, mode="monte_carlo", trials=trials, seed=0)
        for p_hat, p in zip(mc.probabilities, closed.probabilities):
            sigma = math.sqrt(p * (1 - p) / trials)
            assert abs(p_hat - p) <= 3 * sigma + 1e-12

    def test_locked_strictly_slower_when_alpha_strong(self):
        for a1, a2 in ((0.8, 0.75), (0.9, 0.9), (0.95, 0.8)):
            pair = locking_operators(a1, a2, ["11", "10"])
            locked = probe_attack_basis(["11", "10"], 20, locking=pair).probabilities
            plain = probe_attack_basis(["11", "10"], 20).probabilities
            assert np.all(locked < plain)

    def test_curve_shape_invariants(self):
        for curve in (probe_attack_basis(["10", "11"], 20),
                      probe_attack_basis(["10", "11"], 10, mode="monte_carlo", trials=5000)):
            assert np.all(np.diff(curve.probabilities) >= -1e-12)
            assert np.all((curve.probabilities >= 0) & (curve.probabilities <= 1))


# Two synthetic bidders with three POVM outcomes each: (distribution, true index).
SYNTHETIC_BIDDERS = [(np.array([0.6, 0.25, 0.15]), 0), (np.array([0.2, 0.7, 0.1]), 1)]


def exact_majority(dist, true_index, n):
    """P(true outcome strictly outnumbers every other after n rounds), by
    enumerating the outcome sequences."""
    total = 0.0
    for seq in itertools.product(range(len(dist)), repeat=n):
        counts = np.bincount(seq, minlength=len(dist))
        others = np.delete(counts, true_index)
        if counts[true_index] > others.max():
            total += float(np.prod([dist[c] for c in seq]))
    return total


class TestMonteCarloCurves:
    def test_full_lock_is_never_learned(self):
        pair = locking_operators(1.0, 0.8, ["10", "11"])
        mc = probe_attack_basis(["10", "11"], 5, locking=pair, mode="monte_carlo",
                                trials=1000, seed=3).probabilities
        closed = probe_attack_basis(["10", "11"], 5, locking=pair).probabilities
        np.testing.assert_array_equal(mc, np.zeros(5))
        np.testing.assert_array_equal(closed, np.zeros(5))
        never = [(np.array([0.0, 0.5, 0.5]), 0), SYNTHETIC_BIDDERS[1]]
        np.testing.assert_array_equal(povm_mc_curve(never, 4, 500, 0), np.zeros(4))
        np.testing.assert_array_equal(majority_mc_curve(never, 4, 500, 0), np.zeros(4))

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_first_hit_curves_non_decreasing(self, seed):
        pair = locking_operators(0.9, 0.75, ["11", "10"])
        curves = [probe_attack_basis(["10", "11"], 12, mode="monte_carlo", trials=2000, seed=seed),
                  probe_attack_basis(["11", "10"], 12, locking=pair, mode="monte_carlo",
                                     trials=2000, seed=seed)]
        probs = [c.probabilities for c in curves]
        probs.append(povm_mc_curve(SYNTHETIC_BIDDERS, 12, 2000, seed))
        for p in probs:
            assert p.shape == (12,)
            assert np.all(np.diff(p) >= 0)
            assert np.all((p >= 0) & (p <= 1))

    def test_same_seed_same_arrays(self):
        dists = [locked_bidding_state(b, None).probabilities() for b in ("10", "11")]
        for curve, arg in ((basis_mc_curve, dists), (povm_mc_curve, SYNTHETIC_BIDDERS),
                           (majority_mc_curve, SYNTHETIC_BIDDERS)):
            first = curve(arg, 6, 3000, 17)
            np.testing.assert_array_equal(first, curve(arg, 6, 3000, 17))
            assert not np.array_equal(first, curve(arg, 6, 3000, 18))

    def test_curves_match_exact_probabilities(self):
        trials, n_rounds = 20_000, 5
        rounds = np.arange(1, n_rounds + 1)
        first_correct = np.prod([1 - (1 - d[t]) ** rounds for d, t in SYNTHETIC_BIDDERS], axis=0)
        majority = np.array([np.prod([exact_majority(d, t, n) for d, t in SYNTHETIC_BIDDERS])
                             for n in rounds])
        for mc, exact in ((povm_mc_curve(SYNTHETIC_BIDDERS, n_rounds, trials, 5), first_correct),
                          (majority_mc_curve(SYNTHETIC_BIDDERS, n_rounds, trials, 5), majority)):
            sigma = np.sqrt(exact * (1 - exact) / trials)
            assert np.all(np.abs(mc - exact) <= 4 * sigma + 1e-12)


FOUR_OUTCOMES = np.array([0.4, 0.3, 0.2, 0.1])


class TestMajorityBlocks:
    """The blocked, round-by-round majority counts read the same stream as
    the dense cumsum reference, so every curve is bit for bit the same."""

    @staticmethod
    def assert_matches_dense(per, n_rounds, trials, seed=11):
        blocked = majority_mc_curve(per, n_rounds, trials, seed)
        assert np.array_equal(blocked, dense_majority_mc_curve(per, n_rounds, trials, seed))
        return blocked

    @pytest.mark.parametrize("trials", [1, 8191, 8192, 8193, 20_001])
    def test_block_edges(self, trials):
        self.assert_matches_dense(SYNTHETIC_BIDDERS, 7, trials)

    @pytest.mark.parametrize("n_rounds", [1, 255, 256])  # counts go uint8 -> uint16 at 256
    def test_count_dtype_edges(self, n_rounds):
        self.assert_matches_dense(SYNTHETIC_BIDDERS, n_rounds, 9000)
        # a certain true outcome counts up to n_rounds itself, so an overflow would show
        certain = [(np.array([0.0, 1.0, 0.0]), 1)]
        np.testing.assert_array_equal(self.assert_matches_dense(certain, n_rounds, 9000),
                                      np.ones(n_rounds))

    @pytest.mark.parametrize("true_index", range(4))
    def test_four_outcomes(self, true_index):
        self.assert_matches_dense([(FOUR_OUTCOMES, true_index), SYNTHETIC_BIDDERS[1]], 9, 8193)

    def test_never_learned(self):
        never = [(np.array([0.0, 0.5, 0.5]), 0), SYNTHETIC_BIDDERS[1]]
        np.testing.assert_array_equal(self.assert_matches_dense(never, 6, 8193), np.zeros(6))

    @pytest.mark.parametrize("bids", [("10", "11"), ("01", "10"), ("01", "11")])
    @pytest.mark.parametrize("locked", [False, True])
    def test_toy_povm_distributions(self, bids, locked):
        pair = locking_operators(0.77, 0.91, bids) if locked else None
        per = [(dist, t) for dist, t, _ in povm_outcome_distributions(bids, pair)]
        self.assert_matches_dense(per, 20, 20_001)

    def test_peak_memory_at_cli_default(self):
        # the dense reference peaks near 25 MB here: a full draw, outcomes and counts
        per = [(dist, t) for dist, t, _ in povm_outcome_distributions(["10", "11"], None)]
        tracemalloc.start()
        try:
            majority_mc_curve(per, 20, 100_000, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8e6


class TestFirstHitBlocks:
    """The first-hit curves draw each bidder's geometrics in blocks of
    _MC_BLOCK trials from the same stream as one full draw, so every curve
    is bit for bit the dense reference's."""

    @pytest.mark.parametrize("trials", [1, 8191, 8192, 8193, 20_001])
    @pytest.mark.parametrize("p", [0.0, 1 / 9, 0.5, 1.0], ids=["0", "1/9", "0.5", "1"])
    def test_matches_dense(self, trials, p):
        for p_hits, n_rounds in (([p], 1), ([p, 0.5], 7), ([0.3, p], 300)):  # 300: uint16 rounds
            blocked = _first_hit_curve(p_hits, n_rounds, trials, _mc_rng(5, "basis"))
            dense = dense_first_hit_curve(p_hits, n_rounds, trials, _mc_rng(5, "basis"))
            assert np.array_equal(blocked, dense)

    def test_peak_memory_at_one_round(self):
        # the dense reference peaks at about 32 B per trial here, 32 MB at 10^6 trials
        tracemalloc.start()
        try:
            _first_hit_curve([0.5, 0.25], 1, 1_000_000, _mc_rng(0, "basis"))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4e6


@pytest.fixture(scope="module")
def toy_povm():
    states = toy_bidding_states()
    povm, p_e = min_error_povm(states, PRIORS)
    return states, povm, p_e


class TestMinErrorPovm:
    def test_toy_error_probability(self, toy_povm):
        _, _, p_e = toy_povm
        assert p_e == pytest.approx(0.1112, abs=1e-3)
        assert p_e == pytest.approx(1 / 9, abs=1e-9)

    def test_optimality_conditions(self, toy_povm):
        states, povm, _ = toy_povm
        assert povm_optimality_check(povm, states, PRIORS)

    def test_povm_well_formed(self, toy_povm):
        _, povm, _ = toy_povm
        total = sum(povm.elements)
        assert np.max(np.abs(total - np.eye(4))) <= 1e-9
        for element in povm.elements:
            assert np.min(np.linalg.eigvalsh((element + element.conj().T) / 2)) >= -1e-9

    def test_orthogonal_states(self):
        from qauction.core import StateVector
        _, p_e = min_error_povm([StateVector([1, 0]), StateVector([0, 1])], [0.5, 0.5])
        assert p_e <= 1e-12

    def test_every_pair_matches_helstrom(self):
        states = toy_bidding_states()
        for i, j in itertools.combinations(range(3), 2):
            _, p_e = min_error_povm([states[i], states[j]], [0.5, 0.5])
            expected = helstrom_error(states[i], states[j])
            assert p_e == pytest.approx(expected, abs=1e-6)
            assert expected == pytest.approx((1 - math.sqrt(3) / 2) / 2, abs=1e-12)

    def test_locked_sets_match_symmetric_closed_form(self):
        # independent oracle: square-root measurement of three symmetric
        # pure states with pairwise overlap c is optimal
        for alpha in (0.7, 0.9):
            states = toy_bidding_states(alpha)
            _, p_e = min_error_povm(states, PRIORS)
            c = alpha**2
            srm = 1 - ((math.sqrt(1 + 2 * c) + 2 * math.sqrt(1 - c)) / 3) ** 2
            assert p_e == pytest.approx(srm, abs=1e-9)

    def test_beats_random_projective_grid(self, toy_povm):
        # sanity floor: no projective basis from a large random grid does better
        states, _, p_e = toy_povm
        psis = np.array([s.amplitudes for s in states])
        rng = np.random.default_rng(123)
        z = rng.normal(size=(10_000, 4, 4)) + 1j * rng.normal(size=(10_000, 4, 4))
        bases, _ = np.linalg.qr(z)
        gains = np.abs(np.einsum("id,bdj->bij", psis.conj(), bases)) ** 2 / 3
        best = 0.0
        for perm in itertools.permutations(range(4), 3):
            pc = gains[:, range(3), perm].sum(axis=1)
            best = max(best, float(pc.max()))
        assert p_e <= (1 - best) + 1e-9

    def test_priors_validated(self):
        with pytest.raises(ContractViolation):
            min_error_povm(toy_bidding_states(), [0.5, 0.5, 0.5])

    def test_identical_states_split_evenly(self):
        # a lock at alpha = 1 sends |0..0> whatever the bid, so every
        # candidate is named with probability 1/3
        states = toy_bidding_states(1.0)
        povm, p_e = min_error_povm(states, PRIORS)
        assert p_e == pytest.approx(2 / 3, abs=1e-12)
        for state, element in zip(states, povm.elements):
            hit = np.vdot(state.amplitudes, element @ state.amplitudes).real
            assert hit == pytest.approx(1 / 3, abs=1e-12)
        assert povm_optimality_check(povm, states, PRIORS)

    def test_uncertified_dependent_set_raises(self):
        # {|0>, |1>, |+>} is linearly dependent and the fixed point only
        # creeps toward its optimum, so the solve gives up instead of
        # returning an uncertified measurement
        from qauction.core import StateVector
        h = 1 / math.sqrt(2)
        states = [StateVector([1, 0, 0, 0]), StateVector([0, 1, 0, 0]),
                  StateVector([h, h, 0, 0])]
        with pytest.raises(ContractViolation, match="iterations"):
            min_error_povm(states, PRIORS)


class TestOptimalityCheck:
    def test_computational_basis_suboptimal(self):
        povm = Povm(tuple(computational_povm(2)))
        assert not povm_optimality_check(povm, toy_bidding_states(), PRIORS)

    def test_single_state_trivial(self):
        from qauction.core import StateVector
        povm = Povm((np.eye(2, dtype=complex),))
        assert povm_optimality_check(povm, [StateVector([1, 0])], [1.0])


class TestPovmLearningCurves:
    def test_closed_form_values(self):
        curve = probe_attack_povm(["10", "11"], 4, 0.1112)
        assert curve.probabilities[0] == pytest.approx((1 - 0.1112) ** 2, abs=1e-12)
        assert curve.probabilities[3] > 0.999

    def test_zero_error(self):
        curve = probe_attack_povm(["10", "11"], 5, 0.0)
        np.testing.assert_array_equal(curve.probabilities, np.ones(5))

    def test_monte_carlo_matches_closed_form(self, toy_povm):
        _, _, p_e = toy_povm
        trials = 100_000
        closed = probe_attack_povm(["10", "11"], 5, p_e).probabilities
        per = [(dist, t) for dist, t, _ in povm_outcome_distributions(["10", "11"], None)]
        mc = povm_mc_curve(per, 5, trials, 1)
        for p_hat, p in zip(mc, closed):
            sigma = math.sqrt(p * (1 - p) / trials)
            assert abs(p_hat - p) <= 3 * sigma + 1e-12

    def test_majority_vote_first_round(self, toy_povm):
        _, _, p_e = toy_povm
        trials = 20_000
        per = [(dist, t) for dist, t, _ in povm_outcome_distributions(["10", "11"], None)]
        probs = majority_mc_curve(per, 2, trials, 2)
        p1 = (1 - p_e) ** 2
        assert abs(probs[0] - p1) <= 3 * math.sqrt(p1 * (1 - p1) / trials)
        # even rounds can tie, so the majority rule is not monotone
        assert probs[1] < probs[0]

    def test_invalid_error_probability(self):
        with pytest.raises(ContractViolation):
            probe_attack_povm(["10", "11"], 3, 1.0)


class TestLockedAuction:
    def test_neutral_lock_equals_unlocked_zeroth(self):
        pair = locking_operators(1 / math.sqrt(2), 1 / math.sqrt(2), ["10", "11"])
        locked = run_locked_auction(["10", "11"], TOY_TABLE, default_schedule(), pair)
        plain = run_adiabatic(["10", "11"], TOY_TABLE, default_schedule())
        assert abs(locked.success[-1] - plain.success[-1]) <= 1e-6

    def test_leakage_stays_in_subspace(self):
        pair = locking_operators(0.9, 0.7, ["11", "10"])
        traj = run_locked_auction(["11", "10"], TOY_TABLE, default_schedule(), pair)
        assert traj.leakage.max() <= 1e-9

    def test_strong_lock_winner_exact_variant(self):
        # exact stepping at the short schedule already resolves the winner
        pair = locking_operators(0.9, 0.7, ["11", "10"])
        traj = run_locked_auction(["11", "10"], TOY_TABLE, default_schedule("exact"), pair)
        final = traj.final_state.probabilities()
        assert int(np.argmax(final)) == 0b1100

    def test_winner_never_changes_on_alpha_grid(self):
        # the locked interpolation roughly halves g_min, so run the locked
        # iteration on a longer schedule before asserting the argmax
        schedule = AdiabaticSchedule(steps=60, delta=1.0, variant="locked")
        alphas = (0.6, 0.7, 0.8, 0.9)
        for v1, v2 in itertools.permutations((1, 2, 3), 2):
            bids = [bits_of(v1), bits_of(v2)]
            honest = run_adiabatic(bids, TOY_TABLE, default_schedule())
            expected = int(np.argmax(honest.final_state.probabilities()))
            assert expected == honest.winner_index
            for a1, a2 in itertools.product(alphas, repeat=2):
                pair = locking_operators(a1, a2, bids)
                locked = run_locked_auction(bids, TOY_TABLE, schedule, pair)
                got = int(np.argmax(locked.final_state.probabilities()))
                assert got == expected, (v1, v2, a1, a2)

    def test_locked_gap_shrinks(self):
        pair = locking_operators(0.9, 0.7, ["11", "10"])
        locked_schedule = AdiabaticSchedule(20, 1.5, "locked", locking=pair.operators)
        locked = eigenvalue_tracks(["11", "10"], TOY_TABLE, locked_schedule)
        honest = eigenvalue_tracks(["11", "10"], TOY_TABLE, default_schedule())
        assert 0 < locked.g_min < honest.g_min

    def test_first_variant_rejected(self):
        pair = locking_operators(0.9, 0.7, ["11", "10"])
        with pytest.raises(ContractViolation):
            run_locked_auction(["11", "10"], TOY_TABLE, default_schedule("first"), pair)


class TestSpuriousAttack:
    def test_wrong_winner_raises(self, monkeypatch):
        import qauction.adversary as adversary
        monkeypatch.setattr(adversary, "revealing_index", lambda bids: 0)
        with pytest.raises(ContractViolation, match="revealing"):
            run_spurious_attack(["10", "11"], default_schedule())

    def test_converges_to_revealing_state(self):
        traj = run_spurious_attack(["10", "11"], default_schedule())
        assert traj.winner_index == 0b1011
        assert traj.success[0] == pytest.approx(0.25, abs=1e-12)
        assert traj.success[-1] >= 0.9

    def test_restricted_gap_positive(self):
        tracks = eigenvalue_tracks(["10", "11"], spurious_table(), default_schedule())
        assert tracks.g_min > 0
        np.testing.assert_allclose(tracks.eigenvalues[-1], [-5, -3, -2, 0], atol=1e-9)


class TestCollusionDefense:
    def test_initial_populations(self):
        traj = run_collusion_defense(["10", "11"], spurious_table(), default_schedule())
        probs = traj.steps[0].state.probabilities()
        for idx in (0b0000, 0b0011, 0b1000):
            assert probs[idx] == pytest.approx(1 / 3, abs=1e-12)
        assert traj.winner_index == 0b0011

    def test_revealing_state_never_populated(self):
        traj = run_collusion_defense(["10", "11"], spurious_table(), default_schedule())
        worst = max(abs(st.state.amplitudes[0b1011]) for st in traj.steps)
        assert worst <= 1e-9

    def test_against_honest_table_winner_stands(self):
        traj = run_collusion_defense(["10", "11"], TOY_TABLE, default_schedule())
        final = traj.final_state.probabilities()
        assert int(np.argmax(final)) == 0b0011

    def test_rejects_three_bidders(self):
        with pytest.raises(ContractViolation):
            run_collusion_defense(["10", "11", "01"], TOY_TABLE, default_schedule())

    @pytest.mark.parametrize("table", ["first_price", "spurious"])
    @pytest.mark.parametrize("b1,b2", list(itertools.permutations(["01", "10", "11"], 2)))
    def test_every_pair_stays_in_kept_span(self, b1, b2, table):
        payoffs = spurious_table() if table == "spurious" else TOY_TABLE
        traj = run_collusion_defense([b1, b2], payoffs, default_schedule())
        assert traj.leakage.max() <= 1e-9
        reveal = revealing_index([b1, b2])
        assert max(abs(st.state.amplitudes[reveal]) for st in traj.steps) <= 1e-12
        # both tables pay each bidder its own bid on the kept states
        honest_winner = int(b1, 2) << 2 if b1 > b2 else int(b2, 2)
        assert traj.winner_index == honest_winner
        assert int(np.argmax(traj.final_state.probabilities())) == traj.winner_index


class TestPovmSolverOnRandomEnsembles:
    """The solver must satisfy the necessary optimality conditions and beat
    the square-root measurement (an upper bound on the minimum error) on
    arbitrary pure-state ensembles, not just the shipped scenarios."""

    @staticmethod
    def _random_states(rng, dim, count):
        from qauction.core import StateVector
        out = []
        for _ in range(count):
            v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            out.append(StateVector(v / np.linalg.norm(v)))
        return out

    @staticmethod
    def _srm_error(states, priors):
        # square-root measurement: Pi_i = rho^{-1/2} p_i |psi_i><psi_i| rho^{-1/2}
        dim = len(states[0])
        rho = np.zeros((dim, dim), dtype=complex)
        for p, s in zip(priors, states):
            rho += p * np.outer(s.amplitudes, s.amplitudes.conj())
        w, v = np.linalg.eigh(rho)
        inv_sqrt = np.array([1 / math.sqrt(x) if x > 1e-14 else 0.0 for x in w])
        root = (v * inv_sqrt) @ v.conj().T
        p_c = sum(p**2 * abs(np.vdot(s.amplitudes, root @ s.amplitudes)) ** 2
                  for p, s in zip(priors, states))
        return 1.0 - p_c

    @pytest.mark.parametrize("seed", [3, 5, 8])
    def test_three_random_states(self, seed):
        rng = np.random.default_rng(seed)
        states = self._random_states(rng, 4, 3)
        priors = rng.uniform(0.2, 1.0, size=3)
        priors = list(priors / priors.sum())
        povm, p_e = min_error_povm(states, priors)
        assert povm_optimality_check(povm, states, priors)
        assert p_e <= self._srm_error(states, priors) + 1e-9

    @pytest.mark.parametrize("dim, count, seed", [(8, 5, 21), (16, 8, 22)])
    def test_larger_random_ensembles(self, dim, count, seed):
        rng = np.random.default_rng(seed)
        states = self._random_states(rng, dim, count)
        priors = rng.uniform(0.2, 1.0, size=count)
        priors = list(priors / priors.sum())
        povm, p_e = min_error_povm(states, priors)
        assert povm_optimality_check(povm, states, priors)
        assert p_e <= self._srm_error(states, priors) + 1e-12

    @pytest.mark.parametrize("seed", [11, 13])
    def test_two_random_states_match_helstrom(self, seed):
        rng = np.random.default_rng(seed)
        states = self._random_states(rng, 4, 2)
        _, p_e = min_error_povm(states, [0.5, 0.5])
        assert p_e == pytest.approx(helstrom_error(states[0], states[1]), abs=1e-9)
