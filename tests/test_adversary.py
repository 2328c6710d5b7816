import itertools
import math
import tracemalloc

import numpy as np
import pytest

from helpers import computational_povm, dense_first_hit_curve, dense_majority_mc_curve, helstrom_error
from qauction import adversary
from qauction.adversary import (
    Povm,
    _capped_geometric,
    _first_hit_curve,
    _mc_rng,
    basis_mc_curve,
    collusion_operator,
    locked_bidding_state,
    locking_operator,
    locking_unitaries,
    majority_mc_curve,
    min_error_povm,
    povm_mc_curve,
    povm_optimality_check,
    povm_outcome_distributions,
    probe_attack_basis,
    probe_attack_povm,
    revealing_index,
    run_collusion_defense,
    spurious_table,
    toy_bidding_states,
)
from qauction.circuits import build_collusion_circuit, circuit_to_matrix
from qauction.core import ContractViolation, StateVector, is_hermitian
from qauction.protocol import (
    AdiabaticSchedule,
    AuctionConfig,
    PayoffTable,
    build_first_price_table,
    default_schedule,
    eigenvalue_tracks,
    run_adiabatic,
)

# A corrupt table paying the sum of both registers' dollar values rewards
# states that expose both bids at once.
SPURIOUS_PAYOFFS = [0, 1, 2, 3, 1, 2, 3, 4, 2, 3, 4, 5, 3, 4, 5, 6]

TOY_TABLE = build_first_price_table(AuctionConfig(m=2, p=2))
PRIORS = [1 / 3] * 3


def bits_of(value):
    return {1: "01", 2: "10", 3: "11"}[value]


def sampled_distributions(bids, alphas=None):
    """Basis-outcome distributions of the probed bidders' states, bidder i
    locked at alphas[i] if given."""
    alphas = alphas or (None,) * len(bids)
    return [locked_bidding_state(b, a).probabilities() for b, a in zip(bids, alphas)]


class TestSpuriousTable:
    def test_all_rows(self):
        assert list(spurious_table().values) == SPURIOUS_PAYOFFS

    def test_spot_values(self):
        table = spurious_table()
        assert table.values[0b1011] == 5
        assert table.values[0b0000] == 0
        assert table.values[0b1111] == 6

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
        assert (math.cos(theta) + math.sin(theta)) / math.sqrt(2) == pytest.approx(alpha, abs=1e-12)
        assert is_hermitian(v, 1e-12)
        assert np.max(np.abs(v.T @ v - np.eye(v.shape[0]))) <= 1e-10
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

    def test_unitaries_are_the_per_bidder_operators(self):
        bids, alphas = ["11", "10", "01"], (0.9, 0.7, 0.8)
        vs = locking_unitaries(bids, alphas)
        assert len(vs) == 3
        for v, b, a in zip(vs, bids, alphas):
            np.testing.assert_array_equal(v, locking_operator(b, a)[1])

    def test_unitaries_need_one_amplitude_per_bidder(self):
        with pytest.raises(ContractViolation, match="2 lock amplitudes for 3 bidders"):
            locking_unitaries(["11", "10", "01"], (0.9, 0.7))

    def test_alpha_range(self):
        with pytest.raises(ContractViolation):
            locking_operator("10", 0.0)
        with pytest.raises(ContractViolation):
            locking_operator("10", 1.2)


class TestBasisLearningCurve:
    def test_unprotected_closed_form(self):
        curve = probe_attack_basis([None, None], 8)
        expected = (1 - 0.5 ** np.arange(1, 9)) ** 2
        np.testing.assert_allclose(curve, expected, rtol=1e-15)
        assert curve[0] == 0.25
        assert curve[3] == 225 / 256

    def test_locked_closed_form(self):
        curve = probe_attack_basis([0.9, 0.7], 4)
        assert curve[0] == pytest.approx((1 - 0.81) * (1 - 0.49), abs=1e-12)

    def test_monte_carlo_within_3_sigma(self):
        trials = 100_000
        closed = probe_attack_basis([None, None], 6)
        mc = basis_mc_curve(sampled_distributions(["10", "11"]), 6, trials, 0)
        for p_hat, p in zip(mc, closed):
            sigma = math.sqrt(p * (1 - p) / trials)
            assert abs(p_hat - p) <= 3 * sigma + 1e-12

    def test_locked_strictly_slower_when_alpha_strong(self):
        for a1, a2 in ((0.8, 0.75), (0.9, 0.9), (0.95, 0.8)):
            locked = probe_attack_basis([a1, a2], 20)
            plain = probe_attack_basis([None, None], 20)
            assert np.all(locked < plain)

    def test_curve_shape_invariants(self):
        for curve in (probe_attack_basis([None, None], 20),
                      basis_mc_curve(sampled_distributions(["10", "11"]), 10, 5000, 0)):
            assert np.all(np.diff(curve) >= -1e-12)
            assert np.all((curve >= 0) & (curve <= 1))


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
        mc = basis_mc_curve(sampled_distributions(["10", "11"], (1.0, 0.8)), 5, 1000, 3)
        closed = probe_attack_basis([1.0, 0.8], 5)
        np.testing.assert_array_equal(mc, np.zeros(5))
        np.testing.assert_array_equal(closed, np.zeros(5))
        never = [(np.array([0.0, 0.5, 0.5]), 0), SYNTHETIC_BIDDERS[1]]
        np.testing.assert_array_equal(povm_mc_curve(never, 4, 500, 0), np.zeros(4))
        np.testing.assert_array_equal(majority_mc_curve([never], 4, 500, 0), np.zeros((1, 4)))

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_first_hit_curves_non_decreasing(self, seed):
        probs = [basis_mc_curve(sampled_distributions(["10", "11"]), 12, 2000, seed),
                 basis_mc_curve(sampled_distributions(["11", "10"], (0.9, 0.75)), 12, 2000, seed),
                 povm_mc_curve(SYNTHETIC_BIDDERS, 12, 2000, seed)]
        for p in probs:
            assert p.shape == (12,)
            assert np.all(np.diff(p) >= 0)
            assert np.all((p >= 0) & (p <= 1))

    def test_same_seed_same_arrays(self):
        for curve, arg in ((basis_mc_curve, sampled_distributions(["10", "11"])), (povm_mc_curve, SYNTHETIC_BIDDERS),
                           (majority_mc_curve, [SYNTHETIC_BIDDERS])):
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
                          (majority_mc_curve([SYNTHETIC_BIDDERS], n_rounds, trials, 5)[0], majority)):
            sigma = np.sqrt(exact * (1 - exact) / trials)
            assert np.all(np.abs(mc - exact) <= 4 * sigma + 1e-12)


FOUR_OUTCOMES = np.array([0.4, 0.3, 0.2, 0.1])


class TestMajorityBlocks:
    """Every variant's blocked running-margin counts read the one draw that
    the dense cumsum reference reads, so every curve is bit for bit the
    same as the reference's for that variant alone."""

    @staticmethod
    def assert_matches_dense(variants, n_rounds, trials, seed=11):
        curves = majority_mc_curve(variants, n_rounds, trials, seed)
        assert curves.shape == (len(variants), n_rounds)
        for curve, per in zip(curves, variants):
            assert np.array_equal(curve, dense_majority_mc_curve(per, n_rounds, trials, seed))
        return curves

    @pytest.mark.parametrize("trials", [1, 8191, 8192, 8193, 20_001, 23_399, 23_400, 23_401, 46_801])
    def test_block_edges(self, trials):
        # blocks of 23400 trials at 7 rounds; packed flags: one bit per trial, so
        # the last byte of a block or of the draw can be padding
        self.assert_matches_dense([SYNTHETIC_BIDDERS, SYNTHETIC_BIDDERS[::-1]], 7, trials)

    @pytest.mark.parametrize("trials", [1, 1023, 1024, 1025, 2049])
    def test_block_edges_at_1000_rounds(self, trials):
        # blocks of 1024 trials from 160 rounds up
        self.assert_matches_dense([SYNTHETIC_BIDDERS, SYNTHETIC_BIDDERS[::-1]], 1000, trials)

    @pytest.mark.parametrize("n_rounds", [1, 127, 128, 255, 256])  # margins go int8 -> int16 at 128
    def test_count_dtype_edges(self, n_rounds):
        # a certain true (other) outcome runs the margins to +n_rounds (-n_rounds),
        # so an overflow would show
        certain = [(np.array([0.0, 1.0, 0.0]), 1), (np.array([1.0, 0.0, 0.0]), 0)]
        never = [(np.array([0.0, 1.0, 0.0]), 0), (np.array([0.0, 0.0, 1.0]), 1)]
        curves = self.assert_matches_dense([SYNTHETIC_BIDDERS, certain, never], n_rounds, 9000)
        np.testing.assert_array_equal(curves[1:], [np.ones(n_rounds), np.zeros(n_rounds)])

    @pytest.mark.parametrize("true_index", range(4))
    def test_four_outcomes(self, true_index):
        # one call with a four-outcome and a three-outcome variant
        self.assert_matches_dense([[(FOUR_OUTCOMES, true_index), SYNTHETIC_BIDDERS[1]],
                                   SYNTHETIC_BIDDERS], 9, 8193)

    def test_more_outcomes_than_a_byte_counts(self):
        # outcomes 0..256 need uint16, so the first edge's flags are cast in, not viewed
        dist = np.full(257, 0.5 / 256)
        dist[100] = 0.5
        curves = self.assert_matches_dense([[(dist, 100)], [(dist, 256)]], 4, 2001)
        assert curves[0, -1] > 0.5 > curves[1, -1]

    def test_never_learned(self):
        never = [(np.array([0.0, 0.5, 0.5]), 0), SYNTHETIC_BIDDERS[1]]
        np.testing.assert_array_equal(self.assert_matches_dense([never], 6, 8193), np.zeros((1, 6)))

    def test_cdf_ending_below_and_at_one(self):
        # the last cdf edge is never compared, whether the cdf rounds to just
        # below 1.0 or ends at it: the last outcome takes every u from the
        # second-to-last edge on (a cdf ending well below 1.0 is no distribution
        # and is rejected: BAD_DISTRIBUTIONS)
        short, full = np.array([0.7, 0.2, 0.1]), np.array([0.5, 0.25, 0.25])
        assert np.cumsum(short)[-1] < 1.0 and np.cumsum(full)[-1] == 1.0
        self.assert_matches_dense([[(short, 0), (full, 1)], [(full, 2), (short, 2)]], 12, 8193)

    def test_draw_past_a_cdf_ending_below_one_is_the_last_outcome(self, monkeypatch):
        # cumsum([0.7, 0.2, 0.1]) ends at 1 - 2**-53, the largest double below 1.0,
        # which a draw can be; it is outcome 2, the true one, in every round
        # (comparing the last edge too made it an outcome 3 that exists for no
        # bidder and counts for nobody)
        class AlmostOne:
            @staticmethod
            def random(out):
                out.fill(np.nextafter(1.0, 0.0))

        monkeypatch.setattr(adversary, "_mc_rng", lambda seed, rule: AlmostOne())
        assert np.cumsum([0.7, 0.2, 0.1])[-1] == np.nextafter(1.0, 0.0)
        curves = majority_mc_curve([[(np.array([0.7, 0.2, 0.1]), 2)]], 3, 16, 0)
        np.testing.assert_array_equal(curves, [[1, 1, 1]])

    def test_variants_need_one_bidder_count(self):
        for variants in ([], [[]], [SYNTHETIC_BIDDERS, SYNTHETIC_BIDDERS[:1]]):
            with pytest.raises(ContractViolation):
                majority_mc_curve(variants, 4, 100, 0)

    @pytest.mark.parametrize("bids", [("10", "11"), ("01", "10"), ("01", "11")])
    @pytest.mark.parametrize("locked", [False, True])
    def test_toy_povm_distributions(self, bids, locked):
        # locked: the CLI's call, the unlocked and the locked variant on one draw
        locks = [(None, None), (0.77, 0.91)] if locked else [(None, None)]
        variants = [[(dist, t) for dist, t, *_ in povm_outcome_distributions(bids, alphas)]
                    for alphas in locks]
        self.assert_matches_dense(variants, 20, 20_001)

    def test_peak_memory_at_cli_default(self):
        # the dense reference peaks near 25 MB a variant here: a full draw, outcomes and counts
        variants = [[(dist, t) for dist, t, *_ in povm_outcome_distributions(["10", "11"], alphas)]
                    for alphas in ((None, None), (0.9, 0.7))]
        tracemalloc.start()
        try:
            majority_mc_curve(variants, 20, 100_000, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    @pytest.mark.parametrize("n_outcomes", [65, 257])
    def test_blocks_scaled_by_the_outcome_count_read_the_same_draw(self, n_outcomes, monkeypatch):
        # the blocks of K = 3's cell budget, unscaled: 8192 trials at 20 rounds, against 1024
        variants = [[(np.full(n_outcomes, 1 / n_outcomes), 0), (FOUR_OUTCOMES, 3)]]
        scaled = majority_mc_curve(variants, 20, 20_001, 3)
        monkeypatch.setattr(adversary, "_MAJORITY_CELLS", adversary._MAJORITY_CELLS * (n_outcomes - 1) // 2)
        assert np.array_equal(scaled, majority_mc_curve(variants, 20, 20_001, 3))

    @pytest.mark.parametrize("n_outcomes", [65, 257])
    def test_peak_memory_with_many_outcomes(self, n_outcomes):
        # the margins take K - 1 bytes a cell, so blocks of 2 / (K - 1) of K = 3's cells hold
        # their bytes, down to blocks of 1024 trials; blocks of K = 3's cells peaked at 12.9 MB
        # (K = 65) and 44.7 MB (K = 257) in this call
        variants = [[(np.full(n_outcomes, 1 / n_outcomes), 0)]]
        tracemalloc.start()
        try:
            majority_mc_curve(variants, 20, 100_000, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4e6 + 1024 * 20 * (n_outcomes - 1)

    def test_peak_memory_at_the_rounds_cap(self):
        # blocks of 1024 trials here, about 16 B a cell, plus the packed flags;
        # blocks of all 8192 trials peaked at 150 MB
        variants = [[(dist, t) for dist, t, *_ in povm_outcome_distributions(["10", "11"], alphas)]
                    for alphas in ((None, None), (0.9, 0.7))]
        tracemalloc.start()
        try:
            majority_mc_curve(variants, 1000, 8192, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 24e6


class TestFirstHitBlocks:
    """The first-hit curves draw each bidder's geometrics in blocks of
    _FIRST_HIT_BLOCK trials from the same stream as one full draw, so every
    curve is bit for bit the dense reference's."""

    @pytest.mark.parametrize("trials", [1, 2**14 - 1, 2**14, 2**14 + 1, 40_001])
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


class TestCappedGeometric:
    """_capped_geometric gives numpy's own geometric values, capped, from the
    same random values, on both sides of numpy's switch at p = 1/3 between
    its search and inversion draws, and whatever share of the sums the full
    passes take (at p = 0.9354 one sum is under 0.95 and two are under the
    0.998 that ends the passes)."""

    @pytest.mark.parametrize("p", [1.0, 0.96, 0.9354, 0.8889, 0.5, 0.3476, 1 / 3,
                                   np.nextafter(1 / 3, 0), np.nextafter(1 / 3, 1),
                                   0.1775, 0.01, 1e-9])
    @pytest.mark.parametrize("never", [2, 21, 129, 256, 1001])
    def test_matches_numpy(self, p, never):
        ours, theirs = np.random.default_rng(3), np.random.default_rng(3)
        draw = _capped_geometric(p, never)
        # sizes around a first-hit block; consecutive calls continue the one stream
        for size in (1, 2**14 - 1, 2**14, 2**14 + 1):
            got = draw(ours, size)
            assert got.dtype == np.min_scalar_type(never)
            assert np.array_equal(got, np.minimum(theirs.geometric(p, size=size), never))
        assert ours.bit_generator.state == theirs.bit_generator.state


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
        povm = computational_povm(2)
        assert not povm_optimality_check(povm, toy_bidding_states(), PRIORS)

    def test_single_state_trivial(self):
        from qauction.core import StateVector
        povm = Povm((np.eye(2, dtype=complex),))
        assert povm_optimality_check(povm, [StateVector([1, 0])], [1.0])


class TestPovmLearningCurves:
    def test_closed_form_values(self):
        curve = probe_attack_povm([0.1112, 0.1112], 4)
        assert curve[0] == pytest.approx((1 - 0.1112) ** 2, abs=1e-12)
        assert curve[3] > 0.999

    def test_zero_error(self):
        curve = probe_attack_povm([0.0, 0.0], 5)
        np.testing.assert_array_equal(curve, np.ones(5))

    def test_monte_carlo_matches_closed_form(self, toy_povm):
        _, _, p_e = toy_povm
        trials = 100_000
        closed = probe_attack_povm([p_e, p_e], 5)
        per = [(dist, t) for dist, t, *_ in povm_outcome_distributions(["10", "11"], (None, None))]
        mc = povm_mc_curve(per, 5, trials, 1)
        for p_hat, p in zip(mc, closed):
            sigma = math.sqrt(p * (1 - p) / trials)
            assert abs(p_hat - p) <= 3 * sigma + 1e-12

    def test_majority_vote_first_round(self, toy_povm):
        _, _, p_e = toy_povm
        trials = 20_000
        per = [(dist, t) for dist, t, *_ in povm_outcome_distributions(["10", "11"], (None, None))]
        probs = majority_mc_curve([per], 2, trials, 2)[0]
        p1 = (1 - p_e) ** 2
        assert abs(probs[0] - p1) <= 3 * math.sqrt(p1 * (1 - p1) / trials)
        # even rounds can tie, so the majority rule is not monotone
        assert probs[1] < probs[0]

    def test_invalid_error_probability(self):
        with pytest.raises(ContractViolation):
            probe_attack_povm([0.1, 1.0], 3)


def _locked(bids, alphas, variant="locked", steps=20, delta=1.5):
    return AdiabaticSchedule(steps, delta, variant, locking_unitaries(bids, alphas))


class TestLockedAuction:
    def test_neutral_lock_equals_unlocked_zeroth(self):
        neutral = (1 / math.sqrt(2), 1 / math.sqrt(2))
        locked = run_adiabatic(["10", "11"], TOY_TABLE, _locked(["10", "11"], neutral))
        plain = run_adiabatic(["10", "11"], TOY_TABLE, default_schedule())
        assert abs(locked.success[-1] - plain.success[-1]) <= 1e-6

    def test_leakage_stays_in_subspace(self):
        traj = run_adiabatic(["11", "10"], TOY_TABLE, _locked(["11", "10"], (0.9, 0.7)))
        assert traj.leakage.max() <= 1e-9

    def test_strong_lock_winner_exact_variant(self):
        # exact stepping at the short schedule already resolves the winner
        traj = run_adiabatic(["11", "10"], TOY_TABLE, _locked(["11", "10"], (0.9, 0.7), "exact"))
        final = traj.final_state.probabilities()
        assert int(np.argmax(final)) == 0b1100

    def test_winner_never_changes_on_alpha_grid(self):
        # the locked interpolation roughly halves g_min, so run the locked
        # iteration on a longer schedule before asserting the argmax
        alphas = (0.6, 0.7, 0.8, 0.9)
        for v1, v2 in itertools.permutations((1, 2, 3), 2):
            bids = [bits_of(v1), bits_of(v2)]
            honest = run_adiabatic(bids, TOY_TABLE, default_schedule())
            expected = int(np.argmax(honest.final_state.probabilities()))
            assert expected == honest.winner_index
            for a1, a2 in itertools.product(alphas, repeat=2):
                locked = run_adiabatic(bids, TOY_TABLE, _locked(bids, (a1, a2), steps=60, delta=1.0))
                got = int(np.argmax(locked.final_state.probabilities()))
                assert got == expected, (v1, v2, a1, a2)

    def test_locked_gap_shrinks(self):
        locked = eigenvalue_tracks(["11", "10"], TOY_TABLE, _locked(["11", "10"], (0.9, 0.7)))
        honest = eigenvalue_tracks(["11", "10"], TOY_TABLE, default_schedule())
        assert 0 < locked.g_min < honest.g_min

    def test_first_variant_rejected(self):
        locking = locking_unitaries(["11", "10"], (0.9, 0.7))
        with pytest.raises(ContractViolation):
            AdiabaticSchedule(20, 1.5, "first", locking)


class TestSpuriousAttack:
    def test_converges_to_revealing_state(self):
        traj = run_adiabatic(["10", "11"], spurious_table(), default_schedule())
        assert traj.winner_index == revealing_index(["10", "11"]) == 0b1011
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

    def test_reads_an_iterator_of_bids_once(self):
        once = run_collusion_defense(iter(["10", "11"]), TOY_TABLE, default_schedule())
        listed = run_collusion_defense(["10", "11"], TOY_TABLE, default_schedule())
        assert np.array_equal(once.amplitudes, listed.amplitudes)

    @pytest.mark.parametrize("b1,b2", list(itertools.product(["01", "10", "11"], repeat=2)))
    def test_operator_is_the_circuit_bit_for_bit(self, b1, b2):
        assert np.array_equal(collusion_operator(b1, b2),
                              circuit_to_matrix(build_collusion_circuit(b1, b2)))

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


TWO_OUTCOMES = np.array([0.5, 0.5])
# Library entries that a bad scalar used to pass: NaN or infinite payoffs, a
# NaN or out-of-range lock amplitude, and a non-finite or negative error
# probability (bad round and trial counts: BAD_COUNTS below).
BAD_ENTRIES = {
    "payoff_nan": lambda: PayoffTable(1, [0.0, np.nan]),
    "payoff_inf": lambda: PayoffTable(1, [0.0, np.inf]),
    "basis_alpha_nan": lambda: probe_attack_basis([np.nan], 3),
    "basis_alpha_2": lambda: probe_attack_basis([2.0], 3),
    "basis_alpha_0": lambda: probe_attack_basis([None, 0.0], 3),
    "povm_p_e_-inf": lambda: probe_attack_povm([-np.inf], 3),
    "povm_p_e_nan": lambda: probe_attack_povm([np.nan], 3),
    "povm_p_e_negative": lambda: probe_attack_povm([-0.1], 3),
}


@pytest.mark.parametrize("name", list(BAD_ENTRIES))
def test_library_entries_reject_bad_scalars(name):
    with pytest.raises(ContractViolation):
        BAD_ENTRIES[name]()


# Every learning curve, as a function of (n_rounds, trials); the closed forms
# take no trials.
CURVES = {
    "basis_mc_curve": lambda n_rounds, trials: basis_mc_curve([TWO_OUTCOMES], n_rounds, trials, 0),
    "povm_mc_curve": lambda n_rounds, trials: povm_mc_curve([(TWO_OUTCOMES, 0)], n_rounds, trials, 0),
    "majority_mc_curve": lambda n_rounds, trials: majority_mc_curve([[(TWO_OUTCOMES, 0)]], n_rounds, trials, 0),
    "probe_attack_basis": lambda n_rounds, trials: probe_attack_basis([None], n_rounds),
    "probe_attack_povm": lambda n_rounds, trials: probe_attack_povm([0.25], n_rounds),
}
MC_CURVES = ["basis_mc_curve", "povm_mc_curve", "majority_mc_curve"]
# counts below one, and counts that used to give a curve (True) or end in
# numpy's TypeError or ValueError
BAD_COUNTS = [2.5, np.nan, np.inf, True, 0, -1]


@pytest.mark.parametrize("count", BAD_COUNTS, ids=repr)
@pytest.mark.parametrize("curve", list(CURVES))
def test_curves_reject_a_round_count_that_is_no_positive_integer(curve, count):
    with pytest.raises(ContractViolation):
        CURVES[curve](count, 10)


@pytest.mark.parametrize("count", BAD_COUNTS, ids=repr)
@pytest.mark.parametrize("curve", MC_CURVES)
def test_mc_curves_reject_a_trial_count_that_is_no_positive_integer(curve, count):
    with pytest.raises(ContractViolation):
        CURVES[curve](3, count)


@pytest.mark.parametrize("curve", list(CURVES))
def test_curves_take_numpy_integer_counts(curve):
    got = CURVES[curve](np.int64(3), np.int64(10))
    assert np.array_equal(got, CURVES[curve](3, 10))
    assert got.shape[-1] == 3


# Outcome distributions and priors that used to pass or end in another
# error: NaN and infinite entries (read as "never hit" by the first-hit
# curves, or giving a plausible curve), sums other than 1, fewer priors than
# states, and a true index that is a float or outside the outcomes.
BAD_DISTRIBUTIONS = {
    "povm_priors_nan": lambda: min_error_povm(toy_bidding_states(), [np.nan, 0.5, 0.5]),
    "optimality_check_priors_nan": lambda: povm_optimality_check(
        computational_povm(2), toy_bidding_states(), [np.nan, 0.5, 0.5]),
    "optimality_check_2_priors_for_3_states": lambda: povm_optimality_check(
        computational_povm(2), toy_bidding_states(), [0.5, 0.5]),
    "basis_mc_nan": lambda: basis_mc_curve([np.array([np.nan, 0.5])], 3, 10, 0),
    "basis_mc_sums_to_3": lambda: basis_mc_curve([np.ones(3)], 3, 10, 0),
    "povm_mc_nan": lambda: povm_mc_curve([(np.array([np.nan, 0.5, 0.5]), 1)], 3, 10, 0),
    "povm_mc_inf": lambda: povm_mc_curve([(np.array([np.inf, 0.5]), 1)], 3, 10, 0),
    "povm_mc_index_5": lambda: povm_mc_curve([(TWO_OUTCOMES, 5)], 3, 10, 0),
    "povm_mc_index_-1": lambda: povm_mc_curve([(TWO_OUTCOMES, -1)], 3, 10, 0),
    "majority_nan": lambda: majority_mc_curve([[(np.array([np.nan, 0.5, 0.5]), 0)]], 3, 10, 0),
    "majority_sums_to_0.9": lambda: majority_mc_curve([[(np.array([0.5, 0.2, 0.2]), 0)]], 3, 10, 0),
    "majority_index_2": lambda: majority_mc_curve([[(TWO_OUTCOMES, 2)]], 3, 10, 0),
    "majority_index_float": lambda: majority_mc_curve([[(TWO_OUTCOMES, 1.0)]], 3, 10, 0),
}


@pytest.mark.parametrize("name", list(BAD_DISTRIBUTIONS))
def test_library_entries_reject_bad_distributions(name):
    with pytest.raises(ContractViolation):
        BAD_DISTRIBUTIONS[name]()


# States of mixed dimension, and a POVM of another dimension than the
# states', that used to end in numpy's shape or matmul ValueError.
BAD_DIMENSIONS = {
    "optimality_check_states_of_2_and_4": lambda: povm_optimality_check(
        computational_povm(2), [StateVector([1, 0]), StateVector([1, 0, 0, 0])],
        [0.5, 0.5]),
    "optimality_check_4x4_povm_for_2_amplitude_states": lambda: povm_optimality_check(
        computational_povm(2), [StateVector([1, 0]), StateVector([0, 1])], [0.5, 0.5]),
}


@pytest.mark.parametrize("name", list(BAD_DIMENSIONS))
def test_library_entries_reject_bad_dimensions(name):
    with pytest.raises(ContractViolation):
        BAD_DIMENSIONS[name]()
