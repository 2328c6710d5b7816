"""Corrupt-auctioneer attacks and bidder countermeasures.

Two attacks: probe-and-measure (replace the mixing step with fresh |0..0>
probes and measure the returned bidding states, either qubit-by-qubit or
with a minimum-error POVM) and the spurious payoff table that makes the
search converge to a state revealing both bids. Two defenses: secret
locking operators that bias the bidding states toward |0..0>, and a
colluding joint bidding operator that removes the revealing state.
"""

from __future__ import annotations

import math
import numbers
from typing import Sequence

import numpy as np

from .core import ContractViolation, Povm, StateVector, measurement_probabilities
from .protocol import (
    AdiabaticSchedule,
    BidSpec,
    PayoffTable,
    Trajectory,
    _is_count,
    as_bid,
    bidding_operator,
    run_schedule,
    winning_allocation,
)

TOY_BIDS = ("01", "10", "11")  # the three admissible price states at p=2


def _check_amplitude(alpha) -> None:
    """A lock amplitude is a real number in (0, 1], and not a bool."""
    if not (isinstance(alpha, numbers.Real) and not isinstance(alpha, bool) and 0 < alpha <= 1):
        raise ContractViolation(f"lock amplitude must be a real number in (0, 1], got {alpha!r}")


def locking_operator(bid: BidSpec | str, alpha: float) -> tuple[float, np.ndarray]:
    """Real symmetric unitary V with V(|0..0> + |b>)/sqrt(2) = alpha|0..0> + ...

    Built as cos(theta) * Z on the bid's leading set bit plus
    sin(theta) * X on every set bit, with theta = arcsin(alpha) - pi/4.
    The two terms anticommute, so V is both Hermitian and unitary, and V
    preserves each span{|x>, |x XOR b>} plane.
    """
    _check_amplitude(alpha)
    bid = as_bid(bid)
    theta = math.asin(alpha) - math.pi / 4
    x = np.arange(2**bid.n_qubits)
    v = np.zeros((x.size, x.size))
    v[x, x] = np.where(x & 1 << (bid.n_qubits - 1 - bid.lead), -math.cos(theta), math.cos(theta))
    v[x ^ bid.index, x] = math.sin(theta)
    return theta, v


def locking_unitaries(bids: Sequence[BidSpec | str],
                      alphas: Sequence[float]) -> tuple[np.ndarray, ...]:
    """The secret V_i of each bidder, locking bid i at amplitude alphas[i]:
    the per-bidder locking factors a locked schedule takes."""
    if len(alphas) != len(bids):
        raise ContractViolation(f"{len(alphas)} lock amplitudes for {len(bids)} bidders")
    return tuple(locking_operator(b, a)[1] for b, a in zip(bids, alphas))


def locked_bidding_state(bid: BidSpec | str, alpha: float | None) -> StateVector:
    """What the auctioneer receives from a probed bidder: V^dag U|0..0>
    when locked with amplitude alpha, the plain bidding state otherwise."""
    bid = as_bid(bid)
    column = bidding_operator(bid)[:, 0]
    if alpha is None:
        return StateVector(column)
    _, v = locking_operator(bid, alpha)
    return StateVector(v.conj().T @ column)


_MC_RULES = ("basis", "first_correct", "majority")


def _mc_rng(seed: int, rule: str) -> np.random.Generator:
    # one stream per curve, so each rule's column depends only on the seed
    if not (_is_count(seed) and seed >= 0):
        raise ContractViolation(f"seed must be a nonnegative integer, got {seed!r}")
    return np.random.default_rng([seed, _MC_RULES.index(rule)])


# trials per block of a first-hit draw: a block's few arrays stay in cache, and
# larger blocks ran no faster but added to the max RSS
_FIRST_HIT_BLOCK = 2**14
# cells (trials x rounds) per block of the majority draw at K <= 3 outcomes, whose per-cell buffers
# (draw, flags, outcomes and K - 1 one-byte margins, so more at K > 3) are about 16 B a cell
_MAJORITY_CELLS = 8192 * 20


def _check_counts(n_rounds: int, trials: int = 1) -> None:
    if not (_is_count(n_rounds) and _is_count(trials) and n_rounds >= 1 and trials >= 1):
        raise ContractViolation(f"need integer n_rounds >= 1 and trials >= 1, got {n_rounds!r} and {trials!r}")


def _check_distribution(dist, true_index: int | None = None) -> np.ndarray:
    """`dist` as a float array of finite probabilities in [0, 1] summing to 1
    within 1e-9, with `true_index`, when given, one of its outcomes."""
    d = np.asarray(dist, dtype=float).reshape(-1)
    if not (np.isfinite(d).all() and np.all((0 <= d) & (d <= 1)) and abs(d.sum() - 1.0) <= 1e-9):
        raise ContractViolation(f"a distribution needs finite entries in [0, 1] summing to 1, got {d}")
    if true_index is not None and not (_is_count(true_index) and 0 <= true_index < d.size):
        raise ContractViolation(f"true index {true_index!r} outside 0..{d.size - 1}")
    return d


def _capped_geometric(p: float, never: int):
    """A draw(rng, size) giving min(rng.geometric(p, size), never) in the
    narrowest integer type that holds `never`, from the same random values
    and leaving rng in the same state, without numpy's per-value loop.
    numpy takes, for p >= 1/3, one uniform double u per value and returns
    the first k with u <= p + pq + ... + pq^(k-1), summed term by term;
    below 1/3 it returns ceil(-E / log1p(-p)) for one standard exponential
    E. So the first is one plus the count of those sums below u, which a
    full pass per sum counts while the sums stay under 0.998 and a search
    finishes for the few values above. A pass costs about 0.33 ns a value
    and the search about 35 ns a value it reads, so a further pass pays
    while more than about 1% of the values would be left to search."""
    dtype = np.min_scalar_type(never)
    if p < 1 / 3:
        scale = -math.log1p(-p)
        return lambda rng, size: np.minimum(
            np.ceil(rng.standard_exponential(size) / scale), never).astype(dtype)
    sums, q, term, total = [], 1.0 - p, p, p
    while len(sums) < never - 1 and total < 1.0:  # u < 1 never passes a sum of 1
        sums.append(total)
        term *= q
        total += term
    split = min(len(sums), max(1, sum(s < 0.998 for s in sums)))
    head, tail = sums[:split], np.array(sums[split:])

    def draw(rng: np.random.Generator, size: int) -> np.ndarray:
        u = rng.random(size)
        hits = np.ones(size, dtype=dtype)
        above = np.empty(size, dtype=bool)
        for s in head:
            hits += np.greater(u, s, out=above).view(np.uint8)
        if tail.size:  # `above` flags the values past the last head sum
            beyond = np.flatnonzero(above)
            hits[beyond] += np.searchsorted(tail, u[beyond]).astype(dtype)
        return hits

    return draw


def _first_hit_curve(p_hits: Sequence[float], n_rounds: int, trials: int,
                     rng: np.random.Generator) -> np.ndarray:
    """Fraction of trials where every bidder has been hit within N rounds,
    for N = 1..n_rounds, with per-round hit probability p_hits[i]. Each
    bidder's first-hit round is geometric, so one draw per trial and
    bidder gives the whole curve; p = 0 means never hit. A bidder's draws
    go in blocks of _FIRST_HIT_BLOCK trials (consecutive blocks of
    `Generator.geometric` are the one draw's values, which
    _capped_geometric reproduces), so only the latest first-hit round per
    trial, capped at n_rounds + 1 in the narrowest integer type that holds
    it, is held whole."""
    _check_counts(n_rounds, trials)
    never = n_rounds + 1
    last_hit = np.ones(trials, dtype=np.min_scalar_type(never))
    for p in p_hits:
        if not p > 0:
            last_hit.fill(never)
            continue
        draw = _capped_geometric(p, never)
        for lo in range(0, trials, _FIRST_HIT_BLOCK):
            block = last_hit[lo:lo + _FIRST_HIT_BLOCK]
            np.maximum(block, draw(rng, block.size), out=block)
    # counted block by block too: bincount widens its input to intp
    counts = sum(np.bincount(last_hit[lo:lo + _FIRST_HIT_BLOCK], minlength=never + 1)
                 for lo in range(0, trials, _FIRST_HIT_BLOCK))
    return np.cumsum(counts)[1 : n_rounds + 1] / trials


def basis_mc_curve(dists: Sequence[np.ndarray], n_rounds: int, trials: int,
                   seed: int) -> np.ndarray:
    """Monte Carlo basis-measurement curve: for N = 1..n_rounds, the fraction
    of trials where every bidder produced a non-|0..0> outcome within N
    rounds. The hit probability 1 - dist[0] is read off each sampled
    outcome distribution."""
    p_hits = [1.0 - float(_check_distribution(dist)[0]) for dist in dists]
    return _first_hit_curve(p_hits, n_rounds, trials, _mc_rng(seed, "basis"))


def povm_mc_curve(per_bidder, n_rounds: int, trials: int, seed: int) -> np.ndarray:
    """First-correct-outcome rule: a bidder is learned once any of N POVM
    outcomes names their true state (matches the closed form exactly)."""
    p_hits = [float(_check_distribution(dist, true_index)[true_index]) for dist, true_index in per_bidder]
    return _first_hit_curve(p_hits, n_rounds, trials, _mc_rng(seed, "first_correct"))


def majority_mc_curve(variants, n_rounds: int, trials: int, seed: int) -> np.ndarray:
    """Strict-majority rule over N POVM outcomes, for N = 1..n_rounds; a tie
    counts as not learned, so this is not monotone in N. Each variant is a
    per-bidder list of (outcome distribution, true index), every variant
    with the same number of bidders, and the result has one curve per
    variant as rows. All variants read the one draw: one categorical
    outcome per trial and round from one uniform double u, the number of
    cdf edges at or below u over all edges but the last, so the last
    outcome takes every u from the second-to-last edge on (inverse-CDF
    sampling, also where the cdf rounds to just below 1). Trials go in
    blocks of rows of each bidder's (trials, n_rounds) draw (consecutive
    row blocks of `Generator.random` are that draw's doubles), of
    _MAJORITY_CELLS cells, times 2 / (K - 1) at K > 3 outcomes, and at
    least 1024 rows, and each is drawn once and counted for every variant.
    A trial has learned a bidder by round N when each running margin,
    true count minus the count of another outcome, is positive; the
    margins are laid out (rounds, other outcomes, trials), so each round's
    running add is one contiguous pass, and the learned flags are kept
    packed, one bit per trial."""
    _check_counts(n_rounds, trials)
    # every distribution is checked before its outcome count sizes the buffers
    variants = [[(_check_distribution(dist, true_index), true_index) for dist, true_index in per]
                for per in variants]
    n_bidders = len(variants[0]) if variants else 0
    if n_bidders == 0 or any(len(per) != n_bidders for per in variants):
        raise ContractViolation("every variant needs the same, nonzero number of bidders")
    rng = _mc_rng(seed, "majority")
    margin_type = np.min_scalar_type(-n_rounds - 1)  # holds -n_rounds..n_rounds
    n_outcomes = max(dist.size for per in variants for dist, _ in per)
    # all ones; the first bidder's packed flags zero the padding bits past `trials`
    learned = np.full((len(variants), n_rounds, -(-trials // 8)), 0xFF, dtype=np.uint8)
    # one set of block buffers, refilled in place for every block and variant;
    # a whole number of packed bytes of trials a block
    rows = max(1024, _MAJORITY_CELLS * 2 // max(2, n_outcomes - 1) // n_rounds // 8 * 8)
    u = np.empty((min(trials, rows), n_rounds))
    at_or_above = np.empty(u.shape, dtype=bool)
    outcomes = np.empty(u.shape, dtype=np.min_scalar_type(n_outcomes - 1))
    # the first edge's flags go straight into the outcomes, as bools where they fit
    first_above = outcomes.view(bool) if outcomes.itemsize == 1 else outcomes
    by_round = np.empty(u.shape[::-1], dtype=outcomes.dtype)
    flags = np.empty(by_round.shape, dtype=bool)
    margins = np.empty((n_rounds, n_outcomes - 1, u.shape[0]), dtype=margin_type)
    for bidder in range(n_bidders):
        counted = []
        for per in variants:
            dist, true_index = per[bidder]
            cdf = np.cumsum(dist)
            counted.append((cdf[:-1], true_index, [c for c in range(cdf.size) if c != true_index]))
        for lo in range(0, trials, rows):
            k = min(rows, trials - lo)
            rng.random(out=u[:k])
            for bits, (edges, true_index, others) in zip(learned, counted):
                # a single outcome has no edge: u < 1 never reaches inf, so every outcome is 0
                np.greater_equal(u[:k], edges[0] if edges.size else np.inf, out=first_above[:k])
                for edge in edges[1:]:
                    above = np.greater_equal(u[:k], edge, out=at_or_above[:k])
                    outcomes[:k] += above.view(np.uint8)
                rounds = by_round[:, :k]
                rounds[...] = outcomes[:k].T
                is_true = np.equal(rounds, true_index, out=flags[:, :k]).view(np.int8)
                is_other = at_or_above[:k].reshape(rounds.shape)  # free once outcomes are in
                margin = margins[:, :len(others), :k]
                for j, c in enumerate(others):
                    np.subtract(is_true, np.equal(rounds, c, out=is_other).view(np.int8), out=margin[:, j])
                for r in range(1, n_rounds):  # running margins, round by round
                    margin[r] += margin[r - 1]
                # every margin positive; initial=1 leaves a single-outcome bidder learned
                np.greater(np.minimum.reduce(margin, axis=1, initial=1), 0, out=flags[:, :k])
                bits[:, lo // 8 : lo // 8 + -(-k // 8)] &= np.packbits(flags[:, :k], axis=1)
    return np.bitwise_count(learned, out=learned).sum(axis=2) / trials


def probe_attack_basis(alphas: Sequence[float | None], n_rounds: int) -> np.ndarray:
    """Closed-form learning curve of qubit-by-qubit probe measurements:
    prod_i (1 - (1 - rho_i)^N) for N = 1..n_rounds, with per-round
    revelation probability rho_i = 1 - |alpha_i|^2, or 1/2 for an unlocked
    bidder (alpha_i None). `basis_mc_curve` samples the same attack."""
    _check_counts(n_rounds)
    rounds = np.arange(1, n_rounds + 1)
    probs = np.ones(n_rounds)
    for alpha in alphas:
        if alpha is not None:
            _check_amplitude(alpha)
        rho = 0.5 if alpha is None else 1.0 - alpha * alpha
        probs *= 1.0 - (1.0 - rho) ** rounds
    return probs


_SOLVE_ITERATIONS = 1000  # cap of the fixed-point loop in min_error_povm
_SUPPORT_CUTOFF = 1e-12    # eigenvalues below this share of the largest are off the support
_SOLVE_TOL = 1e-10         # minimum-error conditions that stop the solve in min_error_povm
_CHECK_TOL = 1e-8          # minimum-error conditions of povm_optimality_check


def _weighted_states(states: Sequence[StateVector], priors) -> tuple[np.ndarray, np.ndarray, list]:
    """The checked priors (one per state), the states' amplitudes as rows, of
    one dimension, and the weighted states p_i |psi_i><psi_i|, real when every
    imaginary part is exactly 0, so LAPACK's real solvers take them."""
    if len({len(s) for s in states}) != 1:
        raise ContractViolation("need at least one state, and states must share a dimension")
    priors = _check_distribution(priors)
    if priors.size != len(states):
        raise ContractViolation(f"{priors.size} priors for {len(states)} states")
    psis = np.array([s.amplitudes for s in states])
    psis = psis if psis.imag.any() else psis.real.copy()
    return priors, psis, [p * np.outer(psi, psi.conj()) for p, psi in zip(priors, psis)]


def _optimality_holds(elements, weighted, tol: float) -> bool:
    """Minimum-error conditions for elements Pi_i against the weighted
    states p_i rho_i: G = sum_i Pi_i p_i rho_i is Hermitian, and
    G - p_j rho_j is positive semidefinite for every j, each within tol."""
    gamma = sum(e @ r for e, r in zip(elements, weighted))
    if float(np.max(np.abs(gamma - gamma.conj().T))) > tol:
        return False
    gamma = (gamma + gamma.conj().T) / 2
    return all(float(np.min(np.linalg.eigvalsh(gamma - r))) >= -tol for r in weighted)


def _square_root_measurement(psis: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Rows m_k = L^{-1/2} sqrt(w_k) psi_k with L = sum_k w_k |psi_k><psi_k|
    inverted on its support: the rank-one elements |m_k><m_k| of the
    square-root measurement of the weighted ensemble. They sum to the
    projector onto the support of L."""
    scaled = psis * np.sqrt(weights)[:, None]
    w, v = np.linalg.eigh(scaled.T @ scaled.conj())
    keep = w > _SUPPORT_CUTOFF * w[-1]
    root = (v[:, keep] / np.sqrt(w[keep])) @ v[:, keep].conj().T
    return scaled @ root.T


def min_error_povm(states: Sequence[StateVector], priors: Sequence[float]) -> tuple[Povm, float]:
    """Minimum-error measurement for discriminating pure states.

    Starts from the square-root measurement Pi_k = rho^{-1/2} p_k
    |psi_k><psi_k| rho^{-1/2} (rho = sum_k p_k |psi_k><psi_k|, inverted on
    its support) and runs the fixed-point iteration Pi_k <- L^{-1/2} R_k
    Pi_k R_k L^{-1/2} (R_k = p_k |psi_k><psi_k|, L = sum_k R_k Pi_k R_k;
    Hausladen & Wootters 1994, Jezek, Rehacek & Fiurasek 2002). For pure
    states every iterate is again a square-root measurement, with weights
    p_k^2 <psi_k|Pi_k|psi_k>. The loop stops once the minimum-error
    conditions of `povm_optimality_check` hold within _SOLVE_TOL, and raises
    ContractViolation if they still fail after a fixed number of
    iterations: the result is a certified optimum or an error. Linearly
    independent sets stop within a few dozen iterations, and symmetric or
    identical sets at once; other linearly dependent sets converge too
    slowly and raise. The identity remainder off the support is spread
    equally over the returned elements so they sum to the identity; the
    states carry no weight on it.
    """
    priors, psis, weighted = _weighted_states(states, priors)
    dim = psis.shape[1]
    if len(states) > dim:
        raise ContractViolation("cannot assign more states than outcomes")

    weights = priors
    for _ in range(_SOLVE_ITERATIONS + 1):
        ms = _square_root_measurement(psis, weights)
        elements = [np.outer(m, m.conj()) for m in ms]
        remainder = (np.eye(dim) - sum(elements)) / len(states)
        elements = [e + remainder for e in elements]
        if _optimality_holds(elements, weighted, _SOLVE_TOL):
            break
        weights = priors**2 * np.abs(np.sum(psis.conj() * ms, axis=1)) ** 2
    else:
        raise ContractViolation(
            f"minimum-error conditions still fail after {_SOLVE_ITERATIONS} iterations")
    povm = Povm(tuple(elements))
    p_correct = sum(float(priors[i] * np.real(np.vdot(psis[i], povm.elements[i] @ psis[i])))
                    for i in range(len(states)))
    return povm, 1.0 - p_correct


def povm_optimality_check(povm: Povm, states: Sequence[StateVector],
                          priors: Sequence[float]) -> bool:
    """Necessary minimum-error conditions: G = sum_i p_i Pi_i |psi_i><psi_i|
    Hermitian, and G - p_j |psi_j><psi_j| positive semidefinite for all j,
    each within _CHECK_TOL. For pure states they are also sufficient. The
    same test stops the solve in `min_error_povm`."""
    if len(povm.elements) < len(states):
        raise ContractViolation("need at least one POVM element per state")
    _, psis, weighted = _weighted_states(states, priors)
    if len(povm.elements[0]) != psis.shape[1]:
        raise ContractViolation(f"a POVM on dimension {len(povm.elements[0])} "
                                f"for states of dimension {psis.shape[1]}")
    return _optimality_holds(povm.elements, weighted, _CHECK_TOL)


def toy_bidding_states(alpha: float | None = None) -> list[StateVector]:
    """The three candidate states an auctioneer must tell apart per bidder,
    optionally all locked at the same amplitude."""
    return [locked_bidding_state(b, alpha) for b in TOY_BIDS]


def probe_attack_povm(p_errors: Sequence[float], n_rounds: int) -> np.ndarray:
    """Closed-form joint learning curve prod_i (1 - p_e,i^N), N = 1..n_rounds,
    of the optimal-POVM probe attack, from each bidder's solved
    single-round error p_e,i."""
    _check_counts(n_rounds)
    rounds = np.arange(1, n_rounds + 1, dtype=float)
    probs = np.ones(n_rounds)
    for p_e in p_errors:
        if not 0 <= p_e < 1:
            raise ContractViolation(f"error probability must lie in [0, 1), got {p_e}")
        probs *= 1.0 - p_e**rounds
    return probs


def povm_outcome_distributions(bids: Sequence[BidSpec | str],
                               alphas: Sequence[float | None]):
    """Per bidder: (outcome distribution of their true state under the
    minimum-error POVM, index of the outcome naming the true bid, p_e,
    computational-basis distribution of the true state), with bidder i
    locked at alphas[i], or unlocked where it is None."""
    out = []
    for bid, alpha in zip(bids, alphas):
        states = toy_bidding_states(alpha)
        povm, p_e = min_error_povm(states, [1 / 3] * 3)
        t = TOY_BIDS.index(as_bid(bid).bits)
        out.append((measurement_probabilities(states[t], povm), t, p_e, states[t].probabilities()))
    return out


def spurious_table() -> PayoffTable:
    """Corrupt payoff metric F = b1 + b2 over both two-qubit registers; the
    double-nonzero (revealing) states get the top payoffs."""
    values = np.array([float((x >> 2) + (x & 3)) for x in range(16)])
    return PayoffTable(4, values)


def revealing_index(bids: Sequence[BidSpec | str]) -> int:
    """Basis index with every bidder's register at their price state."""
    x = 0
    for b in bids:
        b = as_bid(b)
        x = (x << b.n_qubits) | b.index
    return x


def collusion_operator(bid1: BidSpec | str, bid2: BidSpec | str) -> np.ndarray:
    """The colluding joint operator U_c of two 2-qubit bidders in closed form: on
    the lead-qubit pair, |00> -> a/sqrt(2) (|00> + |01>) + b|10>, |01> -> (|00> -
    |01>)/sqrt(2), |10> -> b/sqrt(2) (|00> + |01>) - a|10> and |11> -> |11>, with
    a = sqrt(2/3) and b = sqrt(1/3); then each bidder's other set bits flip where
    its lead is 1. `circuits.build_collusion_circuit` builds it gate by gate."""
    bid1, bid2 = as_bid(bid1), as_bid(bid2)
    if bid1.n_qubits != 2 or bid2.n_qubits != 2:
        raise ContractViolation("collusion operator is defined at the two-qubit-per-bidder scale")
    a, b, h = math.sqrt(2 / 3), math.sqrt(1 / 3), 1 / math.sqrt(2)
    lead_map = np.array([[a * h, h, b * h, 0], [a * h, -h, b * h, 0], [b, 0, -a, 0], [0, 0, 0, 1]])
    x, lead1, lead2 = np.arange(16), 8 >> bid1.lead, 2 >> bid2.lead
    column = 2 * (x & lead1 > 0) + (x & lead2 > 0)  # the lead pair's basis state, 0b(lead1)(lead2)
    u = np.zeros((16, 16))
    # row r of lead_map lands on lead pair r; each set lead XORs its bid in (the fan-out)
    for row, flip in enumerate((0, bid2.index, bid1.index << 2, bid1.index << 2 ^ bid2.index)):
        u[x & ~(lead1 | lead2) ^ flip, x] = lead_map[row, column]
    return u


def run_collusion_defense(bids: Sequence[BidSpec | str], table: PayoffTable,
                          schedule: AdiabaticSchedule) -> Trajectory:
    """Search where the colluding joint operator replaces U1 x U2 in every
    iteration. The initial superposition keeps only {|0000>, |00 b2>,
    |b1 00>}; success is measured against the best-payoff state of those
    three and leakage against their span."""
    bids = [as_bid(b) for b in bids]
    if len(bids) != 2:
        raise ContractViolation("collusion defense covers exactly two bidders")
    if schedule.locking is not None:
        raise ContractViolation("collusion and locking defenses do not compose")
    bid1, bid2 = bids
    joint = collusion_operator(bid1, bid2)
    p = bid1.n_qubits
    plausible = sorted({0, bid2.index, bid1.index << p})
    winner = winning_allocation(table, plausible)
    # as a one-factor product, so the search runs on the three kept states
    return run_schedule((joint,), plausible, winner, table, schedule)
