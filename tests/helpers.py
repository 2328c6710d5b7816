"""Measurement helpers and reference constructions that only the tests use."""

import math

import numpy as np

from qauction.adversary import _mc_rng
from qauction.core import StateVector, _max_off_diagonal, measurement_probabilities


def sample_measurement(state: StateVector, povm, rng: np.random.Generator,
                       size: int | None = None):
    """Draw outcome indices from the POVM distribution; reproducible per rng.

    Returns a single int by default, an array of `size` outcomes otherwise.
    """
    probs = measurement_probabilities(state, povm)
    picked = rng.choice(len(probs), p=probs / probs.sum(), size=size)
    return picked if size is not None else int(picked)


def computational_povm(n_qubits: int) -> list[np.ndarray]:
    """Projective measurement onto all 2^n computational basis states."""
    dim = 2**n_qubits
    out = []
    for k in range(dim):
        e = np.zeros((dim, dim), dtype=complex)
        e[k, k] = 1.0
        out.append(e)
    return out


# The Kronecker construction of gate unitaries: one 2^n x 2^n matrix per
# gate. The package applies gates to a qubit tensor instead; these stay as
# the independent reference it is checked against.

_HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)


def embed_single(n: int, q: int, gate: np.ndarray) -> np.ndarray:
    out = np.array([[1.0 + 0j]])
    for k in range(n):
        out = np.kron(out, gate if k == q else np.eye(2, dtype=complex))
    return out


def cnot_matrix(n: int, control: int, target: int) -> np.ndarray:
    dim = 2**n
    m = np.zeros((dim, dim), dtype=complex)
    tbit = 1 << (n - 1 - target)
    cbit = 1 << (n - 1 - control)
    for x in range(dim):
        m[x ^ tbit if x & cbit else x, x] = 1.0
    return m


def kron_gate_matrix(g, n: int) -> np.ndarray:
    if g.kind == "H":
        return embed_single(n, g.qubits[0], _HADAMARD)
    if g.kind == "PHASE":
        return embed_single(n, g.qubits[0], np.diag([1.0, np.exp(-1j * g.angle)]))
    if g.kind == "ROT":
        c, s = math.cos(g.angle), math.sin(g.angle)
        return embed_single(n, g.qubits[0], np.array([[c, s], [s, -c]], dtype=complex))
    if g.kind == "CNOT":
        return cnot_matrix(n, *g.qubits)
    # CTRL0: the inner circuit commutes with the control projector P0, so
    # I + (U_inner - I) @ P0 is unitary.
    dim = 2**n
    inner = kron_circuit_matrix(g.inner)
    mask = np.ones(dim)
    for q in g.qubits:
        bit = 1 << (n - 1 - q)
        mask *= np.array([(x & bit) == 0 for x in range(dim)], dtype=float)
    return np.eye(dim, dtype=complex) + (inner - np.eye(dim)) * mask[np.newaxis, :]


def kron_circuit_matrix(c) -> np.ndarray:
    """Dense unitary of a circuit as a product of embedded gate matrices."""
    m = np.eye(2**c.n_qubits, dtype=complex)
    for g in c.gates:
        m = kron_gate_matrix(g, c.n_qubits) @ m
    return m


def kron_bidding_operator(bits: str) -> np.ndarray:
    """Hadamard on the first set bit, then CNOT fan-out onto the others."""
    p = len(bits)
    set_bits = [q for q, ch in enumerate(bits) if ch == "1"]
    u = embed_single(p, set_bits[0], _HADAMARD)
    for q in set_bits[1:]:
        u = cnot_matrix(p, set_bits[0], q) @ u
    return u


def dense_run(u: np.ndarray, v: np.ndarray | None, table, schedule) -> np.ndarray:
    """The (S + 1, 2^n) states of a search written out with dense
    2^n x 2^n operators: |Psi_0> = U|0...0> and, for s = 1..S at f = s/S,
    one step of the schedule's variant, renormalised. `u` is the dense
    joint operator and `v` the dense locking operator (the identity when
    None); W counts set bits and H_p = diag(-F). `exact` diagonalizes the
    whole H(f) = (1-f) U W U^dag + f V H_p V^dag; the splittings apply
    (U e^{-i theta W}) U^dag and (V e^{-i theta H_p}) V^dag."""
    w = np.array([bin(x).count("1") for x in range(u.shape[0])], dtype=float)
    h_p = -np.asarray(table.values, dtype=float)

    def conjugated(op, diagonal):  # op diag(diagonal) op^dag, with op = None the identity
        return np.diag(diagonal) if op is None else (op * diagonal) @ op.conj().T

    h_b, h_payoff = conjugated(u, w), conjugated(v, h_p)
    states = [u[:, 0]]
    for s in range(1, schedule.steps + 1):
        f, delta, psi = s / schedule.steps, schedule.delta, states[-1]
        if schedule.variant == "exact":
            vals, vecs = np.linalg.eigh((1 - f) * h_b + f * h_payoff)
            psi = vecs @ (np.exp(-1j * delta * vals) * (vecs.conj().T @ psi))
        else:
            payoff = conjugated(v, np.exp(-1j * delta * f * h_p))
            if schedule.variant == "first":
                mixer = conjugated(u, np.exp(-1j * delta / 2 * (1 - f) * w))
                psi = mixer @ (payoff @ (mixer @ psi))
            else:  # zeroth, and locked, which is zeroth with V
                psi = conjugated(u, np.exp(-1j * delta * (1 - f) * w)) @ (payoff @ psi)
        states.append(psi / np.linalg.norm(psi))
    return np.array(states)


def assert_run_matches(traj, states: np.ndarray, atol: float):
    """A run's states, success and leakage (1 minus the probability on
    its plausible allocations) against states from `dense_run`."""
    np.testing.assert_allclose([st.state.amplitudes for st in traj.steps], states, rtol=0, atol=atol)
    np.testing.assert_allclose(traj.success, np.abs(states[:, traj.winner_index]) ** 2, rtol=0, atol=atol)
    leakage = 1 - np.sum(np.abs(states[:, traj.plausible]) ** 2, axis=1)
    np.testing.assert_allclose(traj.leakage, leakage, rtol=0, atol=atol)


def dense_majority_mc_curve(per_bidder, n_rounds: int, trials: int, seed: int) -> np.ndarray:
    """Strict-majority Monte Carlo curve from one full (trials, n_rounds)
    draw per bidder with running counts by `cumsum` along the rounds: the
    reference the blocked `adversary.majority_mc_curve` must match bit for
    bit, since it reads the same stream."""
    rng = _mc_rng(seed, "majority")
    count_type = np.min_scalar_type(n_rounds)  # running counts never exceed n_rounds
    learned_all = np.ones((trials, n_rounds), dtype=bool)
    for dist, true_index in per_bidder:
        cdf = np.cumsum(np.asarray(dist))
        u = rng.random((trials, n_rounds))
        outcomes = np.zeros(u.shape, dtype=np.min_scalar_type(cdf.size))
        for edge in cdf:  # outcome = number of cdf edges at or below u
            outcomes += u >= edge
        del u
        true_count = np.cumsum(outcomes == true_index, axis=1, dtype=count_type)
        for c in range(cdf.size):
            if c != true_index:
                learned_all &= true_count > np.cumsum(outcomes == c, axis=1, dtype=count_type)
    return learned_all.mean(axis=0)


def dense_first_hit_curve(p_hits, n_rounds: int, trials: int, rng: np.random.Generator) -> np.ndarray:
    """First-hit Monte Carlo curve from one full int64 geometric draw per
    bidder: the reference the blocked `adversary._first_hit_curve` must
    match bit for bit, since it reads the same stream."""
    last_hit = np.ones(trials, dtype=np.int64)
    for p in p_hits:
        if p > 0:
            first = np.minimum(rng.geometric(min(p, 1.0), size=trials), n_rounds + 1)
        else:
            first = np.full(trials, n_rounds + 1)
        np.maximum(last_hit, first, out=last_hit)
    learned_by = np.cumsum(np.bincount(last_hit, minlength=n_rounds + 2))
    return learned_by[1 : n_rounds + 1] / trials


def scalar_phase_invariant_distance(u: np.ndarray, v: np.ndarray) -> float:
    """`core.phase_invariant_distance` as one `dist(theta)` call per coarse
    angle and two per golden-section step, on valid input: the reference
    that the broadcast scan and the carried golden-section values must
    match with `==`."""
    u, v = np.asarray(u, dtype=complex), np.asarray(v, dtype=complex)
    rest = 0.0
    if v.ndim == 1:
        rest, u = _max_off_diagonal(u), np.diagonal(u)
    tr = np.vdot(v, u)
    rest = max(rest, float(np.max(np.abs(u[v == 0]), initial=0.0)))
    u, v = u[v != 0], v[v != 0]

    def dist(theta: float) -> float:
        return max(rest, float(np.max(np.abs(u - np.exp(1j * theta) * v), initial=0.0)))

    thetas = np.linspace(0.0, 2 * np.pi, 256, endpoint=False)
    best = min(thetas, key=dist)
    if abs(tr) > 1e-14:
        cand = float(np.angle(tr))
        if dist(cand) < dist(best):
            best = cand
    lo, hi = best - 2 * np.pi / 256, best + 2 * np.pi / 256
    invphi = (np.sqrt(5.0) - 1) / 2
    a, b = lo, hi
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    for _ in range(80):
        if dist(c) < dist(d):
            b, d = d, c
            c = b - invphi * (b - a)
        else:
            a, c = c, d
            d = a + invphi * (b - a)
    return min(dist(best), dist((a + b) / 2))
