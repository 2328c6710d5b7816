"""Auction encoding and the discrete adiabatic search.

An auction over m bidders with p qubits each lives on n = m*p qubits.
Basis index layout: bidder 0 owns the most significant p bits (qubits
0..p-1), bidder 1 the next p, and so on. A bidder's price state is a
nonzero p-bit string whose integer value is the dollar amount.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .core import (
    ATOL_STATE,
    ContractViolation,
    StateVector,
    apply_evolution,
    eig_hermitian,
    require_hermitian,
)

VARIANTS = ("exact", "zeroth", "first", "locked")

_HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)


class TieError(RuntimeError):
    """Maximum payoff is tied among plausible allocations; winner undefined."""


@dataclass(frozen=True)
class AuctionConfig:
    """Register sizing: m bidders, p qubits each, n_items items.

    For the single-item auction (n_items=1) the item-index field is empty
    (r=0) and all p qubits carry the dollar value; for n_items >= 2,
    r = floor(log2 n) + 1 qubits index the item and q = p - r carry the
    value.
    """

    m: int
    p: int
    n_items: int = 1

    def __post_init__(self):
        if self.m < 1 or self.p < 1 or self.n_items < 1:
            raise ContractViolation("m, p and n_items must all be positive")
        if self.item_qubits >= self.p and self.n_items > 1:
            raise ContractViolation("p too small to carry an item index plus a bid value")

    @property
    def item_qubits(self) -> int:
        return 0 if self.n_items == 1 else int(math.floor(math.log2(self.n_items))) + 1

    @property
    def value_qubits(self) -> int:
        return self.p - self.item_qubits

    @property
    def total_qubits(self) -> int:
        return self.m * self.p


@dataclass(frozen=True)
class BidSpec:
    """A bidder's price state as a p-bit string; all-zero is reserved for
    the null "don't assign" state and rejected here."""

    bits: str

    def __post_init__(self):
        if not self.bits or set(self.bits) - {"0", "1"}:
            raise ContractViolation(f"bid must be a nonempty bit string, got {self.bits!r}")
        if set(self.bits) == {"0"}:
            raise ContractViolation("all-zero bid is the reserved null state")

    @property
    def n_qubits(self) -> int:
        return len(self.bits)

    @property
    def index(self) -> int:
        return int(self.bits, 2)

    @property
    def value(self) -> int:
        """Dollar value in the single-item layout (whole register is price)."""
        return self.index


def as_bid(b) -> BidSpec:
    return b if isinstance(b, BidSpec) else BidSpec(str(b))


@dataclass(frozen=True)
class PayoffTable:
    """Map from basis index to the auctioneer's (nonnegative) payoff."""

    n_qubits: int
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float).reshape(-1)
        if vals.size != 2**self.n_qubits:
            raise ContractViolation(
                f"payoff table length {vals.size} != 2^{self.n_qubits}")
        if np.any(vals < 0):
            raise ContractViolation("payoffs must be nonnegative")
        object.__setattr__(self, "values", vals)


def payoff(table: PayoffTable, x: int) -> float:
    if not 0 <= x < table.values.size:
        raise ContractViolation(f"allocation index {x} out of range")
    return float(table.values[x])


def build_first_price_table(config: AuctionConfig) -> PayoffTable:
    """Single-item first-price payoffs: the unique nonzero register's dollar
    value when exactly one bidder register is nonzero, zero otherwise."""
    if config.n_items != 1:
        raise ContractViolation("first-price builder covers the single-item auction only")
    m, p = config.m, config.p
    mask = (1 << p) - 1
    values = np.zeros(2 ** (m * p))
    for x in range(values.size):
        regs = [(x >> (p * (m - 1 - j))) & mask for j in range(m)]
        nonzero = [r for r in regs if r]
        if len(nonzero) == 1:
            values[x] = nonzero[0]
    return PayoffTable(m * p, values)


def problem_hamiltonian(table: PayoffTable) -> np.ndarray:
    """Diagonal operator whose entries are negated payoffs."""
    return np.diag(-table.values).astype(complex)


def hamming_hamiltonian(n_qubits: int) -> np.ndarray:
    """Diagonal operator counting set bits; ground state |0...0> at 0."""
    if n_qubits < 1:
        raise ContractViolation("need at least one qubit")
    weights = [bin(x).count("1") for x in range(2**n_qubits)]
    return np.diag(np.asarray(weights, dtype=complex))


def pauli_z_expansion(table: PayoffTable) -> list[tuple[tuple[int, ...], float]]:
    """Expand diag(-F) over tensor products of Pauli Z.

    Returns (qubit subset T, coefficient c_T) pairs with
    diag(-F) = sum_T c_T * prod_{k in T} Z_k, zero coefficients dropped.
    The subsets use qubit indices (qubit 0 = most significant bit).
    """
    n = table.n_qubits
    coeffs = (-table.values).astype(float).copy()
    h = 1
    while h < coeffs.size:  # in-place Walsh-Hadamard transform
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
        qubits = tuple(q for q in range(n) if (mask >> (n - 1 - q)) & 1)
        out.append((qubits, c))
    out.sort(key=lambda item: (len(item[0]), item[0]))
    return out


def expansion_diagonal(expansion, n_qubits: int) -> np.ndarray:
    """Re-assemble the diagonal encoded by a Pauli-Z expansion."""
    diag = np.zeros(2**n_qubits)
    for qubits, c in expansion:
        mask = sum(1 << (n_qubits - 1 - q) for q in qubits)
        for x in range(diag.size):
            diag[x] += c if bin(x & mask).count("1") % 2 == 0 else -c
    return diag


def _embed_single(n: int, q: int, gate: np.ndarray) -> np.ndarray:
    out = np.array([[1.0 + 0j]])
    for k in range(n):
        out = np.kron(out, gate if k == q else np.eye(2, dtype=complex))
    return out


def _cnot_matrix(n: int, control: int, target: int) -> np.ndarray:
    dim = 2**n
    m = np.zeros((dim, dim), dtype=complex)
    tbit = 1 << (n - 1 - target)
    cbit = 1 << (n - 1 - control)
    for x in range(dim):
        m[x ^ tbit if x & cbit else x, x] = 1.0
    return m


def bidding_operator(bid: BidSpec | str) -> np.ndarray:
    """Unitary whose first column is (|0...0> + |bid>)/sqrt(2).

    Built as Hadamard on the lowest-index set bit followed by CNOT fan-out
    onto every other set bit; the Hadamard-like completion this produces is
    what keeps the adiabatic search inside the bidding subspace.
    """
    bid = as_bid(bid)
    p = bid.n_qubits
    set_bits = [q for q, c in enumerate(bid.bits) if c == "1"]
    u = _embed_single(p, set_bits[0], _HADAMARD)
    for q in set_bits[1:]:
        u = _cnot_matrix(p, set_bits[0], q) @ u
    return u


def joint_bidding_operator(bidders: Sequence[BidSpec | str]) -> np.ndarray:
    bids = [as_bid(b) for b in bidders]
    if not bids:
        raise ContractViolation("need at least one bidder")
    u = bidding_operator(bids[0])
    for b in bids[1:]:
        u = np.kron(u, bidding_operator(b))
    return u


def plausible_allocations(bidders: Sequence[BidSpec | str]) -> list[int]:
    """Basis indices appearing in the joint initial superposition: each
    register independently null or at the bidder's price state."""
    bids = [as_bid(b) for b in bidders]
    p = bids[0].n_qubits
    if any(b.n_qubits != p for b in bids):
        raise ContractViolation("bidders must share a register width")
    out = []
    for combo in range(2 ** len(bids)):
        x = 0
        for j, b in enumerate(bids):
            reg = b.index if (combo >> (len(bids) - 1 - j)) & 1 else 0
            x = (x << p) | reg
        out.append(x)
    return sorted(out)


def initial_superposition(bidders: Sequence[BidSpec | str]) -> StateVector:
    """(tensor of bidding operators) applied to |0...0>: uniform amplitude
    2^(-m/2) on every plausible allocation."""
    bids = [as_bid(b) for b in bidders]
    if not bids:
        raise ContractViolation("need at least one bidder")
    amps = np.array([1.0 + 0j])
    for b in bids:
        amps = np.kron(amps, bidding_operator(b)[:, 0])
    return StateVector(amps)


@dataclass(frozen=True)
class AdiabaticSchedule:
    """Discrete schedule: S steps of size delta, f = s/S for s = 1..S.

    `locking` optionally carries the per-bidder locking unitaries
    (V_1, ..., V_m); only the "exact" and "locked" variants accept it.
    """

    steps: int
    delta: float
    variant: str = "zeroth"
    locking: tuple[np.ndarray, ...] | None = None

    def __post_init__(self):
        if self.steps < 1:
            raise ContractViolation("schedule needs at least one step")
        if not 0 < self.delta < math.inf:
            raise ContractViolation("step size delta must be positive and finite")
        if self.variant not in VARIANTS:
            raise ContractViolation(f"unknown variant {self.variant!r}; pick from {VARIANTS}")
        if self.locking is not None and self.variant in ("zeroth", "first"):
            raise ContractViolation(
                f"variant {self.variant!r} has no locking slot; use 'locked' or 'exact'")


def auto_delta(steps: int) -> float:
    """Step size 1/sqrt(S), which drives S*delta -> infinity with S."""
    return 1.0 / math.sqrt(steps)


def default_schedule(variant: str = "zeroth") -> AdiabaticSchedule:
    return AdiabaticSchedule(steps=20, delta=1.5, variant=variant)


def fine_schedule(variant: str = "zeroth") -> AdiabaticSchedule:
    return AdiabaticSchedule(steps=40, delta=1.0, variant=variant)


class TrajectoryStep(NamedTuple):
    s: int
    f: float
    state: StateVector
    success_probability: float
    subspace_leakage: float


@dataclass
class Trajectory:
    steps: list[TrajectoryStep]
    winner_index: int
    plausible: list[int] = field(default_factory=list)

    @property
    def success(self) -> np.ndarray:
        return np.array([st.success_probability for st in self.steps])

    @property
    def leakage(self) -> np.ndarray:
        return np.array([st.subspace_leakage for st in self.steps])

    @property
    def final_state(self) -> StateVector:
        return self.steps[-1].state


def _diag_of(op: np.ndarray, what: str) -> np.ndarray:
    """Diagonal of an operator that the protocol requires to be diagonal."""
    op = require_hermitian(op, what=what)
    if float(np.max(np.abs(op - np.diag(np.diag(op))))) > 1e-12:
        raise ContractViolation(f"{what} must be diagonal in the computational basis")
    return np.real(np.diag(op))


def _joint_locking(locking, dim: int) -> np.ndarray:
    v = np.array([[1.0 + 0j]])
    for vi in locking:
        v = np.kron(v, np.asarray(vi, dtype=complex))
    if v.shape[0] != dim:
        raise ContractViolation("locking unitaries do not match the register dimension")
    return v


def adiabatic_step(state: StateVector, s: int, schedule: AdiabaticSchedule,
                   u: np.ndarray, w: np.ndarray, h_p: np.ndarray,
                   v: np.ndarray | None = None) -> StateVector:
    """One iteration of the discrete search at f = s/S.

    exact : exp(-i*delta*[(1-f) U W U^dag + f V H_p V^dag]) |psi>
    zeroth: U D(delta,1-f) U^dag P(delta,f) |psi>
    first : U D(delta/2,1-f) U^dag P(delta,f) U D(delta/2,1-f) U^dag |psi>
    locked: U D(delta,1-f) U^dag V P(delta,f) V^dag |psi>

    with D(d,f) = exp(-i*d*f*W) and P(d,f) = exp(-i*d*f*H_p); V defaults
    to the identity.
    """
    if not 1 <= s <= schedule.steps:
        raise ContractViolation(f"step index {s} outside 1..{schedule.steps}")
    f = s / schedule.steps
    delta = schedule.delta
    dim = len(state)
    if u.shape != (dim, dim) or w.shape != (dim, dim) or h_p.shape != (dim, dim):
        raise ContractViolation("operator dimensions do not match the state")
    w_diag = _diag_of(w, "W")
    hp_diag = _diag_of(h_p, "H_p")
    psi = state.amplitudes
    ud = u.conj().T

    def mixer(amount: float, vec: np.ndarray) -> np.ndarray:
        return u @ (np.exp(-1j * amount * w_diag) * (ud @ vec))

    variant = schedule.variant
    if variant == "exact":
        hp_full = np.diag(hp_diag).astype(complex)
        if v is not None:
            hp_full = v @ hp_full @ v.conj().T
        h_f = (1 - f) * (u @ np.diag(w_diag).astype(complex) @ ud) + f * hp_full
        return apply_evolution(h_f, delta, state)
    if variant == "zeroth":
        psi = np.exp(-1j * delta * f * hp_diag) * psi
        psi = mixer(delta * (1 - f), psi)
    elif variant == "first":
        psi = mixer(delta / 2 * (1 - f), psi)
        psi = np.exp(-1j * delta * f * hp_diag) * psi
        psi = mixer(delta / 2 * (1 - f), psi)
    elif variant == "locked":
        if v is not None:
            psi = v.conj().T @ psi
        psi = np.exp(-1j * delta * f * hp_diag) * psi
        if v is not None:
            psi = v @ psi
        psi = mixer(delta * (1 - f), psi)
    else:  # pragma: no cover - schedule validation forbids this
        raise ContractViolation(f"unknown variant {variant!r}")
    return StateVector(psi)


def run_schedule(u: np.ndarray, plausible: Sequence[int], winner_index: int,
                 table: PayoffTable, schedule: AdiabaticSchedule) -> Trajectory:
    """Fold the schedule over |Psi_0> = U|0...0>, recording success
    probability against `winner_index` and leakage out of `plausible`."""
    dim = 2**table.n_qubits
    if u.shape != (dim, dim):
        raise ContractViolation("joint operator does not match the table dimension")
    # every phase argument is delta times an energy of at most max(n, max|F|)
    phase_bound = schedule.delta * max(table.n_qubits, float(np.max(np.abs(table.values))))
    if not math.isfinite(phase_bound):
        raise ContractViolation(f"step size {schedule.delta:g} overflows the phases "
                                f"(delta * max(n, max|F|) = {phase_bound}), so the state would be nan")
    w_diag = np.array([bin(x).count("1") for x in range(dim)], dtype=float)
    hp_diag = -table.values
    ud = u.conj().T
    v = _joint_locking(schedule.locking, dim) if schedule.locking is not None else None
    vd = v.conj().T if v is not None else None

    hb = hp_locked = None
    if schedule.variant == "exact":
        hb = u @ np.diag(w_diag).astype(complex) @ ud
        hp_locked = np.diag(hp_diag).astype(complex)
        if v is not None:
            hp_locked = v @ hp_locked @ vd

    plausible = list(plausible)
    psi = u[:, 0].copy()
    delta, S = schedule.delta, schedule.steps

    def record(s: int, f: float, amps: np.ndarray) -> TrajectoryStep:
        state = StateVector(amps)
        probs = state.probabilities()
        success = float(probs[winner_index])
        leak = max(0.0, 1.0 - float(probs[plausible].sum()))
        return TrajectoryStep(s, f, state, success, leak)

    steps = [record(0, 0.0, psi)]
    for s in range(1, S + 1):
        f = s / S
        if schedule.variant == "exact":
            h_f = (1 - f) * hb + f * hp_locked
            vals, vecs = eig_hermitian(h_f)
            psi = vecs @ (np.exp(-1j * delta * vals) * (vecs.conj().T @ psi))
        elif schedule.variant == "zeroth":
            psi = np.exp(-1j * delta * f * hp_diag) * psi
            psi = u @ (np.exp(-1j * delta * (1 - f) * w_diag) * (ud @ psi))
        elif schedule.variant == "first":
            psi = u @ (np.exp(-1j * (delta / 2) * (1 - f) * w_diag) * (ud @ psi))
            psi = np.exp(-1j * delta * f * hp_diag) * psi
            psi = u @ (np.exp(-1j * (delta / 2) * (1 - f) * w_diag) * (ud @ psi))
        else:  # locked
            if v is not None:
                psi = v @ (np.exp(-1j * delta * f * hp_diag) * (vd @ psi))
            else:
                psi = np.exp(-1j * delta * f * hp_diag) * psi
            psi = u @ (np.exp(-1j * delta * (1 - f) * w_diag) * (ud @ psi))
        norm = float(np.linalg.norm(psi))
        if not abs(norm - 1.0) <= ATOL_STATE:  # also rejects NaN
            raise ContractViolation(f"norm drifted to {norm} at step {s}")
        psi = psi / norm
        steps.append(record(s, f, psi))
    return Trajectory(steps=steps, winner_index=winner_index, plausible=plausible)


def winning_allocation(table: PayoffTable, plausible: Sequence[int]) -> int:
    """argmax of the payoff over the plausible set; a tie aborts because the
    success probability of the search is undefined under ties."""
    payoffs = [table.values[x] for x in plausible]
    best = max(payoffs)
    winners = [x for x, v in zip(plausible, payoffs) if v == best]
    if len(winners) != 1:
        raise TieError(
            f"payoff {best} tied among plausible allocations {winners}")
    return winners[0]


def run_adiabatic(bidders: Sequence[BidSpec | str], table: PayoffTable,
                  schedule: AdiabaticSchedule) -> Trajectory:
    """Run the search for independent bidders under the given payoff table."""
    bids = [as_bid(b) for b in bidders]
    u = joint_bidding_operator(bids)
    plausible = plausible_allocations(bids)
    if table.n_qubits != sum(b.n_qubits for b in bids):
        raise ContractViolation("payoff table does not match the bidder registers")
    winner = winning_allocation(table, plausible)
    return run_schedule(u, plausible, winner, table, schedule)


class EigenTracks(NamedTuple):
    f_values: np.ndarray
    eigenvalues: np.ndarray  # row per f, ascending within a row
    g_min: float


def eigenvalue_tracks(bidders: Sequence[BidSpec | str], table: PayoffTable,
                      schedule: AdiabaticSchedule, restrict: bool = True) -> EigenTracks:
    """Spectrum of H(f) = (1-f) U W U^dag + f H_p over the schedule grid
    (including f=0), optionally restricted to the plausible-allocation span.

    When the schedule carries locking unitaries the final term is the
    conjugated V H_p V^dag, matching the locked search.
    """
    bids = [as_bid(b) for b in bidders]
    u = joint_bidding_operator(bids)
    dim = u.shape[0]
    if table.n_qubits != sum(b.n_qubits for b in bids):
        raise ContractViolation("payoff table does not match the bidder registers")
    hb = u @ hamming_hamiltonian(table.n_qubits) @ u.conj().T
    hp = problem_hamiltonian(table)
    if schedule.locking is not None:
        v = _joint_locking(schedule.locking, dim)
        hp = v @ hp @ v.conj().T
    basis = None
    if restrict:
        plausible = plausible_allocations(bids)
        basis = np.zeros((dim, len(plausible)))
        for col, x in enumerate(plausible):
            basis[x, col] = 1.0
    fs, rows = [], []
    for s in range(schedule.steps + 1):
        f = s / schedule.steps
        h_f = (1 - f) * hb + f * hp
        if basis is not None:
            h_f = basis.T @ h_f @ basis
        rows.append(np.linalg.eigvalsh(h_f))
        fs.append(f)
    rows = np.array(rows)
    g_min = float(np.min(rows[:, 1] - rows[:, 0]))
    return EigenTracks(np.array(fs), rows, g_min)
