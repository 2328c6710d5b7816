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
    eig_hermitian,
    require_hermitian,
)

VARIANTS = ("exact", "zeroth", "first", "locked")


class TieError(RuntimeError):
    """Maximum payoff is tied among plausible allocations; winner undefined."""


@dataclass(frozen=True)
class AuctionConfig:
    """Register sizing for the single-item auction: m bidders, p qubits
    each, all p qubits carrying the dollar value."""

    m: int
    p: int

    def __post_init__(self):
        if self.m < 1 or self.p < 1:
            raise ContractViolation("m and p must both be positive")

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
    m, p = config.m, config.p
    x = np.arange(2 ** (m * p))
    regs = [(x >> (p * (m - 1 - j))) & ((1 << p) - 1) for j in range(m)]
    nonzero = sum(r != 0 for r in regs)
    return PayoffTable(m * p, np.where(nonzero == 1, sum(regs), 0).astype(float))


def problem_hamiltonian(table: PayoffTable) -> np.ndarray:
    """Diagonal operator whose entries are negated payoffs."""
    return np.diag(-table.values).astype(complex)


def hamming_weights(n_qubits: int) -> np.ndarray:
    """Set-bit count of every basis index: the diagonal of W."""
    if n_qubits < 1:
        raise ContractViolation("need at least one qubit")
    x = np.arange(2**n_qubits)
    return sum(((x >> k) & 1 for k in range(n_qubits)), np.zeros(x.size))


def hamming_hamiltonian(n_qubits: int) -> np.ndarray:
    """Diagonal operator counting set bits; ground state |0...0> at 0."""
    return np.diag(hamming_weights(n_qubits).astype(complex))


def pauli_z_expansion(table: PayoffTable) -> list[tuple[tuple[int, ...], float]]:
    """Expand diag(-F) over tensor products of Pauli Z.

    Returns (qubit subset T, coefficient c_T) pairs with
    diag(-F) = sum_T c_T * prod_{k in T} Z_k, zero coefficients dropped.
    The subsets use qubit indices (qubit 0 = most significant bit).
    """
    n = table.n_qubits
    coeffs = (-table.values).astype(float)
    h = 1
    while h < coeffs.size:  # Walsh-Hadamard butterflies: pairs (j, j + h) in blocks of 2h
        pairs = coeffs.reshape(-1, 2, h)
        a, b = pairs[:, 0], pairs[:, 1]
        coeffs = np.stack([a + b, a - b], axis=1).reshape(-1)
        h *= 2
    coeffs /= coeffs.size
    out = []
    for mask in np.flatnonzero(~(np.abs(coeffs) <= 1e-14)):
        qubits = tuple(q for q in range(n) if (mask >> (n - 1 - q)) & 1)
        out.append((qubits, float(coeffs[mask])))
    out.sort(key=lambda item: (len(item[0]), item[0]))
    return out


def expansion_diagonal(expansion, n_qubits: int) -> np.ndarray:
    """Re-assemble the diagonal encoded by a Pauli-Z expansion."""
    x = np.arange(2**n_qubits)
    odd = np.zeros(x.size, dtype=bool)  # parity of every index's set bits
    for k in range(n_qubits):
        odd ^= ((x >> k) & 1).astype(bool)
    diag = np.zeros(x.size)
    for qubits, c in expansion:
        mask = sum(1 << (n_qubits - 1 - q) for q in qubits)
        diag += np.where(odd[x & mask], -c, c)
    return diag


def bidding_operator(bid: BidSpec | str) -> np.ndarray:
    """Unitary whose first column is (|0...0> + |bid>)/sqrt(2).

    It is Hadamard on the lowest-index set bit (the lead) followed by CNOT
    fan-out onto every other set bit, written in closed form: column x
    holds 1/sqrt(2) at x with the lead bit cleared and
    (-1)^(lead bit of x)/sqrt(2) at that index XOR the bid. The
    Hadamard-like completion is what keeps the adiabatic search inside the
    bidding subspace.
    """
    bid = as_bid(bid)
    dim = 2**bid.n_qubits
    lead = 1 << (bid.n_qubits - 1 - bid.bits.index("1"))
    x = np.arange(dim)
    cleared = x & ~lead
    u = np.zeros((dim, dim), dtype=complex)
    u[cleared, x] = 1 / math.sqrt(2)
    u[cleared ^ bid.index, x] = np.where(x & lead, -1.0, 1.0) / math.sqrt(2)
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


def _entries(factors, rows: Sequence[int], dim: int, what: str,
             cols: Sequence[int] | None = None) -> tuple[np.ndarray, Sequence[int]]:
    """U[rows][:, cols] of the Kronecker product U of `factors` (register
    order), with the columns it holds. Entry (x, y) is the product of
    U_j[x_j, y_j] over the registers j, so the block is formed register by
    register on the product of each register's column digits and U is
    never built. `cols` None takes the column support of the rows: the
    product of each factor's support on its picked rows. A lone factor
    asked for all its rows and columns is returned as it is."""
    factors = [np.asarray(f, dtype=complex) for f in factors]
    if (any(f.ndim != 2 or f.shape[0] != f.shape[1] for f in factors)
            or math.prod(f.shape[0] for f in factors) != dim):
        raise ContractViolation(f"{what} do not match the register dimension")
    if len(factors) == 1 and rows == range(dim) and (cols is None or cols == range(dim)):
        return factors[0], range(dim)
    idx = np.asarray(rows, dtype=np.int64)
    want = None if cols is None else np.asarray(cols, dtype=np.int64)
    block, taken = np.ones((idx.size, 1), dtype=complex), np.zeros(1, dtype=np.int64)
    stride = dim
    for f in factors:
        stride //= f.shape[0]
        row_digits = (idx // stride) % f.shape[0]
        if want is None:
            digits = np.flatnonzero(np.any(f[row_digits] != 0, axis=0))
        else:
            digits = np.flatnonzero(np.bincount((want // stride) % f.shape[0], minlength=f.shape[0]))
        picked = f[:, digits][row_digits]
        block = (block[:, :, None] * picked[:, None, :]).reshape(idx.size, -1)
        taken = (taken[:, None] * f.shape[0] + digits).reshape(-1)
    if want is None:
        return block, taken
    if not np.array_equal(taken, want):  # `cols` is not a product of digit sets
        block = block[:, np.searchsorted(taken, want)]
    return block, cols


def _blocks(*terms: np.ndarray) -> np.ndarray:
    """Index blocks on which dense `terms` are jointly block diagonal.

    The blocks are the connected components of the union of the terms'
    nonzero patterns (made symmetric), found by spreading the smallest
    index along its nonzero pairs: each sweep takes the least label among
    each row's nonzero columns, held once as int32, one run per row. If all
    k components have one size b, they come back as a (k, b) array, rows
    in order of their smallest index and ascending within; otherwise as one
    block of every index. A 1-D term is a diagonal and joins nothing."""
    dim = terms[0].shape[0]
    pattern = np.eye(dim, dtype=bool)  # every index reaches itself, so no row's run is empty
    for t in terms:
        if t.ndim == 2:
            pattern |= t != 0
    pattern |= pattern.T
    cols = np.broadcast_to(np.arange(dim, dtype=np.int32), (dim, dim))[pattern]
    per_row = np.count_nonzero(pattern, axis=1)
    starts = np.cumsum(per_row) - per_row
    labels = np.arange(dim, dtype=np.int32)
    while True:
        spread = np.minimum.reduceat(labels[cols], starts)
        if np.array_equal(spread, labels):
            break
        labels = spread
    sizes = np.unique(labels, return_counts=True)[1]
    if np.any(sizes != sizes[0]):
        return np.arange(dim)[None, :]
    return np.argsort(labels, kind="stable").reshape(sizes.size, sizes[0])


def _block_stack(term: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """The (k, b, b) diagonal blocks of a dense term, or of a 1-D diagonal."""
    if term.ndim == 1:
        return term[blocks][:, :, None] * np.eye(blocks.shape[1])
    return term[blocks[:, :, None], blocks[:, None, :]]


def _stepper(variant: str, delta: float, u: np.ndarray, w_diag: np.ndarray,
             hp_diag: np.ndarray, v: np.ndarray | None, start: np.ndarray):
    """The map (psi, f) -> psi of one search step (see `adiabatic_step`).

    `u` is the block U[span, T] of the joint operator on the span's rows
    and the columns T they reach, `w_diag` is W on T, and `hp_diag` and
    `v` are H_p and V on the span, so a product-formula step on a span of
    k indices is k x k for the bidding operators. What every step shares is
    built here once: U^dag, and for "exact" (on the full space) the
    diagonal blocks of U W U^dag and V H_p V^dag (`_blocks`), so a step
    diagonalizes H(f) with one stacked `eig_hermitian`. "exact" keeps only
    the blocks where `start`, the state the steps begin from, is nonzero:
    a block where it is exactly 0 stays exactly 0 under every step, and
    the step writes 0 there. "locked" is "zeroth" with V, and V is the
    identity when absent.
    """
    if v is not None and variant in ("zeroth", "first"):
        raise ContractViolation(f"variant {variant!r} has no locking slot; use 'locked' or 'exact'")
    ud = u.conj().T
    if variant == "exact":
        h_b = (u * w_diag) @ ud
        h_p = hp_diag if v is None else (v * hp_diag) @ v.conj().T
        blocks = _blocks(h_b, h_p)
        blocks = blocks[np.any(start[blocks] != 0, axis=1)]
        h_b, h_p = _block_stack(h_b, blocks), _block_stack(h_p, blocks)

        def exact(psi: np.ndarray, f: float) -> np.ndarray:
            vals, vecs = eig_hermitian((1 - f) * h_b + f * h_p)
            amps = vecs.conj().swapaxes(1, 2) @ psi[blocks][:, :, None]
            out = np.zeros_like(psi)
            out[blocks] = (vecs @ (np.exp(-1j * delta * vals)[:, :, None] * amps))[:, :, 0]
            return out
        return exact
    vd = v.conj().T if v is not None else None

    def mixer(amount: float, psi: np.ndarray) -> np.ndarray:
        return u @ (np.exp(-1j * amount * w_diag) * (ud @ psi))

    def payoff_phases(psi: np.ndarray, f: float) -> np.ndarray:
        phases = np.exp(-1j * delta * f * hp_diag)
        return phases * psi if v is None else v @ (phases * (vd @ psi))

    if variant == "first":
        return lambda psi, f: mixer(delta / 2 * (1 - f),
                                    payoff_phases(mixer(delta / 2 * (1 - f), psi), f))
    return lambda psi, f: mixer(delta * (1 - f), payoff_phases(psi, f))


def adiabatic_step(state: StateVector, s: int, schedule: AdiabaticSchedule,
                   u: np.ndarray, w: np.ndarray, h_p: np.ndarray,
                   v: np.ndarray | None = None) -> StateVector:
    """One iteration of the discrete search at f = s/S.

    exact : exp(-i*delta*[(1-f) U W U^dag + f V H_p V^dag]) |psi>
    zeroth: U D(delta,1-f) U^dag P(delta,f) |psi>
    first : U D(delta/2,1-f) U^dag P(delta,f) U D(delta/2,1-f) U^dag |psi>
    locked: U D(delta,1-f) U^dag V P(delta,f) V^dag |psi>

    with D(d,f) = exp(-i*d*f*W) and P(d,f) = exp(-i*d*f*H_p). V is `v`, or
    else the product of `schedule.locking`, or else the identity; a `v`
    that differs from `schedule.locking` is rejected, and "zeroth" and
    "first" reject any V.
    """
    if not 1 <= s <= schedule.steps:
        raise ContractViolation(f"step index {s} outside 1..{schedule.steps}")
    dim = len(state)
    if any(op is not None and op.shape != (dim, dim) for op in (u, w, h_p, v)):
        raise ContractViolation("operator dimensions do not match the state")
    if schedule.locking is not None:
        joint = _entries(schedule.locking, range(dim), dim, "locking unitaries", range(dim))[0]
        if v is None:
            v = joint
        elif not np.allclose(v, joint, rtol=0, atol=1e-12):
            raise ContractViolation("v differs from the product of the schedule's locking unitaries")
    step = _stepper(schedule.variant, schedule.delta, u, _diag_of(w, "W"), _diag_of(h_p, "H_p"), v,
                    state.amplitudes)
    return StateVector(step(state.amplitudes, s / schedule.steps))


def _fold(step, psi: np.ndarray, steps: int):
    """Yield (s, f, psi, norm) for s = 0..S: the state after step s with the
    norm it had before renormalisation. A state whose norm drifts by more
    than ATOL_STATE (NaN included) is yielded as the step left it."""
    yield 0, 0.0, psi, float(np.linalg.norm(psi))
    for s in range(1, steps + 1):
        f = s / steps
        psi = step(psi, f)
        norm = float(np.linalg.norm(psi))
        if abs(norm - 1.0) <= ATOL_STATE:
            psi = psi / norm
        yield s, f, psi, norm


def run_schedule(u: np.ndarray | tuple[np.ndarray, ...], plausible: Sequence[int],
                 winner_index: int, table: PayoffTable, schedule: AdiabaticSchedule) -> Trajectory:
    """Fold the schedule over |Psi_0> = U|0...0>, recording success
    probability against `winner_index` and leakage out of `plausible`.

    `u` is the joint operator, dense or as a tuple of Kronecker factors in
    register order (the convention of `schedule.locking`). Given factors,
    the "zeroth", "first" and "locked" variants run on the span of
    `plausible`, with k x k steps built from the factors' entries there;
    if |Psi_0> or any step loses more than ATOL_STATE of norm out of that
    span, the run is redone on the full space, so the leakage it reports
    is the true one. "exact" and a dense `u` always run on the full space,
    and "exact" diagonalizes only the blocks of H(f) that |Psi_0> touches.
    """
    # every phase argument is delta times an energy of at most max(n, max|F|)
    phase_bound = schedule.delta * max(table.n_qubits, float(np.max(np.abs(table.values))))
    if not math.isfinite(phase_bound):
        raise ContractViolation(f"step size {schedule.delta:g} overflows the phases "
                                f"(delta * max(n, max|F|) = {phase_bound}), so the state would be nan")
    plausible = list(plausible)
    if not isinstance(u, tuple):
        u = (u,)  # a dense operator is a one-factor product
    elif schedule.variant != "exact":
        traj = _run(u, plausible, plausible, winner_index, table, schedule)
        if traj is not None:
            return traj
    return _run(u, range(2**table.n_qubits), plausible, winner_index, table, schedule)


def _run(factors, span: Sequence[int], plausible: list[int], winner_index: int,
         table: PayoffTable, schedule: AdiabaticSchedule) -> Trajectory | None:
    """The search on span(`span`) from the entries of U (and V) there:
    U[span, T] with T the columns the span's rows reach, and V[span, span].

    Success and leakage are read from the span amplitudes. On a proper
    span a step's leakage is the probability it lost before
    renormalisation, and a state more than ATOL_STATE off norm 1 gives
    None. On the full span, range(2^n), leakage is the probability outside
    `plausible`, and a step that drifts raises."""
    dim = 2**table.n_qubits
    full = span == range(dim)
    what = "joint operator factors"
    u, cols = _entries(factors, span, dim, what)
    start = _entries(factors, span, dim, what, [0])[0][:, 0]
    v = None
    if schedule.locking is not None:
        v = _entries(schedule.locking, span, dim, "locking unitaries", span)[0]
    step = _stepper(schedule.variant, schedule.delta, u, hamming_weights(table.n_qubits)[cols],
                    -table.values[span], v, start)
    steps = []
    for s, f, psi, norm in _fold(step, start, schedule.steps):
        if not abs(norm - 1.0) <= ATOL_STATE:
            if not full:
                return None
            if s:
                raise ContractViolation(f"norm drifted to {norm} at step {s}")
        amps = np.zeros(dim, dtype=complex)
        amps[span] = psi
        leak = 1.0 - float(np.sum(np.abs(psi[plausible]) ** 2)) if full else 1.0 - norm**2
        steps.append(TrajectoryStep(s, f, StateVector(amps), float(np.abs(amps[winner_index]) ** 2),
                                    max(0.0, leak)))
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
    """Run the search for independent bidders under the given payoff table.

    The product-formula variants get the per-bidder factors, so they run on
    the plausible span; "exact" gets the dense joint operator and stays the
    full-space reference."""
    bids = [as_bid(b) for b in bidders]
    if schedule.variant == "exact":
        u = joint_bidding_operator(bids)
    else:
        u = tuple(bidding_operator(b) for b in bids)
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
    conjugated V H_p V^dag, matching the locked search. Each row is the
    sorted union of the spectra of H(f)'s diagonal blocks (`_blocks`).
    """
    bids = [as_bid(b) for b in bidders]
    if table.n_qubits != sum(b.n_qubits for b in bids):
        raise ContractViolation("payoff table does not match the bidder registers")
    dim = 2**table.n_qubits
    # the span block of each term, from the entries of U and V on the
    # span's rows and the columns those rows reach
    span = plausible_allocations(bids) if restrict else range(dim)
    u, cols = _entries([bidding_operator(b) for b in bids], span, dim, "bidding operators")
    hb = (u * hamming_weights(table.n_qubits)[cols]) @ u.conj().T
    hp = -table.values[span]  # diagonal
    if schedule.locking is not None:
        v, cols = _entries(schedule.locking, span, dim, "locking unitaries")
        hp = (v * -table.values[cols]) @ v.conj().T
    blocks = _blocks(hb, hp)
    hb, hp = _block_stack(hb, blocks), _block_stack(hp, blocks)
    fs, rows = [], []
    for s in range(schedule.steps + 1):
        f = s / schedule.steps
        rows.append(np.sort(np.linalg.eigvalsh((1 - f) * hb + f * hp), axis=None))
        fs.append(f)
    rows = np.array(rows)
    g_min = float(np.min(rows[:, 1] - rows[:, 0]))
    return EigenTracks(np.array(fs), rows, g_min)
