"""Auction encoding and the discrete adiabatic search.

An auction over m bidders with p qubits each lives on n = m*p qubits.
Basis index layout: bidder 0 owns the most significant p bits (qubits
0..p-1), bidder 1 the next p, and so on. A bidder's price state is a
nonzero p-bit string whose integer value is the dollar amount.
"""

from __future__ import annotations

import functools
import math
import numbers
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import ATOL_STATE, ContractViolation, StateVector, as_operator, eig_hermitian

VARIANTS = ("exact", "zeroth", "first", "locked")
_TRACK_ENTRIES = 2**16  # gap tracks: f rows per stacked eigvalsh hold at most this many H(f) entries (1 MB), or one row
_LEAD_SET_VALUES = np.array([[1.0], [-1.0]]) / math.sqrt(2)  # a bidding operator's entries in a column with the lead bit set
_TRACK_WORK = 2**33  # gap tracks: at most (steps + 1) * sum of k^3 over the cells; the CLI's largest run, 512 * 64 * 64^3


class TieError(RuntimeError):
    """Maximum payoff is tied among plausible allocations; winner undefined."""


def _is_count(x) -> bool:
    """Whether `x` is an integer (Python or numpy), and not a bool."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


@dataclass(frozen=True)
class AuctionConfig:
    """Register sizing for the single-item auction: m bidders, p qubits
    each, all p qubits carrying the dollar value."""

    m: int
    p: int

    def __post_init__(self):
        if not (_is_count(self.m) and _is_count(self.p)):
            raise ContractViolation(f"m and p must be integers, got {self.m!r} and {self.p!r}")
        if self.m < 1 or self.p < 1:
            raise ContractViolation("m and p must both be positive")


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
    def lead(self) -> int:
        """Qubit of the first set bit (qubit 0 is the most significant)."""
        return self.bits.index("1")


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
        if not (np.isfinite(vals).all() and np.all(vals >= 0)):
            raise ContractViolation("payoffs must be finite and nonnegative")
        object.__setattr__(self, "values", vals)


def build_first_price_table(config: AuctionConfig) -> PayoffTable:
    """Single-item first-price payoffs: the unique nonzero register's dollar
    value when exactly one bidder register is nonzero, zero otherwise."""
    m, p = config.m, config.p
    values = np.zeros(2 ** (m * p))
    prices = np.arange(1, 2**p)
    for j in range(m):  # register j at price r, every other register null
        values[prices << (p * (m - 1 - j))] = prices
    return PayoffTable(m * p, values)


def _check_count(count, what: str) -> None:
    if not (_is_count(count) and count >= 1):
        raise ContractViolation(f"need an integer count of at least one {what}, got {count!r}")


def hamming_weights(n_qubits: int) -> np.ndarray:
    """Set-bit count of every basis index: the diagonal of W."""
    _check_count(n_qubits, "qubit")
    return _set_bits(np.arange(2**n_qubits))


def _set_bits(indices) -> np.ndarray:
    """Set-bit count of each basis index in `indices`: W on those indices
    alone, as `hamming_weights(n)[indices]` without the 2^n array."""
    return np.bitwise_count(np.asarray(indices, dtype=np.int64)).astype(float)


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


def _bidding_entries(bid: BidSpec | str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nonzero entries (rows, cols, values) of `bidding_operator(bid)`, which broadcast as in
    `u[rows, cols] = values`: column x holds 1/sqrt(2) at x with the lead bit cleared and
    (-1)^(lead bit of x)/sqrt(2) at that index XOR the bid."""
    bid = as_bid(bid)
    lead = 1 << (bid.n_qubits - 1 - bid.lead)
    x = np.arange(2**bid.n_qubits)
    return x & ~lead ^ np.array([[0], [bid.index]]), x, np.where(x & lead, _LEAD_SET_VALUES, 1 / math.sqrt(2))


def bidding_operator(bid: BidSpec | str) -> np.ndarray:
    """Real unitary whose first column is (|0...0> + |bid>)/sqrt(2): Hadamard
    on the lowest-index set bit (the lead), then CNOT fan-out onto every other
    set bit, scattered from `_bidding_entries`. The Hadamard-like completion
    is what keeps the adiabatic search inside the bidding subspace."""
    rows, cols, values = _bidding_entries(bid)
    u = np.zeros((cols.size, cols.size))
    u[rows, cols] = values
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
    if not bids:
        raise ContractViolation("need at least one bidder")
    p = bids[0].n_qubits
    if any(b.n_qubits != p for b in bids):
        raise ContractViolation("bidders must share a register width")
    out = np.zeros(1, dtype=np.int64)
    for b in bids:  # ascending: each register's 0 sorts before its bid
        out = np.bitwise_or.outer(out << p, [0, b.index]).reshape(-1)
    return out.tolist()


@dataclass(frozen=True)
class AdiabaticSchedule:
    """Discrete schedule: S steps of size delta, f = s/S for s = 1..S.

    `locking` carries the per-bidder locking unitaries (V_1, ..., V_m):
    "locked" needs them, "exact" takes them too, "zeroth" and "first" refuse them.
    """

    steps: int
    delta: float
    variant: str = "zeroth"
    locking: tuple[np.ndarray, ...] | None = None

    def __post_init__(self):
        _check_count(self.steps, "step")
        if not isinstance(self.delta, numbers.Real) or isinstance(self.delta, bool):
            raise ContractViolation(f"step size delta must be a real number, got {self.delta!r}")
        if not 0 < self.delta < math.inf:
            raise ContractViolation("step size delta must be positive and finite")
        if self.variant not in VARIANTS:
            raise ContractViolation(f"unknown variant {self.variant!r}; pick from {VARIANTS}")
        if self.locking is not None and self.variant in ("zeroth", "first"):
            raise ContractViolation(
                f"variant {self.variant!r} has no locking slot; use 'locked' or 'exact'")
        if self.locking is None and self.variant == "locked":
            raise ContractViolation("variant 'locked' needs the locking unitaries")


def auto_delta(steps: int) -> float:
    """Step size 1/sqrt(S), which drives S*delta -> infinity with S."""
    _check_count(steps, "step")
    return 1.0 / math.sqrt(steps)


def default_schedule() -> AdiabaticSchedule:
    return AdiabaticSchedule(steps=20, delta=1.5)


class TrajectoryStep(NamedTuple):
    s: int
    f: float
    state: StateVector
    success_probability: float
    subspace_leakage: float


class _Steps(Sequence):
    """The steps of a trajectory as a read-only sequence: its length costs
    nothing, and item s is built when read, with a 2^n state from
    `Trajectory.state`; a slice is the list of its items."""

    def __init__(self, traj: "Trajectory"):
        self._traj = traj

    def __len__(self) -> int:
        return len(self._traj.amplitudes)

    def __getitem__(self, s: int | slice) -> TrajectoryStep | list[TrajectoryStep]:
        if isinstance(s, slice):
            return [self[i] for i in range(len(self))[s]]
        s = range(len(self))[s]
        traj = self._traj
        return TrajectoryStep(s, s / (len(self) - 1), traj.state(s), float(traj.success[s]),
                              float(traj.leakage[s]))


@dataclass(eq=False)
class Trajectory:
    """A search run on the span it went on: the (S + 1, k) amplitudes on
    `span` at s = 0..S, with the success and leakage at each s, and the
    full-length final state (exactly 0 off the span). Other full-length
    states are built only when read (`state`, `steps`)."""

    span: np.ndarray
    amplitudes: np.ndarray
    success: np.ndarray
    leakage: np.ndarray
    winner_index: int
    final_state: StateVector

    def state(self, s: int) -> StateVector:
        """The full-length state after step s; the last one is `final_state`."""
        if not _is_count(s):
            raise ContractViolation(f"step index {s!r} is not an integer")
        s = range(len(self.amplitudes))[s]
        if s == len(self.amplitudes) - 1:
            return self.final_state
        return _scatter(self.span, self.amplitudes[s], len(self.final_state))

    def probability(self, index: int) -> np.ndarray:
        """The probability of basis index `index` at s = 0..S: a column of
        the span amplitudes, or 0 throughout for an index off the span."""
        if not (_is_count(index) and 0 <= index < len(self.final_state)):
            raise ContractViolation(f"basis index {index!r} outside 0..{len(self.final_state) - 1}")
        at = int(np.searchsorted(self.span, index))
        if at == self.span.size or self.span[at] != index:
            return np.zeros(len(self.amplitudes))
        return np.abs(self.amplitudes[:, at]) ** 2

    @property
    def steps(self) -> _Steps:
        return _Steps(self)


def _scatter(span: np.ndarray, amps: np.ndarray, dim: int) -> StateVector:
    """The `dim`-long state that holds `amps` on `span` and 0 elsewhere."""
    out = np.zeros(dim, dtype=complex)
    out[span] = amps
    return StateVector(out)


def _factors(factors, dim: int, what: str) -> list[np.ndarray]:
    """`factors` as square matrices (`as_operator`: real ones stay real)
    whose dimensions multiply to `dim`. A run checks each operator here
    once and hands the lists on."""
    factors = [as_operator(f) for f in factors]
    if (any(f.ndim != 2 or f.shape[0] != f.shape[1] for f in factors)
            or math.prod(f.shape[0] for f in factors) != dim):
        raise ContractViolation(f"{what} do not match the register dimension")
    return factors


def _entries(factors: list[np.ndarray], rows: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """U[rows][:, T] of the Kronecker product U of the checked `factors`
    (register order), with T, the sorted columns it holds: the product of
    each factor's support on its picked rows, which holds every nonzero
    column of the rows. Entry (x, y) is the product of U_j[x_j, y_j] over
    the registers j, so the block is formed register by register on the
    product of each register's column digits and U is never built. The
    block has the factors' dtype: real factors give a real block."""
    idx = np.asarray(rows, dtype=np.int64)
    block, taken = np.ones((idx.size, 1)), np.zeros(1, dtype=np.int64)
    stride = math.prod(f.shape[0] for f in factors)
    for f in factors:
        stride //= f.shape[0]
        picked = f[(idx // stride) % f.shape[0]]  # the factor's rows at each row's digit
        digits = np.flatnonzero(picked.any(axis=0))
        # in C order: the column gather alone would leave the block in Fortran order
        block = np.multiply(block[:, :, None], picked[:, None, digits], order="C").reshape(idx.size, -1)
        taken = (taken[:, None] * f.shape[0] + digits).reshape(-1)
    return block, taken


def _terms(u: np.ndarray, w_diag: np.ndarray, hp_diag: np.ndarray,
           v: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """The k x k terms U W U^dag and V H_p V^dag of H(f) on a span or
    cell, from the blocks that `_stepper` takes."""
    h_p = np.diag(hp_diag) if v is None else (v * hp_diag) @ v.conj().T
    return (u * w_diag) @ u.conj().T, h_p


def _stepper(variant: str, delta: float, u: np.ndarray, w_diag: np.ndarray,
             hp_diag: np.ndarray, v: np.ndarray | None, fs: Sequence[float]):
    """The map (psi, i) -> psi of one search step at f = fs[i]:

    exact : exp(-i*delta*[(1-f) U W U^dag + f V H_p V^dag]) |psi>
    zeroth: U D(delta,1-f) U^dag P(delta,f) |psi>
    first : U D(delta/2,1-f) U^dag P(delta,f) U D(delta/2,1-f) U^dag |psi>
    locked: U D(delta,1-f) U^dag V P(delta,f) V^dag |psi>

    with D(d,f) = exp(-i*d*f*W) and P(d,f) = exp(-i*d*f*H_p), on a run's
    span (`_span`), k indices that every step maps into itself.

    `u` is the block U[span, T] of the joint operator on the span's rows
    and the columns T they reach, `w_diag` is W on T, `v` is the block
    V[span, T_V] of V, and `hp_diag` is H_p on T_V (on the span when `v` is
    None), so a step is k x k. What every step shares is built here once:
    U^dag and the phase tables, (len(fs), |T|) mixer phases and
    (len(fs), |T_V|) payoff phases from one `np.exp` each, and for "exact"
    the k x k terms of H(f) (`_terms`), so a step diagonalizes the k x k
    H(f) with one `eig_hermitian`. "locked" is "zeroth" with V.

    The blocks keep their factors' dtype, so for real U and V the "exact"
    H(f) is real symmetric and goes to the real solver. The product
    formulas cast real blocks to complex once here: a real-by-complex
    matmul would cast its real operand at every step.
    """
    if variant == "exact":
        h_b, h_p = _terms(u, w_diag, hp_diag, v)

        def exact(psi: np.ndarray, i: int) -> np.ndarray:
            f = fs[i]
            vals, vecs = eig_hermitian((1 - f) * h_b + f * h_p)
            return vecs @ (np.exp(-1j * delta * vals) * (vecs.conj().T @ psi))
        return exact
    u = u.astype(complex, copy=False)
    ud = u.conj().T
    if v is not None:
        v = v.astype(complex, copy=False)
        vd = v.conj().T
    share = delta / 2 if variant == "first" else delta  # "first" mixes twice, half a step each
    mixer_phases = np.exp(np.array([-1j * (share * (1 - f)) for f in fs])[:, None] * w_diag)
    payoff_phases = np.exp(np.array([-1j * delta * f for f in fs])[:, None] * hp_diag)

    def mixer(psi: np.ndarray, i: int) -> np.ndarray:
        return u @ (mixer_phases[i] * (ud @ psi))

    def payoff(psi: np.ndarray, i: int) -> np.ndarray:
        phases = payoff_phases[i]
        return phases * psi if v is None else v @ (phases * (vd @ psi))

    if variant == "first":
        return lambda psi, i: mixer(payoff(mixer(psi, i), i), i)
    return lambda psi, i: mixer(payoff(psi, i), i)


def _fold(step, psi: np.ndarray, steps: int) -> np.ndarray:
    """The (S + 1, k) stack of `psi` and the states after steps 1..S, each
    renormalised; `step` takes step s as index s - 1 (`_stepper` over the
    grid f = 1/S..1). A step that leaves its state more than ATOL_STATE
    off norm 1 (NaN included) raises."""
    states = [psi]
    for s in range(1, steps + 1):
        psi = step(psi, s - 1)
        re, im = psi.real, psi.imag
        norm = math.sqrt(re.dot(re) + im.dot(im))  # np.linalg.norm's own arithmetic, unwrapped
        if not abs(norm - 1.0) <= ATOL_STATE:
            raise ContractViolation(f"norm drifted to {norm} at step {s}")
        psi = psi / norm
        states.append(psi)
    return np.array(states)


def _span(operators: list[list[np.ndarray]], dim: int, start) -> np.ndarray:
    """Sorted indices of the span that the indices of `start` close to
    under the operators, checked factor lists (`_factors`) in register
    order with U's first: two indices are joined when they share a
    nonzero column of one operator. `start` is a product set of indices,
    one array of digits per factor of U. Every step is a function of
    U W U^dag and V H_p V^dag, so it maps this span into itself. Grown
    from U|0...0>'s support (each factor's nonzero rows in column 0) it is
    the span a run goes on; grown from every index it gives the cells of
    H(f) (`_cells`).

    A Kronecker product joins x and y when every register pair (x_j, y_j)
    shares a nonzero column of that register's factor. When every operator
    has the same m >= 2 factors of one width, the span of `start` is a
    product over the registers: all m registers' digit sets grow at once,
    through the stacked nonzero patterns B of the factors as B (B^T digits).
    Otherwise (a dense `u` is one factor) one mask over the `dim` indices
    grows factor by factor, from the digits it holds to the columns they
    reach and back, and no factor's whole pattern is formed."""
    m = len(operators[0])
    if m > 1 and len({f.shape[0] for factors in operators for f in factors}) == 1 and all(
            len(factors) == m for factors in operators):
        width = operators[0][0].shape[0]
        patterns = [np.array(factors) != 0 for factors in operators]
        digits = np.zeros((m, width, 1), dtype=bool)
        for j in range(m):  # register j's digits of `start`
            digits[j, start[j]] = True
        while True:
            grown = digits
            for b in patterns:  # the digits, the columns they reach, and back
                grown = grown | b @ (b.swapaxes(1, 2) @ grown)
            if np.count_nonzero(grown) == np.count_nonzero(digits):
                return np.flatnonzero(functools.reduce(np.logical_and.outer, digits[:, :, 0]))
            digits = grown
    held = []
    for f, digits in zip(operators[0], start):
        held.append(np.zeros(f.shape[0], dtype=bool))
        held[-1][digits] = True
    mask = functools.reduce(np.logical_and.outer, held).reshape(-1)
    while True:
        grown = mask
        for factors in operators:
            left = 1
            for f in factors:
                t = grown.reshape(left, f.shape[0], -1)
                rows = np.flatnonzero(t.any(axis=(0, 2)))
                hit = (f[rows] != 0).T @ t[:, rows]  # the columns the held digits reach
                cols = np.flatnonzero(hit.any(axis=(0, 2)))
                grown = (t | (f[:, cols] != 0) @ hit[:, cols]).reshape(-1)
                left *= f.shape[0]
        if np.count_nonzero(grown) == np.count_nonzero(mask):
            return np.flatnonzero(mask)
        mask = grown


def _cells(operators, dim: int) -> np.ndarray:
    """The cells of H(f) under the operators (as in `_span`): the span of
    each index that no earlier cell holds, as a (k, b) array with rows in
    order of their smallest index and ascending within. Every step maps
    each cell into itself. If the cells differ in size (a Haar U, or the
    one 16 x 16 collusion factor), one cell of every index."""
    widths = [f.shape[0] for f in operators[0]]
    cells, left = [], np.ones(dim, dtype=bool)
    while left.any():
        cells.append(_span(operators, dim, np.unravel_index(int(np.argmax(left)), widths)))
        left[cells[-1]] = False
    if len({cell.size for cell in cells}) > 1:
        return np.arange(dim)[None, :]
    return np.array(cells)


def run_schedule(u: tuple[np.ndarray, ...], plausible: Sequence[int],
                 winner_index: int, table: PayoffTable, schedule: AdiabaticSchedule) -> Trajectory:
    """Fold the schedule over |Psi_0> = U|0...0>, recording success
    probability against `winner_index` and leakage out of `plausible`.

    `u` is the joint operator as a tuple of Kronecker factors in register
    order (the convention of `schedule.locking`); a dense joint operator
    is a one-factor tuple. Every variant runs on the span that the support of
    |Psi_0> closes to under U and V (`_span`): for bidding and locking
    operators that is the plausible span, and for a Haar U all 2^n indices.
    Each step maps that span into itself, so the run is the full-space run,
    with exactly 0 outside the span, and the leakage is the full-space one.
    """
    # every phase argument is delta times an energy of at most max(n, max|F|)
    phase_bound = schedule.delta * max(table.n_qubits, float(np.max(np.abs(table.values))))
    if not math.isfinite(phase_bound):
        raise ContractViolation(f"step size {schedule.delta:g} overflows the phases "
                                f"(delta * max(n, max|F|) = {phase_bound}), so the state would be nan")
    dim = 2**table.n_qubits
    operators = [_factors(u, dim, "joint operator factors")]
    if schedule.locking is not None:
        operators.append(_factors(schedule.locking, dim, "locking unitaries"))
    start = [np.flatnonzero(f[:, 0]) for f in operators[0]]  # the support of |Psi_0>, register by register
    if not all(digits.size for digits in start):
        raise ContractViolation("U|0...0> is 0, so the search has no start state")
    span = _span(operators, dim, start)
    return _run(operators, span, list(plausible), winner_index, table, schedule)


def _run(operators: list[list[np.ndarray]], span: np.ndarray, plausible: list[int],
         winner_index: int, table: PayoffTable, schedule: AdiabaticSchedule) -> Trajectory:
    """The search on span(`span`), a span that U and V map into itself,
    from their entries there: U[span, T] and V[span, T_V], from the
    checked factors in `operators` (U's, then V's when the schedule
    locks), with T and T_V the columns the span's rows reach. T is sorted
    and holds 0, the column of |0...0>, so U[span, T] starts with |Psi_0>
    on the span, and the run's states are complex from it on. Success and
    leakage, 1 minus the probability on `plausible`, are read once from
    the stacked span amplitudes; a step that drifts off norm 1 raises
    (`_fold`). The final state is the one full-length state the run
    builds; the trajectory forms the others only when they are read."""
    dim = 2**table.n_qubits
    u, cols = _entries(operators[0], span)
    v, v_cols = None, span
    if len(operators) > 1:
        v, v_cols = _entries(operators[1], span)
    fs = [s / schedule.steps for s in range(1, schedule.steps + 1)]
    step = _stepper(schedule.variant, schedule.delta, u, _set_bits(cols), -table.values[v_cols], v, fs)
    states = _fold(step, u[:, 0].astype(complex), schedule.steps)
    probs = np.abs(states) ** 2
    in_plausible = np.zeros(dim, dtype=bool)
    in_plausible[plausible] = True
    success = probs @ (span == winner_index)
    leakage = np.maximum(0.0, 1.0 - probs @ in_plausible[span])
    return Trajectory(span, states, success, leakage, winner_index, _scatter(span, states[-1], dim))


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

    Every variant runs on the plausible span (`run_schedule`). The
    product-formula variants get the per-bidder factors; "exact" gets the
    dense joint operator, so the reference that they are checked against
    takes its entries from the Kronecker product and not from `_entries`'
    digit arithmetic. The registers and the winner are checked before any
    operator is built."""
    bids = [as_bid(b) for b in bidders]
    plausible = plausible_allocations(bids)
    if table.n_qubits != sum(b.n_qubits for b in bids):
        raise ContractViolation("payoff table does not match the bidder registers")
    winner = winning_allocation(table, plausible)
    if schedule.variant == "exact":
        u = (joint_bidding_operator(bids),)
    else:
        u = tuple(bidding_operator(b) for b in bids)
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
    sorted union of the spectra of H(f) on its cells: the plausible span
    alone, or with `restrict` False the cells of the bidding (and locking)
    factors (`_cells`), each built from the factor entries, so no
    2^n x 2^n term is formed when the cells split the space. One stacked
    `eigvalsh` takes H(f) on every cell over a run of f rows, as many as
    fit in `_TRACK_ENTRIES` entries, and at least one. A run whose work,
    (steps + 1) * sum of k^3 over its cells of k indices, exceeds
    `_TRACK_WORK` raises ContractViolation before any term is built.
    """
    bids = [as_bid(b) for b in bidders]
    plausible = plausible_allocations(bids)
    if table.n_qubits != sum(b.n_qubits for b in bids):
        raise ContractViolation("payoff table does not match the bidder registers")
    dim = 2**table.n_qubits
    operators = [[bidding_operator(b) for b in bids]]
    if schedule.locking is not None:
        operators.append(_factors(schedule.locking, dim, "locking unitaries"))
    cells = np.array([plausible]) if restrict else _cells(operators, dim)
    work = (int(schedule.steps) + 1) * len(cells) * cells.shape[1]**3
    if work > _TRACK_WORK:
        raise ContractViolation(f"gap tracks need (steps + 1) * sum of cell sizes cubed = {work}, "
                                f"more than {_TRACK_WORK}")
    terms = []
    for cell in cells:  # from the entries on the cell's rows and the columns they reach
        u, cols = _entries(operators[0], cell)
        v, v_cols = (None, cell) if len(operators) == 1 else _entries(operators[1], cell)
        terms.append(_terms(u, _set_bits(cols), -table.values[v_cols], v))
    hb, hp = np.array(terms).swapaxes(0, 1)
    fs = np.arange(schedule.steps + 1) / schedule.steps
    chunk = max(1, _TRACK_ENTRIES // hb.size)  # f rows per stacked eigvalsh
    rows = np.concatenate([np.linalg.eigvalsh((1 - f) * hb + f * hp).reshape(f.shape[0], -1)
                           for f in (fs[i:i + chunk, None, None, None] for i in range(0, fs.size, chunk))])
    rows.sort(axis=1)
    g_min = float(np.min(rows[:, 1] - rows[:, 0]))
    return EigenTracks(fs, rows, g_min)
