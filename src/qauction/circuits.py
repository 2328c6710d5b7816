"""Gate-level intermediate representation for the protocol unitaries.

Gates: H (Hadamard), CNOT, PHASE(q, theta) = diag(1, e^{-i theta}),
ROT(q, theta) = [[cos, sin], [sin, -cos]], and CTRL0(controls, inner),
which applies the inner circuit only on the subspace where every control
qubit is |0>. Qubit 0 is the most significant bit of the basis index.

Text format (one gate per line, angles in radians):

    H q0
    CNOT q0 q1
    PHASE q0 0.125
    ROT q0 0.3344
    CTRL0 [q0 q1] {
      H q2
      CNOT q2 q3
    }
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import ContractViolation, as_operator
from .protocol import BidSpec, _check_count, _is_count, as_bid

# Each flat gate's shape: how many qubits it takes and whether it takes an angle.
_SHAPES = {"H": (1, False), "CNOT": (2, False), "PHASE": (1, True), "ROT": (1, True)}
KINDS = (*_SHAPES, "CTRL0")
MAX_NESTING = 64  # deepest CTRL0 nesting that parse_circuit takes
_SQRT_HALF = 1 / math.sqrt(2)
_HADAMARD, _SWAP = ((_SQRT_HALF, _SQRT_HALF), (_SQRT_HALF, -_SQRT_HALF)), ((0.0, 1.0), (1.0, 0.0))
_COLLUSION_ANGLE = math.atan2(math.sqrt(1 / 3), math.sqrt(2 / 3))  # keeps sqrt(2/3) and sqrt(1/3)
_VERIFY_TOL = 1e-8  # phase-invariant distance within which verify_circuit passes
_CHUNK_ENTRIES = 2**14  # entries per part of a gate update or a comparison scan: small temporaries


@dataclass(frozen=True)
class Gate:
    kind: str
    qubits: tuple[int, ...]
    angle: float | None = None
    inner: "Circuit | None" = None


def hadamard(q: int) -> Gate:
    return Gate("H", (q,))


def cnot(control: int, target: int) -> Gate:
    return Gate("CNOT", (control, target))


def phase(q: int, theta: float) -> Gate:
    return Gate("PHASE", (q,), angle=float(theta))


def rotation(q: int, theta: float) -> Gate:
    return Gate("ROT", (q,), angle=float(theta))


def zero_controlled(controls, inner: "Circuit") -> Gate:
    return Gate("CTRL0", tuple(controls), inner=inner)


@dataclass(frozen=True)
class Circuit:
    n_qubits: int
    gates: tuple[Gate, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        _check_count(self.n_qubits, "qubit")
        for g in self.gates:
            self._check_gate(g)

    def _check_gate(self, g: Gate):
        if g.kind not in KINDS:
            raise ContractViolation(f"unknown gate kind {g.kind!r}")
        if not all(_is_count(q) for q in g.qubits):
            raise ContractViolation(f"gate {g} addresses a qubit by a non-integer index")
        if len(set(g.qubits)) != len(g.qubits):
            raise ContractViolation(f"repeated qubit in gate {g}")
        if any(not 0 <= q < self.n_qubits for q in g.qubits):
            raise ContractViolation(f"gate {g} addresses a qubit outside 0..{self.n_qubits - 1}")
        if g.kind == "CTRL0":
            if not g.qubits:
                raise ContractViolation("CTRL0 needs at least one control qubit")
            if g.inner is None or g.inner.n_qubits != self.n_qubits:
                raise ContractViolation("CTRL0 inner circuit must share the outer width")
            if _acted(g.inner.gates) & set(g.qubits):
                raise ContractViolation("CTRL0 inner circuit may not act on a control qubit")
            return
        count, angled = _SHAPES[g.kind]
        if len(g.qubits) != count:
            raise ContractViolation(f"{g.kind} takes {count} qubit(s)")
        if angled != (g.angle is not None):
            raise ContractViolation(f"{g.kind} takes {'an' if angled else 'no'} angle")
        if angled and not math.isfinite(g.angle):
            raise ContractViolation(f"{g.kind} angle must be finite, got {g.angle}")

    def to_text(self) -> str:
        return "\n".join(_gate_lines(self.gates, indent=0)) + "\n"


def _acted(gates) -> set[int]:
    """Qubits whose computational-basis content the gates can change. A CNOT
    or CTRL0 control only reads its qubit, so the gates stay block diagonal
    in those bits."""
    acted = set()
    for g in gates:
        if g.kind == "CTRL0":
            acted |= _acted(g.inner.gates)
        else:
            acted.update(g.qubits[-1:] if g.kind == "CNOT" else g.qubits)
    return acted


def _gate_lines(gates, indent: int) -> list[str]:
    pad = "  " * indent
    lines = []
    for g in gates:
        qubits = " ".join(f"q{q}" for q in g.qubits)
        if g.kind == "CTRL0":
            lines.append(f"{pad}CTRL0 [{qubits}] {{")
            lines.extend(_gate_lines(g.inner.gates, indent + 1))
            lines.append(f"{pad}}}")
        else:
            angle = f" {g.angle:.17g}" if _SHAPES[g.kind][1] else ""
            lines.append(f"{pad}{g.kind} {qubits}{angle}")
    return lines


class CircuitParseError(ValueError):
    pass


def _parse_qubit(tok: str) -> int:
    if not tok.startswith("q") or not tok[1:].isdigit():
        raise CircuitParseError(f"expected a qubit like q0, got {tok!r}")
    return int(tok[1:])


def parse_circuit(text: str, n_qubits: int | None = None) -> Circuit:
    """Parse the text format in one pass over its lines; width is inferred
    from the highest qubit index unless given explicitly."""
    blocks = [((), [])]  # (controls, gates) of the top level and of each open CTRL0 block
    closed = []  # (controls, gates, parent's gates, slot) per closed block, inner blocks first
    hi = -1  # highest qubit index
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        kind = toks[0].upper()
        try:
            if line == "}":
                if len(blocks) == 1:
                    raise CircuitParseError("unbalanced '}'")
                closed.append((*blocks.pop(), blocks[-1][1], len(blocks[-1][1])))
                blocks[-1][1].append(None)  # the CTRL0 gate, built once the width is known
                continue
            if kind in _SHAPES:
                count, angled = _SHAPES[kind]
                if len(toks) != 1 + count + angled:
                    raise CircuitParseError(f"{kind} takes {count} qubit(s)"
                                            + (" and an angle" if angled else ""))
                qubits = tuple(_parse_qubit(t) for t in toks[1:1 + count])
                blocks[-1][1].append(Gate(kind, qubits, float(toks[-1]) if angled else None))
            else:
                head, _, rest = line.partition("[")
                inside, bracket, tail = rest.partition("]")
                if head.strip().upper() != "CTRL0" or not bracket or tail.strip() != "{":
                    raise CircuitParseError("expected a gate, 'CTRL0 [controls] {' or '}'")
                qubits = tuple(_parse_qubit(t) for t in inside.split())
                if not qubits:
                    raise CircuitParseError("CTRL0 needs at least one control qubit")
                if len(blocks) > MAX_NESTING:
                    raise CircuitParseError(f"CTRL0 blocks nest deeper than {MAX_NESTING}")
                blocks.append((qubits, []))
        except ValueError as exc:  # a CircuitParseError too, so each error is wrapped once
            raise CircuitParseError(f"cannot parse line {line!r}: {exc}") from exc
        hi = max(hi, *qubits)
    if len(blocks) > 1:
        raise CircuitParseError("missing '}' in circuit text")
    width = n_qubits if n_qubits is not None else hi + 1
    if width < 1:
        raise CircuitParseError("empty circuit needs an explicit qubit count")
    try:
        for controls, gates, parent, slot in closed:
            parent[slot] = Gate("CTRL0", controls, inner=Circuit(width, tuple(gates)))
        circuit = Circuit(width, tuple(blocks[0][1]))
    except ContractViolation as exc:
        raise CircuitParseError(str(exc)) from exc
    return circuit


def _matrix(g: Gate) -> tuple:
    """The 2 x 2 matrix of an H, ROT or CNOT gate on its target qubit; a
    CNOT's is the swap, applied where its control is 1."""
    if g.kind != "ROT":
        return _HADAMARD if g.kind == "H" else _SWAP
    c, s = math.cos(g.angle), math.sin(g.angle)
    return (c, s), (s, -c)


def _chunked(update, *arrays) -> None:
    """update(*parts) over matching parts of the arrays of at most
    _CHUNK_ENTRIES entries each, so that its temporaries stay small."""
    if arrays[0].size <= _CHUNK_ENTRIES or arrays[0].ndim == 1:
        return update(*arrays)
    for parts in zip(*arrays):
        _chunked(update, *parts)


def _scale(a: np.ndarray, z: complex) -> None:
    """a *= z in place, as a * Re z + a * i Im z: each part of the product
    rounds once (numpy's complex multiply can fuse a multiply-add), so PHASE
    rounds alike in `_monomial`, `circuit_to_matrix` and the tests'
    `kron_circuit_matrix`, and their matrices agree bit for bit."""
    def scale(part):
        imaginary = part * complex(0.0, z.imag)
        part *= z.real
        part += imaginary
    _chunked(scale, a)


def _mix(a: np.ndarray, b: np.ndarray, g: tuple) -> None:
    """(a, b) <- (g00 a + g01 b, g10 a + g11 b) in place."""
    (g00, g01), (g10, g11) = g

    def mix(a, b):
        top = g00 * a + g01 * b
        b *= g11
        b += g10 * a
        a[...] = top
    _chunked(mix, a, b)


def _has_phase(gates) -> bool:
    return any(g.kind == "PHASE" or g.kind == "CTRL0" and _has_phase(g.inner.gates) for g in gates)


def circuit_to_matrix(c: Circuit, *, _columns: np.ndarray | None = None) -> np.ndarray:
    """Dense unitary of the circuit, first listed gate applied first: float64
    when no PHASE gate is in it at any depth (H, CNOT and ROT are real), as
    `core.as_operator` keeps real operators, and complex128 otherwise.

    The columns are held as a (2,)*n + (2^n,) tensor, one axis per qubit,
    and every gate updates it in place: PHASE scales the half where its
    qubit is 1, and H, ROT and CNOT mix the two halves of their target's
    axis, a CNOT only where its control is 1. A CTRL0 block applies its inner
    circuit, through this function, to the view with each control axis cut
    to its 0 entry, so no gate forms a 2^n x 2^n matrix or a copy of the
    tensor. `_columns` is that view, passed by the recursion only.
    """
    n = c.n_qubits
    m = _columns if _columns is not None else np.eye(
        2**n, dtype=complex if _has_phase(c.gates) else float).reshape((2,) * n + (2**n,))
    for g in c.gates:
        if g.kind == "CTRL0":
            circuit_to_matrix(g.inner, _columns=m[_at(n, g.qubits, slice(0, 1))])
        elif g.kind == "PHASE":  # diagonal: scale the half where the qubit is 1
            _scale(m[_at(n, g.qubits, 1)], np.exp(-1j * g.angle))
        else:  # a CNOT's control slice is empty where an outer block holds it at 0
            *controls, q = g.qubits
            on, axis = m[_at(n, controls, slice(1, 2))], (slice(None),) * q
            _mix(on[axis + (0,)], on[axis + (1,)], _matrix(g))
    return m if _columns is not None else m.reshape(2**n, 2**n)


def _at(n: int, qubits, index) -> tuple:
    """The index of the tensor's qubit axes that takes `index` on each of `qubits`."""
    return tuple(index if q in qubits else slice(None) for q in range(n))


def _monomial(c: Circuit) -> tuple[np.ndarray, np.ndarray]:
    """The unitary of a circuit of CNOT and PHASE gates only, as its column
    map: column j holds phases[j] in row rows[j] and 0 elsewhere.

    A CNOT flips the target bit of the rows whose control bit is set, and a
    PHASE scales the phases whose row has the qubit set, with `_scale`'s
    arithmetic, so each phase equals `circuit_to_matrix`'s entry bit for bit,
    in its dtype.
    """
    n = c.n_qubits
    rows = np.arange(2**n)
    phases = np.ones(2**n, dtype=complex if _has_phase(c.gates) else float)
    for g in c.gates:
        bits = [n - 1 - q for q in g.qubits]  # qubit 0 is the most significant bit
        if g.kind == "CNOT":
            rows ^= (rows >> bits[0] & 1) << bits[1]
        else:
            on = (rows >> bits[0] & 1).astype(bool)
            part = phases[on]
            _scale(part, np.exp(-1j * g.angle))
            phases[on] = part
    return rows, phases


def _fan_out(bid: BidSpec, offset: int) -> list[Gate]:
    """CNOTs from the lead qubit onto the other set bits of a bid whose register starts at `offset`."""
    return [cnot(bid.lead + offset, q + offset) for q, ch in enumerate(bid.bits)
            if ch == "1" and q != bid.lead]


def build_bidder_circuit(bid: BidSpec | str) -> Circuit:
    """H on the lead (lowest-index set) qubit, then CNOT fan-out to the other set bits."""
    bid = as_bid(bid)
    return Circuit(bid.n_qubits, (hadamard(bid.lead), *_fan_out(bid, 0)))


def build_D_circuit(delta: float, f: float, n_qubits: int) -> Circuit:
    """Mixing phases exp(-i*delta*f*W) as one PHASE(q, f*delta) per qubit."""
    _check_count(n_qubits, "qubit")
    return Circuit(n_qubits, tuple(phase(q, f * delta) for q in range(n_qubits)))


def _zz_gates(qubits, theta: float) -> list[Gate]:
    """The unchecked gates of exp(i*theta * Z x ... x Z on `qubits`), up to a global
    phase: a CNOT ladder folds the subset's parity onto its last qubit, a single
    PHASE(last, 2*theta) applies the parity-dependent phase, and the ladder unwinds."""
    qs = sorted(set(qubits))
    if not qs:
        raise ContractViolation("need a nonempty qubit subset")
    ladder = [cnot(qs[i], qs[i + 1]) for i in range(len(qs) - 1)]
    return ladder + [phase(qs[-1], 2 * theta)] + ladder[::-1]


def build_zz_exponential(qubits, theta: float, n_qubits: int) -> Circuit:
    """exp(i*theta * Z x ... x Z on `qubits`), up to a global phase."""
    return Circuit(n_qubits, tuple(_zz_gates(qubits, theta)))


def build_P_circuit(expansion, delta: float, f: float, n_qubits: int) -> Circuit:
    """Payoff phases exp(-i*delta*f*H_p) from a Pauli-Z expansion, as one
    ZZ exponential per term in one circuit, whose gates are checked once.

    All terms are commuting diagonals, so the concatenation is exactly the
    dense exponential up to the global phase of the dropped constant term.
    """
    gates = [g for qubits, coeff in expansion if qubits  # a constant term is a global phase only
             for g in _zz_gates(qubits, -f * delta * coeff)]
    return Circuit(n_qubits, tuple(gates))


def build_collusion_circuit(bid1: BidSpec | str, bid2: BidSpec | str) -> Circuit:
    """Joint two-bidder operator U_c that removes the double-nonzero state.

    Let lead1 be bidder 1's first set qubit and lead2 = 2 + bidder 2's
    first set qubit, with e1, e2 the one-hot registers on those qubits.
    With a = sqrt(2/3) and b = sqrt(1/3), the circuit applies CTRL0[lead2]{ROT
    lead1 atan2(b, a)}, then CTRL0[lead1]{H lead2}, then each bidder's CNOT
    fan-out from its lead qubit (which maps e_i onto b_i). On |0000> the output is
    a/sqrt(2)*(|0000> + |00 b2>) + b|b1 00>, so the revealing state
    |b1 b2> carries zero amplitude.

    The two controlled gates act on the lead pair alone and never leave
    span{|00>, |01>, |10>} of it, so U_c maps span{|0000>, |00 e2>,
    |e1 00>} onto the kept span {|0000>, |00 b2>, |b1 00>}. The mixer
    U_c D U_c^dagger (D diagonal) and the payoff phases (diagonal) then
    both preserve the kept span, and the search never leaves it.
    """
    bid1, bid2 = as_bid(bid1), as_bid(bid2)
    if bid1.n_qubits != 2 or bid2.n_qubits != 2:
        raise ContractViolation("collusion circuit is defined at the two-qubit-per-bidder scale")
    n, lead1, lead2 = 4, bid1.lead, bid2.lead + 2
    gates = [zero_controlled((lead2,), Circuit(n, (rotation(lead1, _COLLUSION_ANGLE),))),
             zero_controlled((lead1,), Circuit(n, (hadamard(lead2),)))]
    return Circuit(n, tuple(gates + _fan_out(bid1, 0) + _fan_out(bid2, 2)))


def _support(v, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The sorted flat indices `on` of a target's entries in a dim x dim
    matrix, and their values. A target is a dim x dim matrix or a 1-D
    diagonal, read on its nonzero entries, or the entries (rows, cols, values)
    of a sparse one, with integer rows and cols (not bool or float), which
    broadcast as in `m[rows, cols] = values`."""
    if isinstance(v, tuple):
        try:
            rows, cols, values = np.broadcast_arrays(*map(np.asarray, v))
            if rows.dtype.kind not in "iu" or cols.dtype.kind not in "iu":
                raise TypeError(f"got {rows.dtype} rows and {cols.dtype} columns")
            on, first = np.unique(np.ravel_multi_index((rows, cols), (dim, dim)), return_index=True)
        except (TypeError, ValueError) as exc:
            raise ContractViolation(f"target entries need integer indices in 0..{dim - 1} that broadcast: {exc}") from exc
        if on.size != rows.size:
            raise ContractViolation("target lists an entry twice")
        return on, as_operator(values).reshape(-1)[first]
    v = as_operator(v)
    if v.shape != ((dim,) if v.ndim == 1 else (dim, dim)):
        raise ContractViolation(f"dimension mismatch: {(dim, dim)} vs {v.shape}")
    nonzero = np.flatnonzero(v)
    return nonzero * (dim + 1) if v.ndim == 1 else nonzero, v.reshape(-1)[nonzero]


def _max_off(u: np.ndarray, on: np.ndarray) -> float:
    """max |u| off the sorted flat indices `on`, read once in flat chunks of
    _CHUNK_ENTRIES entries, so no copy of u is made; a non-finite entry raises."""
    flat = u.reshape(-1)
    top = 0.0
    for start in range(0, flat.size, _CHUNK_ENTRIES):
        chunk = flat[start:start + _CHUNK_ENTRIES]
        magnitudes = np.abs(chunk)
        lo, hi = np.searchsorted(on, [start, start + _CHUNK_ENTRIES])  # the part of `on` in the chunk
        magnitudes[on[lo:hi] - start] = 0
        peak = float(np.max(magnitudes))
        if not peak <= top:  # a new maximum, or NaN
            if not (math.isfinite(peak) or np.isfinite(chunk).all()):
                raise ContractViolation("phase-invariant distance needs finite matrix entries")
            top = peak
    return top


def _distinct_pairs(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (u_i, v_i) pairs of two 1-D complex arrays, each repeated pair kept
    once: a D target at n qubits has n + 1 distinct pairs among its 2^n.
    Every distance of the phase search is a maximum over pairs, so a pair
    kept twice changes no distance. Copies of a pair share Re u, so after one
    sort on it (several times cheaper than a sort on all four parts) a copy
    lands next to another unless a pair with the same Re u sits between them."""
    order = np.argsort(u.real)
    u, v = u[order], v[order]
    kept = np.ones(u.size, dtype=bool)
    np.not_equal(u[1:], u[:-1], out=kept[1:])
    kept[1:] |= v[1:] != v[:-1]
    return u[kept], v[kept]


def _phase_search(u: np.ndarray, v: np.ndarray, rest: float) -> float:
    """min over unit-magnitude phi of max(rest, max |u_i - phi*v_i|), over
    the pairs of two 1-D arrays: a target's nonzero entries v_i and the
    entries u_i in their places. `rest` is the largest |u| off those places,
    where |u - phi*v| = |u| at every phase. A coarse phase scan is refined by
    golden-section search, with the Frobenius-optimal phase (phase of
    tr(v^dag u)) as an extra candidate: exact when u and v agree up to phase."""
    # a real operand is cast once here, not in each of the distance evaluations below
    u, v = u.astype(complex, copy=False), v.astype(complex, copy=False)
    if not (np.isfinite(u).all() and np.isfinite(v).all()):
        raise ContractViolation("phase-invariant distance needs finite matrix entries")
    tr = np.vdot(v, u)  # tr(v^dag u), over every pair, repeated ones too
    u, v = _distinct_pairs(u, v)

    def dist(theta: float) -> float:
        return max(rest, float(np.max(np.abs(u - np.exp(1j * theta) * v), initial=0.0)))

    # the coarse scan: every angle's distance at once, in chunks of at most
    # _CHUNK_ENTRIES entries; argmin takes the first minimum, as min() does
    thetas = np.linspace(0.0, 2 * np.pi, 256, endpoint=False)
    phases = np.exp(1j * thetas)[:, None]
    chunk = max(1, _CHUNK_ENTRIES // max(1, u.size))
    coarse = np.concatenate([np.max(np.abs(u - phases[i:i + chunk] * v), axis=1, initial=rest)
                             for i in range(0, thetas.size, chunk)])
    first_min = int(np.argmin(coarse))
    best, best_dist = thetas[first_min], float(coarse[first_min])
    if abs(tr) > 1e-14:
        cand = float(np.angle(tr))
        cand_dist = dist(cand)
        if cand_dist < best_dist:
            best, best_dist = cand, cand_dist
    invphi = (np.sqrt(5.0) - 1) / 2
    a, b = best - 2 * np.pi / 256, best + 2 * np.pi / 256
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    dist_c, dist_d = dist(c), dist(d)
    for _ in range(80):  # one new point per step; the kept one carries its distance
        if dist_c < dist_d:
            b, d, dist_d = d, c, dist_c
            c = b - invphi * (b - a)
            dist_c = dist(c)
        else:
            a, c, dist_c = c, d, dist_d
            d = a + invphi * (b - a)
            dist_d = dist(d)
    return min(best_dist, dist((a + b) / 2))


@dataclass(frozen=True)
class VerificationReport:
    distance: float
    passed: bool
    tolerance: float


def verify_circuit(c: Circuit, target) -> VerificationReport:
    """Compare the circuit's unitary with a target, in any form `_support` reads, up to
    global phase (`_phase_search`), passing within _VERIFY_TOL. The target is read (and its
    shape checked) first; the circuit's entries are then gathered on its support, with the
    largest one off it: a circuit of CNOT and PHASE gates from its column map, with no
    dense matrix, and any other from its dense matrix, read once in chunks (`_max_off`)."""
    dim = 2**c.n_qubits
    on, values = _support(target, dim)
    if all(g.kind in ("CNOT", "PHASE") for g in c.gates):
        rows, phases = _monomial(c)
        cols = on % dim
        hit = rows[cols] == on // dim  # the support entries where their column's one entry lies
        u = np.where(hit, phases[cols], 0)
        rest = float(np.max(np.abs(np.delete(phases, cols[hit])), initial=0.0))
    else:
        m = circuit_to_matrix(c)
        u, rest = m.reshape(-1)[on], _max_off(m, on)
    d = _phase_search(u, values, rest)
    return VerificationReport(distance=d, passed=d <= _VERIFY_TOL, tolerance=_VERIFY_TOL)
