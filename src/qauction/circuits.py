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

from .core import ContractViolation, phase_invariant_distance
from .protocol import _HADAMARD, BidSpec, _cnot_matrix, _embed_single, as_bid

KINDS = ("H", "CNOT", "PHASE", "ROT", "CTRL0")


@dataclass(frozen=True)
class Gate:
    kind: str
    qubits: tuple[int, ...]
    angle: float | None = None
    inner: "Circuit | None" = None

    def acted_qubits(self) -> set[int]:
        """Qubits whose computational-basis content the gate can change.

        CNOT controls and CTRL0 controls only read their qubit, so the
        gate stays block diagonal in those bits.
        """
        if self.kind == "CNOT":
            return {self.qubits[1]}
        if self.kind == "CTRL0":
            return self.inner.acted_qubits()
        return set(self.qubits)


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
        if self.n_qubits < 1:
            raise ContractViolation("circuit needs at least one qubit")
        for g in self.gates:
            self._check_gate(g)

    def _check_gate(self, g: Gate):
        if g.kind not in KINDS:
            raise ContractViolation(f"unknown gate kind {g.kind!r}")
        if len(set(g.qubits)) != len(g.qubits):
            raise ContractViolation(f"repeated qubit in gate {g}")
        if any(not 0 <= q < self.n_qubits for q in g.qubits):
            raise ContractViolation(f"gate {g} addresses a qubit outside 0..{self.n_qubits - 1}")
        expected = {"H": 1, "CNOT": 2, "PHASE": 1, "ROT": 1}
        if g.kind in expected and len(g.qubits) != expected[g.kind]:
            raise ContractViolation(f"{g.kind} takes {expected[g.kind]} qubit(s)")
        if g.kind in ("PHASE", "ROT") and g.angle is None:
            raise ContractViolation(f"{g.kind} needs an angle")
        if g.angle is not None and not math.isfinite(g.angle):
            raise ContractViolation(f"{g.kind} angle must be finite, got {g.angle}")
        if g.kind == "CTRL0":
            if not g.qubits:
                raise ContractViolation("CTRL0 needs at least one control qubit")
            if g.inner is None or g.inner.n_qubits != self.n_qubits:
                raise ContractViolation("CTRL0 inner circuit must share the outer width")
            if g.inner.acted_qubits() & set(g.qubits):
                raise ContractViolation("CTRL0 inner circuit may not act on a control qubit")

    def acted_qubits(self) -> set[int]:
        out: set[int] = set()
        for g in self.gates:
            out |= g.acted_qubits()
        return out

    def then(self, other: "Circuit") -> "Circuit":
        if other.n_qubits != self.n_qubits:
            raise ContractViolation("cannot concatenate circuits of different widths")
        return Circuit(self.n_qubits, self.gates + other.gates)

    def to_text(self) -> str:
        return "\n".join(_gate_lines(self.gates, indent=0)) + "\n"


def _gate_lines(gates, indent: int) -> list[str]:
    pad = "  " * indent
    lines = []
    for g in gates:
        if g.kind == "H":
            lines.append(f"{pad}H q{g.qubits[0]}")
        elif g.kind == "CNOT":
            lines.append(f"{pad}CNOT q{g.qubits[0]} q{g.qubits[1]}")
        elif g.kind in ("PHASE", "ROT"):
            lines.append(f"{pad}{g.kind} q{g.qubits[0]} {g.angle:.17g}")
        else:
            ctrl = " ".join(f"q{q}" for q in g.qubits)
            lines.append(f"{pad}CTRL0 [{ctrl}] {{")
            lines.extend(_gate_lines(g.inner.gates, indent + 1))
            lines.append(f"{pad}}}")
    return lines


class CircuitParseError(ValueError):
    pass


def _parse_qubit(tok: str) -> int:
    if not tok.startswith("q") or not tok[1:].isdigit():
        raise CircuitParseError(f"expected a qubit like q0, got {tok!r}")
    return int(tok[1:])


def parse_circuit(text: str, n_qubits: int | None = None) -> Circuit:
    """Parse the text format; width is inferred from the highest qubit
    index unless given explicitly."""
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)

    def parse_block(pos: int, nested: bool):
        gates = []
        while pos < len(lines):
            line = lines[pos]
            if line == "}":
                if not nested:
                    raise CircuitParseError("unbalanced '}' in circuit text")
                return gates, pos + 1
            toks = line.split()
            kind = toks[0].upper()
            try:
                if kind == "H" and len(toks) == 2:
                    gates.append(("H", (_parse_qubit(toks[1]),), None, None))
                elif kind == "CNOT" and len(toks) == 3:
                    gates.append(("CNOT", (_parse_qubit(toks[1]), _parse_qubit(toks[2])), None, None))
                elif kind in ("PHASE", "ROT") and len(toks) == 3:
                    gates.append((kind, (_parse_qubit(toks[1]),), float(toks[2]), None))
                elif kind == "CTRL0" and line.endswith("{"):
                    inside = line[line.index("[") + 1 : line.index("]")]
                    controls = tuple(_parse_qubit(t) for t in inside.split())
                    inner, pos = parse_block(pos + 1, nested=True)
                    gates.append(("CTRL0", controls, None, inner))
                    continue
                else:
                    raise CircuitParseError(f"cannot parse line {line!r}")
            except (ValueError, IndexError) as exc:
                raise CircuitParseError(f"cannot parse line {line!r}: {exc}") from exc
            pos += 1
        if nested:
            raise CircuitParseError("missing '}' in circuit text")
        return gates, pos

    raw_gates, pos = parse_block(0, nested=False)
    if pos != len(lines):
        raise CircuitParseError("unbalanced '}' in circuit text")

    def max_qubit(items) -> int:
        hi = -1
        for kind, qubits, _, inner in items:
            hi = max(hi, *qubits)
            if inner is not None:
                hi = max(hi, max_qubit(inner))
        return hi

    width = n_qubits if n_qubits is not None else max_qubit(raw_gates) + 1
    if width < 1:
        raise CircuitParseError("empty circuit needs an explicit qubit count")

    def build(items) -> tuple[Gate, ...]:
        out = []
        for kind, qubits, angle, inner in items:
            if kind == "CTRL0":
                out.append(Gate("CTRL0", qubits, inner=Circuit(width, build(inner))))
            else:
                out.append(Gate(kind, qubits, angle=angle))
        return tuple(out)

    try:
        return Circuit(width, build(raw_gates))
    except ContractViolation as exc:
        raise CircuitParseError(str(exc)) from exc


def _gate_matrix(g: Gate, n: int) -> np.ndarray:
    if g.kind == "H":
        return _embed_single(n, g.qubits[0], _HADAMARD)
    if g.kind == "PHASE":
        return _embed_single(n, g.qubits[0], np.diag([1.0, np.exp(-1j * g.angle)]))
    if g.kind == "ROT":
        c, s = math.cos(g.angle), math.sin(g.angle)
        return _embed_single(n, g.qubits[0], np.array([[c, s], [s, -c]], dtype=complex))
    if g.kind == "CNOT":
        return _cnot_matrix(n, *g.qubits)
    # CTRL0: inner commutes with the control projector (it never acts on a
    # control), so I + (U_inner - I) @ P0 is unitary.
    dim = 2**n
    inner = circuit_to_matrix(g.inner)
    mask = np.ones(dim)
    for q in g.qubits:
        bit = 1 << (n - 1 - q)
        mask *= np.array([(x & bit) == 0 for x in range(dim)], dtype=float)
    return np.eye(dim, dtype=complex) + (inner - np.eye(dim)) * mask[np.newaxis, :]


def circuit_to_matrix(c: Circuit) -> np.ndarray:
    """Dense unitary of the circuit, first listed gate applied first."""
    m = np.eye(2**c.n_qubits, dtype=complex)
    for g in c.gates:
        m = _gate_matrix(g, c.n_qubits) @ m
    return m


def build_bidder_circuit(bid: BidSpec | str) -> Circuit:
    """H on the lowest-index set bit, then CNOT fan-out to the other set bits."""
    bid = as_bid(bid)
    set_bits = [q for q, ch in enumerate(bid.bits) if ch == "1"]
    gates = [hadamard(set_bits[0])]
    gates += [cnot(set_bits[0], q) for q in set_bits[1:]]
    return Circuit(bid.n_qubits, tuple(gates))


def build_D_circuit(delta: float, f: float, n_qubits: int) -> Circuit:
    """Mixing phases exp(-i*delta*f*W) as one PHASE(q, f*delta) per qubit."""
    if n_qubits < 1:
        raise ContractViolation("need at least one qubit")
    return Circuit(n_qubits, tuple(phase(q, f * delta) for q in range(n_qubits)))


def build_zz_exponential(qubits, theta: float, n_qubits: int | None = None) -> Circuit:
    """exp(i*theta * Z x ... x Z on `qubits`), up to a global phase.

    CNOT ladder folds the parity of the subset onto its last qubit, a
    single PHASE(last, 2*theta) applies the parity-dependent phase, and the
    ladder unwinds.
    """
    qs = sorted(set(int(q) for q in qubits))
    if not qs:
        raise ContractViolation("need a nonempty qubit subset")
    width = n_qubits if n_qubits is not None else qs[-1] + 1
    ladder = [cnot(qs[i], qs[i + 1]) for i in range(len(qs) - 1)]
    gates = ladder + [phase(qs[-1], 2 * theta)] + ladder[::-1]
    return Circuit(width, tuple(gates))


def build_P_circuit(expansion, delta: float, f: float, n_qubits: int) -> Circuit:
    """Payoff phases exp(-i*delta*f*H_p) from a Pauli-Z expansion.

    All terms are commuting diagonals, so the concatenation is exactly the
    dense exponential up to the global phase of the dropped constant term.
    """
    c = Circuit(n_qubits)
    for qubits, coeff in expansion:
        if not qubits:
            continue  # constant term: global phase only
        c = c.then(build_zz_exponential(qubits, -f * delta * coeff, n_qubits))
    return c


def build_collusion_circuit(bid1: BidSpec | str, bid2: BidSpec | str,
                            keep_amplitude: tuple[float, float] = (math.sqrt(2 / 3), math.sqrt(1 / 3)),
                            ) -> Circuit:
    """Joint two-bidder operator U_c that removes the double-nonzero state.

    Let lead1 be bidder 1's first set qubit and lead2 = 2 + bidder 2's
    first set qubit, with e1, e2 the one-hot registers on those qubits.
    The circuit applies CTRL0[lead2]{ROT lead1 atan2(b, a)}, then
    CTRL0[lead1]{H lead2}, then each bidder's CNOT fan-out from its lead
    qubit (which maps e_i onto b_i). On |0000> the output is
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
    a, b = keep_amplitude
    if not (a > 0 and b > 0) or abs(a * a + b * b - 1.0) > 1e-9:
        raise ContractViolation("keep_amplitude must be positive and normalized")
    n = 4

    def lead_and_fan_out(bid: BidSpec, offset: int):
        h, *fan_out = build_bidder_circuit(bid).gates
        return h.qubits[0] + offset, [cnot(*(q + offset for q in g.qubits)) for g in fan_out]

    lead1, fan_out1 = lead_and_fan_out(bid1, 0)
    lead2, fan_out2 = lead_and_fan_out(bid2, 2)
    gates = [zero_controlled((lead2,), Circuit(n, (rotation(lead1, math.atan2(b, a)),))),
             zero_controlled((lead1,), Circuit(n, (hadamard(lead2),)))]
    return Circuit(n, tuple(gates + fan_out1 + fan_out2))


@dataclass(frozen=True)
class VerificationReport:
    distance: float
    passed: bool
    tolerance: float = 1e-8


def verify_circuit(c: Circuit, target: np.ndarray, tolerance: float = 1e-8) -> VerificationReport:
    """Compare the circuit's unitary with a target up to global phase."""
    target = np.asarray(target, dtype=complex)
    extracted = circuit_to_matrix(c)
    if extracted.shape != target.shape:
        raise ContractViolation(
            f"dimension mismatch: circuit gives {extracted.shape}, target is {target.shape}")
    d = phase_invariant_distance(extracted, target)
    return VerificationReport(distance=d, passed=d <= tolerance, tolerance=tolerance)
