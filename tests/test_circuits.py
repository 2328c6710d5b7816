import itertools
import math
import tracemalloc

import numpy as np
import pytest
from helpers import dense_run, kron_circuit_matrix

from qauction.circuits import (
    KINDS,
    Circuit,
    CircuitParseError,
    Gate,
    build_bidder_circuit,
    build_collusion_circuit,
    build_D_circuit,
    build_P_circuit,
    build_zz_exponential,
    circuit_to_matrix,
    cnot,
    hadamard,
    parse_circuit,
    phase,
    rotation,
    verify_circuit,
    zero_controlled,
)
from qauction.core import ContractViolation, is_unitary, phase_invariant_distance
from qauction.protocol import (
    AdiabaticSchedule,
    AuctionConfig,
    build_first_price_table,
    hamming_weights,
    joint_bidding_operator,
    pauli_z_expansion,
)

U2 = np.array([[1, 0, 1, 0], [0, 1, 0, 1], [1, 0, -1, 0], [0, 1, 0, -1]]) / math.sqrt(2)
U3 = np.array([[1, 0, 1, 0], [0, 1, 0, 1], [0, 1, 0, -1], [1, 0, -1, 0]]) / math.sqrt(2)


class TestCircuitToMatrix:
    def test_empty_circuit(self):
        np.testing.assert_allclose(circuit_to_matrix(Circuit(2)), np.eye(4))

    def test_hadamard_cnot_gives_entangler(self):
        c = Circuit(2, (hadamard(0), cnot(0, 1)))
        np.testing.assert_allclose(circuit_to_matrix(c), U3, atol=1e-12)

    def test_single_hadamard_on_msb(self):
        c = Circuit(2, (hadamard(0),))
        np.testing.assert_allclose(circuit_to_matrix(c), U2, atol=1e-12)

    def test_gate_validation(self):
        with pytest.raises(ContractViolation):
            Circuit(2, (cnot(0, 0),))
        with pytest.raises(ContractViolation):
            Circuit(2, (hadamard(2),))
        with pytest.raises(ContractViolation):
            Circuit(2, (Gate("PHASE", (0,)),))

    @pytest.mark.parametrize("gate", [phase, rotation])
    @pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_angle(self, gate, angle):
        with pytest.raises(ContractViolation, match="finite"):
            Circuit(1, (gate(0, angle),))
        with pytest.raises(CircuitParseError, match="finite"):
            parse_circuit(f"{gate(0, 0.5).kind} q0 {angle}")

    def test_zero_controlled_identity_when_control_set(self):
        inner = Circuit(3, (hadamard(1), cnot(1, 2)))
        gate = zero_controlled((0,), inner)
        m = circuit_to_matrix(Circuit(3, (gate,)))
        for x in range(4, 8):  # control qubit 0 is |1>
            col = np.zeros(8)
            col[x] = 1.0
            np.testing.assert_allclose(m[:, x].real, col, atol=1e-12)

    def test_zero_controlled_rejects_inner_on_control(self):
        inner = Circuit(2, (hadamard(0),))
        with pytest.raises(ContractViolation):
            Circuit(2, (zero_controlled((0,), inner),))


def _random_gates(rng, n: int, depth: int, controls=frozenset()) -> tuple:
    """`depth` gates on n qubits, every kind once per five, none acting on
    `controls`; a CTRL0 holds a random circuit of half the depth."""
    free = [q for q in range(n) if q not in controls]
    gates = []
    for kind in rng.permutation(np.resize(KINDS, depth)):
        q = int(rng.choice(free))
        if kind == "CNOT" and n > 1:
            gates.append(cnot(int(rng.choice([c for c in range(n) if c != q])), q))
        elif kind == "CTRL0" and len(free) > 1:
            ctrl = rng.choice(free, size=int(rng.integers(1, len(free))), replace=False)
            ctrl = tuple(int(c) for c in ctrl)
            inner = _random_gates(rng, n, depth // 2, controls | set(ctrl))
            gates.append(zero_controlled(ctrl, Circuit(n, inner)))
        elif kind in ("PHASE", "ROT"):
            gate = phase if kind == "PHASE" else rotation
            gates.append(gate(q, float(rng.uniform(-3, 3))))
        else:
            gates.append(hadamard(q))
    return tuple(gates)


class TestAgainstKroneckerProducts:
    """The tensor construction equals the product of one embedded 2^n x 2^n
    matrix per gate (the reference in tests/helpers.py)."""

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("seed", range(4))
    def test_random_circuits(self, n, seed):
        c = Circuit(n, _random_gates(np.random.default_rng([n, seed]), n, 10))
        assert np.max(np.abs(circuit_to_matrix(c) - kron_circuit_matrix(c))) <= 1e-14

    def test_random_circuits_nest_every_kind(self):
        c = Circuit(4, _random_gates(np.random.default_rng(0), 4, 10))
        nested = [g.inner for g in c.gates if g.kind == "CTRL0"]
        assert {g.kind for g in c.gates} == set(KINDS)
        assert any(g.kind == "CTRL0" for inner in nested for g in inner.gates)

    @pytest.mark.parametrize("circuit", [
        build_bidder_circuit("1011"), build_D_circuit(1.5, 0.3, 6), build_collusion_circuit("10", "11"),
        build_P_circuit(pauli_z_expansion(build_first_price_table(AuctionConfig(m=2, p=2))), 1, 0.5, 4),
    ], ids=["bidder", "D", "collusion", "P"])
    def test_protocol_circuits_bit_identical(self, circuit):
        assert np.array_equal(circuit_to_matrix(circuit), kron_circuit_matrix(circuit))


class TestBidderCircuits:
    def test_gate_sequences(self):
        c = build_bidder_circuit("11")
        assert [(g.kind, g.qubits) for g in c.gates] == [("H", (0,)), ("CNOT", (0, 1))]
        c6 = build_bidder_circuit("010101")
        assert [(g.kind, g.qubits) for g in c6.gates] == [
            ("H", (1,)), ("CNOT", (1, 3)), ("CNOT", (1, 5))]
        c1 = build_bidder_circuit("1")
        assert [(g.kind, g.qubits) for g in c1.gates] == [("H", (0,))]

    @pytest.mark.parametrize("bits", ["01", "10", "11", "010101", "1"])
    def test_matches_dense_operator(self, bits):
        from qauction.protocol import bidding_operator
        np.testing.assert_allclose(circuit_to_matrix(build_bidder_circuit(bits)),
                                   bidding_operator(bits), atol=1e-12)

    def test_rejects_zero_bid(self):
        with pytest.raises(ContractViolation):
            build_bidder_circuit("000")


class TestDCircuit:
    def test_hamming_phases(self):
        delta, f = 0.9, 0.7
        m = circuit_to_matrix(build_D_circuit(delta, f, 4))
        weights = hamming_weights(4)
        np.testing.assert_allclose(m, np.diag(np.exp(-1j * delta * f * weights)), atol=1e-12)

    def test_zero_interpolation_is_identity(self):
        np.testing.assert_allclose(circuit_to_matrix(build_D_circuit(1.3, 0.0, 3)),
                                   np.eye(8), atol=1e-12)

    def test_single_qubit_pi(self):
        m = circuit_to_matrix(build_D_circuit(math.pi, 1.0, 1))
        np.testing.assert_allclose(m, np.diag([1, -1]), atol=1e-12)


def _zz_target(qubits, theta, n):
    signs = np.empty(2**n)
    for x in range(2**n):
        parity = bin(x & sum(1 << (n - 1 - q) for q in qubits)).count("1") % 2
        signs[x] = -1.0 if parity else 1.0
    return np.diag(np.exp(1j * theta * signs))


class TestZZExponential:
    def test_single_qubit(self):
        c = build_zz_exponential({0}, 0.4, n_qubits=1)
        assert phase_invariant_distance(circuit_to_matrix(c), _zz_target([0], 0.4, 1)) <= 1e-12

    def test_three_qubit_weight(self):
        theta = 1.5
        c = build_zz_exponential({0, 1, 2}, theta)
        assert phase_invariant_distance(circuit_to_matrix(c), _zz_target([0, 1, 2], theta, 3)) <= 1e-10

    def test_parity_pattern_at_right_angle(self):
        c = build_zz_exponential({0, 1}, math.pi / 2, n_qubits=2)
        got = circuit_to_matrix(c)
        assert phase_invariant_distance(got, np.diag([1j, -1j, -1j, 1j])) <= 1e-12

    def test_rejects_empty_subset(self):
        with pytest.raises(ContractViolation):
            build_zz_exponential(set(), 1.0, n_qubits=2)


class TestPCircuit:
    def test_matches_dense_exponential(self):
        table = build_first_price_table(AuctionConfig(m=2, p=2))
        expansion = pauli_z_expansion(table)
        for delta, f in ((1.5, 0.35), (1.0, 1.0)):
            c = build_P_circuit(expansion, delta, f, 4)
            target = np.diag(np.exp(-1j * delta * f * (-table.values)))
            assert phase_invariant_distance(circuit_to_matrix(c), target) <= 1e-9

    def test_empty_expansion(self):
        np.testing.assert_allclose(circuit_to_matrix(build_P_circuit([], 1.0, 0.5, 2)),
                                   np.eye(4), atol=1e-12)

    def test_single_term(self):
        c = build_P_circuit([((0,), 1.0)], 0.3, 1.0, 1)
        target = np.diag([np.exp(-0.3j), np.exp(0.3j)])  # exp(-i*0.3*Z)
        assert phase_invariant_distance(circuit_to_matrix(c), target) <= 1e-12


class TestCollusionCircuit:
    def test_output_amplitudes(self):
        m = circuit_to_matrix(build_collusion_circuit("10", "11"))
        out = m[:, 0]
        assert abs(out[0b1011]) <= 1e-12
        for idx in (0b0000, 0b0011, 0b1000):
            assert abs(out[idx]) == pytest.approx(1 / math.sqrt(3), abs=1e-12)
        assert abs(np.linalg.norm(out) - 1) <= 1e-12

    @pytest.mark.parametrize("b1,b2", [("10", "11"), ("01", "11"), ("11", "10"), ("11", "01"),
                                       ("01", "10"), ("10", "01")])
    def test_unitary_and_revealing_suppressed(self, b1, b2):
        m = circuit_to_matrix(build_collusion_circuit(b1, b2))
        assert np.max(np.abs(m.conj().T @ m - np.eye(16))) <= 1e-10
        reveal = (int(b1, 2) << 2) | int(b2, 2)
        assert abs(m[reveal, 0]) <= 1e-12

    @pytest.mark.parametrize("b1,b2", list(itertools.permutations(["01", "10", "11"], 2)))
    def test_lead_columns_land_in_kept_span(self, b1, b2):
        # U_c maps span{|0000>, |00 e2>, |e1 00>} (e_i: bidder i's lead qubit
        # alone) onto the kept span, which is what keeps the mixer inside it
        m = circuit_to_matrix(build_collusion_circuit(b1, b2))
        e1 = 1 << (3 - b1.index("1"))
        e2 = 1 << (1 - b2.index("1"))
        outside = np.ones(16, dtype=bool)
        outside[[0, int(b2, 2), int(b1, 2) << 2]] = False
        for col in (0, e2, e1):
            assert np.max(np.abs(m[outside, col])) <= 1e-12

    def test_rejects_wide_bids(self):
        with pytest.raises(ContractViolation):
            build_collusion_circuit("100", "011")

    def test_rejects_unnormalized_amplitudes(self):
        with pytest.raises(ContractViolation):
            build_collusion_circuit("10", "11", keep_amplitude=(0.9, 0.9))


class TestVerifyCircuit:
    def test_pass_on_reference_matrix(self):
        report = verify_circuit(build_bidder_circuit("11"), U3)
        assert report.passed and report.distance <= 1e-12

    def test_pass_on_mixing_phases(self):
        weights = hamming_weights(3)
        target = np.diag(np.exp(-1j * 0.8 * 0.25 * weights))
        assert verify_circuit(build_D_circuit(0.8, 0.25, 3), target).passed

    def test_fail_on_wrong_bid(self):
        report = verify_circuit(build_bidder_circuit("01"), U2)
        assert not report.passed

    def test_dimension_mismatch(self):
        with pytest.raises(ContractViolation):
            verify_circuit(build_bidder_circuit("1"), U2)
        with pytest.raises(ContractViolation):
            verify_circuit(build_D_circuit(0.8, 0.25, 3), np.ones(4))

    @pytest.mark.parametrize("circuit", [build_D_circuit(0.8, 0.25, 3), Circuit(3, (hadamard(1),)),
                                         Circuit(3, (phase(0, 0.2), phase(2, 0.2)))],
                             ids=["match", "off_diagonal", "wrong_phases"])
    def test_diagonal_target_as_its_diagonal(self, circuit):
        diagonal = np.exp(-1j * 0.8 * 0.25 * hamming_weights(3))
        report, dense = verify_circuit(circuit, diagonal), verify_circuit(circuit, np.diag(diagonal))
        assert report.passed == dense.passed
        assert report.distance == pytest.approx(dense.distance, rel=0, abs=1e-15)

    def test_phase_gates_scale_in_place(self):
        # a PHASE gate rescales half the entries where they are: no full-size copy
        tracemalloc.start()
        try:
            u = circuit_to_matrix(build_D_circuit(1.5, 0.3, 10))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * u.nbytes
        weights = hamming_weights(10)
        np.testing.assert_allclose(u, np.diag(np.exp(-1j * 0.45 * weights)), rtol=0, atol=1e-14)


class TestBuildersAreUnitary:
    def test_all_extractions_unitary(self):
        table = build_first_price_table(AuctionConfig(m=2, p=2))
        circuits = [
            build_bidder_circuit("11"),
            build_bidder_circuit("010101"),
            build_D_circuit(1.5, 0.3, 4),
            build_zz_exponential({0, 2, 3}, 0.7),
            build_P_circuit(pauli_z_expansion(table), 1.5, 0.6, 4),
            build_collusion_circuit("10", "11"),
        ]
        for c in circuits:
            assert is_unitary(circuit_to_matrix(c), 1e-9)


class TestFullIterationFromCircuits:
    def test_matches_dense_step_on_grid(self):
        table = build_first_price_table(AuctionConfig(m=2, p=2))
        expansion = pauli_z_expansion(table)
        u = joint_bidding_operator(["10", "11"])

        bidder_gates = tuple(build_bidder_circuit("10").gates) + tuple(
            Gate(g.kind, tuple(q + 2 for q in g.qubits), g.angle)
            for g in build_bidder_circuit("11").gates)
        forward = Circuit(4, bidder_gates)
        # H and CNOT are involutions, so the reversed gate list inverts the circuit
        backward = Circuit(4, bidder_gates[::-1])

        steps, delta = 20, 1.5
        w_diag = hamming_weights(4)
        hp_diag = -table.values
        for s in range(1, steps + 1):
            f = s / steps
            iteration = (build_P_circuit(expansion, delta, f, 4)
                         .then(backward)
                         .then(build_D_circuit(delta, 1 - f, 4))
                         .then(forward))
            dense_op = (u @ np.diag(np.exp(-1j * delta * (1 - f) * w_diag)) @ u.conj().T
                        @ np.diag(np.exp(-1j * delta * f * hp_diag)))
            # the dropped constant expansion term only shifts the global phase
            assert phase_invariant_distance(circuit_to_matrix(iteration), dense_op) <= 1e-8
        state = dense_run(u, None, table, AdiabaticSchedule(steps, delta, "zeroth"))[-1]
        assert abs(abs(state[0b0011]) ** 2 - 0.9730152304309398) <= 1e-9


class TestTextFormat:
    def test_roundtrip_simple(self):
        c = Circuit(2, (hadamard(0), cnot(0, 1), phase(1, 0.125), rotation(0, 0.3344)))
        parsed = parse_circuit(c.to_text())
        np.testing.assert_allclose(circuit_to_matrix(parsed), circuit_to_matrix(c), atol=1e-15)

    def test_roundtrip_nested(self):
        c = build_collusion_circuit("11", "10")
        parsed = parse_circuit(c.to_text(), n_qubits=4)
        np.testing.assert_allclose(circuit_to_matrix(parsed), circuit_to_matrix(c), atol=1e-15)

    def test_comments_and_blanks(self):
        text = "# bidder three\nH q0  # hadamard\n\nCNOT q0 q1\n"
        parsed = parse_circuit(text)
        np.testing.assert_allclose(circuit_to_matrix(parsed), U3, atol=1e-12)

    def test_parse_errors(self):
        with pytest.raises(CircuitParseError):
            parse_circuit("HADAMARD 0")
        with pytest.raises(CircuitParseError):
            parse_circuit("PHASE q0 notanumber")
        with pytest.raises(CircuitParseError):
            parse_circuit("CTRL0 [q0] {\nH q1\n")  # missing closing brace
        with pytest.raises(CircuitParseError):
            parse_circuit("}")

    def test_empty_needs_width(self):
        with pytest.raises(CircuitParseError):
            parse_circuit("")
        assert parse_circuit("", n_qubits=2).n_qubits == 2

    @pytest.mark.parametrize("seed", range(6))
    def test_random_circuit_roundtrip(self, seed):
        rng = np.random.default_rng(seed)
        n = 3
        gates = []
        for _ in range(12):
            kind = rng.choice(["H", "CNOT", "PHASE", "ROT", "CTRL0"])
            q = int(rng.integers(n))
            if kind == "H":
                gates.append(hadamard(q))
            elif kind == "CNOT":
                t = int((q + 1 + rng.integers(n - 1)) % n)
                gates.append(cnot(q, t))
            elif kind in ("PHASE", "ROT"):
                gate = phase if kind == "PHASE" else rotation
                gates.append(gate(q, float(rng.uniform(-3, 3))))
            else:
                target = int((q + 1 + rng.integers(n - 1)) % n)
                inner = Circuit(n, (rotation(target, float(rng.uniform(-3, 3))),))
                gates.append(zero_controlled((q,), inner))
        c = Circuit(n, tuple(gates))
        parsed = parse_circuit(c.to_text(), n_qubits=n)
        np.testing.assert_allclose(circuit_to_matrix(parsed), circuit_to_matrix(c),
                                   atol=1e-14)
